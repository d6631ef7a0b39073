"""Set-up probe: times what an audit does before ``run_audit``.

Usage: python3 probe.py '<workload as JSON>' <seed> <work dir>

For each line read from stdin it starts a fresh interpreter (``--once``)
that imports the package, reads the mechanism spec and builds the config, as
an audit does before ``run_audit``. It answers with the seconds from
starting that interpreter to the config being built, and with the mean time
of the reference interpreter (hostspeed.INTERPRETER) started just before
and just after it. It exits at the end of its input.

The benchmark starts one such server before it audits and stops it after
reading its own peak memory. The timed interpreters are the server's
children, so they never count towards the children's peak that
``peak_rss_mb`` reads for the pool workers.
"""

import json
import subprocess
import sys
import time

from checkout import use_checkout_source


def once(fields: str, seed: str, work_dir: str) -> None:
    """One set-up, then CLOCK_MONOTONIC in nanoseconds on stdout."""
    use_checkout_source()
    import workloads  # imports the package, which only the timed interpreter may

    workloads.build_config(workloads.Workload(**json.loads(fields)), int(seed), work_dir)
    print(time.monotonic_ns())


def serve(args) -> None:
    from hostspeed import INTERPRETER  # here, so that --once set-ups do not time it

    def time_reference() -> float:
        start = time.monotonic_ns()
        subprocess.run(INTERPRETER, capture_output=True, timeout=120, check=True)
        return (time.monotonic_ns() - start) / 1e9

    argv = [sys.executable, __file__, "--once", *args]
    time_reference()  # the first start is slower than later ones
    last = time_reference()
    for _ in sys.stdin:
        start = time.monotonic_ns()
        out = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        setup = (int(out.stdout.split()[-1]) - start) / 1e9
        before, last = last, time_reference()
        print(setup, (before + last) / 2, flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "--once":
        once(*sys.argv[2:])
    else:
        serve(sys.argv[1:])
