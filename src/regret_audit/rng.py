"""Deterministic, platform-independent random streams.

Every random draw in the package comes from a PCG64 generator keyed by a
64-bit user seed plus an integer path (a stream tag followed by indices),
realised through numpy's SeedSequence spawn keys. The same seed and path
always yield the same stream, independently of how many other streams were
consumed, which machine runs the code, or how work is split across workers.

Streams in use:

* ``STREAM_VALUATION, sample_index`` - one valuation profile per sample.
* ``STREAM_CONTEXT`` - context draws for the contextual distribution.
* ``STREAM_WEIGHTS`` - weight generation for seeded neural mechanisms.
* ``STREAM_SEARCH, sample_index, bidder`` - derives the per-(sample, bidder)
  seed handed to the misreport search.
* ``STREAM_CANDIDATE, candidate_index`` - one stream per random restart, so
  the first L starts coincide for any number of restarts >= L.
* ``STREAM_PERTURB_OPT / STREAM_PERTURB_TRUTH / STREAM_GLOBAL_RANDOM,
  candidate_index`` - portfolio perturbations and uniform fallbacks.
"""

from __future__ import annotations

import numpy as np

from .errors import check_int

STREAM_VALUATION = 1
STREAM_CONTEXT = 2
STREAM_WEIGHTS = 3
STREAM_SEARCH = 4
STREAM_CANDIDATE = 5
STREAM_PERTURB_OPT = 6
STREAM_PERTURB_TRUTH = 7
STREAM_GLOBAL_RANDOM = 8


def spawn_generator(seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for ``seed`` at the given stream path."""
    check_int(seed, "seed", 0)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child 64-bit seed; used to hand sub-searches their own root."""
    check_int(seed, "seed", 0)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
