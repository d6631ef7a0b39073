"""Command-line interface.

Exit codes: 0 success, else the error type's ``exit_code`` (an I/O failure
exits with ``ReportFormatError``'s). Worker count is taken from
REGRET_AUDIT_THREADS (0 = one per CPU; unset = serial).
"""

from __future__ import annotations

from dataclasses import replace

import click

from .errors import AuditError, InvalidConfigError, ReportFormatError
from .estimators import DEFAULT_EVAL_BUDGET, GRID_STYLES, METHOD_PGA, GridSpec
from .harness import (
    RUN_METHODS,
    AuditRunConfig,
    run_audit,
    run_sweep,
)
from .mechanisms import BUILTIN_MECHANISMS, AuctionSetting, generate_neural_spec, write_neural_spec
from .optimizer import PGA_PRESETS, PORTFOLIO_PRESETS, PgaConfig, PortfolioConfig
from .sampling import (
    KIND_CONTEXTUAL,
    KIND_UNIFORM,
    ValuationDistribution,
    random_contexts,
)

_DIST_CHOICES = {"uniform01": KIND_UNIFORM, "ctxnormal": KIND_CONTEXTUAL}


class _CliError(click.ClickException):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _run_guarded(fn):
    try:
        fn()
    except AuditError as exc:
        raise _CliError(str(exc), exc.exit_code)
    except OSError as exc:
        raise _CliError(f"I/O failure: {exc}", ReportFormatError.exit_code)


def _parse_int_csv(text: str, what: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise InvalidConfigError(
            f"{what} must be a comma-separated list of integers, got {text!r}")


def _build_distribution(dist, x_contexts, y_contexts, std, bidders, items, seed):
    kind = _DIST_CHOICES[dist]
    if kind == KIND_UNIFORM:
        if (x_contexts, y_contexts, std) != (None, None, None):
            raise InvalidConfigError("--x-contexts, --y-contexts and --std need --dist ctxnormal")
        return ValuationDistribution(kind=kind)
    x = _parse_int_csv(x_contexts, "--x-contexts") if x_contexts else random_contexts(bidders, seed, stream=0)
    y = _parse_int_csv(y_contexts, "--y-contexts") if y_contexts else random_contexts(items, seed, stream=1)
    return _override(ValuationDistribution(kind=kind, x_contexts=x, y_contexts=y), std=std)


def _override(base, **flags):
    """``base`` with every flag the user gave (not None) replacing its field."""
    return replace(base, **{name: value for name, value in flags.items() if value is not None})


def _build_config(mechanism, bidders, items, dist, x_contexts, y_contexts, std, preset, gamma,
                  samples, seed, big_l=None, big_r=None, k=None, sigma_opt=None,
                  sigma_truth=None, **fields) -> AuditRunConfig:
    """The config of both commands' flags; ``fields`` are the rest, set by the command."""
    pga = _override(PGA_PRESETS.get(preset, PgaConfig(gamma=0.1, big_l=50, big_r=200)),
                    gamma=gamma, big_l=big_l, big_r=big_r)
    portfolio = _override(PORTFOLIO_PRESETS.get(preset, PortfolioConfig()),
                          k=k, sigma_opt=sigma_opt, sigma_truth=sigma_truth,
                          refine=PgaConfig(gamma=pga.gamma, big_l=1, big_r=pga.big_r))
    return AuditRunConfig(
        setting=AuctionSetting(bidders, items),
        mechanism=mechanism,
        distribution=_build_distribution(dist, x_contexts, y_contexts, std,
                                         bidders, items, seed),
        pga=pga,
        portfolio=portfolio,
        samples=samples,
        seed=seed,
        **fields,
    )


def _options(*options):
    """Apply click options so that --help lists them in the given order."""
    def apply(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return apply


#: the options both commands read
_SHARED_OPTIONS = (
    click.option("--mechanism", required=True,
                 help=f"Builtin name ({', '.join(BUILTIN_MECHANISMS)}) or mechanism spec JSON path."),
    click.option("--bidders", type=int, required=True, help="Number of bidders."),
    click.option("--items", type=int, required=True, help="Number of items."),
    click.option("--dist", type=click.Choice(sorted(_DIST_CHOICES)), default="uniform01",
                 show_default=True, help="Valuation distribution."),
    click.option("--x-contexts", default=None,
                 help="Comma-separated bidder contexts in 1..10 (ctxnormal only)."),
    click.option("--y-contexts", default=None,
                 help="Comma-separated item contexts in 1..10 (ctxnormal only)."),
    click.option("--std", type=float, default=None,
                 help="Std of the contextual truncated normal (ctxnormal only).  [default: 0.05]"),
    click.option("--preset", type=click.Choice(sorted(PGA_PRESETS)), default=None,
                 help="Named optimizer preset; explicit flags override."),
    click.option("--gamma", type=float, default=None, help="Ascent step size."),
    click.option("--samples", type=int, default=1000, show_default=True),
    click.option("--seed", type=int, default=0, show_default=True),
    click.option("--out", required=True, type=click.Path(dir_okay=False),
                 help="Output path."),
)

#: the options only eval reads: sweep runs pga alone, with L and R from its lists
_EVAL_OPTIONS = (
    click.option("--grid-q", type=int, default=1000, show_default=True,
                 help="Grid subdivisions of [0, 1]."),
    click.option("--grid-style", type=click.Choice(GRID_STYLES), default="inclusive",
                 show_default=True),
    click.option("--guided-grid-q", type=int, default=None,
                 help="Separate grid precision for the guided grid phase."),
    click.option("--L", "big_l", type=int, default=None, help="Random restarts."),
    click.option("--R", "big_r", type=int, default=None, help="Ascent steps per candidate."),
    click.option("--k", type=int, default=None, help="Randomized portfolio group size."),
    click.option("--sigma-opt", type=float, default=None,
                 help="Noise scale around the combinatorial candidate."),
    click.option("--sigma-truth", type=float, default=None,
                 help="Noise scale around the truthful row."),
    click.option("--max-grid-evals", type=int, default=DEFAULT_EVAL_BUDGET, show_default=True,
                 help="Budget for one grid scan, exhaustive or item-wise."),
    click.option("--methods", default="lower_bound,item_wise,guided", show_default=True,
                 help=f"Comma-separated subset of {', '.join(RUN_METHODS)}."),
)


@click.group()
def cli():
    """Audit incentive compatibility of auction mechanisms via ex-post regret."""


@cli.command("eval")
@_options(*_SHARED_OPTIONS, *_EVAL_OPTIONS)
def eval_cmd(grid_q, grid_style, guided_grid_q, methods, out, **kwargs):
    """Run a regret audit and write a JSON report."""
    def body():
        cfg = _build_config(
            grid=GridSpec(grid_q, grid_style),
            guided_grid=None if guided_grid_q is None else GridSpec(guided_grid_q, grid_style),
            methods=tuple(tok.strip() for tok in methods.split(",") if tok.strip()),
            out=out, **kwargs)
        report = run_audit(cfg)
        for method, mean in report.method_means.items():
            click.echo(f"{method}: mean regret {mean:.6g}")
        click.echo(f"report written to {out}")
    _run_guarded(body)


@cli.command("sweep")
@_options(*_SHARED_OPTIONS,
          click.option("--l-values", required=True, help="Comma-separated restart counts."),
          click.option("--r-values", required=True, help="Comma-separated step counts."))
def sweep_cmd(l_values, r_values, out, **kwargs):
    """Sweep (L, R) optimizer settings over paired samples; write CSV."""
    def body():
        cfg = _build_config(grid=GridSpec(1), methods=(METHOD_PGA,), **kwargs)  # pga reads no grid
        rows = run_sweep(cfg, _parse_int_csv(l_values, "--l-values"),
                         _parse_int_csv(r_values, "--r-values"), out=out)
        for row in rows:
            click.echo(f"L={row['L']} R={row['R']} mean_regret={row['mean_regret']:.6g}")
        click.echo(f"sweep written to {out}")
    _run_guarded(body)


@cli.command("gen-mech")
@click.option("--bidders", type=int, required=True)
@click.option("--items", type=int, required=True)
@click.option("--hidden", type=int, default=16, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def gen_mech_cmd(bidders, items, hidden, seed, out):
    """Generate a seeded feedforward mechanism spec file."""
    def body():
        spec = generate_neural_spec(AuctionSetting(bidders, items), hidden, seed)
        write_neural_spec(spec, out)
        click.echo(f"mechanism spec written to {out}")
    _run_guarded(body)


def main():
    cli(prog_name="regret-audit")


if __name__ == "__main__":
    main()
