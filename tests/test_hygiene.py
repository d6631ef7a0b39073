"""Source hygiene: every name a package module imports is used there, no
package module asserts, computes with BLAS or drops the result of a mechanism
evaluation, every name the benchmark tracer binds exists, every number a
config type, record type or entry takes goes through ``check_int`` or
``check_float``, every field and entry argument of a package type has its
type checked, and every typed error that no other test reaches is raised
where it should be."""

import ast
import dataclasses
import importlib.util
import inspect
import math
import os
import typing
from pathlib import Path

import pytest

import regret_audit as ra
from regret_audit.harness import resolve_workers

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "regret_audit"
#: __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names imported in ``source`` and never referenced, skipping imports
    on lines marked ``# noqa`` (kept for code outside the module)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_unused_and_marked_imports():
    source = "import json\nimport os  # noqa: F401\nfrom typing import List\nx: List = []\n"
    assert unused_imports(source) == [(1, "json")]


def test_no_module_asserts():
    # python -O strips assert statements, and a check with them
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Assert)]
    assert asserts == []


#: numpy's BLAS-backed products; ``@`` is the operator form of matmul
BLAS_CALLS = {"dot", "vdot", "matmul", "einsum", "tensordot", "inner"}


def blas_uses(source: str):
    """Lines of ``source`` that compute with ``@`` or call a BLAS product, as a
    function (``np.dot``, an imported ``dot``) or a method (``x.dot``)."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in BLAS_CALLS:
                uses.append((node.lineno, name))
    return sorted(uses)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_computes_with_blas(path):
    # a BLAS product may block and round by the batch's size and alignment, so
    # a row's bits would follow its batch: restart nesting and reports equal
    # across worker counts rest on in-order sums
    assert blas_uses(path.read_text(encoding="utf-8")) == []


def test_check_sees_blas_products_and_not_notation():
    source = ('"""h = tanh(x @ W + b)"""\n'
              "y = a @ b\n"
              "y @= b\n"
              "z = np.dot(a, b) + a.dot(b)\n"
              "from numpy import einsum\n"
              "w = einsum('ij,jk', a, b) + np.multiply(a, b)\n")
    assert blas_uses(source) == [(2, "@"), (3, "@"), (4, "dot"), (4, "dot"), (6, "einsum")]


#: the mechanism entries and hooks, each of which evaluates (or charges) rows
MECHANISM_CALLS = {"run", "run_many", "_run_batch", "_forward", "_gradient_batch",
                   "utility_and_gradient_many", "_misreport_utilities", "_product_utilities",
                   "evaluate_misreports", "fd_gradient_rows", "_fd_utilities", "utility",
                   "utility_gradient"}


def discarded_evaluations(source: str):
    """Lines of ``source`` that call a mechanism entry or hook, as a function
    or a method, as a bare statement whose result is dropped."""
    return sorted(
        (node.lineno, name) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and (name := getattr(node.value.func, "attr", getattr(node.value.func, "id", None)))
        in MECHANISM_CALLS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_discards_an_evaluation(path):
    # an evaluation that a cost formula counts but no estimate reads is
    # charged with Mechanism._charge, not run; grid scans used to run the
    # off-grid truthful row and drop its utility
    assert discarded_evaluations(path.read_text(encoding="utf-8")) == []


def test_check_sees_discarded_evaluations_only():
    source = ("mech._misreport_utilities(profile, 0, rows, v)\n"
              "u = mech._misreport_utilities(profile, 0, rows, v)\n"
              "utility(mech, v, bids, 0)\n"
              "mech._charge(1)\n"
              "calls.append(mech.run_many(batch))\n")
    assert discarded_evaluations(source) == [(1, "_misreport_utilities"), (3, "utility")]


def marked_imports(source: str):
    """Names imported in ``source`` on lines marked ``# noqa``."""
    lines = source.splitlines()
    return {alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
            if "# noqa" in lines[alias.lineno - 1]}


def test_tracer_targets_resolve_and_explain_every_marked_import():
    # perfbench/tracer.py rebinds these names from outside the package; a
    # renamed one breaks --trace 1, and a marked import it no longer binds
    # is a shim left behind
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bound = set()
    for owner, attr, *_ in tracer.TARGETS:
        assert Path(inspect.getfile(owner)).parent == PACKAGE
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
        if inspect.ismodule(owner):
            bound.add((owner.__name__, attr))
    for path in sorted(PACKAGE.glob("*.py")):
        module = f"regret_audit.{path.stem}"
        for name in marked_imports(path.read_text(encoding="utf-8")):
            assert (module, name) in bound, f"{module}.{name} is imported for no tracer target"


SETTING = ra.AuctionSetting(2, 2)
PROFILE = [[0.3, 0.4], [0.2, 0.5]]
ESTIMATE = ra.RegretEstimate(ra.METHOD_EXHAUSTIVE, 0, 0.0, None, 1, 0.0)
RECORD = ra.AuditRecord(0, ESTIMATE)
SPEC = ra.generate_neural_spec(SETTING, 2, 0)
AUDIT_CONFIG = ra.AuditRunConfig(SETTING, "second_price", ra.ValuationDistribution(),
                                 ra.GridSpec(4), (ra.METHOD_EXHAUSTIVE,), ra.PgaConfig(0.1, 1, 1),
                                 ra.PortfolioConfig(), samples=1, seed=0)
#: one valid instance of each exported config and record type
VALID_INSTANCES = (
    SETTING,
    ra.GridSpec(4),
    ra.PgaConfig(0.1, 1, 1),
    ra.PortfolioConfig(),
    ra.ValuationDistribution(),
    AUDIT_CONFIG,
    ESTIMATE,
    RECORD,
    ra.AuditReport({}, [RECORD], 0.0),
    SPEC,
)
#: values every int or float field must refuse; a tuple-of-int field, each
#: bad int inside a tuple
BAD_NUMBERS = {"int": (math.nan, True, "x", 1.5, -1),
               "float": (math.nan, math.inf, True, "x", -1.0)}
BAD_NUMBERS["Optional[Tuple[int, ...]]"] = tuple((bad,) for bad in BAD_NUMBERS["int"])


def number_fields(cls):
    """(name, annotation) of each field of dataclass ``cls`` annotated as a
    ``BAD_NUMBERS`` key; the package's annotations are strings (``from
    __future__ import annotations``)."""
    return [(f.name, f.type) for f in dataclasses.fields(cls) if f.type in BAD_NUMBERS]


def test_every_exported_type_with_a_number_field_has_an_instance():
    exported = {obj for obj in vars(ra).values()
                if dataclasses.is_dataclass(obj) and isinstance(obj, type) and number_fields(obj)}
    assert exported == {type(obj) for obj in VALID_INSTANCES}


@pytest.mark.parametrize("obj,name,bad", [
    pytest.param(obj, name, bad, id=f"{type(obj).__name__}.{name}={bad!r}")
    for obj in VALID_INSTANCES for name, kind in number_fields(type(obj))
    for bad in BAD_NUMBERS[kind]])
def test_every_number_field_is_checked(obj, name, bad):
    with pytest.raises(ra.AuditError):
        dataclasses.replace(obj, **{name: bad})


def package_fields(cls):
    """(name, allowed types) of each field of dataclass ``cls`` annotated with
    a package type, alone, in a Union (``Optional`` included) or as the items
    of a ``List``; a list field's allowed types are its items' types."""
    hints = typing.get_type_hints(cls)
    fields = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if typing.get_origin(hint) is list:
            hint, = typing.get_args(hint)
        types = typing.get_args(hint) if typing.get_origin(hint) is typing.Union else (hint,)
        if any(isinstance(t, type) and t.__module__.startswith("regret_audit.") for t in types):
            fields.append((f.name, types))
    return fields


def test_every_exported_type_with_a_package_type_field_has_an_instance():
    exported = {obj for obj in vars(ra).values()
                if dataclasses.is_dataclass(obj) and isinstance(obj, type) and package_fields(obj)}
    assert exported == {ra.PortfolioConfig, ra.AuditRunConfig, ra.AuditRecord,
                        ra.AuditReport, ra.NeuralMechanismSpec}
    assert exported <= {type(obj) for obj in VALID_INSTANCES}


#: values a package-type field or argument is given in place of its type,
#: each config type among them in place of the other; each is left out where
#: the annotation allows it (None for Optional, a str for a mechanism source)
WRONG_OBJECTS = (4, "x", (2, 2), None, [0.1, 1, 1], ra.PgaConfig(0.1, 1, 1),
                 ra.PortfolioConfig())


@pytest.mark.parametrize("obj,name,bad", [
    pytest.param(obj, name, bad, id=f"{type(obj).__name__}.{name}={bad!r}")
    for obj in VALID_INSTANCES for name, types in package_fields(type(obj))
    for bad in WRONG_OBJECTS if not isinstance(bad, types)])
def test_every_package_type_field_is_checked(obj, name, bad):
    # these used to surface as a raw AttributeError, at first use or at write
    with pytest.raises(ra.AuditError):
        dataclasses.replace(obj, **{name: bad})


#: each entry, given a fresh mechanism and a value for one integer argument
INT_ENTRIES = {
    "spawn_generator(seed)": lambda mech, x: ra.rng.spawn_generator(x, 1),
    "derive_seed(seed)": lambda mech, x: ra.rng.derive_seed(x, 1),
    "sample_valuations(sample_index)": lambda mech, x: ra.sample_valuations(
        ra.ValuationDistribution(), SETTING, x, 0),
    "random_restart_pga(seed)": lambda mech, x: ra.random_restart_pga(
        mech, PROFILE, 0, ra.PgaConfig(0.1, 1, 1), x),
    "exhaustive_regret(max_evals)": lambda mech, x: ra.exhaustive_regret(
        mech, PROFILE, 0, ra.GridSpec(4), max_evals=x),
    "item_regret(item)": lambda mech, x: ra.item_regret(mech, PROFILE, 0, x, ra.GridSpec(4)),
    "pga_single(big_r)": lambda mech, x: ra.pga_single(mech, PROFILE, 0, [0.5, 0.5], 0.1, x),
    "build_portfolio(seed)": lambda mech, x: ra.build_portfolio(
        PROFILE, 0, [0.5, 0.5], ra.PortfolioConfig(), x),
    # refused by build_portfolio, after the grid scan, until guided checked it first
    "guided_refinement(seed)": lambda mech, x: ra.guided_refinement(
        mech, PROFILE, 0, ra.GridSpec(4), ra.PortfolioConfig(), x),
    "resolve_workers(workers)": lambda mech, x: resolve_workers(x),
}


@pytest.mark.parametrize("bad", BAD_NUMBERS["int"], ids=repr)
@pytest.mark.parametrize("entry", INT_ENTRIES)
def test_every_integer_argument_is_checked(entry, bad):
    mech = ra.PerItemFirstPriceAuction(SETTING)
    with pytest.raises(ra.AuditError):
        INT_ENTRIES[entry](mech, bad)
    assert mech.evaluations == 0


GRID = ra.GridSpec(4)
GUIDED = ra.PortfolioConfig(refine=ra.PgaConfig(0.1, 1, 1))

#: each entry, given a fresh mechanism and a value for one package-type
#: argument, with the type that argument takes
PACKAGE_ENTRIES = {
    "exhaustive_regret(mech)": (ra.Mechanism, lambda mech, x: ra.exhaustive_regret(
        x, PROFILE, 0, GRID)),
    "exhaustive_regret(grid)": (ra.GridSpec, lambda mech, x: ra.exhaustive_regret(
        mech, PROFILE, 0, x)),
    "as_profile(setting)": (ra.AuctionSetting, lambda mech, x: ra.as_profile(PROFILE, x)),
    "item_regret(mech)": (ra.Mechanism, lambda mech, x: ra.item_regret(x, PROFILE, 0, 0, GRID)),
    "item_regret(grid)": (ra.GridSpec, lambda mech, x: ra.item_regret(mech, PROFILE, 0, 0, x)),
    "lower_bound_regret(grid)": (ra.GridSpec, lambda mech, x: ra.lower_bound_regret(
        mech, PROFILE, 0, x)),
    "item_wise_regret(mech)": (ra.Mechanism, lambda mech, x: ra.item_wise_regret(
        x, PROFILE, 0, GRID)),
    "item_wise_regret(grid)": (ra.GridSpec, lambda mech, x: ra.item_wise_regret(
        mech, PROFILE, 0, x)),
    "random_restart_pga(mech)": (ra.Mechanism, lambda mech, x: ra.random_restart_pga(
        x, PROFILE, 0, ra.PgaConfig(0.1, 1, 1), 0)),
    "random_restart_pga(cfg)": (ra.PgaConfig, lambda mech, x: ra.random_restart_pga(
        mech, PROFILE, 0, x, 0)),
    "guided_refinement(mech)": (ra.Mechanism, lambda mech, x: ra.guided_refinement(
        x, PROFILE, 0, GRID, GUIDED, 0)),
    "guided_refinement(grid)": (ra.GridSpec, lambda mech, x: ra.guided_refinement(
        mech, PROFILE, 0, x, GUIDED, 0)),
    "guided_refinement(cfg)": (ra.PortfolioConfig, lambda mech, x: ra.guided_refinement(
        mech, PROFILE, 0, GRID, x, 0)),
    "build_portfolio(cfg)": (ra.PortfolioConfig, lambda mech, x: ra.build_portfolio(
        PROFILE, 0, [0.5, 0.5], x, 0)),
    "pga_single(mech)": (ra.Mechanism, lambda mech, x: ra.pga_single(
        x, PROFILE, 0, [0.5, 0.5], 0.1, 1)),
    "evaluate_misreports(mech)": (ra.Mechanism, lambda mech, x: ra.evaluate_misreports(
        x, PROFILE, 0, [[0.5, 0.5]])),
    "utility(mech)": (ra.Mechanism, lambda mech, x: ra.utility(x, PROFILE[0], PROFILE, 0)),
    "utility_gradient(mech)": (ra.Mechanism, lambda mech, x: ra.utility_gradient(
        x, PROFILE[0], PROFILE, 0)),
    "sample_valuations(dist)": (ra.ValuationDistribution, lambda mech, x: ra.sample_valuations(
        x, SETTING, 0, 0)),
    "sample_valuations(setting)": (ra.AuctionSetting, lambda mech, x: ra.sample_valuations(
        ra.ValuationDistribution(), x, 0, 0)),
    "generate_neural_spec(setting)": (ra.AuctionSetting, lambda mech, x: ra.generate_neural_spec(
        x, 4, 0)),
    "first_price(setting)": (ra.AuctionSetting, lambda mech, x: ra.PerItemFirstPriceAuction(x)),
    "NeuralMechanism(spec)": (ra.NeuralMechanismSpec, lambda mech, x: ra.NeuralMechanism(x)),
    "resolve_mechanism(setting)": (ra.AuctionSetting, lambda mech, x: ra.resolve_mechanism(
        "second_price", x)),
    "resolve_mechanism(spec, setting)": (ra.AuctionSetting, lambda mech, x:
                                         ra.resolve_mechanism(SPEC, x)),
    "run_audit(cfg)": (ra.AuditRunConfig, lambda mech, x: ra.run_audit(x)),
    "run_sweep(cfg)": (ra.AuditRunConfig, lambda mech, x: ra.run_sweep(x, [1], [1])),
    "write_report(report)": (ra.AuditReport, lambda mech, x: ra.write_report(x, os.devnull)),
}


@pytest.mark.parametrize("entry,bad", [
    pytest.param(entry, bad, id=f"{entry}={bad!r}")
    for entry, (wants, _) in PACKAGE_ENTRIES.items()
    for bad in WRONG_OBJECTS if not isinstance(bad, wants)])
def test_every_package_type_argument_is_checked(entry, bad):
    # these used to raise a raw AttributeError or TypeError, guided's after
    # its whole grid scan, and resolve_mechanism("second_price", None)
    # returned a mechanism whose setting was None
    mech = ra.PerItemFirstPriceAuction(SETTING)
    with pytest.raises(ra.AuditError):
        PACKAGE_ENTRIES[entry][1](mech, bad)
    assert mech.evaluations == 0


def not_json(directory):
    path = directory / "not.json"
    path.write_text("{")
    return path


#: a call for each raise site that no other test reaches, and the typed error
#: it must raise
UNREACHED_RAISES = {
    "context above 10": (ra.InvalidConfigError, lambda tmp: ra.ValuationDistribution(
        "truncated_normal_context", (11, 1), (1, 1))),
    "contexts of the wrong length": (ra.InvalidConfigError, lambda tmp: ra.sample_valuations(
        ra.ValuationDistribution("truncated_normal_context", (1, 2, 3), (1, 2)), SETTING, 0, 0)),
    "item >= m": (ra.InvalidInputError, lambda tmp: ra.item_regret(
        ra.PerItemFirstPriceAuction(SETTING), PROFILE, 0, 2, ra.GridSpec(4))),
    "non-finite spec weight": (ra.MechanismLoadError, lambda tmp: dataclasses.replace(
        ra.generate_neural_spec(SETTING, 2, 0), bias_in=[0.0, math.nan])),
    "spec file not JSON": (ra.MechanismLoadError,
                           lambda tmp: ra.read_neural_spec(not_json(tmp))),
    "report file not JSON": (ra.ReportFormatError, lambda tmp: ra.read_report(not_json(tmp))),
    "pga_single start shape": (ra.InvalidInputError, lambda tmp: ra.pga_single(
        ra.PerItemFirstPriceAuction(SETTING), PROFILE, 0, [0.5], 0.1, 1)),
    "2-D item_argmaxes": (ra.InvalidInputError, lambda tmp: ra.build_portfolio(
        PROFILE, 0, [[0.5, 0.5]], ra.PortfolioConfig(), 0)),
    "mechanism source 42": (ra.MechanismLoadError,
                            lambda tmp: ra.resolve_mechanism(42, SETTING)),
    "no sweep L values": (ra.InvalidConfigError,
                          lambda tmp: ra.run_sweep(AUDIT_CONFIG, [], [1])),
    "no sweep R values": (ra.InvalidConfigError,
                          lambda tmp: ra.run_sweep(AUDIT_CONFIG, [1], [])),
}


@pytest.mark.parametrize("case", UNREACHED_RAISES)
def test_every_raise_site_raises_its_typed_error(case, tmp_path):
    error, call = UNREACHED_RAISES[case]
    with pytest.raises(error):
        call(tmp_path)
