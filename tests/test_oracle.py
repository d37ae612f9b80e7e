"""The brute-force route stays blind to the fraction.

The oracle is the independent check of everything the fraction gives, so
it must not read the fraction: statically, its in-package imports reach
only the arithmetic (`algebra`, `poly`, `fields`) and the series
(`qseries`); at run time, every brute-force output still
comes out with each function and constructor of the four modules that
hold fraction code (`cfrac`, `artin`, `hfrac`, `template`) made to raise.
"""

import ast
import hashlib
import pathlib
import sys

import pytest

import qmetallic
from qmetallic import artin, cfrac, cli, hfrac, reports, template, verify

import goldens

PACKAGE = pathlib.Path(qmetallic.__file__).parent


def package_imports(module: str) -> set:
    """The qmetallic submodules that `module`'s source imports anywhere,
    at module level or inside a function, relatively or by full name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] == "qmetallic" and len(parts) > 1:
                    found.add(parts[1])
            elif node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import x
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "qmetallic" and len(parts) > 1:
                    found.add(parts[1])
    # names bound by `from . import x` that are not submodules
    return {m for m in found if (PACKAGE / f"{m}.py").exists()}


# the modules that hold fraction code, and every module that calls into them
FRACTION_MODULES = {"cfrac", "artin", "hfrac", "template"}
READERS = {"explicit", "reports", "verify", "crosschecks", "modp", "commands", "cli"}


def test_oracle_imports_only_arithmetic_and_series():
    # the controls: the scan does see the modules that read the fraction
    # reach each fraction module, whether by a lazy binding, at module
    # level or in a module __getattr__ (`hfrac` serves two `template`
    # names that the benchmark's tracer wraps there)
    assert {"hfrac", "template"} <= package_imports("verify")
    assert "template" in package_imports("reports")
    assert "template" in package_imports("hfrac")
    # the closure starts at oracle itself: `algebra.det_fraction_free`
    # imports the kernel back from it on use (which reaches nothing new),
    # and the row-pivoting kernel of the other rings from `fields`
    closure, todo = {"oracle"}, ["oracle"]
    while todo:
        for dep in package_imports(todo.pop()) - closure:
            closure.add(dep)
            todo.append(dep)
    assert closure.isdisjoint(FRACTION_MODULES | READERS)
    assert closure == {"oracle", "algebra", "poly", "fields", "qseries"}


class FractionRead(Exception):
    """Raised by a fraction function called while the fraction is barred."""


def fraction_callables():
    """Every public function and class that a fraction module defines."""
    return [
        (module, f)
        for module in (cfrac, artin, hfrac, template)
        for name, f in vars(module).items()
        if not name.startswith("_")
        and callable(f)
        and getattr(f, "__module__", None) == module.__name__
    ]


@pytest.fixture
def fraction_barred(monkeypatch):
    """Make every public function of the fraction modules raise, in every
    qmetallic module that holds it (most callers read it through its
    module, some import it by name), and every class defined there refuse
    construction."""

    def barred(label):
        def raiser(*args, **kwargs):
            raise FractionRead(label)

        return raiser

    for module, f in fraction_callables():
        label = f"{module.__name__}.{f.__name__}"
        if isinstance(f, type):
            monkeypatch.setattr(f, "__init__", barred(label))
            continue
        raiser = barred(label)
        for name, holder in list(sys.modules.items()):
            if name != "qmetallic" and not name.startswith("qmetallic."):
                continue
            for attr, value in list(vars(holder).items()):
                if value is f:
                    monkeypatch.setattr(holder, attr, raiser)


def test_formula_route_fails_with_the_fraction_barred(fraction_barred):
    # the control: the bar does reach the route that reads the fraction
    with pytest.raises(FractionRead):
        reports.hankel_formula_values(2, 1, 12)
    with pytest.raises(FractionRead):
        hfrac.PeriodicHFraction(head=None, preamble=(), cycle=())
    with pytest.raises(FractionRead):
        hfrac.hfraction_of_quadratic(qmetallic.metallic_model(2))
    with pytest.raises(FractionRead):
        artin.artin_expand(qmetallic.metallic_series(2, 8).shift_up(1), 3)


BRUTE_ONLY = [
    c for c in goldens.CLI_DIGESTS
    if c[0].startswith(("scan ", "verify --suite baselines "))
    or " --source brute " in c[0]
]


def test_brute_only_lines_are_the_ones_expected():
    assert len(BRUTE_ONLY) == 5


@pytest.mark.parametrize("argv, code, digest", BRUTE_ONLY, ids=[c[0] for c in BRUTE_ONLY])
def test_brute_only_output_needs_no_fraction(argv, code, digest, fraction_barred, capsys):
    assert cli.main(argv.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [3, 4])
def test_explicit_reconstruction_needs_no_fraction(n, fraction_barred):
    assert verify.check_explicit_reconstruction(n).passed
