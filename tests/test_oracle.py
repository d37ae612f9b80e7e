"""The brute-force route stays blind to the fraction.

The oracle is the independent check of everything the fraction gives, so
it must not read the fraction: statically, its in-package imports reach
only `algebra` and `qseries`; at run time, every brute-force output still
comes out with each function and constructor of `hfrac` and `cfrac` made
to raise.
"""

import ast
import hashlib
import pathlib
import sys

import pytest

import qmetallic
from qmetallic import cfrac, cli, hfrac, verify

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


def test_oracle_imports_only_algebra_and_qseries():
    # the control: the scan does see verify reach the fraction
    assert "hfrac" in package_imports("verify")
    # the closure starts at oracle itself: `algebra.det_fraction_free`
    # imports the kernel back from it on use, and that import reaches
    # nothing new
    closure, todo = {"oracle"}, ["oracle"]
    while todo:
        for dep in package_imports(todo.pop()) - closure:
            closure.add(dep)
            todo.append(dep)
    assert closure.isdisjoint({"hfrac", "cfrac", "explicit", "reports", "verify", "cli"})
    assert closure == {"oracle", "algebra", "qseries"}


class FractionRead(Exception):
    """Raised by a fraction function called while the fraction is barred."""


def fraction_callables():
    """Every public function and class that hfrac or cfrac defines."""
    return [
        (module, f)
        for module in (hfrac, cfrac)
        for name, f in vars(module).items()
        if not name.startswith("_")
        and callable(f)
        and getattr(f, "__module__", None) == module.__name__
    ]


@pytest.fixture
def fraction_barred(monkeypatch):
    """Make every public function of hfrac and cfrac raise, in every
    qmetallic module that holds it (`verify` and `cli` import names
    directly), and every class defined there refuse construction."""

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
        verify.hankel_formula_values(2, 1, 12)
    with pytest.raises(FractionRead):
        hfrac.PeriodicHFraction(head=None, preamble=(), cycle=())


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
