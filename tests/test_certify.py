"""The trusted kernel, ``contactfb.certify``: what it may import, that it
alone spells the certified verdicts, the lemma gate's named reasons at each
caller, each inequality at its boundary, the mutant ledger's texts, and
that every package module imports cleanly as the first import."""

import ast
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from contactfb.certify import (
    KERNEL_TOL,
    LemmaRefusal,
    SelectionError,
    UNCERTIFIED,
    certifies_in_omega,
    check_disjoint,
    check_horizontal,
    check_identity,
    check_sandwich,
    lemma_certificate,
    shell_route,
    verify_disk_estimate,
)
from contactfb.contact import ContactPoint, TangentVector, legendrian_from_xy
from contactfb.kobayashi import directed_norm_lower
from contactfb.numeric import CPolynomial
from contactfb.shells import ShellBand, ShellUnion, standard_obstacle

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "contactfb"
KERNEL = PACKAGE / "certify.py"
LEDGER = json.loads((ROOT / "mutants" / "ledger.json").read_text())["mutants"]

#: What the kernel may take from ``numeric``: the exact polynomial layer.
EXACT_LAYER = {"CPolynomial", "derivative_dot", "negated_dot_integral",
               "DEGREE_CAP", "DegreeCapError"}
#: Leaf modules of plain data the kernel may read.
DATA_MODULES = {"shells"}
VERDICTS = {"certified", "uncertified", "in_omega_certified"}

SCOPE = ("the derivative bound covers 1 <= N0 < i_max on "
         "standard_obstacle(n, i_max) only; ")
X_DIR = TangentVector((1 + 0j,), (0j,), 0j)


class TestKernelSource:
    def test_imports_only_stdlib_exact_layer_and_data(self):
        for node in ast.walk(ast.parse(KERNEL.read_text())):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name.split(".")[0] in sys.stdlib_module_names
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    top = node.module.split(".")[0]
                    assert top in sys.stdlib_module_names, node.module
                elif node.module == "numeric":
                    names = {alias.name for alias in node.names}
                    assert names <= EXACT_LAYER, names - EXACT_LAYER
                else:
                    assert node.module in DATA_MODULES, node.module

    def test_data_module_is_a_leaf(self):
        # the data imports only the standard library, and neither module
        # imports inside a function, where a cycle would hide until a call
        for node in ast.walk(ast.parse((PACKAGE / "shells.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, node.module
                assert node.module in sys.stdlib_module_names, node.module
            elif isinstance(node, ast.Import):
                assert all(alias.name in sys.stdlib_module_names
                           for alias in node.names)
        for path in (KERNEL, PACKAGE / "shells.py"):
            for func in ast.walk(ast.parse(path.read_text())):
                if isinstance(func, ast.FunctionDef):
                    assert not any(isinstance(node, (ast.Import,
                                                     ast.ImportFrom))
                                   for node in ast.walk(func)), func.name

    def test_under_400_lines(self):
        assert len(KERNEL.read_text().splitlines()) < 400

    def test_verdict_strings_only_in_the_kernel(self):
        seen = set()
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text())
            docs = {id(node.body[0].value) for node in ast.walk(tree)
                    if isinstance(node, (ast.Module, ast.ClassDef,
                                         ast.FunctionDef))
                    and ast.get_docstring(node) is not None}
            found = {node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and node.value in VERDICTS and id(node) not in docs}
            if path != KERNEL:
                assert not found, f"{path.name} spells {sorted(found)}"
            seen |= found
        assert seen == VERDICTS


class TestLemmaGate:
    """Every caller of ``lemma_certificate`` refuses with its reason;
    ``validate_config`` names the field in ``tests/test_cli.py``'s
    ``test_bad_field_named`` (its i_max and lemma_n0 rows)."""

    @pytest.mark.parametrize("K, N0, reason", [
        (standard_obstacle(1, 4), 0, "N0 = 0 is below 1"),
        (standard_obstacle(1, 4), 4, "N0 = 4 is not below i_max = 4"),
        (ShellUnion(standard_obstacle(1, 4).shells, (0, 1), 2), 1,
         "K is not standard_obstacle(1, 4)"),
    ], ids=["below-1", "not-below-i_max", "not-standard"])
    def test_verify_disk_estimate(self, K, N0, reason):
        f = legendrian_from_xy([CPolynomial([0, 0.5])], [CPolynomial([0])], 0)
        with pytest.raises(LemmaRefusal) as err:
            verify_disk_estimate(f, K, N0)
        assert str(err.value) == SCOPE + reason

    @pytest.mark.parametrize("p, K, reason", [
        # max-norm 40 needs N0 = 6, the last shell's index
        (ContactPoint((3 + 0j,), (40 + 0j,), 0j), standard_obstacle(1, 6),
         "N0 = 6 is not below i_max = 6"),
        # the log-only twin: the same bands, no kept radii
        (ContactPoint((0.5 + 0j,), (0j,), 0j),
         ShellUnion(standard_obstacle(1, 6).shells, (0, 1), 2),
         "K is not standard_obstacle(1, 6)"),
    ], ids=["not-below-i_max", "not-standard"])
    def test_directed_norm_lower(self, p, K, reason):
        assert directed_norm_lower(p, X_DIR, K) == (0.0, None)
        N0 = max(1, math.frexp(p.maxnorm())[1])
        with pytest.raises(LemmaRefusal) as err:
            lemma_certificate(N0, p.n, K)
        assert str(err.value) == SCOPE + reason


class TestBoundaries:
    """Each inequality of the kernel at the value where it flips."""

    def test_horizontal_tolerance_is_inclusive(self):
        p = ContactPoint((0j,), (0j,), 0j)
        check_horizontal(p, TangentVector((0j,), (0j,), KERNEL_TOL))
        with pytest.raises(ValueError, match="not horizontal"):
            check_horizontal(p, TangentVector(
                (0j,), (0j,), math.nextafter(KERNEL_TOL, 1.0)))

    def test_centre_on_the_polydisk_boundary_refused(self):
        K = standard_obstacle(1, 4)
        inside = legendrian_from_xy([CPolynomial([math.nextafter(2.0, 0)])],
                                    [CPolynomial([0])], 0)
        verify_disk_estimate(inside, K, 1)  # f(0) lies in the open polydisk
        edge = legendrian_from_xy([CPolynomial([2.0])], [CPolynomial([0])], 0)
        with pytest.raises(ValueError, match="open 2\\^N0 polydisk"):
            verify_disk_estimate(edge, K, 1)

    def test_z_escape_is_strict(self):
        # limits (a - margin, b + margin, c + margin) = (1, 5, 9); the sup
        # and inf bounds 6 and 0 pass neither 'inside' nor 'outside'
        assert shell_route(6.0, 0.0, 9.0, (1.0, 5.0, 9.0)) == UNCERTIFIED
        assert shell_route(6.0, 0.0, math.nextafter(9.0, 10.0),
                           (1.0, 5.0, 9.0)) == "z_escape"

    @pytest.mark.parametrize("beta, M, alpha", [
        (0.0, 0.0, 1.0), (0.0, 1.0, 1.0), (math.nan, 0.5, 1.0)])
    def test_sandwich_is_strict(self, beta, M, alpha):
        check_sandwich(1, 0.0, 0.5, 1.0)
        with pytest.raises(SelectionError) as err:
            check_sandwich(3, beta, M, alpha)
        assert (err.value.shell_index, err.value.binding) == (3, "sandwich")

    def test_disjointness_is_strict(self):
        def union(log_a):
            return ShellUnion((ShellBand(log_a, log_a + 1.0, 0.0),), (0,), 1)
        log_a = math.nextafter(math.log(3.0), math.inf)
        assert check_disjoint(2, union(log_a)) == log_a - math.log(3.0) > 0.0
        with pytest.raises(SelectionError) as err:
            check_disjoint(2, union(math.log(3.0)))
        assert err.value.binding == "disjointness"

    def test_identity_bound_is_strict(self):
        below = math.nextafter(0.25, 0.0)
        assert check_identity(1, below, 0.25) == 0.25 - below > 0.0
        with pytest.raises(SelectionError) as err:
            check_identity(1, 0.25, 0.25)
        assert err.value.binding == "identity"

    def test_membership_rule(self):
        # exp(-inf) = 0: the room left in the 1-polydisk is exactly 1
        assert certifies_in_omega(1, -math.inf, math.nextafter(1.0, 0.0))
        assert not certifies_in_omega(1, -math.inf, 1.0)
        # round 0 reads the 1-polydisk too
        assert certifies_in_omega(0, -math.inf, 0.5)
        assert certifies_in_omega(3, math.log(2.0), 0.5)
        # a large orbit point never certifies, and exp is not taken
        assert not certifies_in_omega(1, 1e6, 0.0)


def test_ledger_ids_unique():
    # ``mutants/run.py ID`` selects entries by id
    ids = [e["id"] for e in LEDGER]
    assert len(ids) == len(set(ids)), sorted(i for i in ids
                                             if ids.count(i) > 1)


def _defs(body) -> dict:
    """The classes and functions of a module or class body, by name."""
    return {node.name: node for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}


@functools.cache
def _module_defs(path: str) -> dict:
    return _defs(ast.parse((ROOT / path).read_text()).body)


@pytest.mark.parametrize("entry", LEDGER, ids=[e["id"] for e in LEDGER])
def test_ledger_entry_applies(entry):
    # each entry mutates the package, its old text occurs exactly once, so
    # the edit is well defined, and each named test exists in its file
    assert Path(entry["file"]).parts[:2] == ("src", "contactfb")
    assert entry["new"] != entry["old"]
    assert (ROOT / entry["file"]).read_text().count(entry["old"]) == 1
    for test_id in entry["kills"]:
        path, *names = test_id.split("[")[0].split("::")
        defs = _module_defs(path)
        for name in names:
            assert name in defs, f"{test_id}: no {name}"
            defs = _defs(defs[name].body)


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_imports_first_in_a_fresh_interpreter(module):
    # an import-order cycle fails only where the module is imported first
    name = "contactfb" if module == "__init__" else f"contactfb.{module}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", f"import {name}"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
