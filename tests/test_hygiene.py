"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "natgrad"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    # __init__.py imports to re-export; every other module imports to use.
    assert _unused_imports(path) == []


def _names(path: Path) -> set[str]:
    """Every identifier a module names, imports or looks up as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_finite_difference_gradients_only_back_family_defaults():
    # Cost gradients are analytic and the Family defaults no longer fall
    # back on finite differences; central_gradient is the tests' oracle only.
    users = sorted(p.name for p in SRC.glob("*.py") if "central_gradient" in _names(p))
    assert users == []  # numdiff.py defines it


def test_no_discrete_or_closed_form_fisher_flags():
    # Every sample-space integral, discrete sums included, goes through
    # Family.window_rule, and every Fisher matrix through Family.fisher; no
    # flag may select a second route.
    flags = {"is_discrete", "has_closed_form_fisher"}
    users = sorted(p.name for p in SRC.glob("*.py") if flags & _names(p))
    assert users == []


def _factorizations(path: Path, names=("inv", "cholesky")) -> set[str]:
    """``names`` (default ``inv`` and ``cholesky``) looked up on a ``linalg``
    module or imported from one."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in names:
            owner = node.value
            if getattr(owner, "attr", getattr(owner, "id", None)) == "linalg":
                found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found.update(a.name for a in node.names if a.name in names)
    return found


def test_covariance_factorizations_have_one_route():
    # Inverses and Cholesky factors of covariances come from the memoized
    # Gaussian state in families.py; nothing else factorizes a covariance.
    users = sorted(p.name for p in SRC.glob("*.py") if _factorizations(p))
    assert set(users) <= {"families.py"}


def test_no_module_names_dpotri():
    # LAPACK dpotri leaves a multithreaded OpenBLAS's threads spinning after
    # the call: a 30x30 inverse followed by numpy's eigh took 12 ms instead
    # of 0.13 ms on two cores.  Inverses go through dtrtri of the factor.
    users = sorted(p.name for p in SRC.glob("*.py") if "dpotri" in _names(p))
    assert users == []


def test_gaussian_costs_read_only_the_state_factors():
    # KL, reverse KL and W2 come from the Cholesky factors of the two
    # Gaussian states.  A second factorization (solve, slogdet, an
    # eigendecomposition with floored eigenvalues) took differences of O(1)
    # terms, all roundoff near coincidence, where the local Hessian lives.
    found = _factorizations(SRC / "similarity.py", ("eigh", "eigvalsh", "slogdet", "solve"))
    assert found == set()
    gone = {"COV_EIGENVALUE_FLOOR", "_floored_power"}
    assert sorted(p.name for p in SRC.glob("*.py") if gone & _names(p)) == []


def test_one_transport_route_and_no_family_fallbacks():
    # 1-D transport cost, gradient and metric integrate quantile velocities
    # on one grid; the Family base class has no expectation helper and no
    # finite-difference score, so nothing raises an undefined-score error.
    gone = {"_velocity_basis", "expectation", "UndefinedScoreError"}
    assert sorted(p.name for p in SRC.glob("*.py") if gone & _names(p)) == []
    # Only composite_legendre keeps a panel size; Family.window_rule has none.
    users = sorted(p.name for p in SRC.glob("*.py") if "nodes_per_panel" in _names(p))
    assert users == ["quadrature.py"]
