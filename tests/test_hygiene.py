"""Source hygiene checks: the source read as text, and the state of
family and similarity instances after use."""

import ast
import inspect
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import natgrad
import natgrad.families
import natgrad.similarity
from natgrad.errors import CapabilityError, ConfigError
from natgrad.families import FAMILIES, FAMILY_IDS, Family, Point, get_family
from natgrad.gp_bench import BenchmarkConfig, GpNllCost, generate_data
from natgrad.optimizer import OptimizerConfig, optimize
from natgrad.similarity import (
    METRIC_ALIASES,
    SIMILARITIES,
    SIMILARITY_IDS,
    get_similarity,
    resolve_metric_engine,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "natgrad"
README = SRC.parent.parent / "README.md"
WORKLOADS = SRC.parent.parent / "perfbench" / "workloads.py"


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
    # Every f-divergence is a form over the point states, and every Fisher
    # matrix goes through Family.fisher; no flag may select a second route.
    # Nor does a declaration stand beside a route: whether a family has a
    # quantile, or a similarity a metric, is what a call of the route says.
    flags = {"is_discrete", "has_closed_form_fisher", "has_cdf", "check_metric"}
    users = sorted(p.name for p in SRC.glob("*.py")
                   if flags & set(re.findall(r"\w+", p.read_text())))
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
    # Inverses and Cholesky factors of covariances come from the Gaussian
    # state a point keeps (families.py); nothing else factorizes a covariance.
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
    # Only composite_legendre keeps a panel size; no family builds a rule.
    users = sorted(p.name for p in SRC.glob("*.py") if "nodes_per_panel" in _names(p))
    assert users == ["quadrature.py"]


def test_the_quantile_velocity_has_one_home():
    # A 1-D point builds its quantile velocities (Point.transport); cost,
    # gradient and metric read them, so only families.py takes dcdf_dtheta
    # or the cached normal scores, and no transport helper of its own remains.
    built = {"dcdf_dtheta", "unit_interval_normal_scores"}
    assert sorted(p.name for p in SRC.glob("*.py") if built & _names(p)) == ["families.py"]
    for name in ("similarity.py", "metric.py"):
        assert "_quantile_velocity" not in _names(SRC / name) | _defined(SRC / name)


def _defined(path: Path) -> set[str]:
    """The names of the functions and classes a module defines."""
    return {node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _called(path: Path) -> set[str]:
    """The names a module calls, as ``name(...)`` or ``obj.name(...)``."""
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)}


def test_every_fisher_matrix_and_fdivergence_is_closed_form_or_an_exact_sum():
    # A categorical f-divergence sums over the outcomes its point states
    # keep; no family builds a quadrature rule over a quantile window.  Only
    # validate integrates in sample space, as a reference for the closed
    # form of KL.
    assert sorted(p.name for p in SRC.glob("*.py")
                  if "window_rule" in _defined(p) | _names(p)) == []
    assert {"composite_legendre", "DEFAULT_TAIL_MASS"} & _names(SRC / "families.py") == set()
    callers = sorted(p.name for p in SRC.glob("*.py") if "composite_legendre" in _called(p))
    assert callers == ["validation.py"]


def test_closed_form_similarities_read_point_states_only():
    # similarity.py reads distributions through the states its points keep:
    # it calls no sample-space operation of a family, passes no family class
    # to isinstance, raises CapabilityError in the one dispatcher, and keys
    # its forms by the two state types.
    path = SRC / "similarity.py"
    tree = ast.parse(path.read_text())
    sample_space = {"score", "log_density", "cdf", "quantile", "dcdf_dtheta", "sample",
                    "_window_logs"}
    assert sample_space & _called(path) == set()
    family_classes = {name for name, obj in vars(natgrad.families).items()
                      if inspect.isclass(obj) and issubclass(obj, Family)}
    checked = {getattr(n, "id", getattr(n, "attr", None))
               for call in ast.walk(tree) if isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "isinstance"
               for n in ast.walk(call.args[1])}
    assert checked & family_classes == set()
    raised = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and getattr(getattr(node.exc, "func", None), "id", None) == "CapabilityError"]
    assert len(raised) == 1
    keys = {getattr(key, "id", None)
            for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(getattr(t, "id", getattr(t, "attr", None)) == "forms" for t in node.targets)
            for key in node.value.keys}
    assert keys == {"GaussianState", "CategoricalState"}


def _class_methods(path: Path) -> dict[str, dict[str, ast.FunctionDef]]:
    """Each class a module defines, with the methods its body defines."""
    return {node.name: {f.name: f for f in node.body if isinstance(f, ast.FunctionDef)}
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)}


def _calls_to(node: ast.AST, name: str) -> int:
    """How many times ``node`` calls ``name(...)``."""
    return sum(isinstance(n, ast.Call) and getattr(n.func, "id", None) == name
               for n in ast.walk(node))


def test_each_family_fact_has_one_route():
    # A Gaussian family (one that has _moment_derivs) gets its log-density
    # and its sampler from the state on the base class; only the base class
    # turns a point's state into a Gaussian state or a CapabilityError; the
    # base Fisher matrix is the Gaussian closed form and no support sum.
    classes = _class_methods(SRC / "families.py")
    gaussian = {name: methods for name, methods in classes.items()
                if "_moment_derivs" in methods and name != "Family"}
    assert sorted(gaussian) == ["Gaussian1D", "GpPriorEq", "MultivariateNormalLogCholesky"]
    assert {name: sorted({"sample", "log_density"} & set(methods))
            for name, methods in gaussian.items()} == {name: [] for name in gaussian}
    definers = sorted(f"{p.name}:{cls}" for p in SRC.glob("*.py")
                      for cls, methods in _class_methods(p).items() if "gaussian_state" in methods)
    assert definers == ["families.py:Family"]
    fisher = classes["Family"]["fisher"]
    named = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(fisher)}
    assert {"log_density", "score"} & named == set()
    # optimize decides each iteration's status in one chain: one record, one trace.
    optimize_def = next(node for node in ast.parse((SRC / "optimizer.py").read_text()).body
                        if isinstance(node, ast.FunctionDef) and node.name == "optimize")
    assert (_calls_to(optimize_def, "StepRecord"), _calls_to(optimize_def, "Trace")) == (1, 1)


def test_no_per_instance_memos():
    # A validated point carries its own state (Family.point); no family,
    # similarity or optimizer run keeps a memo of the points it has seen.
    gone = {"MEMO_POINTS", "_remember", "_memo", "forget", "_last_window", "_window",
            "_last_checked", "last_trial"}
    assert sorted(p.name for p in SRC.glob("*.py") if gone & (_names(p) | _defined(p))) == []


def test_one_step_rule_and_one_benchmark_threshold():
    # optimize steps by Armijo backtracking with fixed constants only: no
    # line-search settings, no full-step mode.  The benchmark threshold is
    # NLL(DEFAULT_TRUE_THETA) + THRESHOLD_OFFSET, with no knob.
    gone = {"LineSearchConfig", "_line_search_from", "cost_threshold", "cost_tol",
            "true_theta", "threshold_offset"}
    assert sorted(p.name for p in SRC.glob("*.py") if gone & (_names(p) | _defined(p))) == []


def test_the_settable_values_are_the_kept_ones():
    # Only the similarity, the budget, the gradient tolerance and the damping
    # are chosen per run; the cost tolerance, the true parameters and the
    # threshold offset are constants.
    assert [f.name for f in fields(OptimizerConfig)] == ["max_iters", "grad_tol", "metric",
                                                         "damping"]
    assert [f.name for f in fields(BenchmarkConfig)] == ["m", "seed", "theta0", "metrics",
                                                         "optimizer"]
    assert list(inspect.signature(generate_data).parameters) == ["seed", "m"]


def test_one_check_for_every_numeric_setting():
    # families.check_setting names the field, family sizes included; no
    # module keeps a checker of its own for one setting.
    gone = {"_check_size", "_check_seed", "_optimizer_config_from", "_run_benchmark_config"}
    assert sorted(p.name for p in SRC.glob("*.py") if gone & (_names(p) | _defined(p))) == []
    assert sorted(p.name for p in SRC.glob("*.py") if "check_setting" in _defined(p)) == [
        "families.py"]
    assert sorted(p.name for p in SRC.glob("*.py") if "check_setting" in _called(p)) == [
        "families.py", "gp_bench.py", "optimizer.py"]


def test_every_family_is_a_registry_family():
    # A family is one parameterization: every Family subclass the package
    # defines is built by a FAMILIES entry, and a change of coordinates is
    # the chain rule on the objective (optimizer.linear_reparameterization).
    defined = {cls for cls in vars(natgrad.families).values()
               if isinstance(cls, type) and issubclass(cls, Family) and cls is not Family}
    built = {type(build(DATASET.inputs)) for build in FAMILIES.values()}
    assert defined == built
    gone = {"LinearlyReparameterized", "_point", "_with_derivs"}
    assert sorted(p.name for p in SRC.glob("*.py") if gone & (_names(p) | _defined(p))) == []
    assert "base" not in Point.__slots__ and not hasattr(Point, "base")


def _readme_keys(section: str, pattern: str) -> list[str]:
    """The backticked names of the first match of ``pattern`` in the README
    section whose heading starts with ``section``."""
    text = README.read_text().split(f"### {section}", 1)[1].split("\n#", 1)[0]
    return re.findall(r"`(\w+)`", re.search(pattern, " ".join(text.split())).group(1))


def test_readme_lists_the_config_keys_the_cli_accepts():
    assert _readme_keys("`natgrad run", r"The `optimizer` object accepts .*?: (.*?)\.") == [
        f.name for f in fields(OptimizerConfig) if f.name != "metric"]
    assert _readme_keys("`natgrad bench-gp", r"Keys \(.*?\): (.*?)\.") == [
        f.name for f in fields(BenchmarkConfig)] + ["output_dir"]


def test_validation_checks_are_rows_of_one_table():
    # run_checks builds one ordered list of (name, tolerance, deviations)
    # rows; no per-check function or point helper of its own remains.
    gone = {"check_fisher_vs_fd_kl", "check_fdiv_scaling", "check_pullback",
            "check_fisher_rao_hessian", "check_w2_identity", "check_finsler_scale_invariance",
            "check_finsler_p2", "check_finsler_p3_vs_fd", "check_newton_limit",
            "check_reparam_equivariance", "check_kl_quadrature", "check_w2_gaussian_vs_quantile",
            "_random_gaussian_points"}
    assert sorted(p.name for p in SRC.glob("*.py") if gone & _defined(p)) == []


def test_one_route_into_every_similarity():
    # Similarity.evaluate and grad_theta validate both arguments, the target
    # by Similarity.target, and hand the points to _cost, which a subclass
    # implements; no second route on another scale (W_p, W2^2, d) remains.
    entries = sorted(f"{p.name}:{node.name}" for p in SRC.glob("*.py")
                     for node in ast.walk(ast.parse(p.read_text()))
                     if isinstance(node, ast.ClassDef)
                     and any(isinstance(f, ast.FunctionDef) and f.name in ("evaluate", "grad_theta")
                             for f in node.body))
    assert entries == ["similarity.py:Similarity"]
    assert "Dataset" not in (SRC / "optimizer.py").read_text()
    gone = ("f_divergence", "gaussian_kl", "squared_w2_gaussian", "wasserstein_p_1d",
            "fisher_rao_distance_categorical")
    assert [n for n in gone if hasattr(natgrad, n) or hasattr(natgrad.similarity, n)] == []


DATASET = generate_data(seed=3, m=4)
SIMILARITY_NAMES = [s.replace("{p}", "2") for s in SIMILARITY_IDS] + ["wasserstein:3"]


def _families():
    """One instance of each registry family, with a valid point and a target
    near it."""
    out = []
    for ident in FAMILY_IDS:
        family = get_family(ident.partition("[")[0], inputs=DATASET.inputs)
        theta = np.linspace(-0.3, 0.4, family.param_dim)
        if family.name == "gaussian1d":
            theta = np.array([0.3, 1.2])
        out.append((family, theta, theta - 0.05))
    return out


def _snapshot(obj) -> dict:
    return {k: (v, v.tobytes() if isinstance(v, np.ndarray) else None)
            for k, v in vars(obj).items()}


def _assert_unchanged(obj, before, what):
    after = _snapshot(obj)
    assert after.keys() == before.keys(), f"{what}: {sorted(after.keys() ^ before.keys())}"
    for key, (value, data) in before.items():
        assert after[key][0] is value and after[key][1] == data, f"{what}: {key}"


def _family_ops(family, theta):
    x = family.sample(theta, 0, 3)
    ops = {
        "check_point": lambda: family.check_point(theta),
        "point": lambda: family.point(theta),
        "log_density": lambda: family.log_density(theta, x),
        "score": lambda: family.score(theta, x),
        "cdf": lambda: family.cdf(theta, x),
        "quantile": lambda: family.quantile(theta, [0.25, 0.75]),
        "dcdf_dtheta": lambda: family.dcdf_dtheta(theta, x),
        "fisher": lambda: family.fisher(theta),
        "gaussian_state": lambda: family.gaussian_state(theta, derivs=True),
    }
    for name in ("probabilities", "softmax_jacobian", "split"):
        if hasattr(family, name):
            ops[name] = lambda fn=getattr(family, name): fn(theta)
    return ops


def test_families_and_similarities_are_not_written_to_after_init():
    config = OptimizerConfig(max_iters=3)
    for family, theta, target in _families():
        before = _snapshot(family)
        ops = _family_ops(family, theta)  # draws samples
        _assert_unchanged(family, before, f"{family.name}.sample")
        for name, op in ops.items():
            try:
                op()
            except CapabilityError:
                pass
            _assert_unchanged(family, before, f"{family.name}.{name}")
        for sim_id in SIMILARITY_NAMES:
            sim = get_similarity(sim_id)
            sim_before = _snapshot(sim)
            try:
                optimize(family, sim, theta, target, config)
            except ConfigError as exc:  # a pair that cannot run, refused
                assert isinstance(exc.__cause__, CapabilityError), sim_id
            _assert_unchanged(family, before, f"{family.name} after a {sim_id} run")
            _assert_unchanged(sim, sim_before, f"{sim_id} after a run on {family.name}")
    family, cost = get_family("gp_prior_eq", inputs=DATASET.inputs), GpNllCost()
    before, cost_before = _snapshot(family), _snapshot(cost)
    optimize(family, cost, np.array([0.1, 0.2, -0.5]), DATASET, config)
    _assert_unchanged(family, before, "gp_prior_eq after a gp_nll run")
    _assert_unchanged(cost, cost_before, "gp_nll after a run")


def _partition_colon_users(path: Path) -> bool:
    """Whether the module calls ``.partition(":")``."""
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "partition"
               and [getattr(a, "value", None) for a in node.args] == [":"]
               for node in ast.walk(ast.parse(path.read_text())))


def test_only_the_shared_resolver_parses_identifiers():
    # Every registry resolves through families.resolve_id, the one parser of
    # the name[:arg] / name:{arg} grammar, and lists the keys of its table.
    assert sorted(p.name for p in SRC.glob("*.py") if _partition_colon_users(p)) == ["families.py"]
    assert FAMILY_IDS == list(FAMILIES)
    assert SIMILARITY_IDS == list(SIMILARITIES)


GP = get_family("gp_prior_eq", inputs=DATASET.inputs)
# The metric-id grammar: a similarity id (its own metric), fd: and one (its
# finite differences), or an alias of a similarity id.
METRIC_ID_FORMS = [*SIMILARITY_IDS, "fd:{similarity}", *METRIC_ALIASES]
# Each registry's listed IDs and its resolver.
REGISTRIES = {
    "families": (FAMILY_IDS, lambda i: get_family(i, inputs=DATASET.inputs)),
    "similarities": (SIMILARITY_IDS, get_similarity),
    "metrics": (METRIC_ID_FORMS, lambda i: resolve_metric_engine(i, GP)),
}
PLACEHOLDERS = {"{p}": "3", "{name}": "chi2", "{similarity}": "kl", "[:dim]": ":2", "[:k]": ":2"}


def _filled(key: str) -> str:
    for placeholder, arg in PLACEHOLDERS.items():
        key = key.replace(placeholder, arg)
    return key


def _cases(make):
    return [pytest.param(kind, ident, id=f"{kind}-{ident}")
            for kind, (ids, _) in REGISTRIES.items() for key in ids
            for ident in make(key)]


@pytest.mark.parametrize("kind,ident", _cases(
    lambda key: [_filled(key)] + ([key.partition("[")[0]] if "[" in key else [])))
def test_every_listed_id_resolves(kind, ident):
    _, resolve = REGISTRIES[kind]
    assert resolve(ident) is not None


# A stray argument on an ID that takes none (gaussian1d:1, fisher_rao2:1), and
# a colon with no argument (kl:, fisher:, mvn_lcholesky:).
REJECTED = _cases(lambda key: [key + ":1"] if not ("[" in key or "{" in key) else []) + _cases(
    lambda key: [key.partition("[")[0].partition(":")[0] + ":"]) + [
    pytest.param("families", "gaussian1d:5", id="families-gaussian1d:5"),
    pytest.param("families", "gp_prior_eq:3", id="families-gp_prior_eq:3"),
]


@pytest.mark.parametrize("kind,ident", REJECTED)
def test_stray_and_empty_arguments_are_rejected(kind, ident):
    ids, resolve = REGISTRIES[kind]
    with pytest.raises(ConfigError, match=f"unknown .*valid {kind.split()[-1]}: ") as exc:
        resolve(ident)
    assert str(exc.value).endswith(", ".join(ids))


# Identifiers the benchmark workloads name, and the names they resolve to:
# a metric engine carries the id it was resolved from.
WORKLOAD_IDS = [
    ("metrics", ident, ident) for ident in (
        "fdiv:chi2", "fdiv:hellinger2", "fdiv:reverse_kl", "w2_1d", "wp_1d:3", "pullback",
        "fisher", "fd:wasserstein:3", "w2", "euclidean")
] + [
    ("families", ident, ident)
    for ident in ("gaussian1d", "mvn_lcholesky:2", "mvn_lcholesky:3", "categorical_softmax:5")
] + [
    ("similarities", ident, ident)
    for ident in ("kl", "reverse_kl", "chi2", "hellinger2", "fisher_rao2", "wasserstein:3")
] + [
    ("families", "mvn_lcholesky", "mvn_lcholesky:2"),
    ("similarities", "wasserstein:2.0", "wasserstein:2"),
]


@pytest.mark.parametrize("kind,ident,name", WORKLOAD_IDS)
def test_benchmark_identifiers_resolve_as_before(kind, ident, name):
    _, resolve = REGISTRIES[kind]
    assert resolve(ident).name == name


@pytest.mark.parametrize("alias", METRIC_ALIASES)
def test_every_metric_alias_is_named_by_a_benchmark_workload(alias):
    # The aliases exist only for the ids the benchmark's workloads name; one
    # that no workload names should go.
    head, brace, _ = alias.partition("{")
    assert (f'"{head}' if brace else f'"{alias}"') in WORKLOADS.read_text()
