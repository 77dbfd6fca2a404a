"""Natural-gradient optimization with metrics derived from similarity measures.

Pick a parametric family, pick a similarity measure between distributions
(an f-divergence, a transport distance, a geodesic distance), and the local
Hessian of that similarity turns its geometry into a metric on parameter
space.  Preconditioning gradient descent with that metric gives the
corresponding natural-gradient method; near a minimum the metric approaches
the full cost Hessian, so the methods inherit Newton-like behavior without
ever computing second derivatives of the cost.
"""

from .errors import (
    CapabilityError,
    ConfigError,
    DivergenceInfiniteError,
    InvalidParameterError,
    NatgradError,
    NumericError,
)
from .families import (
    CategoricalSoftmax,
    Dataset,
    Family,
    FAMILY_IDS,
    Gaussian1D,
    GpPriorEq,
    LinearlyReparameterized,
    MultivariateNormalLogCholesky,
    get_family,
)
from .gp_bench import (
    BenchmarkConfig,
    BenchmarkResult,
    GpNllCost,
    eq_kernel,
    generate_data,
    gp_fisher_metric,
    gp_nll,
    gp_nll_grad,
    gp_w2_metric,
    run_benchmark,
)
from .metric import (
    LocalHessian,
    METRIC_IDS,
    MetricEngine,
    f_div_local_hessian,
    fd_local_hessian,
    fisher_information,
    monte_carlo_fisher,
    pullback_fisher_categorical,
    resolve_metric_engine,
    riemannian_pullback,
    spd_project,
    w2_local_hessian_1d,
    w2_local_hessian_gaussian,
    wp_local_hessian_1d,
)
from .optimizer import (
    Objective,
    OptimizerConfig,
    StepRecord,
    Trace,
    backtracking_line_search,
    make_objective,
    natural_gradient_step,
    newton_step,
    optimize,
)
from .similarity import (
    F_DIVERGENCES,
    FDivergence,
    FDivergenceSpec,
    SIMILARITY_IDS,
    Similarity,
    SquaredEuclidean,
    SquaredFisherRaoCategorical,
    SquaredW2Gaussian,
    WassersteinP,
    get_similarity,
)
from .validation import CheckResult, run_checks

__version__ = "0.1.0"
