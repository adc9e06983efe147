"""heatlab: discrete heat-semigroup geometry and its inequality checks.

Model spaces (boxes, tori, spheres, the Heisenberg group lattice) are
finite weighted graphs whose Laplacians are self-adjoint by construction;
eigensolvers and the exact heat flow (``apply_semigroup``), each a
function of the model alone, a reference time stepper, intrinsic
distances, and a suite of quantitative margin checks
(curvature-dimension, gradient bounds, Li-Yau, Harnack, Gaussian kernel
bounds, doubling, Poincare, log-Sobolev, Sobolev, diameter) sit on top.
"""
from .fields import (
    CDParameters,
    DiscretizedModel,
    EdgeForm,
    MismatchError,
    NotApplicableError,
    ScalarField,
    carre_du_champ,
    deep_interior,
    gamma2,
    gamma2_z,
    gamma_z,
    interior_for_time,
)
from .models import (
    GeometryOracle,
    ModelSpec,
    UnsupportedModelError,
    build_model,
    exact_heat_kernel,
    model_hash,
    node_nearest,
)
from .metric import (
    DistanceField,
    ball_volumes,
    discrete_perimeter,
    distance_field,
    dual_distance,
    graph_distance,
    subunit_distance_heisenberg,
    volume_growth_exponent,
)
from .reports import MarginReport, Tolerance
from .checks import check_operator_axioms
from .semigroup import (
    CrankNicolson,
    SpectralData,
    apply_semigroup,
    eigenvalue_clusters,
    equilibrium_error,
    equilibrium_rate,
    heat_kernel_block,
    load_spectral,
    neumann_restrict,
    save_spectral,
    spectral_decompose,
)

__version__ = "0.1.0"
