"""Principal sub-manifolds on embedded spheres and flat charts.

The package fits multi-dimensional generalizations of principal components
to data living on a unit sphere (or a flat chart): from a start point, nets
of points grow outward along local tangent covariance frames, one small
geodesic step at a time.  Submodules: geometry (sphere primitives and
PointArray, the matrix that holds every point set), tangent_stats (kernel
covariance, frames, Frechet means), shape (planar landmark preshapes),
fitting (the net-growing procedure), viz (exports), datagen (synthetic
datasets), cli (command line).
"""

from .errors import (
    AntipodalPairError,
    CutLocusError,
    DegenerateConfigError,
    DegenerateOrbitError,
    DegenerateProjectionError,
    DimensionMismatchError,
    EmptyNeighborhoodError,
    HemisphereViolationError,
    InfeasibleShiftError,
    LandmarkFormatError,
    NoConvergenceError,
    NotAShapeFitError,
    NotCenteredError,
    PsmError,
    RankDeficientError,
    ZeroVectorError,
)
from .geometry import (
    FLAT,
    SPHERE,
    Point,
    PointArray,
    exp_map,
    geodesic_distance,
    log_map,
    points_matrix,
    project_to_sphere,
)
from .tangent_stats import (
    GAUSSIAN,
    UNIFORM_BALL,
    EigenFrame,
    KernelSpec,
    eigenframe,
    frechet_mean,
    frechet_variance,
    local_covariance,
)
from .shape import align_dataset, from_preshape, read_landmarks
from .fitting import (
    FitConfig,
    Net,
    StopReason,
    Submanifold,
    VariationScore,
    fit_submanifold,
    net_length,
    seed_directions,
    step_net,
    stop_check,
    variation_score,
)
from .viz import (
    principal_directions,
    principal_geodesics,
    project_submanifold,
    shape_grid,
    write_projected_csv,
    write_shapes_json,
    write_submanifold_csv,
)
from .datagen import (
    GENERATOR_ID,
    generate,
    read_dataset_csv,
    sea_wave_height,
    write_dataset_csv,
)

__version__ = "0.1.0"
