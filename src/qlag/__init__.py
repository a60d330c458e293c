"""Lagrangian tori from integer quadric systems, with numerical
certification of the claimed geometry in C^n and CP^(n-1)."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ApexPoint,
    ChartFailure,
    ChartUnavailable,
    ConfigInvalid,
    CrossCheckFailed,
    DimensionMismatch,
    DimensionUnsupported,
    MeshTooCoarse,
    NoConvergence,
    NonFreeWitness,
    NotACone,
    QlagError,
    RankDeficient,
    SamplingExhausted,
    SingularBasis,
    SingularJacobian,
    SingularPoint,
)
from .lattice import (  # noqa: F401
    ExponentMatrix,
    GammaGroup,
    LatticeBasis,
    dual_basis,
    gamma_representatives,
    hermite_normal_form,
    lattice_basis_from_generators,
    pairing,
    pairing_parity,
    sum_vector,
    verify_free_action,
)
from .quadric import (  # noqa: F401
    QuadricSystem,
    Tolerances,
    newton_project,
    sample_points,
    with_unit_sphere,
)
from .immersion import (  # noqa: F401
    FrameBundle,
    LagrangianAngle,
    frame_at,
    hamiltonian_variation,
    harmonicity_defect,
    lagrangian_angle,
    lagrangian_defect,
    mean_curvature,
    mean_curvature_fd,
    phi,
    product_system,
    sample_immersion,
)
from .projective import (  # noqa: F401
    projective_lagrangian_defect,
    projective_mean_curvature,
    submersion_isometry_defect,
)
from .quotient import (  # noqa: F401
    TopologyLabel,
    classify_quotient,
    orbit,
    orientation_character,
    scan_self_intersections,
)
from .pipeline import InstanceConfig, run_analyze, serialize_report  # noqa: F401
