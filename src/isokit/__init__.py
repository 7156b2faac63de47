"""Numerical geometry in the simply isotropic plane and space.

Curves and surfaces measured against the degenerate metric, the relative
(parabolic-normal) length and area elements that make hanging problems
non-trivial, closed-form and discrete solvers for the resulting critical
profiles, and classification of the invariant hanging surfaces.
"""

from types import ModuleType as _ModuleType

from .core import (
    IsoVec2,
    IsoVec3,
    euclid_dot,
    iso_dot,
    iso_norm,
    sec_dot,
    top_view,
)
from .curves import (
    LX,
    LZ,
    CatenaryFamily,
    GraphCurve,
    PlaneCurve,
    ProfileForm,
    catenary_curvature_residual,
    curvature,
    minimal_normal,
    parabolic_normal,
    relative_arclength,
    unit_tangent,
)
from .errors import (
    DomainError,
    InvalidIntervalError,
    InvalidRadiusError,
    IsoKitError,
    MaxIterExceededError,
    NoConvergenceError,
    NonAdmissibleError,
    NonContractionError,
    SingularDenominatorError,
    SingularityError,
    StepFailureError,
)
from .odes import (
    IVPResult,
    ProfileODE,
    integrate,
    ivp_residual,
    operator_T_apply,
    picard_solve_degenerate,
)
from .singular import (
    PI_XY,
    PI_YZ,
    AlphaRevolutionLink,
    CatenoidBoundary,
    CatenoidSolution,
    ClassificationReport,
    SingularSpec,
    classify_helicoidal,
    classify_parabolic_revolution,
    cmc_quadric_coefficients,
    quadric_type,
    sms_residual,
    solve_catenoid_boundary,
)
from .surfaces import (
    HelicoidalSpec,
    ParabolicRevolutionSpec,
    ParamSurface,
    RevolutionSpec,
    fundamental_forms,
    make_helicoidal,
    make_parabolic_revolution,
    make_revolution,
    mean_curvature,
    parabolic_revolution_F,
    parabolic_revolution_mean_curvature,
    relative_area,
    revolution_mean_curvature,
    surface_minimal_normal,
    surface_parabolic_normal,
)
from .variational import (
    DiscreteCurve,
    WeightFunctionalSpec,
    el_residual,
    evaluate_functional,
    functional_gradient,
    lambda_sweep,
    minimize,
)

__version__ = "0.1.0"

__all__ = [n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType))]
