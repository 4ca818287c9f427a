"""Numerical differential geometry of constant p-mean curvature surfaces
in the Heisenberg group: closed-form solution families of the
characteristic ODE, induced-metric representations and normal forms,
ruled-surface construction, and independent graph verification."""

from .errors import (
    BadRotation,
    BlowUp,
    DegenerateBranch,
    DegenerateChart,
    EvaluationError,
    ExprSyntaxError,
    HeisminError,
    MixedType,
    NewtonDivergence,
    PreconditionFailed,
    QuadratureFailure,
    SingularPoint,
)
from .heis import (
    HPoint,
    RigidMotion,
    apply_motion,
    contact_value,
    group_mul,
)
from .lienard import (
    AlphaSolution,
    General,
    OdeSolutionCurve,
    PhaseState,
    SpecialI,
    SpecialII,
    Zero,
    conserved_quantity,
    fit_solution,
    integrate_ivp,
    lienard_residual,
    phase_field,
)
from .models import (
    AlphaModel,
    CoordChange,
    MetricRep,
    NormalForm,
    SurfaceType,
    YFunction,
    classify,
    first_fundamental_form,
    metric_rep,
    normalize,
)
from .integrability import (
    Field2D,
    integrability_residual,
    metric_from_alpha_H,
)
from .construct import (
    GeneratingCurve,
    bernstein_plane,
    bernstein_saddle,
    conicoid_chart,
    curve_from_zeta,
    curve_invariants,
    helicoid_chart,
    ruled_surface,
    zeta_from_curve,
)
from .verify import (
    GraphSurface,
    SingularReport,
    SurfaceChart,
    go_through_check,
    legendrian_line_check,
    numeric_H_on_chart,
    numeric_alpha_on_chart,
    pmge_residual,
    singular_set,
)

__version__ = "0.1.0"
