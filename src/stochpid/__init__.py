"""Extended PID/PD design, certification and Monte Carlo validation
for uncertain nonlinear stochastic systems of arbitrary relative degree."""

from .design import (
    BoundConstants,
    DesignReport,
    GainVector,
    InvalidBeta,
    NonPositiveGain,
    bound_constants,
    check_inequality,
    check_inequality_pd,
    geometric_gains,
    lambda_gains,
)
from .lyapunov import (
    CertificateError,
    LyapunovCertificate,
    NotNegativeDefinite,
    NotPositiveDefinite,
    build_P,
    companion,
    q_diagonal,
    verify_certificate,
)
from .model import (
    DegenerateBeta,
    NoConvergence,
    NonFinite,
    PlantSpec,
    Setpoint,
    ShiftedState,
    ZState,
    falsify_lipschitz,
    shifted_coordinates,
    shifted_to_raw,
    solve_equilibrium,
    z_inverse,
    z_transform,
)
from .plants import bench3, build_plant, chain, expression_plant, ou
from .simulate import (
    ClosedLoopState,
    DimensionMismatch,
    Diverged,
    EnsembleStats,
    SimConfig,
    bound_envelope,
    controller_pd,
    controller_pid,
    dissipativity_probe,
    em_step,
    generator_eval,
    simulate_paths,
)
from .stability import (
    DegreeTooLow,
    IndeterminateStability,
    NonPositiveCoefficient,
    char_coeffs,
    determining_coeffs,
    is_hurwitz,
    nie_stable,
    routh_hurwitz,
)

__version__ = "0.1.0"
