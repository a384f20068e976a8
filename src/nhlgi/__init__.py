"""Renormalised two-level dynamics under real-spectrum non-Hermitian
Hamiltonians: temporal correlators beyond the Lueder bound, nonlinear Bloch
flow, Hermitian dilation with post-selection, and deterministic parameter
scans."""

__version__ = "0.1.0"

from .dynamics import (
    THETA_MAX,
    DegenerateEvolutionError,
    NHHamiltonian,
    StiffnessError,
    Trajectory,
    abn_frame,
    analytic_SB_Sn,
    bloch_of_pure,
    bloch_to_abn,
    down_y,
    down_z,
    evolve_density_noisy,
    evolve_pure,
    geodesic_distance,
    geodesic_distance_closed_form,
    integrate_bloch,
    projector,
    propagated_norm,
    speed,
    speed_closed_form,
    state_from_bloch_angles,
    up_y,
    up_z,
    validate_density,
    validate_pure,
)
from .embedding import (
    EmbeddedState,
    Metric,
    PostselectionStarvationError,
    build_HT,
    build_metric,
    build_psi_T,
    evolve_and_postselect,
    k3_via_embedding,
    theta_from_delta,
)
from .lgi import (
    ALGEBRAIC_BOUND,
    LUDER_BOUND,
    CorrelatorEngine,
    JointTable,
    LgiResult,
    Observable,
    k3_closed_form,
)
from . import qmat
from .qmat import dagger, is_hermitian, trace_distance
from .scan import (
    DEFAULT_KAPPA_GRID,
    DEFAULT_THETA_GRID,
    ScanConfigError,
    ScanResult,
    k3max_vs_noise,
    maximize_k3,
    maximize_speed,
)

__all__ = [
    "__version__",
    # qmat
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "ID2",
    "dagger",
    "is_hermitian",
    "trace_distance",
    # dynamics
    "THETA_MAX",
    "DegenerateEvolutionError",
    "StiffnessError",
    "NHHamiltonian",
    "Trajectory",
    "up_y",
    "down_y",
    "up_z",
    "down_z",
    "state_from_bloch_angles",
    "validate_pure",
    "validate_density",
    "projector",
    "bloch_of_pure",
    "abn_frame",
    "bloch_to_abn",
    "evolve_pure",
    "propagated_norm",
    "evolve_density_noisy",
    "integrate_bloch",
    "analytic_SB_Sn",
    "geodesic_distance",
    "geodesic_distance_closed_form",
    "speed",
    "speed_closed_form",
    # lgi
    "LUDER_BOUND",
    "ALGEBRAIC_BOUND",
    "Observable",
    "JointTable",
    "LgiResult",
    "CorrelatorEngine",
    "k3_closed_form",
    # embedding
    "PostselectionStarvationError",
    "Metric",
    "EmbeddedState",
    "theta_from_delta",
    "build_metric",
    "build_HT",
    "build_psi_T",
    "evolve_and_postselect",
    "k3_via_embedding",
    # scan
    "DEFAULT_KAPPA_GRID",
    "DEFAULT_THETA_GRID",
    "ScanConfigError",
    "ScanResult",
    "maximize_k3",
    "maximize_speed",
    "k3max_vs_noise",
]


def __getattr__(name):
    # The Pauli constants are qmat's, built there on first access (PEP 562),
    # so importing the package loads no numpy.
    if name in qmat._CONSTANTS:
        return getattr(qmat, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
