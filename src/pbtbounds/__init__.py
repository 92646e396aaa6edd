"""Lower bounds on adaptive quantum channel discrimination via port-based
teleportation simulation, with application bounds for optical resolution,
quantum illumination, metrology, and secret-key rates."""

from .applications import (
    KeyRateParams,
    MetrologyBound,
    QfiEstimate,
    binary_entropy,
    illumination_bound,
    illumination_chois,
    illumination_fidelity_approx,
    illumination_fidelity_exact,
    key_rate_bound_asymptotic,
    key_rate_bound_finite,
    key_rate_minimize_m,
    m_tilde,
    metrology_bound,
    qfi_choi,
    resolution_bound,
    resolution_chois,
    resolution_fidelity,
)
from .channels import ChoiMatrix, KrausChannel, amplitude_damping, choi
from .discrimination import (
    BoundReport,
    ad_discrimination_sweep,
    ad_fidelity,
    bound_B_near_identity,
    bound_B_optimized,
    default_m_grid,
)
from .linalg import DensityMatrix, fidelity, psd_sqrt
from .pbt import (
    delta_ad,
    delta_upper,
    diamond_via_choi_scalar_check,
    entanglement_fidelity_qubit,
    pbt_choi_qubit,
    simulate_channel_choi,
    simulation_error,
    xi,
)
from .pbt_oracle import oracle_channel_choi, oracle_xi

__version__ = "0.1.0"
