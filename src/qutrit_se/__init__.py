"""Spontaneous-emission channels for qubits and V-configuration qutrits.

Bloch-vector, Kraus and Lindblad forms of the channel, Werner-state
separability and fidelity analysis, an independent partial-transpose
negativity oracle, and Haar-moment checks.
"""

from .analysis import (
    crossing_time,
    fidelity_closed,
    fidelity_from_state,
    haar_bloch_vectors,
    haar_moment_check,
    indicator_closed,
    negativity,
    ppt_threshold,
    preservation_inequality,
    qubit_crossing_closed,
    s_from_state,
    separability_report,
)
from .channels import (
    ChannelParams,
    apply_kraus,
    lift,
    lindblad_evolve,
    lindblad_jump_ops,
    se_affine_map,
    se_kraus,
    se_kraus_qutrit,
    superoperator,
)
from .linalg import (
    NoConvergenceError,
    NonHermitianError,
    hermitian_eigenvalues,
    kron,
    partial_transpose,
    random_density_matrix,
)
from .states import correlation_matrix, max_entangled, werner
from .su import bloch_to_density, density_to_bloch, generator_basis, star_product

__version__ = "0.1.0"
