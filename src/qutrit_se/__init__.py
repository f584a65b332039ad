"""Spontaneous-emission channels for qubits and V-configuration qutrits.

Bloch-vector, Kraus and Lindblad forms of the channel, Werner-state
separability and fidelity analysis, an independent partial-transpose
negativity oracle, and Haar-moment checks.
"""

from .analysis import (
    SeparabilityReport,
    crossing_time,
    fidelity_closed,
    fidelity_from_state,
    haar_bloch_vectors,
    haar_moment_check,
    indicator_closed,
    indicator_crossings,
    negativity,
    ppt_threshold,
    preservation_inequality,
    qubit_crossing_closed,
    s_from_state,
    separability_report,
)
from .channels import (
    AffineBlochMap,
    ChannelParams,
    KrausChannel,
    apply_kraus,
    bipartite_channel,
    lindblad_evolve,
    lindblad_jump_ops,
    se_affine_map,
    se_kraus,
    se_kraus_qutrit,
)
from .linalg import (
    NoConvergenceError,
    NonHermitianError,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    partial_transpose,
    random_density_matrix,
)
from .states import ValidationReport, correlation_matrix, max_entangled, validate_density, werner
from .su import (
    GeneratorBasis,
    atom_vars_to_bloch,
    bloch_to_density,
    density_to_bloch,
    generator_basis,
    is_pure_bloch,
    star_product,
    structure_constants,
)

__version__ = "0.1.0"
