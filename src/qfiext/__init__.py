"""Channel quantum Fisher information for unitary parameter estimation.

Compute QFI and channel QFI of parametrized unitary evolutions, the
semi-norm upper bound and its saturation conditions, and the
Hamiltonian-extension schemes that reach the bound: signal flooding,
Hamiltonian subtraction, and time-scaling engineering. Built-in models
cover NV-center axial-field magnetometry and field-direction estimation
with a spin-1 probe.
"""

from .errors import (
    DegenerateExtremalEigenvalues,
    DimensionMismatch,
    FamilyFileError,
    InvalidSpec,
    ModelError,
    NonHermitianInput,
    QfiextError,
    StepTooSmall,
)
from .family import (
    FamilyValidation,
    HamiltonianFamily,
    validate_family,
)
from .generator import (
    GeneratorMethod,
    GeneratorResult,
    broken_phase_shift_generator_at_zero,
    generator_fd,
    generator_quadrature,
    generator_spectral,
)
from .linalg import (
    EigenDecomposition,
    HermitianOperator,
    PureState,
    UnitaryOperator,
    degenerate_blocks,
    eig_hermitian,
    expm_unitary,
    random_hermitian,
    seminorm,
    variance,
)
from .extensions import (
    AddOperator,
    Flood,
    Subtract,
    SubtractPerturbed,
    add_operator,
    apply_extension,
    flood,
    predicted_subtraction_deficit,
    subtract,
    subtract_perturbed,
    tensor_identity,
)
from .models import (
    DirectionParams,
    HBAR,
    LANDE_G_DEFAULT,
    MU_B,
    NV_D_DEFAULT,
    NV_E_DEFAULT,
    NvParams,
    broken_phase_shift_family,
    direction_family,
    direction_reference_qfi,
    direction_reference_subtraction_qfi,
    direction_sz_family,
    gyromagnetic_ratio,
    nv_family,
    nv_flooded_family,
    spin1_matrices,
)
from .qfi import (
    ChannelQfiReport,
    SaturationStatus,
    SaturationVerdict,
    channel_qfi,
    channel_qfi_brute,
    check_saturation,
    qfi_pure,
    upper_bound,
)
from .sweep import (
    Grid,
    Preset,
    SweepResult,
    SweepSpec,
    load_config,
    load_preset,
    preset_names,
    rows_to_csv,
    rows_to_json,
    run_sweep,
)

__version__ = "0.1.0"
