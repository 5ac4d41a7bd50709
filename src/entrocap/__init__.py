"""entrocap: entropic quantities and constrained capacities of quantum channels.

A dense-matrix toolkit for finite-dimensional channels: entropies and
relative entropy (including the trace-<=1 extensions), chi-quantities of
finitely supported ensembles, quantum mutual and coherent information,
certified entanglement-assisted capacity under a linear energy constraint,
classical-quantum classification, and a Fock-truncated Gaussian attenuator
with a covariance-matrix oracle.  All entropic values are in bits.
"""

__version__ = "0.1.0"

from .capacity import (
    CapacityResult,
    EnergyConstraint,
    OptimizerOptions,
    additivity_probe,
    cea_capacity,
    check_prop1,
    chi_capacity,
    coincidence_certificate,
    constraint_tensor,
    feasible_linear_max,
    truncation_convergence,
)
from .channels import (
    KrausChannel,
    QuantumOperation,
    StinespringDilation,
    apply,
    complementary,
    cq_channel,
    dephasing_channel,
    depolarizing_channel,
    dual_apply,
    environment_output,
    identity_channel,
    is_cq,
    is_cq_discrete,
    minimize_kraus,
    replacement_channel,
    restrict,
    sample_channel,
    stinespring,
    tensor_channel,
    truncate,
    unitary_channel,
)
from .entropy import (
    Ensemble,
    chi_quantity,
    chi_through,
    coherent_information,
    conditional_entropy,
    entropy,
    fixed_marginal_ensemble,
    mutual_information,
    pure_state_ensemble,
    raw_entropy,
    relative_entropy,
)
from .errors import ResourceLimitError, ValidationError
from .gaussian import (
    GaussianChannelParams,
    GaussianState,
    SymplecticSpace,
    attenuator_params,
    classify_gaussian,
    fock_attenuator,
    gaussian_mi_oracle,
    mean_photon_entropy,
    number_operator,
    thermal_gaussian_state,
    thermal_state,
    validate_gaussian,
)
from .linalg import (
    CompositeLayout,
    PureVector,
    assert_density_operator,
    assert_hermitian,
    hermitian_eig,
    partial_trace,
    permute_subsystems,
    purify,
    sample_hermitian,
    sample_isometry,
    sample_pure,
    sample_state,
    tensor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
