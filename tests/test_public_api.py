"""Snapshot of the public API: the exported names and the call signature of every public function and class.

A change that drops, renames or re-types a public name or parameter fails here.  Such a change updates this
snapshot together with the CHANGES.md entry that states the API change.  Signatures are compared as
``str(inspect.signature(obj))`` prints them.
"""

import importlib
import inspect

import entrocap

LAYERS = ("linalg", "channels", "entropy", "capacity", "gaussian", "specfile", "suite")

TOP_LEVEL = [
    "CapacityResult", "CompositeLayout", "EnergyConstraint", "Ensemble", "GaussianChannelParams",
    "GaussianState", "KrausChannel", "OptimizerOptions", "PureVector", "QuantumOperation",
    "ResourceLimitError", "StinespringDilation", "SymplecticSpace", "ValidationError", "additivity_probe",
    "apply", "assert_density_operator", "assert_hermitian", "attenuator_params", "capacity", "cea_capacity",
    "channels", "check_prop1", "chi_capacity", "chi_quantity", "chi_through",
    "classify_gaussian", "coherent_information", "coincidence_certificate", "complementary",
    "conditional_entropy", "constraint_tensor", "cq_channel", "dephasing_channel", "depolarizing_channel",
    "dual_apply", "entropy", "environment_output", "errors", "feasible_linear_max", "fixed_marginal_ensemble",
    "fock_attenuator", "gaussian", "gaussian_mi_oracle", "hermitian_eig", "identity_channel", "is_cq",
    "is_cq_discrete", "linalg", "mean_photon_entropy", "minimize_kraus", "mutual_information",
    "number_operator", "partial_trace", "permute_subsystems", "pure_state_ensemble", "purify", "raw_entropy",
    "relative_entropy", "replacement_channel", "restrict", "sample_channel", "sample_hermitian",
    "sample_isometry", "sample_pure", "sample_state", "stinespring", "tensor", "tensor_channel",
    "thermal_gaussian_state", "thermal_state", "truncate", "truncation_convergence", "unitary_channel",
    "validate_gaussian",
]

LAYER_ALL = {
    "linalg": [
        "HERMITICITY_TOL", "PSD_TOL", "TRACE_TOL", "CompositeLayout", "PureVector", "assert_density_operator",
        "assert_hermitian", "hermitian_basis", "hermitian_eig", "hermitian_log2", "partial_trace",
        "permute_subsystems", "purify", "sample_hermitian", "sample_isometry", "sample_pure", "sample_state",
        "tensor",
    ],
    "channels": [
        "CHANNEL_TOL", "CqDiscreteResult", "CqResult", "KrausChannel", "QuantumOperation",
        "StinespringDilation", "apply", "complementary", "cq_channel", "dephasing_channel",
        "depolarizing_channel", "dual_apply", "dual_environment", "environment_output", "identity_channel",
        "is_cq", "is_cq_discrete", "minimize_kraus", "replacement_channel", "restrict", "sample_channel",
        "stinespring", "tensor_channel", "truncate", "unitary_channel",
    ],
    "entropy": [
        "SUPPORT_TOL", "Ensemble", "chi_quantity", "chi_through", "coherent_information",
        "conditional_entropy", "entropy", "fixed_marginal_ensemble", "mutual_information",
        "pure_state_ensemble", "raw_entropy", "relative_entropy",
    ],
    "capacity": [
        "CapacityResult", "EnergyConstraint", "LinearMaxResult", "OptimizerOptions", "additivity_probe",
        "cea_capacity", "check_prop1", "chi_capacity", "coincidence_certificate",
        "constraint_tensor", "feasible_linear_max", "mutual_information_value", "truncation_convergence",
    ],
    "gaussian": [
        "GaussianChannelParams", "GaussianState", "SymplecticSpace", "attenuator_params", "classify_gaussian",
        "fock_attenuator", "gaussian_mi_oracle", "mean_photon_entropy", "number_operator",
        "random_symplectic", "standard_symplectic_form", "symplectic_eigenvalues", "thermal_gaussian_state",
        "thermal_state", "validate_gaussian",
    ],
    "specfile": [
        "SCHEMA_VERSION", "ChannelSpec", "SpecFileError", "decode_complex_matrix", "encode_complex_matrix",
        "load_spec", "parse_spec",
    ],
    "suite": [
        "PROPERTIES", "run_suite",
    ],
}

SIGNATURES = {
    "linalg.CompositeLayout": "(dims: 'tuple[int, ...]', labels: 'tuple[str, ...]' = ()) -> None",
    "linalg.PureVector": "(vec: 'np.ndarray', layout: 'CompositeLayout') -> None",
    "linalg.assert_density_operator": "(rho, unit_trace: 'bool' = True, tol: 'float' = 1e-10, name: 'str' = 'state') -> 'np.ndarray'",
    "linalg.assert_hermitian": "(a, tol: 'float' = 1e-10, name: 'str' = 'matrix') -> 'np.ndarray'",
    "linalg.hermitian_basis": "(d: 'int') -> 'list[np.ndarray]'",
    "linalg.hermitian_eig": "(a, tol: 'float' = 1e-10)",
    "linalg.hermitian_log2": "(a, floor: 'float' = 1e-30) -> 'np.ndarray'",
    "linalg.partial_trace": "(x, layout, keep) -> 'np.ndarray'",
    "linalg.permute_subsystems": "(x, layout, order) -> 'np.ndarray'",
    "linalg.purify": "(rho) -> 'PureVector'",
    "linalg.sample_hermitian": "(dim: 'int', seed=0, scale: 'float' = 1.0) -> 'np.ndarray'",
    "linalg.sample_isometry": "(d_in: 'int', d_out: 'int', seed=0) -> 'np.ndarray'",
    "linalg.sample_pure": "(dim: 'int', seed=0) -> 'PureVector'",
    "linalg.sample_state": "(dim: 'int', rank: 'int | None' = None, seed=0) -> 'np.ndarray'",
    "linalg.tensor": "(*ops) -> 'np.ndarray'",
    "channels.CqDiscreteResult": "(is_discrete: ForwardRef('bool'), basis: ForwardRef('np.ndarray | None'), max_commutator: ForwardRef('float'))",
    "channels.CqResult": "(is_cq: ForwardRef('bool'), max_commutator: ForwardRef('float'))",
    "channels.KrausChannel": "(kraus: 'tuple') -> None",
    "channels.QuantumOperation": "(kraus: 'tuple') -> None",
    "channels.StinespringDilation": "(isometry: 'np.ndarray', layout: 'CompositeLayout') -> None",
    "channels.apply": "(op: 'QuantumOperation', rho) -> 'np.ndarray'",
    "channels.complementary": "(op: 'QuantumOperation') -> 'QuantumOperation'",
    "channels.cq_channel": "(states, dim_in: 'int | None' = None) -> 'KrausChannel'",
    "channels.dephasing_channel": "(dim: 'int' = 2) -> 'KrausChannel'",
    "channels.depolarizing_channel": "(p: 'float', dim: 'int' = 2) -> 'KrausChannel'",
    "channels.dual_apply": "(op: 'QuantumOperation', a) -> 'np.ndarray'",
    "channels.dual_environment": "(op: 'QuantumOperation', m) -> 'np.ndarray'",
    "channels.environment_output": "(op: 'QuantumOperation', rho) -> 'np.ndarray'",
    "channels.identity_channel": "(dim: 'int') -> 'KrausChannel'",
    "channels.is_cq": "(channel: 'QuantumOperation', tol: 'float' = 1e-08) -> 'CqResult'",
    "channels.is_cq_discrete": "(channel: 'QuantumOperation', tol: 'float' = 1e-08, seed: 'int' = 0, attempts: 'int' = 4) -> 'CqDiscreteResult'",
    "channels.minimize_kraus": "(op: 'QuantumOperation', cutoff: 'float' = 1e-12) -> 'QuantumOperation'",
    "channels.replacement_channel": "(tau, dim_in: 'int | None' = None) -> 'KrausChannel'",
    "channels.restrict": "(channel: 'QuantumOperation', basis) -> 'QuantumOperation'",
    "channels.sample_channel": "(dim_in: 'int', dim_out: 'int', kraus_rank: 'int', seed=0) -> 'KrausChannel'",
    "channels.stinespring": "(op: 'QuantumOperation') -> 'StinespringDilation'",
    "channels.tensor_channel": "(op1: 'QuantumOperation', op2: 'QuantumOperation') -> 'QuantumOperation'",
    "channels.truncate": "(channel: 'QuantumOperation', n: 'int', tau, ordering=None) -> 'QuantumOperation'",
    "channels.unitary_channel": "(u) -> 'KrausChannel'",
    "entropy.Ensemble": "(weights: 'np.ndarray', states: 'tuple') -> None",
    "entropy.chi_quantity": "(mu: 'Ensemble') -> 'float'",
    "entropy.chi_through": "(op: 'QuantumOperation', mu: 'Ensemble') -> 'float'",
    "entropy.coherent_information": "(rho, op: 'QuantumOperation', route: 'str' = 'relative_entropy') -> 'float'",
    "entropy.conditional_entropy": "(rho, layout, sys=(0,), cond=(1,)) -> 'float'",
    "entropy.entropy": "(a) -> 'float'",
    "entropy.fixed_marginal_ensemble": "(omega_ab, encodings, weights, dims) -> 'Ensemble'",
    "entropy.mutual_information": "(rho, op: 'QuantumOperation', route: 'str' = 'relative_entropy') -> 'float'",
    "entropy.pure_state_ensemble": "(weights, vectors) -> 'Ensemble'",
    "entropy.raw_entropy": "(a) -> 'float'",
    "entropy.relative_entropy": "(a, b, support_tol: 'float' = 1e-12, leak_tol: 'float | None' = None) -> 'float'",
    "capacity.CapacityResult": "(value: 'float', optimizer: 'object', gap: 'float | None', heuristic: 'bool', iterations: 'int', wall_time: 'float', converged: 'bool', trace: 'tuple' = ()) -> None",
    "capacity.EnergyConstraint": "(operator: 'np.ndarray', bound: 'float') -> None",
    "capacity.LinearMaxResult": "(state: 'np.ndarray', value: 'float', gap: 'float', multiplier: 'float') -> None",
    "capacity.OptimizerOptions": "(max_iterations: 'int' = 300, gap_tolerance: 'float' = 1e-05, restarts: 'int' = 1, seed: 'int' = 0, epsilon: 'float' = 1e-09) -> None",
    "capacity.additivity_probe": "(channel: 'KrausChannel', constraint: 'EnergyConstraint', opts: 'OptimizerOptions | None' = None) -> 'dict'",
    "capacity.cea_capacity": "(channel: 'KrausChannel', constraint: 'EnergyConstraint', opts: 'OptimizerOptions | None' = None) -> 'CapacityResult'",
    "capacity.check_prop1": "(channel: 'KrausChannel', constraint: 'EnergyConstraint', opts: 'OptimizerOptions | None' = None, tolerance: 'float' = 1e-06) -> 'dict'",
    "capacity.chi_capacity": "(channel: 'KrausChannel', constraint: 'EnergyConstraint', members: 'int | None' = None, opts: 'OptimizerOptions | None' = None) -> 'CapacityResult'",
    "capacity.coincidence_certificate": "(channel: 'KrausChannel', constraint: 'EnergyConstraint', opts: 'OptimizerOptions | None' = None, support_tol: 'float' = 1e-10) -> 'dict'",
    "capacity.constraint_tensor": "(constraint: 'EnergyConstraint', n: 'int') -> 'EnergyConstraint'",
    "capacity.feasible_linear_max": "(g, constraint: 'EnergyConstraint') -> 'LinearMaxResult'",
    "capacity.mutual_information_value": "(channel: 'KrausChannel', rho) -> 'float'",
    "capacity.truncation_convergence": "(channel: 'KrausChannel', constraint: 'EnergyConstraint', ranks, tau, ordering=None, opts: 'OptimizerOptions | None' = None) -> 'dict'",
    "gaussian.GaussianChannelParams": "(K: 'np.ndarray', l: 'np.ndarray', alpha: 'np.ndarray', space_in: 'SymplecticSpace', space_out: 'SymplecticSpace') -> None",
    "gaussian.GaussianState": "(mean: 'np.ndarray', cov: 'np.ndarray') -> None",
    "gaussian.SymplecticSpace": "(dim: 'int', form: 'np.ndarray') -> None",
    "gaussian.attenuator_params": "(eta: 'float', env_photons: 'float' = 0.0) -> 'GaussianChannelParams'",
    "gaussian.classify_gaussian": "(params: 'GaussianChannelParams', tol: 'float' = 1e-12, rank_tol: 'float' = 1e-10) -> 'dict'",
    "gaussian.fock_attenuator": "(eta: 'float', cutoff: 'int') -> 'KrausChannel'",
    "gaussian.gaussian_mi_oracle": "(params: 'GaussianChannelParams', state: 'GaussianState') -> 'float'",
    "gaussian.mean_photon_entropy": "(n: 'float') -> 'float'",
    "gaussian.number_operator": "(cutoff: 'int') -> 'np.ndarray'",
    "gaussian.random_symplectic": "(dim: 'int', seed=0, scale: 'float' = 0.4) -> 'np.ndarray'",
    "gaussian.standard_symplectic_form": "(modes: 'int') -> 'np.ndarray'",
    "gaussian.symplectic_eigenvalues": "(cov, delta=None) -> 'np.ndarray'",
    "gaussian.thermal_gaussian_state": "(mean_photons: 'float') -> 'GaussianState'",
    "gaussian.thermal_state": "(mean_photons: 'float', cutoff: 'int') -> 'np.ndarray'",
    "gaussian.validate_gaussian": "(params: 'GaussianChannelParams', tol: 'float' = 1e-10) -> 'dict'",
    "specfile.ChannelSpec": "(kind: 'str', channel: 'KrausChannel | None', gaussian: 'GaussianChannelParams | None', constraint: 'EnergyConstraint | None', input_state: 'np.ndarray | None', ensemble: 'Ensemble | None' = None, options: 'dict' = <factory>, raw: 'dict' = <factory>) -> None",
    "specfile.SpecFileError": "(message: 'str', location: 'str' = '')",
    "specfile.decode_complex_matrix": "(obj, where: 'str') -> 'np.ndarray'",
    "specfile.encode_complex_matrix": "(mat) -> 'list'",
    "specfile.load_spec": "(path: 'str') -> 'ChannelSpec'",
    "specfile.parse_spec": "(doc: 'dict') -> 'ChannelSpec'",
    "suite.run_suite": "(seed: 'int' = 0, names=None) -> 'list'",
}


def _public_callables():
    for layer in LAYERS:
        module = importlib.import_module(f"entrocap.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                yield f"{layer}.{name}", obj


def test_top_level_names():
    assert sorted(entrocap.__all__) == TOP_LEVEL


def test_layer_all():
    assert {layer: list(importlib.import_module(f"entrocap.{layer}").__all__) for layer in LAYERS} == LAYER_ALL


def test_signatures():
    assert {name: str(inspect.signature(obj)) for name, obj in _public_callables()} == SIGNATURES
