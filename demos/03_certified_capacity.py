"""Certified entanglement-assisted capacity under an energy bound.

The optimizer is a Bregman-proximal (Blahut-Arimoto) mirror ascent from the
Gibbs state of the energy operator.  Each iterate is certified by concavity:
the linear oracle maximizes the gradient over the energy-feasible states, with
its multiplier found by a tangent search, so every run produces a bracket
[value, value + gap] that provably contains the optimum.
"""

import numpy as np

from entrocap import (
    EnergyConstraint,
    OptimizerOptions,
    additivity_probe,
    cea_capacity,
    chi_capacity,
    dephasing_channel,
    depolarizing_channel,
    feasible_linear_max,
    identity_channel,
    mutual_information,
    sample_hermitian,
)

# The linear oracle: maximize Tr(G sigma) over energy-feasible states.
G = sample_hermitian(3, seed=3)
constraint3 = EnergyConstraint(np.diag([0.0, 1.0, 2.0]), 0.8)
lin = feasible_linear_max(G, constraint3)
print(f"linear oracle value {lin.value:.9f}, certified gap {lin.gap:.1e}, "
      f"multiplier {lin.multiplier:.4f}")
print(f"optimizer energy {constraint3.energy(lin.state):.9f} <= 0.8\n")

# Identity qubit with an excitation bound of 1/4: the optimum is the
# constrained max-entropy state diag(3/4, 1/4), value 2 h(1/4).
constraint = EnergyConstraint(np.diag([0.0, 1.0]), 0.25)
res = cea_capacity(identity_channel(2), constraint, OptimizerOptions(max_iterations=500))
closed_form = 2.0 * (-(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25)))
print(f"identity qubit: bracket [{res.value:.9f}, {res.value + res.gap:.9f}]")
print(f"closed form 2 h(1/4) = {closed_form:.9f} (inside: "
      f"{res.value <= closed_form <= res.value + res.gap})")
print(f"optimizer spectrum: {np.round(np.linalg.eigvalsh(res.optimizer), 6)}\n")

# Depolarizing qubit, inactive constraint: covariance forces the optimum to
# the maximally mixed input, so the oracle is one mutual-information call.
chan = depolarizing_channel(0.5)
oracle = mutual_information(np.eye(2) / 2, chan, route="entropies")
res2 = cea_capacity(chan, EnergyConstraint(np.diag([0.0, 1.0]), 1.0))
print(f"depolarizing(1/2): value {res2.value:.9f} (gap {res2.gap:.1e}), "
      f"oracle {oracle:.9f}\n")

# Heuristic chi lower bound next to the certified value.
chi = chi_capacity(identity_channel(2), constraint)
print(f"identity qubit chi value (heuristic): {chi.value:.6f} bits "
      f"(= h(1/4) = {closed_form / 2:.6f})")
print(f"assistance gain: {res.value - chi.value:.6f} bits\n")

# Two-copy probe: the doubled problem reproduces twice the single-copy value
# within the combined certificates.
probe = additivity_probe(
    dephasing_channel(2),
    EnergyConstraint(np.diag([0.0, 1.0]), 1.0),
    OptimizerOptions(max_iterations=300, gap_tolerance=1e-4),
)
print("two-copy additivity probe (dephasing):")
print(f"  single {probe['single_value']:.9f} (gap {probe['single_gap']:.1e})")
print(f"  double {probe['double_value']:.9f} (gap {probe['double_gap']:.1e})")
print(f"  |double - 2 single| = {abs(probe['difference']):.2e} "
      f"<= combined gap {probe['combined_gap']:.2e}")
