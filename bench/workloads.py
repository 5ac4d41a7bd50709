"""The benchmark's workloads.

Each workload has
  ``build(seed, workdir)``   the inputs, made from the seed (timed as set-up),
  ``body(inputs)``           the calls into the public API (timed as run_s),
  ``gates(results, refs)``   correctness checks of one body's results,
  ``digest(results)``        bytes that must repeat exactly from rep to rep,
  ``quality(results)``       (widest certified C_ea gap, sum of chi values),
and ``references()`` gives the closed forms the gates compare against.

Why these three: ``cea_attenuator`` is Frank-Wolfe on d = 11 and 21 with many
Kraus operators; ``mi_fock`` is a few large dense eigendecompositions and no
optimizer; ``cli_specs`` is the only workload that reaches ``specfile`` and
``cli``, and it runs the chi optimizer on d <= 3, where per-call overhead and
validation dominate, on a qubit and on a classical-quantum channel.

What the seed picks: for ``mi_fock`` random phases ``K -> diag(b) K diag(a)^*``,
which commute with the diagonal thermal input, so the oracle still applies and
the work is the same; for ``cli_specs`` the ``--seed`` flag of the commands.
``cea_attenuator`` is one fixed problem and ignores the seed: any change of
basis changes Frank-Wolfe's path (28-31 iterations at cutoff 20 over six
phase draws), and with it the run time by up to 10%.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import entrocap as ec
from entrocap import cli

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"


def g(x: float) -> float:
    """Entropy in bits of a thermal state with mean photon number x."""
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x) if x > 0.0 else 0.0


def h(p: float) -> float:
    """Binary entropy in bits."""
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def waterfilling_entropy(levels, bound: float) -> float:
    """max H(p) subject to sum_k p_k levels_k <= bound (Gibbs weights, bisection on beta)."""
    levels = np.asarray(levels, dtype=float)

    def gibbs(beta):
        w = np.exp(-beta * (levels - levels.min()))
        return w / w.sum()

    lo, hi = 0.0, 1.0
    while gibbs(hi) @ levels > bound:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gibbs(mid) @ levels > bound else (lo, mid)
    p = gibbs(hi)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def phased(channel, rng: np.random.Generator):
    """The channel conjugated by random diagonal phases on input and output."""
    a = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, channel.dim_in))
    b = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, channel.dim_out))
    return ec.KrausChannel(tuple(b[:, None] * k * a.conj()[None, :] for k in channel.kraus))


def _floats(*values) -> bytes:
    return repr([float(v) for v in values]).encode()


# -- cea_attenuator: certified C_ea of the Fock attenuator ------------------

CEA_ETA = 0.6
CEA_ENERGY = 1.0
CEA_CUTOFFS = (10, 20)


def cea_build(seed: int, workdir: str):
    return [
        (n, ec.fock_attenuator(CEA_ETA, n), ec.EnergyConstraint(ec.number_operator(n), CEA_ENERGY))
        for n in CEA_CUTOFFS
    ]


def cea_body(inputs):
    return {n: ec.cea_capacity(channel, constraint) for n, channel, constraint in inputs}


def cea_references() -> dict:
    e, eta = CEA_ENERGY, CEA_ETA
    return {
        "closed_form": g(e) + g(eta * e) - g((1.0 - eta) * e),
        "gap_tolerance": ec.OptimizerOptions().gap_tolerance,
    }


def cea_gates(results, refs):
    # the truncated attenuator acts exactly on its input subspace, so every
    # cutoff's lower end stays below the closed form; only the largest
    # cutoff is fine enough for its bracket to contain it
    cf = refs["closed_form"]
    top = max(results)
    out = []
    for n, res in sorted(results.items()):
        if n == top:
            out.append((f"cea.N{n}.contains_closed_form", res.value <= cf <= res.value + res.gap))
        else:
            out.append((f"cea.N{n}.lower_end_below_closed_form", res.value <= cf))
        out.append((f"cea.N{n}.gap_within_tolerance", res.gap <= refs["gap_tolerance"]))
    return out


def cea_digest(results) -> bytes:
    return _floats(*(x for res in results.values() for x in (res.value, res.gap, res.iterations)))


def cea_quality(results):
    return max(res.gap for res in results.values()), None


# -- mi_fock: mutual information of the Fock attenuator, both routes --------

MI_ETA = 0.6
MI_PHOTONS = 1.0
MI_CUTOFFS = (10, 20, 30)
MI_ROUTE_TOL = 1e-8
# criterion 09 allows 5e-3 at cutoff 40; at cutoff 30 the truncation error
# is ~2e-8, and a tolerance below 1e-3 lets the gate see a 1e-3 error
MI_ORACLE_TOL = 1e-6


def mi_build(seed: int, workdir: str):
    rng = np.random.default_rng(seed)
    return [
        (n, ec.thermal_state(MI_PHOTONS, n), phased(ec.fock_attenuator(MI_ETA, n), rng))
        for n in MI_CUTOFFS
    ]


def mi_body(inputs):
    return {
        n: (
            ec.mutual_information(rho, channel),
            ec.mutual_information(rho, channel, route="entropies"),
        )
        for n, rho, channel in inputs
    }


def mi_references() -> dict:
    oracle = ec.gaussian_mi_oracle(ec.attenuator_params(MI_ETA), ec.thermal_gaussian_state(MI_PHOTONS))
    return {"oracle": oracle, "route_tolerance": MI_ROUTE_TOL, "oracle_tolerance": MI_ORACLE_TOL}


def mi_gates(results, refs):
    out = [
        (f"mi.N{n}.routes_agree", abs(dense - entropies) <= refs["route_tolerance"])
        for n, (dense, entropies) in sorted(results.items())
    ]
    dense, _ = results[max(results)]
    out.append((f"mi.N{max(results)}.matches_oracle", abs(dense - refs["oracle"]) <= refs["oracle_tolerance"]))
    return out


def mi_digest(results) -> bytes:
    return _floats(*(x for pair in results.values() for x in pair))


def mi_quality(results):
    return None, None


# -- cli_specs: the batch CLI on the example specs ---------------------------

CLI_CHANNEL_SPECS = ("identity_qubit", "cq_qutrit")
CLI_CHANNEL_COMMANDS = ("validate", "mi", "cea", "chi", "truncation")
CLI_GAUSSIAN_COMMANDS = ("mi", "gaussian-classify")
# chi's value is flat to 1e-9 well before 100 iterations; the default 300
# would make one body ~9 s, too long for several repetitions in one run
CLI_CHI_FLAGS = ("--max-iterations", "100")
CHI_BELOW_TOL = 5e-3
CHI_ABOVE_TOL = 1e-9


def cli_build(seed: int, workdir: str):
    jobs = [(spec, cmd) for spec in CLI_CHANNEL_SPECS for cmd in CLI_CHANNEL_COMMANDS]
    jobs += [("gaussian_attenuator", cmd) for cmd in CLI_GAUSSIAN_COMMANDS]
    runs = []
    for spec, cmd in jobs:
        report = str(Path(workdir) / f"{spec}.{cmd}.json")
        argv = [cmd, str(SPECS / f"{spec}.json"), "--seed", str(seed), "--report", report]
        if cmd == "chi":
            argv += CLI_CHI_FLAGS
        runs.append((f"{spec}.{cmd}", argv, report))
    return runs


def cli_body(inputs):
    results = {}
    sink = io.StringIO()
    for label, argv, report in inputs:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        data = Path(report).read_bytes() if code == 0 else b""
        results[label] = (code, data)
    return results


def cli_references() -> dict:
    return {
        "identity_qubit.cea": 2.0 * h(0.25),
        "identity_qubit.chi": h(0.25),
        "cq_qutrit.cea": waterfilling_entropy([0.0, 1.0, 2.0], 0.5),
        "cq_qutrit.chi": waterfilling_entropy([0.0, 1.0, 2.0], 0.5),
    }


def _cli_results(data: bytes) -> dict:
    return json.loads(data)["results"] if data else {}


def cli_gates(results, refs):
    out = [(f"cli.{label}.exit_code", code == 0) for label, (code, _) in results.items()]
    for spec in CLI_CHANNEL_SPECS:
        cea = _cli_results(results[f"{spec}.cea"][1])
        ref = refs[f"{spec}.cea"]
        out.append(
            (
                f"cli.{spec}.cea.contains_closed_form",
                bool(cea) and cea["value_bits"] <= ref <= cea["upper_bound_bits"],
            )
        )
        chi = _cli_results(results[f"{spec}.chi"][1])
        ref = refs[f"{spec}.chi"]
        out.append(
            (
                f"cli.{spec}.chi.near_closed_form",
                bool(chi) and ref - CHI_BELOW_TOL <= chi["value_bits"] <= ref + CHI_ABOVE_TOL,
            )
        )
    return out


def cli_digest(results) -> bytes:
    return b"".join(data for _, data in results.values())


def cli_quality(results):
    gaps, chis = [], []
    for label, (_, data) in results.items():
        res = _cli_results(data)
        if not res:
            continue
        if label.endswith(".cea"):
            gaps.append(res["gap_bits"])
        elif label.endswith(".truncation"):
            gaps += [row["gap"] for row in res["rows"]] + [res["full"]["gap"]]
        elif label.endswith(".chi"):
            chis.append(res["value_bits"])
    return (max(gaps) if gaps else None), (sum(chis) if chis else None)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    body: Callable
    references: Callable
    gates: Callable
    digest: Callable
    quality: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cea_attenuator",
            cea_build, cea_body, cea_references, cea_gates, cea_digest, cea_quality,
        ),
        Workload(
            "mi_fock",
            mi_build, mi_body, mi_references, mi_gates, mi_digest, mi_quality,
        ),
        Workload(
            "cli_specs",
            cli_build, cli_body, cli_references, cli_gates, cli_digest, cli_quality,
        ),
    )
}
