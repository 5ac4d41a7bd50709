"""Tests of the benchmark itself: tracer transparency, repeatable counts, gate sensitivity.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
The module-scoped fixture runs every workload body twice under the tracer
(about a minute on 2 vCPUs).
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import tempfile

import pytest

import run

assert run.add_source_path(), "run from a checkout with src/entrocap"

import numpy as np  # noqa: E402

import entrocap as ec  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SHIFT = 1e-3


def failing(name, results, refs):
    return {gate for gate, ok in workloads.WORKLOADS[name].gates(results, refs) if not ok}


@pytest.fixture(scope="module")
def traced():
    """Per workload: two (aggregate, results) pairs from traced bodies at seed 0."""
    out = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        for name, w in workloads.WORKLOADS.items():
            tr = tracing.Tracer()
            tr.install()
            try:
                pairs = []
                for _ in range(2):
                    inputs = w.build(0, workdir)
                    tr.reset()
                    results = w.body(inputs)
                    pairs.append((tr.aggregate(), results))
            finally:
                tr.uninstall()
            out[name] = pairs
    return out


def test_benchmark_json_matches_the_harness():
    spec = json.loads(run.SPEC_FILE.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}
    empty = tracing.Tracer().aggregate()
    empty["gap_max_bits"] = empty["chi_sum_bits"] = 0.0
    for m in spec["per_layer"]:
        if m["name"] != "trace_overhead_s":
            run.layer_metric(m["name"], empty, tracing.LAYERS)


def test_wrapped_calls_are_bit_identical_and_uninstall_restores():
    def small_case():
        chan = ec.fock_attenuator(0.6, 4)
        cea = ec.cea_capacity(chan, ec.EnergyConstraint(ec.number_operator(4), 1.0))
        rho = ec.thermal_state(1.0, 6)
        att = ec.fock_attenuator(0.6, 6)
        mi = (ec.mutual_information(rho, att), ec.mutual_information(rho, att, route="entropies"))
        opts = ec.OptimizerOptions(max_iterations=5, gap_tolerance=1e-6, restarts=1)
        prop1 = ec.check_prop1(ec.sample_channel(2, 2, 2, seed=800), ec.EnergyConstraint(np.eye(2), 1.0), opts)
        return cea, mi, prop1

    # the package attribute ``entropy`` is the function, so fetch the modules
    capacity = importlib.import_module("entrocap.capacity")
    entropy = importlib.import_module("entrocap.entropy")

    def bound():
        return (ec.cea_capacity, capacity.cea_capacity, entropy.hermitian_eig, np.linalg.eigh)

    originals = bound()
    plain = small_case()
    tr = tracing.Tracer()
    tr.install()
    try:
        assert all(a is not b for a, b in zip(bound(), originals))
        wrapped = small_case()
    finally:
        tr.uninstall()
    assert bound() == originals

    (cea_a, mi_a, p_a), (cea_b, mi_b, p_b) = plain, wrapped
    assert (cea_a.value, cea_a.gap, cea_a.iterations) == (cea_b.value, cea_b.gap, cea_b.iterations)
    assert np.array_equal(cea_a.optimizer, cea_b.optimizer)
    assert mi_a == mi_b
    assert p_a == p_b
    agg = tr.aggregate()
    assert agg["calls"]["capacity.cea"] == 2  # one direct, one inside check_prop1
    assert agg["calls"]["linalg.np_eig"] > 0


def test_counts_repeat_exactly(traced):
    for name, ((first, _), (second, _)) in traced.items():
        assert first["calls"] == second["calls"], name
        assert first["iterations"] == second["iterations"], name
        assert first["oracle_eigs"] == second["oracle_eigs"], name
        assert first["eig_d3_sum"] == second["eig_d3_sum"], name


def test_every_layer_is_reached(traced):
    reached = set()
    for pairs in traced.values():
        agg = pairs[0][0]
        reached |= {layer for layer, s in agg["layer_seconds"].items() if s > 0.0}
    assert reached == set(tracing.LAYERS)


def test_gates_pass_and_results_repeat(traced):
    for name, pairs in traced.items():
        w = workloads.WORKLOADS[name]
        gates = run.check(w, w.references(), [res for _, res in pairs])
        assert all(ok for _, ok in gates), (name, [g for g, ok in gates if not ok])


def test_references_match_quoted_values():
    cf = workloads.cea_references()["closed_form"]
    assert abs(cf - 2.3187256) < 1e-7
    assert abs(workloads.mi_references()["oracle"] - cf) < 1e-12
    refs = workloads.cli_references()
    assert abs(refs["cq_qutrit.cea"] - 1.3002068) < 1e-7
    assert abs(refs["identity_qubit.cea"] - 2.0 * 0.8112781244591328) < 1e-12


def test_phases_keep_the_mutual_information():
    rho = ec.thermal_state(1.0, 8)
    chan = ec.fock_attenuator(0.6, 8)
    rotated = workloads.phased(chan, np.random.default_rng(3))
    assert abs(ec.mutual_information(rho, chan) - ec.mutual_information(rho, rotated)) < 1e-12


def _shift_refs(refs, key, delta):
    shifted = dict(refs)
    shifted[key] += delta
    return shifted


def test_cea_gates_fail_on_shifted_reference(traced):
    results = traced["cea_attenuator"][0][1]
    refs = workloads.cea_references()
    top, low = max(results), min(results)
    assert f"cea.N{top}.contains_closed_form" in failing("cea_attenuator", results, _shift_refs(refs, "closed_form", SHIFT))
    down = failing("cea_attenuator", results, _shift_refs(refs, "closed_form", -SHIFT))
    assert {f"cea.N{top}.contains_closed_form", f"cea.N{low}.lower_end_below_closed_form"} <= down
    gaps = failing("cea_attenuator", results, _shift_refs(refs, "gap_tolerance", -SHIFT))
    assert gaps == {f"cea.N{n}.gap_within_tolerance" for n in results}


def test_mi_gates_fail_on_shifted_reference(traced):
    results = traced["mi_fock"][0][1]
    refs = workloads.mi_references()
    top = max(results)
    for delta in (SHIFT, -SHIFT):
        assert failing("mi_fock", results, _shift_refs(refs, "oracle", delta)) == {f"mi.N{top}.matches_oracle"}
    for n in results:
        moved = dict(results)
        dense, entropies = moved[n]
        moved[n] = (dense, entropies + SHIFT)
        assert f"mi.N{n}.routes_agree" in failing("mi_fock", moved, refs)


def test_cli_gates_fail_on_shifted_reference(traced):
    results = traced["cli_specs"][0][1]
    refs = workloads.cli_references()
    for spec in workloads.CLI_CHANNEL_SPECS:
        for delta in (SHIFT, -SHIFT):
            key = f"{spec}.cea"
            assert failing("cli_specs", results, _shift_refs(refs, key, delta)) == {f"cli.{key}.contains_closed_form"}
        key = f"{spec}.chi"
        assert failing("cli_specs", results, _shift_refs(refs, key, -SHIFT)) == {f"cli.{key}.near_closed_form"}
    broken = dict(results)
    broken["cq_qutrit.mi"] = (3, b"")
    assert failing("cli_specs", broken, refs) == {"cli.cq_qutrit.mi.exit_code"}


def test_repeat_gate_fails_on_changed_result(traced):
    w = workloads.WORKLOADS["cea_attenuator"]
    results = traced["cea_attenuator"][0][1]
    n = max(results)
    moved = dict(results)
    moved[n] = dataclasses.replace(moved[n], value=moved[n].value + SHIFT)
    gates = run.check(w, w.references(), [results, moved])
    assert ("cea_attenuator.repeats_exactly", False) in gates
