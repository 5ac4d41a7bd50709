"""entrocap benchmark: seeded workloads against the public API, every result checked.

Run from the repository root:

    python3 bench/run.py --workload cea_attenuator --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 35

``--trace 0`` repeats the workload's body for ``--seconds`` with tracing off
and reports the end-to-end metrics of ``BENCHMARK.json``: the median body
time ``run_s``, the median of several fresh-process set-ups ``setup_s``
(import plus input building) and this process's peak resident memory.
``--trace 1`` spends half the time untraced and half traced
(``bench/tracer.py``) and reports the per-layer metrics, each the median over
the traced repetitions.  Every repetition's results pass through the
workload's correctness gates; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` (gates) and ``metrics``.  Full
records and the spans of the last traced repetition go to ``.bench_out/``.

The program is used from ``src/`` of the checkout, never from an installed
copy; without it the script exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC_FILE = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("cea_attenuator", "mi_fock", "cli_specs")

# one BLAS thread: on 2 vCPUs shared with other tenants a second thread made
# the attenuator solve slower and far noisier (5.9-6.8 s vs 8.1-9.5 s)
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3


def add_source_path() -> bool:
    """Put the checkout's ``src/`` first on sys.path; False if it is missing."""
    if not (SOURCE / "entrocap" / "__init__.py").is_file():
        return False
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    return True


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) >= 2 else [xs[0], xs[0], xs[0]]


def _ratio(num, den):
    return num / den if den else 0.0


SPECIAL_LAYER_METRICS = {
    "capacity.mi_value.per_iteration": lambda a: _ratio(
        a["calls"]["capacity.mi_value"], a["iterations"]["capacity.cea"]
    ),
    "capacity.oracle.eigs_per_call": lambda a: _ratio(a["oracle_eigs"], a["calls"]["capacity.oracle"]),
    "capacity.cea.iterations": lambda a: a["iterations"]["capacity.cea"],
    "capacity.chi.iterations": lambda a: a["iterations"]["capacity.chi"],
    "capacity.cea.gap_max_bits": lambda a: a["gap_max_bits"],
    "capacity.chi.value_sum_bits": lambda a: a["chi_sum_bits"],
    "linalg.np_eig.d3_sum": lambda a: a["eig_d3_sum"],
    "linalg.np_eig.small_frac": lambda a: a["eig_small_frac"],
}


def layer_metric(name: str, agg: dict, layers) -> float:
    """Value of one per-layer metric of BENCHMARK.json from a tracer aggregate.

    ``<span>.calls`` counts spans, ``<span>.s`` and ``<layer>.s`` are time
    spent in them, ``<layer>.self_s`` is the layer's self time; other names
    are listed in SPECIAL_LAYER_METRICS.
    """
    if name in SPECIAL_LAYER_METRICS:
        return SPECIAL_LAYER_METRICS[name](agg)
    base, _, kind = name.rpartition(".")
    if kind == "calls":
        return agg["calls"][base]
    if kind == "self_s" and base in layers:
        return agg["layer_self_seconds"][base]
    if kind == "s":
        return agg["layer_seconds"][base] if base in layers else agg["seconds"][base]
    raise KeyError(f"no rule for per-layer metric {name!r}")


def machine_record(seed: int, seconds: float, trace: int) -> dict:
    import ctypes

    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    threads = None
    for lib in Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*"):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            threads = int(fn())
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_requested": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def setup_probe(workload: str, seed: int) -> float:
    """Import entrocap and build the workload's inputs once; seconds taken."""
    t0 = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[workload]
    w.build(seed, str(OUT_DIR / "probe"))
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes, so each pays the full import."""
    times = []
    for _ in range(SETUP_PROBES):
        argv = ["--workload", workload, "--seed", str(seed), "--setup-probe"]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def repeat(body, inputs, seconds: float, before=None, after=None):
    """Run the body at least once, then while another run fits in ``seconds``.

    Returns the body times and results.  A run is not started when the median
    so far says it would end past the deadline, so a run of the benchmark
    lasts about ``seconds`` whatever the body's length.
    """
    times, results = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if before:
            before()
        t0 = time.perf_counter()
        out = body(inputs)
        times.append(time.perf_counter() - t0)
        results.append(out)
        if after:
            after(out)
        if time.perf_counter() + median(times) > deadline:
            return times, results


def check(w, refs, results) -> list[tuple[str, bool]]:
    """Gates of every repetition, plus: each repetition repeats the first exactly."""
    first = w.digest(results[0])
    gates = []
    for k, res in enumerate(results):
        gates += [(gate, bool(ok)) for gate, ok in w.gates(res, refs)]
        if k:
            gates.append((f"{w.name}.repeats_exactly", w.digest(res) == first))
    return gates


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    setup_times = measure_setup(name, seed)

    import workloads
    from tracer import LAYERS, Tracer

    w = workloads.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": name, "machine": machine_record(seed, seconds, trace)}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        inputs = w.build(seed, workdir)
        refs = w.references()
        times, results = repeat(w.body, inputs, seconds / 2 if trace else seconds)
        traced_times, traced_results, per_rep = [], [], []
        if trace:
            tracer = Tracer()

            def aggregate(out):
                agg = tracer.aggregate()
                agg["gap_max_bits"], agg["chi_sum_bits"] = (q or 0.0 for q in w.quality(out))
                names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace_overhead_s"]
                per_rep.append({k: layer_metric(k, agg, LAYERS) for k in names})

            tracer.install()
            try:
                traced_times, traced_results = repeat(
                    w.body, inputs, seconds / 2, before=tracer.reset, after=aggregate
                )
            finally:
                tracer.uninstall()
            tracer.dump(str(OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"))
        gates = check(w, refs, results + traced_results)

    failed = [g for g, ok in gates if not ok]
    gap_max, chi_sum = w.quality(results[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        values = {k: median([rep[k] for rep in per_rep]) for k in per_rep[0]}
        values["trace_overhead_s"] = median(traced_times) - median(times)
    else:
        values = {
            "run_s": median(times),
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record.update(
        {
            "run_s": times,
            "traced_run_s": traced_times,
            "setup_s": setup_times,
            "gates": gates,
            "gap_max_bits": gap_max,
            "chi_sum_bits": chi_sum,
            "metrics": metrics,
        }
    )
    (OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    q1, _, q3 = quartiles(times)
    print(f"{name} seed {seed}: {len(times)} untraced + {len(traced_times)} traced repetitions")
    print(f"  run_s         median {median(times):.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, n={len(times)})")
    print(f"  setup_s       median {median(setup_times):.4f} s (n={len(setup_times)})")
    print(f"  peak_rss_mb   {peak_rss_mb:.1f} MB")
    failed_list = f" ({', '.join(sorted(set(failed)))})" if failed else ""
    print(f"  failed_frac   {len(failed)}/{len(gates)} = {len(failed) / len(gates):.4g}{failed_list}")
    print(f"  gap_max_bits  " + ("n/a" if gap_max is None else f"{gap_max:.4e} bits"))
    print(f"  chi_sum_bits  " + ("n/a" if chi_sum is None else f"{chi_sum:.9f} bits"))
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    return {"correct": not failed, "attempted": len(gates), "failed": len(failed), "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh process, one after another."""
    rows = {}
    for name in WORKLOAD_NAMES:
        argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not add_source_path() or not SPEC_FILE.is_file():
        missing = f"{SOURCE / 'entrocap'} or {SPEC_FILE}"
        print(f"error: {missing} not found; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    spec = json.loads(SPEC_FILE.read_text())
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
