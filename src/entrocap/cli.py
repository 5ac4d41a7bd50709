"""Batch command-line front-end.

``entrocap <command> <spec> [flags]`` parses a channel-spec file, dispatches
the computation, prints a human-readable report, and optionally writes a
machine-readable JSON report (stable schema, no volatile fields, so output
is byte-identical under fixed seed and flags).

Exit codes: 0 success (including flagged non-convergence), 2 spec parse
failure, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .capacity import (
    OptimizerOptions,
    cea_capacity,
    check_prop1,
    chi_capacity,
    coincidence_certificate,
    truncation_convergence,
)
from .channels import apply, environment_output
from .entropy import chi_through, coherent_information, entropy, mutual_information
from .errors import ValidationError
from .gaussian import (
    classify_gaussian,
    fock_attenuator,
    gaussian_mi_oracle,
    thermal_gaussian_state,
    thermal_state,
    validate_gaussian,
)
from .specfile import SCHEMA_VERSION, ChannelSpec, SpecFileError, _number, load_spec
from .suite import run_suite

COMMANDS = (
    "validate",
    "entropy",
    "mi",
    "cea",
    "chi",
    "prop1",
    "coincidence",
    "gaussian-classify",
    "truncation",
    "suite",
)


def _flag(flags: dict, spec: ChannelSpec | None, key: str, default, integer: bool = False):
    """Numeric flag value with file-level options as checked fallback defaults."""
    if flags.get(key) is not None:
        return flags[key]
    if spec is not None and key in spec.options:
        return _number(spec.options[key], f"options.{key}", integer)
    return default


def _ranks(flags: dict, spec: ChannelSpec, default: list) -> list:
    """Truncation ranks from a list of integers or a comma string."""
    raw = flags["ranks"] if flags.get("ranks") is not None else spec.options.get("ranks", default)
    if isinstance(raw, str):
        raw = [int(r) if r.strip().isdecimal() else r for r in raw.split(",") if r]
    if not isinstance(raw, list):
        raise SpecFileError(f"expected a list or a comma string, got {raw!r}", "options.ranks")
    return [_number(r, f"options.ranks[{i}]", integer=True) for i, r in enumerate(raw)]


def _optimizer_options(flags: dict, spec: ChannelSpec | None, restarts_default=1) -> OptimizerOptions:
    return OptimizerOptions(
        max_iterations=_flag(flags, spec, "max_iterations", 300, integer=True),
        gap_tolerance=_flag(flags, spec, "gap_tolerance", 1e-5),
        restarts=_flag(flags, spec, "restarts", restarts_default, integer=True),
        seed=_flag(flags, spec, "seed", 0, integer=True),
        epsilon=_flag(flags, spec, "epsilon", 1e-9),
    )


def _need_channel(spec: ChannelSpec, command: str):
    if spec.channel is None:
        raise SpecFileError(
            f"command {command!r} needs a finite-dimensional channel spec", "kind"
        )
    return spec.channel


def _need_constraint(spec: ChannelSpec, command: str):
    if spec.constraint is None:
        raise SpecFileError(f"command {command!r} needs a constraint block", "constraint")
    return spec.constraint


def _default_state(spec: ChannelSpec):
    channel = spec.channel
    if spec.input_state is not None:
        return spec.input_state
    return np.eye(channel.dim_in, dtype=complex) / channel.dim_in


def _capacity_payload(res) -> dict:
    out = {
        "value_bits": res.value,
        "heuristic": res.heuristic,
        "iterations": res.iterations,
        "converged": res.converged,
    }
    if res.gap is not None:
        out["gap_bits"] = res.gap
        out["upper_bound_bits"] = res.value + res.gap
    return out


def run(command: str, spec_path: str | None, flags: dict) -> tuple[int, dict, str]:
    """Dispatch one command; returns (exit_code, machine_report, human_text)."""
    t_start = time.perf_counter()
    if command not in COMMANDS:
        raise SpecFileError(f"unknown command {command!r}")

    spec = None
    if command != "suite":
        if spec_path is None:
            raise SpecFileError(f"command {command!r} needs a spec file")
        spec = load_spec(spec_path)

    seed = _flag(flags, spec, "seed", 0, integer=True)
    results: dict = {}
    status = "ok"
    lines: list[str] = []

    if command == "validate":
        results["kind"] = spec.kind
        if spec.channel is not None:
            results["dims"] = [spec.channel.dim_in, spec.channel.dim_out]
            results["kraus_count"] = spec.channel.env_dim
            lines.append(
                f"channel ok: {spec.channel.dim_in} -> {spec.channel.dim_out}, "
                f"{spec.channel.env_dim} Kraus operators"
            )
        if spec.gaussian is not None:
            check = validate_gaussian(spec.gaussian)
            results["gaussian_valid"] = check["valid"]
            results["min_eig_both_signs"] = list(check["min_eig_both_signs"])
            lines.append(f"gaussian parameters valid: {check['valid']} (min eig {check['min_eig']:.3e})")
            if not check["valid"]:
                raise ValidationError("gaussian parameter inequality violated")
        if spec.constraint is not None:
            results["constraint_bound"] = spec.constraint.bound
            lines.append(f"constraint ok: bound {spec.constraint.bound}")
        if spec.input_state is not None:
            results["input_state_dim"] = int(spec.input_state.shape[0])
            lines.append("input state ok")

    elif command == "entropy":
        channel = _need_channel(spec, command)
        rho = _default_state(spec)
        results = {
            "input_entropy_bits": entropy(rho),
            "output_entropy_bits": entropy(apply(channel, rho)),
            "environment_entropy_bits": entropy(environment_output(channel, rho)),
        }
        lines.append(
            "entropies (bits): input {input_entropy_bits:.9f}, output "
            "{output_entropy_bits:.9f}, environment {environment_entropy_bits:.9f}".format(**results)
        )

    elif command == "mi":
        if spec.gaussian is not None:
            mean_photons = _flag(flags, spec, "mean_photons", 1.0)
            cutoff = _flag(flags, spec, "cutoff", 30, integer=True)
            oracle = gaussian_mi_oracle(spec.gaussian, thermal_gaussian_state(mean_photons))
            eta = float(spec.gaussian.K[0, 0] ** 2)
            fock_state, fock_channel = thermal_state(mean_photons, cutoff), fock_attenuator(eta, cutoff)
            fock = mutual_information(fock_state, fock_channel, route="entropies")
            cross = mutual_information(fock_state, fock_channel)
            results = {
                "oracle_bits": oracle,
                "fock_bits": fock,
                "fock_relative_entropy_route_bits": cross,
                "route_discrepancy_bits": abs(fock - cross),
                "difference_bits": abs(oracle - fock),
                "cutoff": cutoff,
                "mean_photons": mean_photons,
            }
            lines.append(
                f"covariance oracle {oracle:.6f} bits, Fock truncation at {cutoff}: "
                f"{fock:.6f} bits (difference {abs(oracle - fock):.2e}; "
                f"route discrepancy {abs(fock - cross):.2e})"
            )
        else:
            channel = _need_channel(spec, command)
            rho = _default_state(spec)
            primary = mutual_information(rho, channel)
            cross = mutual_information(rho, channel, route="entropies")
            results = {
                "mi_bits": primary,
                "mi_entropy_route_bits": cross,
                "route_discrepancy_bits": abs(primary - cross),
                "coherent_information_bits": coherent_information(rho, channel),
            }
            lines.append(
                f"mutual information {primary:.9f} bits "
                f"(route discrepancy {abs(primary - cross):.2e}); "
                f"coherent information {results['coherent_information_bits']:.9f} bits"
            )

    elif command == "cea":
        channel = _need_channel(spec, command)
        constraint = _need_constraint(spec, command)
        res = cea_capacity(channel, constraint, _optimizer_options(flags, spec))
        results = _capacity_payload(res)
        if not res.converged:
            status = "flagged"
        lines.append(
            f"entanglement-assisted value {res.value:.9f} bits, certified gap "
            f"{res.gap:.3e} (bracket [{res.value:.9f}, {res.value + res.gap:.9f}])"
        )

    elif command == "chi":
        channel = _need_channel(spec, command)
        if spec.ensemble is not None:
            val = chi_through(channel, spec.ensemble)
            results = {"chi_of_ensemble_bits": val, "ensemble_size": len(spec.ensemble)}
            lines.append(
                f"chi-quantity of the given {len(spec.ensemble)}-member ensemble: {val:.9f} bits"
            )
        else:
            constraint = _need_constraint(spec, command)
            res = chi_capacity(
                channel,
                constraint,
                members=_flag(flags, spec, "members", None, integer=True),
                opts=_optimizer_options(flags, spec, restarts_default=3),
            )
            results = _capacity_payload(res)
            results["ensemble_size"] = len(res.optimizer)
            lines.append(
                f"heuristic chi value {res.value:.9f} bits "
                f"({len(res.optimizer)}-member ensemble; lower bound, no certificate)"
            )

    elif command == "prop1":
        channel = _need_channel(spec, command)
        constraint = _need_constraint(spec, command)
        results = check_prop1(channel, constraint, _optimizer_options(flags, spec, restarts_default=2))
        lines.append(
            "margin {margin:+.6f} bits ({status}); cea {cea_value:.6f} "
            "(gap {cea_gap:.1e}), chi {chi_value:.6f}, complement chi "
            "{chi_complement_value:.6f}".format(**results)
        )

    elif command == "coincidence":
        channel = _need_channel(spec, command)
        constraint = _need_constraint(spec, command)
        results = coincidence_certificate(channel, constraint, _optimizer_options(flags, spec, restarts_default=2))
        lines.append(
            "gap estimate {gap_estimate:+.6f} bits; restriction cq-discrete: "
            "{cq_discrete} (max commutator {max_commutator:.2e}, barycenter rank "
            "{barycenter_rank})".format(**results)
        )

    elif command == "gaussian-classify":
        if spec.gaussian is None:
            raise SpecFileError("command 'gaussian-classify' needs a gaussian spec", "kind")
        check = validate_gaussian(spec.gaussian)
        verdicts = classify_gaussian(spec.gaussian)
        results = {**verdicts, "valid": check["valid"], "min_eig_both_signs": list(check["min_eig_both_signs"])}
        lines.append(
            "valid: {valid}; cq: {cq}; discrete type: {discrete_type}; "
            "no discrete subchannel: {no_discrete_subchannel} "
            "(twisted norm {twisted_norm:.2e}, rank {rank_K})".format(**results)
        )

    elif command == "truncation":
        channel = _need_channel(spec, command)
        constraint = _need_constraint(spec, command)
        ranks = _ranks(flags, spec, list(range(1, channel.dim_out + 1)))
        tau = np.zeros((channel.dim_out, channel.dim_out), dtype=complex)
        tau[0, 0] = 1.0
        results = truncation_convergence(channel, constraint, ranks, tau, opts=_optimizer_options(flags, spec))
        for row in results["rows"]:
            lines.append(
                f"rank {row['rank']}: value {row['value']:.9f} bits, gap {row['gap']:.3e}"
                + ("" if row["converged"] else " [flagged]")
            )
        full = results["full"]
        lines.append(f"untruncated: value {full['value']:.9f} bits, gap {full['gap']:.3e}")
        if not all(r["converged"] for r in results["rows"]) or not full["converged"]:
            status = "flagged"

    elif command == "suite":
        outcomes = run_suite(seed=seed)
        results = {
            "properties": [
                {"name": name, "ok": ok, "detail": detail} for name, ok, detail in outcomes
            ],
            "failures": sum(1 for _, ok, _ in outcomes if not ok),
        }
        for name, ok, detail in outcomes:
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if results["failures"]:
            status = "failed"

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "spec": spec.raw if spec is not None else None,
        "seed": seed,
        "flags": {k: v for k, v in sorted(flags.items()) if v is not None},
        "status": status,
        "results": results,
    }
    wall = time.perf_counter() - t_start
    header = f"entrocap {command}" + (f" {spec_path}" if spec_path else "")
    human = "\n".join([header, *lines, f"status: {status} (wall time {wall:.2f} s)"])
    code = 3 if status == "failed" else 0
    return code, report, human


@functools.cache  # built on first use, then shared by every main() in the process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrocap",
        description="entropic quantities and constrained capacities of quantum channels",
    )
    parser.add_argument("--version", action="version", version=f"entrocap {__version__}")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("spec", nargs="?", help="channel-spec JSON file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--gap-tol", dest="gap_tolerance", type=float, default=None)
    parser.add_argument("--restarts", type=int, default=None)
    parser.add_argument("--max-iterations", dest="max_iterations", type=int, default=None)
    parser.add_argument("--epsilon", type=float, default=None, help="boundary regularizer")
    parser.add_argument("--members", type=int, default=None, help="ensemble size for chi")
    parser.add_argument("--cutoff", type=int, default=None, help="Fock cutoff for gaussian mi")
    parser.add_argument("--mean-photons", dest="mean_photons", type=float, default=None)
    parser.add_argument("--ranks", type=str, default=None, help="comma list for truncation")
    parser.add_argument("--report", type=str, default=None, help="write machine-readable JSON here")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {
        "seed": args.seed,
        "gap_tolerance": args.gap_tolerance,
        "restarts": args.restarts,
        "max_iterations": args.max_iterations,
        "epsilon": args.epsilon,
        "members": args.members,
        "cutoff": args.cutoff,
        "mean_photons": args.mean_photons,
        "ranks": args.ranks,
    }
    try:
        code, report, human = run(args.command, args.spec, flags)
    except SpecFileError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    print(human)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
