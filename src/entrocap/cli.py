"""Batch command-line front-end.

``entrocap <command> <spec> [flags]`` parses a channel-spec file, dispatches
the computation, prints a human-readable report, and optionally writes a
machine-readable JSON report (stable schema, no volatile fields, so output
is byte-identical under fixed seed and flags).

Exit codes: 0 success (including flagged non-convergence), 2 spec parse
failure or an unwritable ``--report`` path, 3 invariant violation or a
problem over a size limit.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .entropy import chi_through, entropy, mutual_information
from .errors import ResourceLimitError, ValidationError
from .gaussian import (
    attenuator_params,
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


# the parts a command may need, with the message and the spec location of their absence
_PARTS = {
    "channel": ("a finite-dimensional channel spec", "kind"),
    "constraint": ("a constraint block", "constraint"),
    "gaussian": ("a gaussian spec", "kind"),
}

_NOT_FLAGS = ("command", "spec", "report")  # the parser's destinations that are no flag, nor a spec option

# the commands whose restart count differs from OptimizerOptions'
_RESTARTS = {"chi": 3, "prop1": 2, "coincidence": 2}


def _need(spec: ChannelSpec, command: str, *parts) -> tuple:
    """The spec's ``parts``, in order; a SpecFileError for the first one it lacks."""
    for part in parts:
        if getattr(spec, part) is None:
            what, where = _PARTS[part]
            raise SpecFileError(f"command {command!r} needs {what}", where)
    return tuple(getattr(spec, part) for part in parts)


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
        out["upper_bound_bits"] = res.upper_bound
    return out


def run(command: str, spec_path: str | None, flags: dict) -> tuple[int, dict, str]:
    """Dispatch one command; returns (exit_code, machine_report, human_text)."""
    t_start = time.perf_counter()
    if command not in COMMANDS:
        raise SpecFileError(f"unknown command {command!r}")

    spec = opts = None
    if command != "suite":
        if spec_path is None:
            raise SpecFileError(f"command {command!r} needs a spec file")
        spec = load_spec(spec_path)
        known = set(vars(_build_parser().parse_args(["suite"]))).difference(_NOT_FLAGS)  # the flags' names
        if unknown := sorted(set(spec.options) - known):
            raise SpecFileError("unknown option; known: " + ", ".join(sorted(known)), f"options.{unknown[0]}")
        defaults = {f.name: f.default for f in dataclasses.fields(OptimizerOptions)}
        defaults["restarts"] = _RESTARTS.get(command, defaults["restarts"])
        opts = OptimizerOptions(**{k: _flag(flags, spec, k, v, integer=isinstance(v, int)) for k, v in defaults.items()})

    seed = opts.seed if opts is not None else _flag(flags, None, "seed", OptimizerOptions.seed)
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
        (channel,) = _need(spec, command, "channel")
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
            k, alpha = spec.gaussian.K, spec.gaussian.alpha
            eta = float(k[0, 0] ** 2)
            loss = attenuator_params(eta) if k.shape == (2, 2) and 0.0 < eta <= 1.0 else None
            if loss is None or max(np.abs(k - loss.K).max(), np.abs(alpha - loss.alpha).max()) > 1e-10:
                raise ValidationError("the Fock cross-check covers only the single-mode pure-loss attenuator")
            fock_channel, fock_state = fock_attenuator(eta, cutoff), thermal_state(mean_photons, cutoff)
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
            (channel,) = _need(spec, command, "channel")
            rho = _default_state(spec)
            primary = mutual_information(rho, channel)
            cross = mutual_information(rho, channel, route="entropies")
            results = {
                "mi_bits": primary,
                "mi_entropy_route_bits": cross,
                "route_discrepancy_bits": abs(primary - cross),
                "coherent_information_bits": primary - entropy(rho),  # the same route as mi_bits
            }
            lines.append(
                f"mutual information {primary:.9f} bits "
                f"(route discrepancy {abs(primary - cross):.2e}); "
                f"coherent information {results['coherent_information_bits']:.9f} bits"
            )

    elif command == "cea":
        channel, constraint = _need(spec, command, "channel", "constraint")
        res = cea_capacity(channel, constraint, opts)
        results = _capacity_payload(res)
        if not res.converged:
            status = "flagged"
        lines.append(
            f"entanglement-assisted value {res.value:.9f} bits, certified gap "
            f"{res.gap:.3e} (bracket [{res.value:.9f}, {res.value + res.gap:.9f}])"
        )

    elif command == "chi":
        (channel,) = _need(spec, command, "channel")
        if spec.ensemble is not None:
            val = chi_through(channel, spec.ensemble)
            results = {"chi_of_ensemble_bits": val, "ensemble_size": len(spec.ensemble)}
            lines.append(
                f"chi-quantity of the given {len(spec.ensemble)}-member ensemble: {val:.9f} bits"
            )
        else:
            (constraint,) = _need(spec, command, "constraint")
            res = chi_capacity(
                channel,
                constraint,
                members=_flag(flags, spec, "members", None, integer=True),
                opts=opts,
            )
            results = _capacity_payload(res)
            results["ensemble_size"] = len(res.optimizer)
            lines.append(
                f"heuristic chi value {res.value:.9f} bits "
                f"({len(res.optimizer)}-member ensemble; lower bound, no certificate)"
            )

    elif command == "prop1":
        channel, constraint = _need(spec, command, "channel", "constraint")
        results = check_prop1(channel, constraint, opts)
        lines.append(
            "margin {margin:+.6f} bits ({status}); cea {cea_value:.6f} "
            "(gap {cea_gap:.1e}), chi {chi_value:.6f}, complement chi "
            "{chi_complement_value:.6f}".format(**results)
        )

    elif command == "coincidence":
        channel, constraint = _need(spec, command, "channel", "constraint")
        results = coincidence_certificate(channel, constraint, opts)
        lines.append(
            "gap estimate {gap_estimate:+.6f} bits; restriction cq-discrete: "
            "{cq_discrete} (max commutator {max_commutator:.2e}, barycenter rank "
            "{barycenter_rank})".format(**results)
        )

    elif command == "gaussian-classify":
        (params,) = _need(spec, command, "gaussian")
        check = validate_gaussian(params)
        verdicts = classify_gaussian(params)
        results = {**verdicts, "valid": check["valid"], "min_eig_both_signs": list(check["min_eig_both_signs"])}
        lines.append(
            "valid: {valid}; cq: {cq}; discrete type: {discrete_type}; "
            "no discrete subchannel: {no_discrete_subchannel} "
            "(twisted norm {twisted_norm:.2e}, rank {rank_K})".format(**results)
        )

    elif command == "truncation":
        channel, constraint = _need(spec, command, "channel", "constraint")
        ranks = _ranks(flags, spec, list(range(1, channel.dim_out + 1)))
        tau = np.zeros((channel.dim_out, channel.dim_out), dtype=complex)
        tau[0, 0] = 1.0
        results = truncation_convergence(channel, constraint, ranks, tau, opts=opts)
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
    flags = {k: v for k, v in vars(args).items() if k not in _NOT_FLAGS}
    try:
        code, report, human = run(args.command, args.spec, flags)
    except SpecFileError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    print(human)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(report, fh, sort_keys=True, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"report error: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
