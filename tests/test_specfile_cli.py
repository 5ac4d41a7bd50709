import json
import math
from pathlib import Path

import numpy as np
import pytest

from entrocap import OptimizerOptions, ValidationError
from entrocap.cli import COMMANDS, main, run
from entrocap.specfile import (
    SpecFileError,
    decode_complex_matrix,
    encode_complex_matrix,
    load_spec,
    parse_spec,
)

SPECS = "specs"
SPEC_NAMES = ("cq_qutrit", "gaussian_attenuator", "identity_qubit")
SPEC_COMMANDS = [c for c in COMMANDS if c != "suite"]
# the (command, spec) pairs where the spec lacks a part the command needs
MISSING_PART = {
    ("gaussian-classify", "cq_qutrit"),
    ("gaussian-classify", "identity_qubit"),
    *((c, "gaussian_attenuator") for c in ("entropy", "cea", "chi", "prop1", "coincidence", "truncation")),
}


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def kraus_doc(ops, constraint=None):
    doc = {
        "schema_version": 1,
        "kind": "kraus",
        "payload": {"kraus": [encode_complex_matrix(op) for op in ops]},
    }
    if constraint is not None:
        doc["constraint"] = constraint
    return doc


def doc_with_number(field, value):
    """A valid spec document with one numeric field set to ``value``."""
    if field in ("E", "modes_in", "modes_out"):
        name = "identity_qubit" if field == "E" else "gaussian_attenuator"
        with open(f"{SPECS}/{name}.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        (doc["constraint"] if field == "E" else doc["payload"])[field] = value
        return doc
    name = {"dim": "identity", "p": "depolarizing", "eta": "attenuator", "cutoff": "attenuator"}[field]
    params = {"eta": 0.5, "cutoff": 4} if name == "attenuator" else {}
    params[field] = value
    return {"schema_version": 1, "kind": "named", "payload": {"name": name, "params": params}}


OPTION_COMMANDS = {
    "max_iterations": ("cea", "identity_qubit"),
    "gap_tolerance": ("cea", "identity_qubit"),
    "restarts": ("cea", "identity_qubit"),
    "seed": ("cea", "identity_qubit"),
    "epsilon": ("cea", "identity_qubit"),
    "members": ("chi", "identity_qubit"),
    "mean_photons": ("mi", "gaussian_attenuator"),
    "cutoff": ("mi", "gaussian_attenuator"),
}


def doc_with_option(key, value):
    """The command that reads ``options.key`` and an example spec with it set to ``value``."""
    command, name = OPTION_COMMANDS[key]
    with open(f"{SPECS}/{name}.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["options"] = {key: value}
    return command, doc


class TestEncoding:
    def test_roundtrip(self):
        mat = np.array([[1.0 + 2.0j, 0.0], [-1.5j, 0.25]])
        back = decode_complex_matrix(encode_complex_matrix(mat), "x")
        assert np.abs(back - mat).max() <= 1e-15

    def test_bad_shape(self):
        with pytest.raises(SpecFileError):
            decode_complex_matrix([[1.0, 0.0], [0.0, 1.0]], "x")


class TestParsing:
    def test_example_specs_parse(self):
        for name in ("identity_qubit", "cq_qutrit", "gaussian_attenuator"):
            spec = load_spec(f"{SPECS}/{name}.json")
            assert spec.raw["schema_version"] == 1

    def test_unknown_kind(self):
        with pytest.raises(SpecFileError):
            parse_spec({"schema_version": 1, "kind": "weird", "payload": {}})

    def test_missing_schema_version(self):
        with pytest.raises(SpecFileError):
            parse_spec({"kind": "kraus", "payload": {"kraus": []}})

    def test_number_operator_constraint(self, tmp_path):
        doc = {
            "schema_version": 1,
            "kind": "named",
            "payload": {"name": "attenuator", "params": {"eta": 0.5, "cutoff": 4}},
            "constraint": {"F": "number_operator", "E": 1.0},
        }
        spec = load_spec(write_spec(tmp_path, doc))
        assert spec.constraint.dim == 5
        assert np.allclose(np.diagonal(spec.constraint.operator).real, range(5))

    def test_invariant_violation_is_validation_error(self, tmp_path):
        bad = kraus_doc([np.diag([1.0, 0.5])])
        with pytest.raises(ValidationError):
            load_spec(write_spec(tmp_path, bad))

    def test_constraint_dim_mismatch(self, tmp_path):
        doc = kraus_doc(
            [np.eye(2)],
            constraint={"F": encode_complex_matrix(np.diag([0.0, 1.0, 2.0])), "E": 1.0},
        )
        with pytest.raises(ValidationError):
            load_spec(write_spec(tmp_path, doc))


class TestCliCommands:
    def test_validate_ok(self):
        code, report, human = run("validate", f"{SPECS}/identity_qubit.json", {})
        assert code == 0
        assert report["status"] == "ok"
        assert "channel ok" in human

    def test_cea_bracket(self):
        code, report, _ = run("cea", f"{SPECS}/identity_qubit.json", {})
        assert code == 0
        res = report["results"]
        target = 2.0 * (-(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)))
        assert res["value_bits"] - 1e-9 <= target <= res["upper_bound_bits"] + 1e-9

    def test_chi_on_huge_energy_levels(self, tmp_path):
        # squared levels overflowed: a bare OverflowError and a traceback instead of an exit code
        doc = doc_with_number("E", 2.5e159)
        doc["constraint"]["F"] = encode_complex_matrix(np.diag([0.0, 1e160]))
        code, report, _ = run("chi", write_spec(tmp_path, doc), {})
        assert code == 0
        assert abs(report["results"]["value_bits"] - 0.811278124459132) <= 1e-9  # h(1/4), as at F = diag(0, 1)

    def test_gaussian_classify(self):
        code, report, _ = run("gaussian-classify", f"{SPECS}/gaussian_attenuator.json", {})
        assert code == 0
        res = report["results"]
        assert res["valid"] and not res["cq"] and res["no_discrete_subchannel"]

    def test_gaussian_mi(self):
        code, report, _ = run("mi", f"{SPECS}/gaussian_attenuator.json", {"cutoff": 20})
        assert code == 0
        assert report["results"]["difference_bits"] <= 5e-3

    def test_gaussian_mi_cross_checks_routes(self):
        code, report, _ = run("mi", f"{SPECS}/gaussian_attenuator.json", {})
        assert code == 0
        res = report["results"]
        assert abs(res["fock_relative_entropy_route_bits"] - res["fock_bits"]) == res["route_discrepancy_bits"]
        assert res["route_discrepancy_bits"] <= 1e-10

    @pytest.mark.parametrize(
        "k, alpha",
        [
            (math.sqrt(0.6), 0.4 * (2 * 0.5 + 1) / 2),  # eta = 0.6 with 0.5 thermal environment photons
            (math.sqrt(2.0), 0.5),  # quantum-limited amplifier, gain 2
        ],
        ids=["thermal_environment", "amplifier"],
    )
    def test_gaussian_mi_refuses_fock_check_beyond_pure_loss(self, tmp_path, capsys, k, alpha):
        # the oracle accepts these channels, but the Fock side is the pure-loss attenuator
        with open(f"{SPECS}/gaussian_attenuator.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["payload"]["K"] = (k * np.eye(2)).tolist()
        doc["payload"]["alpha"] = (alpha * np.eye(2)).tolist()
        assert main(["mi", write_spec(tmp_path, doc)]) == 3
        assert "pure-loss attenuator" in capsys.readouterr().err

    def test_gaussian_classify_fully_depolarizing(self, tmp_path):
        doc = {
            "schema_version": 1,
            "kind": "gaussian",
            "payload": {
                "K": [[0.0, 0.0], [0.0, 0.0]],
                "l": [0.0, 0.0],
                "alpha": [[0.5, 0.0], [0.0, 0.5]],
                "modes_in": 1,
                "modes_out": 1,
            },
        }
        code, report, _ = run("gaussian-classify", write_spec(tmp_path, doc), {})
        assert code == 0
        res = report["results"]
        assert res["cq"] and res["discrete_type"] and not res["no_discrete_subchannel"]

    def test_truncation_rows(self):
        code, report, _ = run("truncation", f"{SPECS}/cq_qutrit.json", {"ranks": "1,3"})
        assert code == 0
        rows = report["results"]["rows"]
        assert [r["rank"] for r in rows] == [1, 3]
        assert abs(rows[1]["value"] - report["results"]["full"]["value"]) <= 1e-6

    def test_exit_code_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["validate", str(bad)]) == 2
        assert "spec error" in capsys.readouterr().err

    def test_exit_code_invariant_failure(self, tmp_path, capsys):
        doc = kraus_doc([np.diag([1.0, 0.5])])
        path = write_spec(tmp_path, doc)
        assert main(["validate", path]) == 3
        assert "invariant violation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, dim", [("identity", 0), ("dephasing", 0), ("depolarizing", 0), ("identity", -1), ("depolarizing", -2)]
    )
    def test_exit_code_degenerate_named_dimension(self, tmp_path, capsys, name, dim):
        doc = {"schema_version": 1, "kind": "named", "payload": {"name": name, "params": {"dim": dim}}}
        assert main(["validate", write_spec(tmp_path, doc)]) == 3
        assert "invariant violation" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [math.nan, math.inf])
    def test_exit_code_non_finite_bound(self, tmp_path, capsys, bound):
        with open(f"{SPECS}/identity_qubit.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["constraint"]["E"] = bound  # json writes NaN / Infinity
        assert main(["cea", write_spec(tmp_path, doc)]) == 3
        assert "invariant violation" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", [1], None])
    @pytest.mark.parametrize("field", ["E", "dim", "p", "eta", "cutoff", "modes_in", "modes_out"])
    def test_exit_code_non_numeric_field(self, tmp_path, capsys, field, value):
        assert main(["validate", write_spec(tmp_path, doc_with_number(field, value))]) == 2
        assert f"{field}: expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("field, integral", [("dim", 2.0), ("cutoff", 4.0), ("modes_in", 1.0)])
    def test_integer_fields(self, tmp_path, capsys, field, integral):
        assert main(["validate", write_spec(tmp_path, doc_with_number(field, 1.5))]) == 2
        assert f"{field}: expected an integer" in capsys.readouterr().err
        assert main(["validate", write_spec(tmp_path, doc_with_number(field, integral))]) == 0

    @pytest.mark.parametrize("value", ["abc", [1], None])
    @pytest.mark.parametrize("key", sorted(OPTION_COMMANDS))
    def test_exit_code_non_numeric_option(self, tmp_path, capsys, key, value):
        command, doc = doc_with_option(key, value)
        assert main([command, write_spec(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert f"options.{key}: expected a number" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["max_iterations", "restarts", "seed", "members", "cutoff"])
    def test_exit_code_non_integral_option(self, tmp_path, capsys, key):
        command, doc = doc_with_option(key, 1.5)
        assert main([command, write_spec(tmp_path, doc)]) == 2
        assert f"options.{key}: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("mean_photons", [math.nan, math.inf])
    def test_exit_code_non_finite_mean_photons(self, tmp_path, capsys, mean_photons):
        command, doc = doc_with_option("mean_photons", mean_photons)
        assert main([command, write_spec(tmp_path, doc)]) == 3
        assert "mean photon number must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, command, rule",
        [
            ("max_iterations", -1, "cea", ">= 1"),
            ("max_iterations", 0, "chi", ">= 1"),
            ("gap_tolerance", -1, "cea", "finite and >= 0"),
            ("gap_tolerance", math.inf, "cea", "finite and >= 0"),
            ("epsilon", -0.5, "cea", "in [0, 1)"),
            ("epsilon", 1e300, "cea", "in [0, 1)"),
            ("restarts", 0, "chi", ">= 1"),
            ("seed", -1, "chi", ">= 0"),
        ],
    )
    def test_exit_code_out_of_range_option(self, tmp_path, capsys, key, value, command, rule):
        _, doc = doc_with_option(key, value)
        assert main([command, write_spec(tmp_path, doc)]) == 3
        assert f"optimizer option {key} must be {rule}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [3, None, "1,x", [1, "2"], [1.5]])
    def test_exit_code_bad_ranks(self, tmp_path, capsys, value):
        with open(f"{SPECS}/cq_qutrit.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["options"] = {"ranks": value}
        assert main(["truncation", write_spec(tmp_path, doc)]) == 2
        assert "options.ranks" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["gap_tolerence", "Seed", "report", "command"])
    def test_exit_code_unknown_option(self, tmp_path, capsys, key):
        # a misspelt key used to run at the default and exit 0
        _, doc = doc_with_option("gap_tolerance", 1e-9)
        doc["options"][key] = 1e-9
        assert main(["cea", write_spec(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"spec error: options.{key}: unknown option; known: cutoff, epsilon,")
        assert "Traceback" not in err

    def test_every_parser_flag_is_an_option(self, tmp_path):
        with open(f"{SPECS}/identity_qubit.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["options"] = {
            "seed": 4, "gap_tolerance": 1e-6, "restarts": 2, "max_iterations": 7, "epsilon": 1e-8,
            "members": 3, "cutoff": 5, "mean_photons": 0.5, "ranks": "1,2",
        }
        assert main(["validate", write_spec(tmp_path, doc)]) == 0

    def test_missing_command_spec(self):
        with pytest.raises(SpecFileError):
            run("cea", None, {})

    def test_entropy_command_defaults_to_maximally_mixed(self):
        code, report, _ = run("entropy", f"{SPECS}/identity_qubit.json", {})
        assert code == 0
        assert abs(report["results"]["input_entropy_bits"] - 1.0) <= 1e-12


class TestReports:
    def test_machine_report_deterministic(self, tmp_path):
        flags = {"seed": 1, "gap_tolerance": 1e-5}
        _, report_a, _ = run("cea", f"{SPECS}/identity_qubit.json", dict(flags))
        _, report_b, _ = run("cea", f"{SPECS}/identity_qubit.json", dict(flags))
        dump_a = json.dumps(report_a, sort_keys=True, indent=2)
        dump_b = json.dumps(report_b, sort_keys=True, indent=2)
        assert dump_a == dump_b

    def test_chi_report_deterministic(self):
        flags = {"seed": 3, "restarts": 2, "max_iterations": 40}
        _, report_a, _ = run("chi", f"{SPECS}/cq_qutrit.json", dict(flags))
        _, report_b, _ = run("chi", f"{SPECS}/cq_qutrit.json", dict(flags))
        assert json.dumps(report_a, sort_keys=True) == json.dumps(report_b, sort_keys=True)

    def test_chi_members_flag_bounds_the_ensemble(self, tmp_path):
        # the qubit's two-member Gibbs eigen-ensemble does not fit in one member: the optimizer's stack runs
        out = tmp_path / "report.json"
        assert main(["chi", f"{SPECS}/identity_qubit.json", "--members", "1", "--report", str(out)]) == 0
        assert json.loads(out.read_text())["results"] == {
            "value_bits": 0.0, "heuristic": True, "iterations": 60, "converged": True, "ensemble_size": 1,
        }

    def test_report_file_written(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["validate", f"{SPECS}/identity_qubit.json", "--report", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["command"] == "validate"

    def test_unwritable_report_path_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "report.json"
        assert main(["validate", f"{SPECS}/identity_qubit.json", "--report", str(out)]) == 2
        captured = capsys.readouterr()
        assert "channel ok" in captured.out  # the computation ran and printed its report
        assert captured.err.startswith("report error: ")
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_report_flags_are_the_parser_options(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["validate", f"{SPECS}/identity_qubit.json", "--seed", "4", "--gap-tol", "1e-6", "--restarts", "2",
                "--max-iterations", "7", "--epsilon", "1e-8", "--members", "3", "--cutoff", "5",
                "--mean-photons", "0.5", "--ranks", "1,2", "--report", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["flags"] == {
            "seed": 4, "gap_tolerance": 1e-6, "restarts": 2, "max_iterations": 7, "epsilon": 1e-8,
            "members": 3, "cutoff": 5, "mean_photons": 0.5, "ranks": "1,2",
        }

    def test_parser_built_once_per_process(self, tmp_path, monkeypatch):
        import argparse
        from types import SimpleNamespace

        from entrocap import cli

        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return argparse.ArgumentParser(*args, **kwargs)

        monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=counting))
        cli._build_parser.cache_clear()
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            argv = ["chi", f"{SPECS}/cq_qutrit.json", "--seed", "3", "--max-iterations", "20", "--report", str(out)]
            assert main(argv) == 0
        cli._build_parser.cache_clear()
        assert len(built) == 1
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("name", ["identity_qubit", "cq_qutrit"])
    def test_channel_mi_evaluates_each_route_once(self, tmp_path, monkeypatch, name):
        import importlib

        from entrocap import cli, coherent_information, mutual_information

        routes = []

        def counting(rho, op, route="relative_entropy"):
            routes.append(route)
            return mutual_information(rho, op, route=route)

        for module in (cli, importlib.import_module("entrocap.entropy")):
            monkeypatch.setattr(module, "mutual_information", counting)
        out = tmp_path / "report.json"
        assert main(["mi", f"{SPECS}/{name}.json", "--report", str(out)]) == 0
        assert sorted(routes) == ["entropies", "relative_entropy"]
        monkeypatch.undo()
        # the bytes of the report whose coherent information makes its own relative-entropy evaluation
        spec = load_spec(f"{SPECS}/{name}.json")
        rho, channel = cli._default_state(spec), spec.channel
        primary, cross = mutual_information(rho, channel), mutual_information(rho, channel, route="entropies")
        results = {
            "mi_bits": primary,
            "mi_entropy_route_bits": cross,
            "route_discrepancy_bits": abs(primary - cross),
            "coherent_information_bits": coherent_information(rho, channel),
        }
        expected = {**json.loads(out.read_text()), "results": results}
        assert out.read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("name", ["identity_qubit", "cq_qutrit"])
    @pytest.mark.parametrize("command", ["mi", "cea", "chi", "truncation", "prop1", "coincidence"])
    def test_report_is_plain_json(self, tmp_path, name, command):
        # a numpy scalar anywhere in the results makes json.dump fail after the solve
        out = tmp_path / "report.json"
        code = main([command, f"{SPECS}/{name}.json", "--max-iterations", "30", "--report", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["command"] == command

    def test_report_echoes_inputs_and_seed(self):
        _, report, _ = run("validate", f"{SPECS}/cq_qutrit.json", {"seed": 9})
        assert report["seed"] == 9
        assert report["spec"]["kind"] == "cq"


class TestEnsembleSpec:
    def test_chi_of_given_ensemble(self, tmp_path):
        doc = {
            "schema_version": 1,
            "kind": "named",
            "payload": {"name": "identity", "params": {"dim": 2}},
            "ensemble": {
                "weights": [0.5, 0.5],
                "states": [
                    encode_complex_matrix(np.diag([1.0, 0.0])),
                    encode_complex_matrix(np.diag([0.0, 1.0])),
                ],
            },
        }
        path = write_spec(tmp_path, doc)
        code, report, _ = run("chi", path, {})
        assert code == 0
        assert abs(report["results"]["chi_of_ensemble_bits"] - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "field, value", [("weights", "abc"), ("weights", None), ("states", "abc"), ("states", None), ("states", [])]
    )
    def test_exit_code_malformed_ensemble(self, tmp_path, capsys, field, value):
        doc = {
            "schema_version": 1,
            "kind": "named",
            "payload": {"name": "identity", "params": {"dim": 2}},
            "ensemble": {"weights": [1.0], "states": [encode_complex_matrix(np.eye(2) / 2)]},
        }
        doc["ensemble"][field] = value
        assert main(["chi", write_spec(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert f"ensemble.{field}" in err and "Traceback" not in err

    def test_ensemble_dimension_checked(self, tmp_path):
        doc = {
            "schema_version": 1,
            "kind": "named",
            "payload": {"name": "identity", "params": {"dim": 2}},
            "ensemble": {
                "weights": [1.0],
                "states": [encode_complex_matrix(np.eye(3) / 3)],
            },
        }
        with pytest.raises(ValidationError):
            load_spec(write_spec(tmp_path, doc))


class TestSuiteCommand:
    def test_suite_subset_passes(self):
        from entrocap.suite import run_suite

        results = run_suite(seed=0, names=["partial-trace-tensor", "heisenberg-duality", "cq-detection"])
        assert all(ok for _, ok, _ in results)

    def test_full_registry_passes(self):
        from entrocap.suite import run_suite

        results = run_suite(seed=0)
        failures = [(name, detail) for name, ok, detail in results if not ok]
        assert not failures, failures

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    def test_bad_seed_rejected_before_any_check(self, monkeypatch, seed):
        import entrocap.suite as suite_mod

        calls = []
        monkeypatch.setattr(suite_mod, "PROPERTIES", {"spy": lambda seed=0: calls.append(seed) or (True, "ran")})
        with pytest.raises(ValidationError, match="seed"):
            suite_mod.run_suite(seed=seed)
        assert calls == []

    def test_negative_seed_is_an_invariant_violation_not_failed_checks(self, capsys):
        assert main(["suite", "--seed", "-1"]) == 3
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        assert captured.err.startswith("invariant violation: suite seed must be an integer >= 0")

    def test_suite_failure_exits_nonzero(self, monkeypatch, capsys):
        import entrocap.suite as suite_mod

        broken = dict(suite_mod.PROPERTIES)
        broken["always-fails"] = lambda seed=0: (False, "intentional failure")
        monkeypatch.setattr(suite_mod, "PROPERTIES", {"always-fails": broken["always-fails"]})
        assert main(["suite"]) == 3
        out = capsys.readouterr().out
        assert "FAIL always-fails" in out


class TestResourceLimits:
    def test_validate_refuses_a_huge_attenuator_cutoff(self, tmp_path, capsys):
        params = {"eta": 0.6, "cutoff": 2**21}  # numpy refuses the (N+1)**3 shape at once
        doc = {"schema_version": 1, "kind": "named", "payload": {"name": "attenuator", "params": params}}
        assert main(["validate", write_spec(tmp_path, doc)]) == 3
        assert capsys.readouterr().err.startswith("resource limit: cutoff 2097152")

    def test_mi_refuses_a_cutoff_over_the_limit(self, monkeypatch, capsys):
        import entrocap.gaussian

        monkeypatch.setattr(entrocap.gaussian, "_FOCK_ENTRIES", 20**3)  # a small limit: nothing large is built
        assert main(["mi", f"{SPECS}/gaussian_attenuator.json", "--cutoff", "20"]) == 3
        assert capsys.readouterr().err.startswith("resource limit: cutoff 20")


class TestOptionsPass:
    def test_spec_names_are_every_spec_file(self):
        assert sorted(p.stem for p in Path(SPECS).glob("*.json")) == list(SPEC_NAMES)

    @pytest.mark.parametrize("name", SPEC_NAMES)
    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    def test_every_command_on_every_spec(self, command, name, capsys):
        missing = (command, name) in MISSING_PART
        assert main([command, f"{SPECS}/{name}.json", "--seed", "0"]) == (2 if missing else 0)
        assert capsys.readouterr().err.startswith("spec error: ") == missing

    @pytest.mark.parametrize("name", SPEC_NAMES)
    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    def test_negative_seed_is_refused_by_every_command_that_reads_a_spec(self, command, name, capsys):
        assert main([command, f"{SPECS}/{name}.json", "--seed", "-1"]) == 3
        assert capsys.readouterr().err.startswith("invariant violation: optimizer option seed must be >= 0")

    @pytest.mark.parametrize(
        "command, solver, expected",
        [("cea", "cea_capacity", OptimizerOptions()), ("chi", "chi_capacity", OptimizerOptions(restarts=3))],
    )
    def test_solvers_get_the_dataclass_defaults_without_flags(self, monkeypatch, command, solver, expected):
        import entrocap.cli

        class Reached(Exception):
            pass

        received = []

        def spy(channel, constraint, *positional, opts=None, **_):
            received.append(opts if opts is not None else positional[0])
            raise Reached

        monkeypatch.setattr(entrocap.cli, solver, spy)
        with pytest.raises(Reached):
            run(command, f"{SPECS}/identity_qubit.json", {})
        assert received == [expected]
