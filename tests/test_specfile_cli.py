import json
import math

import numpy as np
import pytest

from entrocap import ValidationError
from entrocap.cli import main, run
from entrocap.specfile import (
    SpecFileError,
    decode_complex_matrix,
    encode_complex_matrix,
    load_spec,
    parse_spec,
)

SPECS = "specs"


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

    def test_report_file_written(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["validate", f"{SPECS}/identity_qubit.json", "--report", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["command"] == "validate"

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

    def test_suite_failure_exits_nonzero(self, monkeypatch, capsys):
        import entrocap.suite as suite_mod

        broken = dict(suite_mod.PROPERTIES)
        broken["always-fails"] = lambda seed=0: (False, "intentional failure")
        monkeypatch.setattr(suite_mod, "PROPERTIES", {"always-fails": broken["always-fails"]})
        assert main(["suite"]) == 3
        out = capsys.readouterr().out
        assert "FAIL always-fails" in out
