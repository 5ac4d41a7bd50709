"""The property suite's shared runner, driven by fake residuals, and the shape of its registry."""

import dataclasses
import importlib
import inspect

import numpy as np
import pytest

from entrocap.suite import PROPERTIES, _worst_of, run_suite


def fixed(values):
    """A residual that returns ``values[k]`` for draw k."""
    return lambda rng, seed, k: values[k]


def test_worst_exactly_at_tol_passes():
    ok, detail = _worst_of(fixed([0.0, 0.25, 0.5]), 3, "0.5", "max fake residual")(seed=0)
    assert ok
    assert detail == "max fake residual 5.00e-01 (tol 0.5)"


def test_worst_just_above_tol_fails():
    ok, _ = _worst_of(fixed([0.0, float(np.nextafter(0.5, 1.0))]), 2, "0.5", "max fake residual")(seed=0)
    assert not ok


def test_signed_residuals_report_a_negative_worst():
    ok, detail = _worst_of(fixed([-3.0, -2.0, -4.0]), 3, "1e-8", "max fake excess")(seed=0)
    assert ok
    assert detail == "max fake excess -2.00e+00 (tol 1e-8)"


def test_nan_residual_fails():
    ok, detail = _worst_of(fixed([0.0, float("nan"), 0.0]), 3, "1e-8", "max fake residual")(seed=0)
    assert not ok
    assert "nan" in detail


def test_count_fills_the_label():
    _, detail = _worst_of(fixed([0.0] * 4), 4, "1e-9", "max drift over {count} pairs")(seed=0)
    assert detail.startswith("max drift over 4 pairs ")


def test_residual_gets_the_shared_rng_the_seed_and_the_draw_index():
    seen = []

    def residual(rng, seed, k):
        seen.append((seed, k, float(rng.random())))
        return 0.0

    _worst_of(residual, 3, "1e-9", "max")(seed=5)
    expected = np.random.default_rng(5).random(3)
    assert seen == [(5, k, float(expected[k])) for k in range(3)]


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_every_property_takes_a_seed(name):
    fn = PROPERTIES[name]
    assert callable(fn)
    inspect.signature(fn).bind(seed=0)


@pytest.mark.parametrize("name", list(PROPERTIES))
def test_every_property_is_one_worst_of_row(name):
    assert PROPERTIES[name].__qualname__ == _worst_of(fixed([]), 0, "0", "").__qualname__


def _appended_records(records):
    """A fault for ``cea_capacity``: its trace with ``records(result, constraint)`` appended."""

    def fault(orig):
        def cea(channel, constraint, opts=None):
            res = orig(channel, constraint, opts)
            return dataclasses.replace(res, trace=(*res.trace, *records(res, constraint)))

        return cea

    return fault


def _raised_value(orig):
    """A fault for ``cea_capacity``: a lower end 1e-9 above what its state reaches."""

    def cea(*args):
        res = orig(*args)
        return dataclasses.replace(res, value=res.value + 1e-9)

    return cea


def _diagonal_only(orig):
    """A classifier whose ``cq`` verdict reads an off-diagonal entry of K, which a conjugation moves."""
    return lambda params, *args: {**orig(params, *args), "cq": bool(params.K[0, 1] == 0.0)}


def _off_route(orig):
    return lambda rho, channel, route="relative_entropy": orig(rho, channel, route) + (route != "entropies") * 1e-7


# row, module, attribute, fault (a function of the original attribute)
PLANTED_FAULTS = [
    ("sampled-states-valid", "linalg", "sample_state", lambda orig: lambda *a, **k: orig(*a, **k) * (1.0 + 1e-9)),
    ("cq-detection", "channels", "is_cq", lambda orig: lambda *a, **k: orig(*a, **k)._replace(is_cq=True)),
    ("cea-feasible-ascent", "capacity", "cea_capacity", _appended_records(lambda r, c: [(r.value, c.bound + 2e-9)])),
    ("cea-feasible-ascent", "capacity", "cea_capacity", _appended_records(lambda r, c: [(1.0, 0.0), (1 - 1e-9, 0.0)])),
    ("certificate-soundness", "capacity", "cea_capacity", _raised_value),
    ("attenuator-photon-scaling", "gaussian", "fock_attenuator", lambda orig: lambda eta, c: orig(eta * 0.999, c)),
    ("fock-oracle-agreement", "gaussian", "gaussian_mi_oracle", lambda orig: lambda *a: orig(*a) + 0.01),
    ("fock-oracle-agreement", "suite", "mutual_information", _off_route),
    ("classify-symplectic-invariance", "gaussian", "classify_gaussian", _diagonal_only),
    ("attenuator-family-validity", "gaussian", "validate_gaussian", lambda orig: lambda p: {**orig(p), "valid": True}),
]


@pytest.mark.parametrize(
    "row, module, attribute, fault", PLANTED_FAULTS, ids=[f"{row}-{i}" for i, (row, *_) in enumerate(PLANTED_FAULTS)]
)
def test_planted_fault_fails_its_row(monkeypatch, row, module, attribute, fault):
    target = importlib.import_module(f"entrocap.{module}")
    monkeypatch.setattr(target, attribute, fault(getattr(target, attribute)))
    ((name, ok, detail),) = run_suite(seed=0, names=[row])
    assert name == row and not ok, detail
    assert not detail.startswith("raised"), detail  # the residual catches the fault; nothing crashes


def test_every_converted_row_has_a_planted_fault():
    faulted = {row for row, *_ in PLANTED_FAULTS}
    assert faulted <= set(PROPERTIES) and len(faulted) == 8
