"""The property suite's shared runner, driven by fake residuals, and the shape of its registry."""

import inspect

import numpy as np
import pytest

from entrocap.suite import PROPERTIES, _worst_of


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
