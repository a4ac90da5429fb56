"""Sliding-mode differentiator: exactness, homogeneity, bank mechanics."""

import numpy as np
import pytest

from conftest import bench8_run, reference_bank, reference_step_z
from ltvobs.cascade import run_tso
from ltvobs.errors import NumericalError
from ltvobs.hosm import (
    DEFAULT_GAINS,
    _bank_loop,
    _neg_rates,
    check_bank_settings,
    run_bank,
)


def test_config_validation():
    settle = (1e-4, 0.5)  # threshold and dwell
    for order in (0, 6):
        with pytest.raises(ValueError, match="order must be in 1..5"):
            check_bank_settings(order, 1.0, DEFAULT_GAINS, 1, *settle)
    for bound in (0.0, -1.0, np.nan, np.inf, [1.0, 0.0]):
        with pytest.raises(ValueError, match="Lipschitz bound must be finite"):
            check_bank_settings(1, bound, DEFAULT_GAINS, 2, *settle)
    with pytest.raises(ValueError, match="one value per channel"):
        check_bank_settings(1, [1.0, 2.0, 3.0], DEFAULT_GAINS, 2, *settle)
    with pytest.raises(ValueError, match="need 4 gains"):
        check_bank_settings(3, 1.0, (1.1, 1.5), 1, *settle)
    for gains in ((1.1, -1.5), (1.1, np.inf), (1.1, np.nan, 2.0)):
        with pytest.raises(ValueError, match="gains must be finite and positive"):
            check_bank_settings(1, 1.0, gains, 1, *settle)
    for threshold in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="settle threshold must be finite and positive"):
            check_bank_settings(1, 1.0, DEFAULT_GAINS, 1, threshold, 0.5)
    for dwell in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="dwell must be finite and non-negative"):
            check_bank_settings(1, 1.0, DEFAULT_GAINS, 1, 1e-4, dwell)
    # the bound is a design input: a missing one is refused, unless the
    # caller may run no bank
    with pytest.raises(ValueError, match="no Lipschitz bound given"):
        check_bank_settings(2, None, DEFAULT_GAINS, 1, *settle)
    assert check_bank_settings(2, None, DEFAULT_GAINS, 1, *settle, need_bound=False) is None
    with pytest.raises(ValueError, match="need 3 gains"):
        check_bank_settings(2, None, (1.1, 1.5), 1, *settle, need_bound=False)
    assert np.array_equal(
        check_bank_settings(5, 2.0, DEFAULT_GAINS, 3, *settle), [2.0, 2.0, 2.0]
    )
    assert np.array_equal(
        check_bank_settings(2, [1.0, 3.0], DEFAULT_GAINS, 2, *settle), [1.0, 3.0]
    )


def _step(z, f, order, lipschitz, h):
    """One step of the compiled loop on one channel's levels ``z``."""
    rates = _neg_rates(order, np.array([lipschitz]), DEFAULT_GAINS)[0]
    return _bank_loop(order, h)([f], list(z), rates)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_compiled_loop_matches_reference_step_bit_for_bit(order):
    # a channel whose injections all hit e = 0 (the zero signal from rest),
    # a chattering one, and one that turns NaN; the bits, signed zeros
    # included, match the list stepper
    h, lipschitz = 2e-3, 7.0
    t = np.arange(0.0, 2.0, h)
    signals = {
        "zero": np.zeros(300),
        "chattering": np.sin(3.0 * t) + 0.3 * t**2,
        "nan": np.r_[np.cos(t[:300]), np.nan, np.cos(t[:50])],
    }
    loop = _bank_loop(order, h)
    rates = _neg_rates(order, np.array([lipschitz]), DEFAULT_GAINS)[0]
    for name, signal in signals.items():
        z, want = [0.0] * (order + 1), []
        for f in signal.tolist():
            z = reference_step_z(z, f, order, lipschitz, DEFAULT_GAINS, h)
            want += z
        got, want = np.array(loop(signal.tolist(), [0.0] * (order + 1), rates)), np.array(want)
        # NaN is compared as NaN, its sign bit and payload carry no value
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), name
        assert got[~nan].tobytes() == want[~nan].tobytes(), name
    assert nan[-1]


def test_exact_tracking_is_an_equilibrium():
    # state already matching a constant signal stays put: every sign(0)
    # injection vanishes
    for level in (4.2, -1.5):
        assert _step([level, 0.0], level, 1, 1.0, 1e-3) == [level, 0.0]


def test_proper_step_keeps_quadratic_tracking():
    # z = (f, f', f'') of f = t^2 at t = 1: the Taylor term h^2/2 z_2
    # carries z_0 onto f(1 + h) exactly, where plain Euler falls h^2 short
    h = 1e-3
    z = _step([1.0, 2.0, 2.0], 1.0, 2, 1.0, h)
    expected = np.array([(1.0 + h) ** 2, 2.0 * (1.0 + h), 2.0])
    assert np.allclose(z, expected, rtol=0.0, atol=1e-14)


def _bench8_output_error(sigma):
    """bench8's output error e_y over 8 s, with the bank settings of its run."""
    run = bench8_run(8.0, sigma=sigma, noise_seed=42)
    # the cascade floors the settle threshold at the noise level
    threshold = max(run.threshold, 5.0 * sigma)
    e_y = run_tso(run).e_y
    return e_y, dict(nu=3, l_est=run.lipschitz, h=run.observer.step.h, threshold=threshold)


def _polynomial(coeffs, lipschitz, h):
    """Gate 11's sampled polynomial over 10 s, differentiated to its degree."""
    t = np.arange(0.0, 10.0 + h / 2, h)
    return np.polyval(coeffs, t), dict(nu=len(coeffs), l_est=lipschitz, h=h)


def _three_channels():
    """Three channels of different curvature, each with its own bound."""
    h = 1e-3
    t = np.arange(0.0, 6.0 + h / 2, h)
    f = np.column_stack([np.sin(t), 0.5 * t**2 + np.cos(3.0 * t), 4.0 * np.exp(-t)])
    return f, dict(nu=3, l_est=[1.1, 30.0, 4.4], h=h)


@pytest.mark.parametrize(
    "case",
    [
        lambda: _bench8_output_error(0.0),
        lambda: _bench8_output_error(1e-3),
        lambda: _polynomial([2.0, 1.0], 1.0, 2e-3),
        lambda: _polynomial([2.0, 1.0], 1.0, 1e-3),
        lambda: _polynomial([1.5, 2.0, 1.0], 5.0, 2e-3),
        lambda: _polynomial([1.5, 2.0, 1.0], 5.0, 1e-3),
        lambda: _polynomial([0.5, 1.5, 2.0, 1.0], 5.0, 2e-3),
        lambda: _polynomial([0.25, 0.5, 1.5, 2.0, 1.0], 5.0, 2e-3),
        lambda: _polynomial([0.1, 0.25, 0.5, 1.5, 2.0, 1.0], 20.0, 2e-3),
        lambda: _polynomial([0.1, 0.25, 0.5, 1.5, 2.0, 1.0], 31.0, 2e-3),
        _three_channels,
    ],
    ids=[
        "bench8",
        "bench8-noisy",
        "r1-2ms",
        "r1-1ms",
        "r2-2ms",
        "r2-1ms",
        "r3-2ms",
        "r4-2ms",
        "r5-2ms",
        "r5-2ms-L31",
        "three-channels",
    ],
)
def test_bank_matches_sequential_reference(case):
    # the bank against the independent list stepper: same settle index and
    # stacks (equal on every case here).  Both take the rates and every
    # step's powers with Python's float power, so the cases check the step
    # itself; rates from numpy's power, one ulp off at L = 31, flipped the
    # chattering top level at order 5 and put the stacks 0.27 apart.
    # Orders 3-5 have levels with more than one Taylor term
    signal, settings = case()
    bank = run_bank(signal, **settings)
    stack, residuals, settled_index = reference_bank(signal, **settings)
    assert settled_index is not None
    assert bank.settled_index == settled_index
    assert np.max(np.abs(bank.stack - stack)) <= 1e-10
    assert np.max(np.abs(bank.residuals - residuals)) <= 1e-10


def test_sin_first_derivative_after_settling():
    h = 1e-3
    t = np.arange(0.0, 10.0 + h / 2, h)
    bank = run_bank(np.sin(t), nu=2, l_est=1.1, h=h)
    assert bank.settled_index is not None
    m = t >= 2.0
    assert t[bank.settled_index] < 2.0 + bank.dwell + 1e-9
    assert np.max(np.abs(bank.stack[m, 1] - np.cos(t[m]))) <= 0.05


def test_quadratic_derivatives_after_settling():
    # polynomial of the differentiator's own degree: exact up to the
    # discretization band, |z_i - f^(i)| = O(h^{r+1-i}), once the
    # transient has passed
    h = 1e-3
    t = np.arange(0.0, 10.0 + h / 2, h)
    bank = run_bank(t * t, nu=3, l_est=2.2, h=h)
    assert bank.settled_index is not None
    m = t >= 2.0
    assert np.max(np.abs(bank.stack[m, 0] - t[m] ** 2)) <= 1e-3
    assert np.max(np.abs(bank.stack[m, 1] - 2.0 * t[m])) <= 0.1
    assert np.max(np.abs(bank.stack[m, 2] - 2.0)) <= 0.1


def test_ramp_first_derivative():
    h = 1e-3
    t = np.arange(0.0, 10.0 + h / 2, h)
    bank = run_bank(t, nu=2, l_est=1.0, h=h)
    m = t >= 1.5
    assert np.max(np.abs(bank.stack[m, 1] - 1.0)) <= 5e-3
    assert np.max(np.abs(bank.stack[m, 0] - t[m])) <= 1e-4


def test_homogeneity_scaling():
    # f -> c f with L -> c L scales every level by exactly c
    h = 1e-3
    t = np.arange(0.0, 4.0 + h / 2, h)
    f = np.sin(1.3 * t) + 0.2 * t
    c = 37.5
    base = run_bank(f, nu=3, l_est=2.0, h=h)
    scaled = run_bank(c * f, nu=3, l_est=c * 2.0, h=h)
    assert np.allclose(scaled.stack, c * base.stack, rtol=0.0, atol=1e-12 * c)


def test_bank_stack_is_derivative_major():
    h = 1e-2
    t = np.arange(0.0, 6.0 + h / 2, h)
    two = np.column_stack([np.sin(t), 0.5 * t])
    bank = run_bank(two, nu=2, l_est=[1.1, 1.1], h=h)
    assert bank.channels == 2
    assert bank.stack.shape == (t.size, 4)
    m = t >= 3.0
    # columns: [z0 ch0, z0 ch1, z1 ch0, z1 ch1]
    assert np.max(np.abs(bank.stack[m, 0] - np.sin(t[m]))) < 0.05
    assert np.max(np.abs(bank.stack[m, 1] - 0.5 * t[m])) < 0.05
    assert np.max(np.abs(bank.stack[m, 2] - np.cos(t[m]))) < 0.3
    assert np.max(np.abs(bank.stack[m, 3] - 0.5)) < 0.3


def test_bank_settles_immediately_on_zero_signal():
    h = 0.1
    bank = run_bank(np.zeros(100), nu=2, l_est=1.0, h=h, dwell=0.5)
    # dwell of 0.5 s at h=0.1 is five quiet samples
    assert bank.settled_index == 4
    assert np.allclose(bank.stack, 0.0)
    # no samples: an empty stack that never settles
    empty = run_bank(np.zeros(0), nu=2, l_est=1.0, h=h)
    assert empty.stack.shape == (0, 2) and empty.settled_index is None


def test_bank_never_settles_on_fast_signal():
    h = 1e-3
    t = np.arange(0.0, 2.0, h)
    # Lipschitz bound far below the true second derivative: tracking
    # cannot enter the sliding phase
    bank = run_bank(np.sin(40.0 * t), nu=2, l_est=0.1, h=h)
    assert bank.settled_index is None


def test_bank_diverging_input_raises():
    h = 1e-3
    sig = np.zeros(200)
    sig[100] = np.nan
    with pytest.raises(NumericalError, match="channel 0 diverged at sample 100"):
        run_bank(sig, nu=2, l_est=1.0, h=h)
    # an inf in one channel of several: the report names that channel and
    # the first sample whose step turned non-finite, with no warning raised
    wide = np.zeros((200, 3))
    wide[120:, 1] = np.inf
    with pytest.raises(NumericalError, match="channel 1 diverged at sample 120"):
        run_bank(wide, nu=3, l_est=[1.0, 2.0, 3.0], h=h)


def test_bank_requires_depth_two():
    with pytest.raises(ValueError):
        run_bank(np.zeros(10), nu=1, l_est=1.0, h=0.1)


def test_bank_refuses_a_missing_bound_and_an_unbounded_dwell():
    signal = np.zeros(100)
    with pytest.raises(ValueError, match="no Lipschitz bound given"):
        run_bank(signal, nu=3, l_est=None, h=1e-3)
    for dwell in (np.inf, np.nan):
        with pytest.raises(ValueError, match="dwell must be finite and non-negative"):
            run_bank(signal, nu=3, l_est=1.0, h=1e-3, dwell=dwell)
    # a finite dwell longer than the series, even past the float range in
    # steps, never elapses
    for dwell in (0.101, 1e308):
        assert run_bank(signal, nu=3, l_est=1.0, h=1e-3, dwell=dwell).settled_index is None
    # a quiet series settles at its last sample through a window of its length
    assert run_bank(signal, nu=3, l_est=1.0, h=1e-3, dwell=0.1).settled_index == 99
