"""Robust exact differentiation of sampled signals by sliding modes.

The order-r differentiator tracks a signal f whose (r+1)-th derivative
is bounded by L:

    dz_i/dt = v_i = -lam_{r-i} L^{1/(r-i+1)} |z_i - v_{i-1}|^{(r-i)/(r-i+1)}
                      sign(z_i - v_{i-1}) + z_{i+1},     v_{-1} := f,
    dz_r/dt = -lam_0 L sign(z_r - v_{r-1}),

after which z_i converges to f^(i) in finite time (exactly in continuous
time).  Sampled at step tau, the update is the proper discretization of
Livne & Levant (Automatica 2014): an Euler step plus the Taylor terms

    z_i += tau v_i + sum_{l=2}^{r-i} tau^l / l! z_{i+l},

which keeps the sampled accuracy |z_i - f^(i)| <= mu_i L tau^{r+1-i}
of Levant (IJC 2003); plain Euler loses part of it for r >= 2 (an
order on z_1 at r = 2).  Order 1 has no Taylor terms and is plain
Euler.  The gain table lam_0..lam_5 covers orders up to 5; higher
orders are rejected rather than guessed.

The channels of a bank are independent, so :func:`run_bank` steps them
one at a time on order + 1 Python floats: on a few levels a float step is
cheaper than numpy's per-call cost on a small array.  The step is
compiled once per call, for the bank's order and step, into generated
source that unrolls it inside the loop over the samples, so a channel is
one call; the rates are computed once per channel.  The stack, the
residuals, the settle index and the divergence check are array work on
the recorded states afterwards.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "DEFAULT_GAINS",
    "check_bank_settings",
    "BankRun",
    "run_bank",
]

DEFAULT_GAINS = (1.1, 1.5, 2.0, 3.0, 5.0, 8.0)


def check_bank_settings(order, lipschitz, gains, channels, threshold, dwell, need_bound=True):
    """Validate every setting of an order-``order`` bank over ``channels``.

    ``lipschitz`` bounds the (order+1)-th derivative of each channel's
    input: one finite positive value, or one per channel.  It is a design
    input (Levant, IJC 2003), which no run can measure from its own data.
    ``gains[i]`` multiplies the level at distance i from the top, so the
    highest derivative uses ``gains[0]`` and the signal level
    ``gains[order]``, and all of them must be finite and positive.  The
    settle ``threshold`` must be finite and positive and the ``dwell``
    finite and non-negative.  Returns the per-channel bounds and raises
    ValueError, for a missing bound (None) too; with ``need_bound`` false,
    for a spec that may run no bank, a missing bound returns None.
    """
    top = len(DEFAULT_GAINS) - 1
    if not 1 <= order <= top:
        raise ValueError(
            f"order must be in 1..{top} (no established gains beyond {top}), "
            f"got {order}"
        )
    gain = np.asarray(gains, dtype=float)
    if gain.ndim != 1 or gain.size < order + 1:
        raise ValueError(f"need {order + 1} gains for order {order}, got {gain.size}")
    if not (np.all(gain > 0.0) and np.all(np.isfinite(gain))):
        raise ValueError(f"gains must be finite and positive, got {tuple(gains)}")
    # a residual never drops below a threshold <= 0, so the bank could not
    # settle
    if not (threshold > 0.0 and math.isfinite(threshold)):
        raise ValueError(f"settle threshold must be finite and positive, got {threshold}")
    if not (dwell >= 0.0 and math.isfinite(dwell)):
        raise ValueError(f"dwell must be finite and non-negative, got {dwell}")
    if lipschitz is None:
        if not need_bound:
            return None
        raise ValueError(
            f"no Lipschitz bound given: the order-{order} bank needs a bound on "
            f"derivative {order + 1} of its input"
        )
    bound = np.asarray(lipschitz, dtype=float)
    if bound.ndim > 1 or bound.size not in (1, channels):
        raise ValueError(
            f"Lipschitz bound must be a scalar or one value per channel "
            f"({channels}), got shape {bound.shape}"
        )
    if not (np.all(bound > 0.0) and np.all(np.isfinite(bound))):
        raise ValueError(f"Lipschitz bound must be finite and positive, got {lipschitz}")
    return np.broadcast_to(bound.reshape(-1), (channels,)).copy()


def _neg_rates(order, lipschitz, gains):
    """Per channel the order + 1 rates -gains[r-i] L^{1/(r-i+1)}, level by level.

    ``lipschitz`` holds the per-channel bounds; the power is Python's float
    ``**``, as the steps take theirs.
    """
    # distance of each level to the top
    depth = range(order, -1, -1)
    return [
        [-(float(gains[d]) * bound ** (1.0 / (d + 1.0))) for d in depth]
        for bound in lipschitz.tolist()
    ]


def _bank_loop(order, h):
    """Compile the sample loop of one channel at ``order`` with step ``h``.

    Returns ``loop(samples, levels, neg_rates)``: from the order + 1
    starting ``levels`` it takes one properly discretized step per sample
    and returns the levels after every step, flattened into one list.
    ``neg_rates[i]`` is the channel's -gains[r-i] L^{1/(r-i+1)}.  The
    source is generated per order with the step unrolled:
    z_i <- (z_i + h v_i) + (0.0 + sum_l h^l / l! z_{i+l}), the Taylor sum
    taken in order of l and the constants written as exact float literals.
    Level i injects against the level below it with the exponent
    (r-i)/(r-i+1); the top level's sign is 0 at 0, and a NaN passes through
    every level, so a diverging channel turns non-finite instead of
    raising.
    """
    levels = range(order + 1)
    z = ", ".join(f"z{i}" for i in levels)
    lines = [
        "def _loop(samples, levels, neg_rates, _copysign=copysign):",
        f"    {z}, = levels",
        f"    {', '.join(f'r{i}' for i in levels)}, = neg_rates",
        "    states = []",
        "    push = states.extend",
        "    for f in samples:",
    ]
    for i in range(order):
        d = order - i
        taylor = "".join(
            f" + {h**l / math.factorial(l)!r} * z{i + l}" for l in range(2, d + 1)
        )
        # the signal level injects against the sample, every other level
        # against the injection of the level below
        lines += [
            f"        e = z{i} - {'v' if i else 'f'}",
            f"        v = r{i} * _copysign(abs(e) ** {d / (d + 1.0)!r}, e) + z{i + 1}",
            f"        n{i} = z{i} + {h!r} * v + (0.0{taylor})",
        ]
    lines += [
        f"        e = z{order} - v",
        f"        n{order} = z{order} + {h!r} * "
        f"(r{order} if e > 0.0 else -r{order} if e < 0.0 else r{order} * e)",
        f"        {z}, = {', '.join(f'n{i}' for i in levels)},",
        f"        push(({z},))",
        "    return states",
    ]
    ns = {"copysign": math.copysign}
    exec("\n".join(lines), ns)  # controlled codegen from fixed templates
    return ns["_loop"]


@dataclass
class BankRun:
    """Differentiator bank output over a sampled multi-channel signal.

    ``stack[s]`` holds the estimated derivative stack at sample s in
    derivative-major order: all channels' signal estimates, then all
    first derivatives, and so on.  ``settled_index`` is the first sample
    at which every channel's injection residual |z_0 - f| has stayed
    below ``threshold`` for a full dwell window (None if never).
    """

    stack: np.ndarray
    residuals: np.ndarray
    settled_index: int | None
    h: float
    nu: int
    channels: int
    lipschitz: np.ndarray
    threshold: float
    dwell: float


def run_bank(e_y, nu, l_est, h, threshold=1e-4, dwell=0.5, gains=DEFAULT_GAINS):
    """Differentiate each channel of a sampled series up to order nu - 1.

    Emits, per sample, the stacked estimates of the signal and its first
    nu - 1 derivatives, from which the cascade takes the levels its
    reconstruction map reads.  ``l_est`` bounds the nu-th derivative;
    it and the other settings are checked by :func:`check_bank_settings`.
    Initial states are zero, so a zero input series yields a zero stack
    with the settled flag raised as soon as the dwell window elapses; a
    dwell longer than the series never elapses.
    Each channel steps on its own through one compiled loop
    (:func:`_bank_loop`); a channel that turns non-finite raises
    NumericalError naming it and the sample.
    """
    e_y = np.asarray(e_y, dtype=float)
    if e_y.ndim == 1:
        e_y = e_y[:, None]
    n_samples, channels = e_y.shape
    order = nu - 1
    l_arr = check_bank_settings(order, l_est, gains, channels, threshold, dwell)
    # a window longer than the series never fits, so the bank never settles
    dwell_steps = max(1, round(min(dwell / h, n_samples + 1)))

    loop = _bank_loop(order, h)

    # history[s] is the state before sample s is read; a diverging channel
    # turns inf or nan and is reported after the loop
    history = np.zeros((n_samples, nu, channels))
    for ch, rates in enumerate(_neg_rates(order, l_arr, gains)):
        states = loop(e_y[:-1, ch].tolist(), [0.0] * nu, rates)
        history[1:, :, ch] = np.reshape(states, (-1, nu))
    finite = np.isfinite(history[1:]).all(axis=1)
    if not finite.all():
        s, ch = np.argwhere(~finite)[0]
        raise NumericalError(f"differentiator channel {ch} diverged at sample {s}")

    residuals = np.abs(history[:, 0] - e_y)
    # quiet[k]: quiet samples among the first k; a settle ends dwell_steps in a row
    quiet = np.concatenate([[0], np.cumsum(np.all(residuals < threshold, axis=1))])
    ends = np.flatnonzero(quiet[dwell_steps:] - quiet[:-dwell_steps] == dwell_steps)
    return BankRun(
        stack=history.reshape(n_samples, nu * channels),
        residuals=residuals,
        settled_index=int(ends[0]) + dwell_steps - 1 if ends.size else None,
        h=h,
        nu=nu,
        channels=channels,
        lipschitz=l_arr,
        threshold=threshold,
        dwell=dwell,
    )
