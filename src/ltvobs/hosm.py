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
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "DEFAULT_GAINS",
    "DifferentiatorConfig",
    "estimate_lipschitz",
    "BankRun",
    "run_bank",
]

DEFAULT_GAINS = (1.1, 1.5, 2.0, 3.0, 5.0, 8.0)


@dataclass(frozen=True)
class DifferentiatorConfig:
    """Differentiation order, Lipschitz bound, and injection gains.

    ``gains[i]`` multiplies the level at distance i from the top: the
    highest derivative uses ``gains[0]``, the signal level ``gains[r]``.
    """

    order: int
    lipschitz: float
    gains: tuple = DEFAULT_GAINS

    def __post_init__(self):
        if not 0 <= self.order <= 5:
            raise ValueError(
                f"order must be in 0..5 (no established gains beyond 5), "
                f"got {self.order}"
            )
        if not (self.lipschitz > 0.0 and np.isfinite(self.lipschitz)):
            raise ValueError(f"Lipschitz bound must be positive, got {self.lipschitz}")
        if len(self.gains) < self.order + 1:
            raise ValueError(
                f"need {self.order + 1} gains for order {self.order}, "
                f"got {len(self.gains)}"
            )
        if any(not g > 0.0 for g in self.gains):
            raise ValueError("gains must be positive")


def _step_z(z, f, order, lipschitz, gains, h):
    """One properly discretized step; z is a plain list of floats.

    z_i <- z_i + h v_i + sum_{l=2}^{r-i} h^l / l! z_{i+l}.  The Taylor
    terms restore the accuracy |z_i - f^(i)| = O(h^{r+1-i}) that a plain
    Euler step loses for r >= 2; order 1 has none and is plain Euler.
    """
    v_prev = f
    v = [0.0] * (order + 1)
    for i in range(order):
        e = z[i] - v_prev
        denom = order - i + 1.0
        rate = gains[order - i] * lipschitz ** (1.0 / denom)
        v_prev = -rate * abs(e) ** ((order - i) / denom) * _sign(e) + z[i + 1]
        v[i] = v_prev
    v[order] = -gains[0] * lipschitz * _sign(z[order] - v_prev)
    out = [zi + h * vi for zi, vi in zip(z, v)]
    for i in range(order - 1):
        coef = h
        taylor = 0.0
        for l in range(2, order - i + 1):
            coef *= h / l
            taylor += coef * z[i + l]
        out[i] += taylor
    return out


def _sign(x):
    return 1.0 if x > 0.0 else (-1.0 if x < 0.0 else 0.0)


def estimate_lipschitz(f, h, nu, warmup=None):
    """Crude per-channel Lipschitz bound: 2x the max finite-difference
    nu-th derivative over a warmup window.

    A fallback for when no analytic bound is known; finite differences
    amplify noise by h^-nu, so prefer a supplied bound on noisy data.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float).T).T
    rows = f.shape[0] if warmup is None else min(int(warmup), f.shape[0])
    if rows < nu + 1:
        raise ValueError(f"need at least {nu + 1} samples, got {rows}")
    deriv = np.diff(f[:rows], n=nu, axis=0) / h**nu
    return 2.0 * np.max(np.abs(deriv), axis=0)


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
    reconstruction map reads.  ``l_est`` bounds the nu-th derivative.
    Initial states are zero, so a zero input series yields a zero stack
    with the settled flag raised as soon as the dwell window elapses.
    """
    e_y = np.asarray(e_y, dtype=float)
    if e_y.ndim == 1:
        e_y = e_y[:, None]
    n_samples, channels = e_y.shape
    if nu < 2:
        raise ValueError(f"need nu >= 2 (order nu - 1 >= 1), got nu={nu}")
    order = nu - 1
    l_arr = np.broadcast_to(np.asarray(l_est, dtype=float), (channels,)).copy()
    confs = [
        DifferentiatorConfig(order=order, lipschitz=float(l_arr[ch]), gains=tuple(gains))
        for ch in range(channels)
    ]
    dwell_steps = max(1, int(round(dwell / h)))

    states = [[0.0] * (order + 1) for _ in range(channels)]
    stack = np.empty((n_samples, nu * channels))
    residuals = np.empty((n_samples, channels))
    settled_index = None
    streak = 0
    for s in range(n_samples):
        quiet = True
        for ch, z in enumerate(states):
            f = e_y[s, ch]
            residual = abs(z[0] - f)
            residuals[s, ch] = residual
            quiet = quiet and residual < threshold
            for lev in range(nu):
                stack[s, lev * channels + ch] = z[lev]
        if quiet:
            streak += 1
            if settled_index is None and streak >= dwell_steps:
                settled_index = s
        else:
            streak = 0
        if s + 1 < n_samples:
            for ch in range(channels):
                conf = confs[ch]
                states[ch] = _step_z(
                    states[ch], e_y[s, ch], order, conf.lipschitz, conf.gains, h
                )
                if not all(np.isfinite(states[ch])):
                    raise NumericalError(
                        f"differentiator channel {ch} diverged at sample {s}"
                    )
    return BankRun(
        stack=stack,
        residuals=residuals,
        settled_index=settled_index,
        h=h,
        nu=nu,
        channels=channels,
        lipschitz=l_arr,
        threshold=threshold,
        dwell=dwell,
    )
