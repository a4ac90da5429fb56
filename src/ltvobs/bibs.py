"""Bounded-input bounded-state certificates via a triangularizing flow.

Running the full-width (k = n) frame flow turns dx/dt = A(t) x + f into

    dzeta/dt = B(t) zeta + Qf^T f,      zeta = Qf^T x,

with B(t) upper triangular and ``||zeta|| = ||x||`` at every instant.
Each diagonal entry then gets a scalar certificate: its average must sit
below -epsilon and the tail of max(B_ii + epsilon, 0) must be small, in
which case the transition factor is bounded by

    M_i = exp( integral of max(B_ii(s) + epsilon, 0) )

and solutions obey |zeta_i(t)| <= M_i (|zeta_i(t0)| + fbar * G) with the
input gain G = (1 - exp(-epsilon * horizon)) / epsilon.  The general test
walks the diagonal bottom-up because component i sees the components
below it as an extra bounded input.

All certificates are finite-horizon diagnostics: they state "certified
on [t0, T]" for explicit epsilon, tail-mass threshold, and window, never
an asymptotic proof.
"""

from dataclasses import dataclass, field

import numpy as np

from .expr import Expr, parse
from .integrators import (
    StepConfig,
    frame_flow,
    projected_rk4_stages,
    skew_rule,
    system_stages,
)
from .observer import ObserverConfig, frame_track, gain_stack
from .system import LtvSystem, as_matrix_expr

__all__ = [
    "TriangularForm",
    "triangularize",
    "triangularize_error_system",
    "ScalarCertificate",
    "scalar_bibs_certificate",
    "ComponentCertificate",
    "GeneralCertificate",
    "general_bibs_certificate",
]


@dataclass
class TriangularForm:
    """Sampled triangular series B(t) and the full frames that produced it."""

    t: np.ndarray
    b: np.ndarray
    frames: np.ndarray
    config: StepConfig = field(repr=False)

    def __post_init__(self):
        sub = np.tril(self.b, -1)
        worst = np.max(np.abs(sub)) if sub.size else 0.0
        if worst > 1e-8:
            raise ValueError(f"triangular form has subdiagonal residue {worst:.3e}")

    @property
    def n(self):
        return self.b.shape[1]

    def diagonal(self, i):
        return self.b[:, i, i]


def _triangular_flow(stages, n, cfg, sample_stride):
    """Full-width frame flow from the identity, recording B and the frame.

    B = Qf^T M Qf - S(Qf^T M Qf) with M the recorded grid matrix of
    ``stages`` (see :func:`ltvobs.integrators.frame_flow`); it is taken at
    the first and last grid points and every ``sample_stride``-th one.
    """
    n_steps = cfg.n_steps
    stride = sample_stride or max(1, n_steps // 4000)
    ts, bs, qs = [], [], []
    for lo, hi, grid, frames in frame_flow(stages, np.eye(n), cfg):
        index = np.arange(lo, hi + 1)
        keep = (index % stride == 0) | (index == n_steps)
        if lo > 0:
            keep[0] = False  # recorded as the previous chunk's last point
        q = frames[keep]
        w = q.mT @ grid[keep] @ q
        ts.append(cfg.t0 + cfg.h * index[keep])
        bs.append(w - skew_rule(w))
        qs.append(q)
    return TriangularForm(
        t=np.concatenate(ts), b=np.concatenate(bs), frames=np.concatenate(qs), config=cfg
    )


def triangularize(a, cfg: StepConfig, sample_stride=None):
    """Triangularize ``dx/dt = A(t) x`` along the full-width frame flow.

    ``a`` may be a MatrixExpr or a callable ``t -> (n, n)``.  Records
    B = Qf^T A Qf - S and the frame at a decimated set of step
    boundaries; the strict lower triangle of B vanishes by construction.
    """
    n, stages = system_stages(a, cfg)
    return _triangular_flow(stages, n, cfg, sample_stride)


def triangularize_error_system(sys: LtvSystem, conf: ObserverConfig, sample_stride=None):
    """Triangular form of the observer error dynamics A(t) - L(t) C(t).

    The gain has no closed form: it follows the reduced observer frame,
    so the full triangularizing frame is driven by M = A - L C with the
    gain of each RK4 stage taken from the observer's frame in that stage.
    The observer frame comes from :func:`ltvobs.observer.frame_track`;
    its stage frames are rebuilt per chunk, so M differs in all four
    stages.  The recorded B uses the gain of the grid frame.
    """
    track = frame_track(sys, conf)
    a_grid, c_grid = sys.a.bind_grid(), sys.c.bind_grid()
    h, p, n = conf.step.h, conf.p, sys.n

    def stages(lo, hi):
        t_g = track.t[lo : hi + 1]
        t_m = t_g[:-1] + 0.5 * h
        a_g, a_m = a_grid(t_g), a_grid(t_m)
        c_g, c_m = c_grid(t_g), c_grid(t_m)
        frames = projected_rk4_stages(track.frames[lo:hi], a_g[:-1], a_m, h)
        a_s = np.concatenate([a_g[:-1], a_m, a_m, a_g[1:]])
        c_s = np.concatenate([c_g[:-1], c_m, c_m, c_g[1:]])
        l_s = gain_stack(c_s, frames.reshape((-1,) + frames.shape[2:]), p)
        m_s = (a_s - l_s @ c_s).reshape((4, hi - lo, n, n))
        l_end = gain_stack(c_g[-1:], track.frames[hi : hi + 1], p)
        grid = np.concatenate([m_s[0], a_g[-1:] - l_end @ c_g[-1:]])
        return grid, tuple(m_s)

    return _triangular_flow(stages, n, conf.step, sample_stride)


@dataclass
class ScalarCertificate:
    """Finite-horizon boundedness certificate for dz/dt = a(t) z + f.

    ``certified`` requires the average of ``a`` to clear ``-epsilon`` and
    the tail mass of max(a + epsilon, 0) over the last half horizon to
    stay under ``strong_tol``.  ``bound_factor`` and ``input_gain`` feed
    the explicit bound |z(t)| <= bound_factor * (|z0| + fbar * input_gain)
    on the certified horizon.
    """

    certified: bool
    lambda_hat: float
    epsilon: float
    tail_mass: float
    strong_tol: float
    bound_factor: float
    input_gain: float
    t0: float
    t_end: float

    def state_bound(self, z0_abs, f_bar):
        return self.bound_factor * (abs(z0_abs) + f_bar * self.input_gain)


def _certify_series(t, vals, epsilon, strong_tol):
    span = t[-1] - t[0]
    lam = np.trapezoid(vals, t) / span
    pos = np.maximum(vals + epsilon, 0.0)
    tail = t >= t[0] + 0.5 * span - 1e-12
    tail_mass = float(np.trapezoid(pos[tail], t[tail]))
    bound_factor = float(np.exp(np.trapezoid(pos, t)))
    input_gain = float((1.0 - np.exp(-epsilon * span)) / epsilon)
    return ScalarCertificate(
        certified=bool(lam + epsilon < 0.0 and tail_mass <= strong_tol),
        lambda_hat=float(lam),
        epsilon=float(epsilon),
        tail_mass=tail_mass,
        strong_tol=float(strong_tol),
        bound_factor=bound_factor,
        input_gain=input_gain,
        t0=float(t[0]),
        t_end=float(t[-1]),
    )


def scalar_bibs_certificate(a, epsilon, cfg: StepConfig, strong_tol=0.05):
    """Certify boundedness of the scalar system dz/dt = a(t) z + f(t).

    ``a`` may be an expression string, Expr, callable, or number; it is
    sampled on the grid of ``cfg``.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if isinstance(a, str):
        a = parse(a)
    if isinstance(a, Expr):
        fn = a.evaluate
    elif callable(a):
        fn = a
    else:
        value = float(a)
        fn = lambda t: value
    t = cfg.grid()
    vals = np.asarray([float(fn(ti)) for ti in t])
    if not np.all(np.isfinite(vals)):
        raise ValueError("diagonal series contains non-finite samples")
    return _certify_series(t, vals, epsilon, strong_tol)


@dataclass
class ComponentCertificate:
    """One diagonal of the triangular form, with its chained verdict."""

    index: int
    scalar: ScalarCertificate
    phi_bound: float
    coupling_bound: float
    state_bound: float
    certified: bool


@dataclass
class GeneralCertificate:
    """Bottom-up certificate over all diagonals of a triangular form."""

    components: list
    certified: bool
    epsilon: float
    w_bound: float
    t0: float
    t_end: float

    @property
    def state_bounds(self):
        return np.asarray([c.state_bound for c in self.components])


def general_bibs_certificate(
    tri: TriangularForm, epsilon, d=None, w_bound=0.0, strong_tol=0.05, x0=None
):
    """Certify every component of the triangularized system, bottom-up.

    Component i of the triangular dynamics sees the unknown input through
    phi = Qf^T D w plus the off-diagonal coupling to components j > i, so
    it can only be certified after all of them.  The reported per-state
    bounds treat that coupling as an extra bounded input, using each
    lower component's own bound.
    """
    n = tri.n
    t = tri.t
    if d is not None:
        d_fn = as_matrix_expr(d).bind()
        qtd = np.stack([tri.frames[s].T @ d_fn(t[s]) for s in range(t.shape[0])])
        phi = w_bound * np.max(np.abs(qtd).sum(axis=2), axis=0)
    else:
        phi = np.zeros(n)
    if x0 is not None:
        zeta0 = np.abs(tri.frames[0].T @ np.asarray(x0, dtype=float))
    else:
        zeta0 = np.zeros(n)
    b_abs_max = np.max(np.abs(tri.b), axis=0)

    comps = [None] * n
    bounds = np.zeros(n)
    chain_ok = True
    for i in range(n - 1, -1, -1):
        cert = _certify_series(t, tri.b[:, i, i], epsilon, strong_tol)
        coupling = float(b_abs_max[i, i + 1 :] @ bounds[i + 1 :]) if i + 1 < n else 0.0
        certified = bool(cert.certified and chain_ok)
        chain_ok = certified
        bound = cert.state_bound(zeta0[i], phi[i] + coupling) if certified else np.inf
        bounds[i] = bound
        comps[i] = ComponentCertificate(
            index=i,
            scalar=cert,
            phi_bound=float(phi[i]),
            coupling_bound=coupling,
            state_bound=float(bound),
            certified=certified,
        )
    return GeneralCertificate(
        components=comps,
        certified=all(c.certified for c in comps),
        epsilon=float(epsilon),
        w_bound=float(w_bound),
        t0=float(t[0]),
        t_end=float(t[-1]),
    )
