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
below it as an extra bounded input.  :func:`triangularize_error_system`
reads the observer error system's form off the same open-loop flow.

The form is written in place at the kept points only: grid point 0 and
the history points of :func:`ltvobs.lyapunov.history_index`.  Each chunk
of the flow fills its slice of stacks sized for those points, and the
residue check and the certificate's max |B_ij| scan the stacks without
copying them.

All certificates are finite-horizon diagnostics: they state "certified
on [t0, T]" for explicit epsilon, tail-mass threshold, and window, never
an asymptotic proof.
"""

from dataclasses import dataclass

import numpy as np

from .integrators import StepConfig, frame_flow, skew_rule
from .lyapunov import TAIL_MASS_TOL, history_index, tail_mass
from .observer import ObserverConfig, gain_stack
from .system import LtvSystem, as_sampler

__all__ = [
    "TriangularForm",
    "triangularize",
    "triangularize_error_system",
    "ScalarCertificate",
    "check_epsilon",
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

    def __post_init__(self):
        # the strict lower triangle row by row, with no copy of the stack
        rows = range(1, self.n) if self.b.size else ()
        worst = np.max([_abs_max(self.b[:, i, :i]) for i in rows], initial=0.0)
        if worst > 1e-8:
            raise ValueError(f"triangular form has subdiagonal residue {worst:.3e}")

    @property
    def n(self):
        return self.b.shape[1]


def _abs_max(x, axis=None):
    """max |x| over ``axis``, taken from max x and min x without a copy |x|."""
    return np.maximum(np.abs(x.max(axis)), np.abs(x.min(axis)))


def _triangular_flow(a, cfg, q, loop_gain=None):
    """Full-width frame flow of ``a`` from the basis ``q``, recording B.

    ``a`` is an evaluator ``times -> (T, n, n)``.  B = Qf^T M Qf -
    S(Qf^T M Qf) with M = A less ``loop_gain(index, frames)``, the stack
    L C at those grid indices, when given.  B and the frame are kept at
    grid point 0 and at :func:`ltvobs.lyapunov.history_index`, each chunk
    written into its slice of the kept stacks.
    """
    index = np.concatenate(([0], history_index(cfg)))
    k = q.shape[1]
    b = np.empty((index.size, k, k))
    frames = np.empty((index.size,) + q.shape)
    lo = 0
    for s, grid, chunk_frames, _ in frame_flow(a, q, cfg):
        hi = int(np.searchsorted(index, s.stop))
        kept = index[lo:hi] - s.start
        qf = np.take(chunk_frames, kept, axis=0, out=frames[lo:hi])
        m = grid[kept]
        if loop_gain is not None:
            m = m - loop_gain(index[lo:hi], qf)
        w = qf.mT @ m @ qf
        np.subtract(w, skew_rule(w), out=b[lo:hi])
        lo = hi
    return TriangularForm(t=cfg.time(index), b=b, frames=frames)


def triangularize(a, cfg: StepConfig):
    """Triangularize ``dx/dt = A(t) x`` along the full-width frame flow.

    ``a`` may be a MatrixExpr or a callable ``t -> (n, n)``.  Records
    B = Qf^T A Qf - S and the frame at a decimated set of step
    boundaries; the strict lower triangle of B vanishes by construction.
    """
    a = as_sampler(a)
    return _triangular_flow(a, cfg, np.eye(a(np.array([cfg.t0])).shape[-1]))


def triangularize_error_system(sys: LtvSystem, conf: ObserverConfig):
    """Triangular form of the observer error dynamics A(t) - L(t) C(t).

    The gain L = p Q Qt^T C^T maps into the span of the observer frame Q,
    which A's transition matrix carries along, so the error system's QR
    frame from Q completed to a basis (the identity for the default frame)
    is the open-loop one, and Qf^T L C Qf is upper triangular with p Rt
    leading its first k rows.  The first k diagonals of B thus average to
    detect's mu_hat = lambda_hat - p rbar, the others are the open-loop
    ones, and no step-size artefact enters beyond the open-loop flow's.
    """
    k, cfg = conf.k, conf.step
    q = conf.initial_frame(sys.n)
    start = np.linalg.qr(q, mode="complete").Q
    start[:, :k] = q
    c_fn = sys.c.bind()

    def loop_gain(index, frames):
        t = cfg.time(index)
        c_val = c_fn(t)
        return gain_stack(c_val, frames[..., :k], conf.p, t) @ c_val

    return _triangular_flow(sys.a.bind(), cfg, start, loop_gain)


@dataclass
class ScalarCertificate:
    """Finite-horizon boundedness certificate for dz/dt = a(t) z + f.

    ``certified`` requires the average of ``a`` to clear ``-epsilon`` and
    the :func:`ltvobs.lyapunov.tail_mass` of max(a + epsilon, 0) to stay
    at or under :data:`ltvobs.lyapunov.TAIL_MASS_TOL`.
    ``bound_factor`` and ``input_gain`` feed the explicit bound
    |z(t)| <= bound_factor * (|z0| + fbar * input_gain) on the certified
    horizon.
    """

    certified: bool
    lambda_hat: float
    tail_mass: float
    bound_factor: float
    input_gain: float

    def state_bound(self, z0_abs, f_bar):
        return self.bound_factor * (abs(z0_abs) + f_bar * self.input_gain)


def check_epsilon(epsilon):
    """Return the certificate margin, or raise ValueError unless finite and > 0."""
    if not (epsilon > 0.0 and np.isfinite(epsilon)):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    return epsilon


def _certify_series(t, vals, epsilon):
    check_epsilon(epsilon)
    span = t[-1] - t[0]
    lam = np.trapezoid(vals, t) / span
    pos = np.maximum(vals + epsilon, 0.0)
    mass = tail_mass(t, pos)
    # a positive mass past exp's range makes the factor inf, with no warning
    with np.errstate(over="ignore"):
        bound_factor = float(np.exp(np.trapezoid(pos, t)))
    input_gain = float((1.0 - np.exp(-epsilon * span)) / epsilon)
    return ScalarCertificate(
        certified=bool(lam + epsilon < 0.0 and mass <= TAIL_MASS_TOL),
        lambda_hat=float(lam),
        tail_mass=mass,
        bound_factor=bound_factor,
        input_gain=input_gain,
    )


def scalar_bibs_certificate(a, epsilon, cfg: StepConfig):
    """Certify boundedness of the scalar system dz/dt = a(t) z + f(t).

    ``a`` is one entry in any form :func:`ltvobs.system.as_sampler` takes:
    an expression string, Expr, number or callable ``t -> float``.  It is
    sampled on the grid of ``cfg``.
    """
    t = cfg.grid()
    vals = as_sampler(a, ())(t)
    if not np.all(np.isfinite(vals)):
        raise ValueError("diagonal series contains non-finite samples")
    return _certify_series(t, vals, epsilon)


@dataclass
class ComponentCertificate:
    """One diagonal of the triangular form, with its chained verdict."""

    index: int
    scalar: ScalarCertificate
    state_bound: float
    certified: bool


@dataclass
class GeneralCertificate:
    """Bottom-up certificate over all diagonals of a triangular form."""

    components: list
    certified: bool
    epsilon: float


def general_bibs_certificate(tri: TriangularForm, epsilon, d, w_bound, x0):
    """Certify every component of the triangularized system, bottom-up.

    Component i of the triangular dynamics sees the unknown input through
    phi = Qf^T D w, with ``|w| <= w_bound`` and ``d`` in any form
    :func:`ltvobs.system.as_sampler` takes, plus the off-diagonal coupling
    to components j > i, so it can only be certified after all of them.
    The reported per-state bounds start from the initial state ``x0`` and
    treat that coupling as an extra bounded input, using each lower
    component's own bound.
    """
    n = tri.n
    t = tri.t
    qtd = tri.frames.mT @ as_sampler(d)(t)
    phi = w_bound * np.max(np.abs(qtd).sum(axis=2), axis=0)
    zeta0 = np.abs(tri.frames[0].T @ np.asarray(x0, dtype=float))
    b_abs_max = _abs_max(tri.b, axis=0)

    comps = [None] * n
    bounds = np.zeros(n)
    chain_ok = True
    for i in range(n - 1, -1, -1):
        cert = _certify_series(t, tri.b[:, i, i], epsilon)
        coupling = float(b_abs_max[i, i + 1 :] @ bounds[i + 1 :]) if i + 1 < n else 0.0
        certified = bool(cert.certified and chain_ok)
        chain_ok = certified
        bound = cert.state_bound(zeta0[i], phi[i] + coupling) if certified else np.inf
        bounds[i] = bound
        comps[i] = ComponentCertificate(
            index=i,
            scalar=cert,
            state_bound=float(bound),
            certified=certified,
        )
    return GeneralCertificate(
        components=comps,
        certified=all(c.certified for c in comps),
        epsilon=float(epsilon),
    )
