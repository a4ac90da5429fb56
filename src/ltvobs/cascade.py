"""Full estimation pipeline: observer, differentiator bank, error correction.

One run simulates the plant and the tangent-space observer together,
feeds the output error e_y = y - C x~ through a bank of sliding-mode
differentiators, reconstructs the estimation error e = x - x~ from the
stacked derivatives through the error system's reconstruction map, and
emits the corrected estimate xhat = x~ + e~.  The reconstruction reads
e_y and its first derivative (observability index nu = 2); the bank runs
at order 2, so its Lipschitz bound is on the third derivative of e_y and
z_1 is accurate to O(h^2).  After the bank settles, xhat tracks the true
state up to that discretization band even though the input w driving the
plant is unknown.

The design preconditions are enforced in order before integrating:
(ii) every non-stable direction must be detectable, (iii) the gain
scalar must exceed the minimum that stabilizes all predicted error
exponents, and the RK4 step must be stable on the error system's fast
modes, (iv) the system must be strongly observable with index 2.
Failures raise StepPreconditionError carrying the step label.

Measurement noise is applied per sample and held across the RK4 stages
of that step; with noise present the reconstruction's zeroth block
switches from raw e_y to the differentiator's filtered z_0 estimate.

The gain depends only on C(t) and the observer frame, never on the
states, so one :func:`ltvobs.observer.frame_track` serves the precondition
checks and the simulation.  The run is stepped in the coordinates
z = [x; e], e = x - x~, where plant and error are two decoupled n x n
systems,

    dx/dt = (A - F K) x + F u + D w,      de/dt = (A - L C) e + D w - L eta,

so e_y = C e + eta and ||e|| are read off the stepped error, never formed
as a difference of two states.  RK4 is exact under a constant linear
change of coordinates, so this is the joint plant/observer step up to
round-off.  Per chunk of steps both systems are built once at the grid
points and once at the step midpoints, and their RK4 stages fold into one
affine map per step.  A step is stored as the augmented matrix
[[Phi, psi], [0, 1]], Phi = blockdiag(Phi_x, Phi_e), and the state as the
row [x, e, 1], so each step is one matrix-vector product in a tight loop;
the reconstruction of the stacked error is batched per chunk the same way.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, StepPreconditionError
from .hosm import DEFAULT_GAINS, BankRun, check_bank_settings, run_bank
from .integrators import CHUNK_STEPS, rk4_propagators
from .observer import (
    ObserverConfig,
    detectability_report,
    frame_track,
    min_gain_suggestion,
    stage_gains,
)
from .strong_obs import ErrorStackSampler, horizon_so_check
from .system import LtvSystem, as_sampler

__all__ = ["CascadeRun", "CascadeResult", "run_cascade", "run_tso"]

# one above the index: z_1 is then not the bank's top (O(h)) level
_BANK_ORDER = 2
# RK4 is stable on the negative real axis down to h lambda = -2.785
# (Hairer & Wanner, Solving ODEs II, IV.2)
_RK4_REAL_LIMIT = 2.785


@dataclass(frozen=True)
class CascadeRun:
    """Inputs of one pipeline run, never changed by a run.

    :func:`run_cascade` and :func:`run_tso` read it and return a new
    :class:`CascadeResult`.  ``lipschitz`` bounds the third derivative of
    e_y, as a scalar or a per-channel sequence.  It is a design input, and
    only a bank run reads it, so a spec may hold None; :func:`run_cascade`
    without ``oracle_derivatives`` refuses that.  Every other setting, the
    observer's starting frame included, is checked here before any flow
    runs.  With ``sigma > 0`` the output is corrupted by seeded Gaussian
    noise and the reconstruction reads the differentiator's filtered z_0
    in place of raw e_y.  A variant is
    ``dataclasses.replace(run, sigma=..., noise_seed=...)``.
    """

    sys: LtvSystem
    observer: ObserverConfig
    x0: np.ndarray
    xt0: np.ndarray
    w: object = None
    u: object = None
    feedback: np.ndarray | None = None
    lipschitz: object = None
    gains: tuple = DEFAULT_GAINS
    threshold: float = 1e-4
    dwell: float = 0.5
    sigma: float = 0.0
    noise_seed: int = 0
    oracle_derivatives: bool = False

    def __post_init__(self):
        n = self.sys.n
        self.observer.initial_frame(n)
        # frozen: the normalized arrays are set past the dataclass guard
        for name in ("x0", "xt0"):
            value = np.asarray(getattr(self, name), dtype=float).reshape(n)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, value)
        if self.feedback is not None:
            fb = np.asarray(self.feedback, dtype=float)
            if fb.shape != (self.sys.q, n):
                raise ValueError(
                    f"feedback must be {self.sys.q}x{n}, got {fb.shape}"
                )
            if not np.isfinite(fb).all():
                raise ValueError("feedback has non-finite entries")
            object.__setattr__(self, "feedback", fb)
        if self.sigma < 0.0 or not np.isfinite(self.sigma):
            raise ValueError("noise level must be finite and non-negative")
        seed = self.noise_seed
        # JSON true is an int to Python, but no seed
        integral = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
        if not (integral and seed >= 0):
            raise ValueError(f"noise seed must be a non-negative integer, got {seed!r}")
        self.bank_bounds(need_bound=False)

    def bank_bounds(self, need_bound=True):
        """The bank's per-channel Lipschitz bounds, every bank setting checked.

        A missing bound raises ValueError, or returns None without
        ``need_bound``.
        """
        return check_bank_settings(
            _BANK_ORDER, self.lipschitz, self.gains, self.sys.r, self.threshold,
            self.dwell, need_bound,
        )


@dataclass
class CascadeResult:
    """Recorded outputs of one pipeline run; all series share the grid ``t``.

    ``stack`` holds the stacked output-error derivatives the
    reconstruction read and ``bank`` the differentiator bank; both are
    None for an observer-only run, and ``bank`` also in oracle mode.
    """

    t: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    xt: np.ndarray = field(repr=False)
    xhat: np.ndarray = field(repr=False)
    e_y: np.ndarray = field(repr=False)
    e_norm_tso: np.ndarray = field(repr=False)
    e_norm_cascade: np.ndarray = field(repr=False)
    settled_time: float | None
    t_f: float | None
    sup_state_error: np.ndarray
    summary: dict
    stack: np.ndarray | None = field(default=None, repr=False)
    bank: BankRun | None = field(default=None, repr=False)


def _check_preconditions(run, track, need_stack):
    """Enforce the design steps in order; raises StepPreconditionError."""
    report = detectability_report(run.observer, track)
    if not report.ok:
        bad = ", ".join(str(d.index + 1) for d in report.failed_directions)
        raise StepPreconditionError(
            "ii", f"non-stable direction(s) {bad} are not detectable"
        )
    p_min = min_gain_suggestion(report, margin=0.0)
    if run.observer.p <= p_min:
        raise StepPreconditionError(
            "iii",
            f"gain p={run.observer.p:g} does not exceed the minimum "
            f"{p_min:.6g} needed to stabilize every error direction",
        )
    # in frame coordinates Q^T L C Q = p Rt, so the error's fast modes sit
    # near -p diag Rt(t), and an RK4 step takes them at h p diag Rt
    h, p, r_max = run.observer.step.h, run.observer.p, float(track.r_diag.max())
    if h * p * r_max > _RK4_REAL_LIMIT:
        raise StepPreconditionError(
            "iii",
            f"gain p={p:g} with step h={h:g} puts the error system's fast modes past "
            f"RK4's stability limit (h p max diag Rt = {h * p * r_max:.6g} > "
            f"{_RK4_REAL_LIMIT}); this step admits p up to {_RK4_REAL_LIMIT / (h * r_max):.6g}",
        )
    if not need_stack:
        return
    stack, verdict = horizon_so_check(run.sys, run.observer.step)
    if not verdict.ok:
        raise StepPreconditionError(
            "iv", "system is not strongly observable on the run horizon"
        )
    if stack.nu != 2:
        raise StepPreconditionError(
            "iv",
            f"observability index is {stack.nu}; the sampled-gain error "
            "stack is implemented for index 2 only",
        )


def _matvec(m, v):
    return (m @ v[..., None])[..., 0]


def _simulate(run, track, eta, record_eydot):
    """RK4 integration of the plant and the estimation error along a frame track.

    Returns the time grid and per-sample records of x, e = x - x~, e_y
    and, with ``record_eydot``, the exact de_y/dt.  ``eta`` is the
    (N+1, r) additive measurement noise, held constant within each step.
    Each step's stages read the gains at the track's grid frames and at the
    discrete-QR midpoint frame of :func:`ltvobs.observer.stage_gains`.
    """
    sys, conf = run.sys, run.observer
    n, r, h = sys.n, sys.r, conf.step.h
    f_fn, d_fn = sys.f.bind(), sys.d.bind()
    cdot_fn = sys.c.derivative().bind() if record_eydot else None
    w_fn = as_sampler(run.w, (sys.m,))
    u_fn = as_sampler(run.u, (sys.q,))
    fb = run.feedback

    n_steps = track.t.size - 1
    t_grid = track.t
    # row i is [x, e, 1] at grid point i, so one product takes a step
    rec = np.empty((n_steps + 1, 2 * n + 1))
    rec[0, :n] = run.x0
    rec[0, n : 2 * n] = run.x0 - run.xt0
    rec[0, 2 * n] = 1.0
    x_rec, e_rec = rec[:, :n], rec[:, n : 2 * n]
    ey_rec = np.empty((n_steps + 1, r))
    eyd_rec = np.empty((n_steps + 1, r)) if record_eydot else None

    def systems(times, a_val, c_val, l_val):
        """(A - F K, A - L C) as (P, 2, n, n), (F u + D w, D w) as (P, 2, n)."""
        f_val = f_fn(times)
        m = np.empty((times.size, 2, n, n))
        m[:, 0] = a_val - f_val @ fb if fb is not None else a_val
        m[:, 1] = a_val - l_val @ c_val
        b = np.empty((times.size, 2, n))
        b[:, 1] = _matvec(d_fn(times), w_fn(times))
        b[:, 0] = _matvec(f_val, u_fn(times)) + b[:, 1]
        return m, b

    step = np.zeros((min(CHUNK_STEPS, n_steps), 2 * n + 1, 2 * n + 1))
    step[:, 2 * n, 2 * n] = 1.0
    z = rec[0]
    for lo in range(0, n_steps, CHUNK_STEPS):
        hi = min(lo + CHUNK_STEPS, n_steps)
        count = hi - lo
        t_g = t_grid[lo : hi + 1]
        grid, mid = stage_gains(sys, conf, track, lo, hi)
        m_g, b_g = systems(t_g, *grid)
        m_m, b_m = systems(t_g[:-1] + 0.5 * h, *mid)
        # the noise of step j drives all four stages of the step
        noise = eta[lo:hi]
        b1, b4 = b_g[:-1].copy(), b_g[1:].copy()
        b1[:, 1] -= _matvec(grid[2][:-1], noise)
        b_m[:, 1] -= _matvec(mid[2], noise)
        b4[:, 1] -= _matvec(grid[2][1:], noise)
        phi, psi = rk4_propagators((m_g[:-1], m_m, m_g[1:]), h, (b1, b_m, b_m, b4))
        step[:count, :n, :n] = phi[:, 0]
        step[:count, n : 2 * n, n : 2 * n] = phi[:, 1]
        step[:count, : 2 * n, 2 * n] = psi.reshape(count, 2 * n)
        for j in range(count):
            z = np.dot(step[j], z, out=rec[lo + j + 1])
        finite = np.all(np.isfinite(rec[lo + 1 : hi + 1]), axis=1)
        if not finite.all():
            bad = t_grid[lo + 1 + np.argmin(finite)]
            raise NumericalError(f"non-finite plant or observer state at t={bad}")
        # the last chunk also records the final sample
        size = count + (hi == n_steps)
        index = slice(lo, lo + size)
        e = e_rec[index]
        c_val = grid[1][:size]
        ey_rec[index] = _matvec(c_val, e) + eta[index]
        if record_eydot:
            de = _matvec(m_g[:size, 1], e) + b_g[:size, 1]
            eyd_rec[index] = _matvec(cdot_fn(t_g[:size]), e) + _matvec(c_val, de)
    return t_grid, x_rec.copy(), e_rec.copy(), ey_rec, eyd_rec


def _norms(v):
    """Row norms of ``v``; a norm past the float range reads inf, with no warning."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(v, axis=1)


def _measurement_noise(run, n_samples):
    """Seeded (n_samples, r) Gaussian noise; zeros, and no generator, when sigma is 0."""
    if run.sigma == 0.0:
        return np.zeros((n_samples, run.sys.r))
    rng = np.random.default_rng(run.noise_seed)
    return rng.normal(0.0, run.sigma, size=(n_samples, run.sys.r))


def run_cascade(run: CascadeRun) -> CascadeResult:
    """Execute the full pipeline and return its recorded outputs.

    The corrected estimate satisfies xhat = x~ + e~ sample by sample,
    where e~ is the least-squares reconstruction of the estimation
    error from the stacked output-error derivatives.  Its error
    x - xhat = e - e~ is formed from the stepped error e.  A bank run
    refuses a spec without a Lipschitz bound before any flow.
    """
    sys, conf = run.sys, run.observer
    step = conf.step
    n, r = sys.n, sys.r
    oracle = run.oracle_derivatives
    l_est = None if oracle else run.bank_bounds()
    track = frame_track(sys, conf)
    _check_preconditions(run, track, need_stack=True)

    eta = _measurement_noise(run, step.n_steps + 1)
    t_grid, x_rec, e_rec, ey_rec, eyd_rec = _simulate(run, track, eta, record_eydot=oracle)

    filtered = run.sigma > 0.0
    if oracle:
        stack = np.hstack([ey_rec, eyd_rec])
        bank = None
        settled_time = t_f = step.t0
    else:
        # the settle detector cannot resolve residuals below the noise
        # floor, so with noise present the threshold is floored at 5 sigma
        threshold = max(run.threshold, 5.0 * run.sigma)
        bank = run_bank(
            ey_rec,
            nu=_BANK_ORDER + 1,
            l_est=l_est,
            h=step.h,
            threshold=threshold,
            dwell=run.dwell,
            gains=run.gains,
        )
        z0 = bank.stack[:, :r]
        z1 = bank.stack[:, r : 2 * r]
        stack = np.hstack([z0 if filtered else ey_rec, z1])
        if bank.settled_index is None:
            settled_time = t_f = None
        else:
            settled_time = t_grid[bank.settled_index]
            t_f = settled_time + run.dwell

    sampler = ErrorStackSampler(sys)
    c_fn = sys.c.bind()
    e_tilde = np.empty_like(e_rec)
    min_eig_h = np.inf
    for lo in range(0, t_grid.size, CHUNK_STEPS):
        index = slice(lo, min(lo + CHUNK_STEPS, t_grid.size))
        t = t_grid[index]
        gains = track.gains(c_fn(t), conf.p, index)
        e_tilde[index], eig_h = sampler.reconstruct_stack(t, gains, stack[index])
        min_eig_h = min(min_eig_h, float(eig_h.min()))
    xt_rec = x_rec - e_rec
    xhat = xt_rec + e_tilde
    # x - xhat = e - e~, formed without the round-off of x
    miss = e_rec - e_tilde

    e_norm_tso = _norms(e_rec)
    e_norm_cascade = _norms(miss)
    tail = None if t_f is None else t_grid >= t_f - 1e-12
    # JSON has no inf: with no sample at or after t_f the summary says null
    if tail is not None and tail.any():
        sup_state_error = np.max(np.abs(miss)[tail], axis=0)
        sup_after = [float(v) for v in sup_state_error]
    else:
        sup_state_error = np.full(n, np.inf)
        sup_after = None
    summary = {
        "settled_time": settled_time,
        "t_f": t_f,
        "sup_state_error_after_t_f": sup_after,
        "sup_e_norm_tso": float(np.max(e_norm_tso)),
        "final_e_norm_tso": float(e_norm_tso[-1]),
        "final_e_norm_cascade": float(e_norm_cascade[-1]),
        "sigma": run.sigma,
        "filtered_output_error": bool(filtered),
        "oracle_derivatives": bool(oracle),
        "health": {
            "min_ctcq_sigma": track.min_ctcq_sigma,
            "max_orth_defect": track.max_orth_defect,
            "min_eig_h_e": min_eig_h,
        },
    }
    return CascadeResult(
        t=t_grid,
        x=x_rec,
        xt=xt_rec,
        xhat=xhat,
        e_y=ey_rec,
        e_norm_tso=e_norm_tso,
        e_norm_cascade=e_norm_cascade,
        settled_time=settled_time,
        t_f=t_f,
        sup_state_error=sup_state_error,
        summary=summary,
        stack=stack,
        bank=bank,
    )


def run_tso(run: CascadeRun) -> CascadeResult:
    """Observer-only run: no differentiator bank, no correction.

    xhat is set equal to the observer state so downstream consumers can
    treat both run styles uniformly; e_norm_cascade mirrors e_norm_tso.
    """
    sys, conf = run.sys, run.observer
    track = frame_track(sys, conf)
    _check_preconditions(run, track, need_stack=False)
    eta = _measurement_noise(run, conf.step.n_steps + 1)
    t_grid, x_rec, e_rec, ey_rec, _ = _simulate(run, track, eta, record_eydot=False)
    xt_rec = x_rec - e_rec
    e_norm_tso = _norms(e_rec)
    return CascadeResult(
        t=t_grid,
        x=x_rec,
        xt=xt_rec,
        xhat=xt_rec,
        e_y=ey_rec,
        e_norm_tso=e_norm_tso,
        e_norm_cascade=e_norm_tso,
        settled_time=None,
        t_f=None,
        sup_state_error=np.max(np.abs(e_rec), axis=0),
        summary={
            "sup_e_norm_tso": float(np.max(e_norm_tso)),
            "final_e_norm_tso": float(e_norm_tso[-1]),
            "sigma": run.sigma,
        },
    )
