"""Strong observability: stacked derivative maps, rank tests, reconstruction.

Stacking the output and its derivatives of dx/dt = A(t) x + D(t) w,
y = C(t) x gives

    yhat(t) = R_nu(t) x(t) + J_nu(t) what(t),

where yhat collects y .. y^(nu-1) and what collects w .. w^(nu-2).  The
row blocks follow the recursions

    C_0     = C,            C_{i+1}     = C_i A + dC_i/dt,
    D_{1,0} = C_0 D,        D_{a+1,0}   = C_a D + dD_{a,0}/dt,
                            D_{a+1,b}   = D_{a,b-1} + dD_{a,b}/dt   (1 <= b < a),

so the top diagonal of J is always C_0 D.  For constant matrices these
produce the Markov parameters D_{a,b} = C A^(a-1-b) D, which pins the
C_a D form of the first column.  The stack is needed only at the probe
times where its ranks are decided, so the recursions run there on jets,
a matrix with its first time derivatives: those of A, C and D come from
their symbolic derivatives, and those of the products from the Leibniz
rule (Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008).
The observability index nu is the smallest depth whose stacked rank
matches the next depth at every probe time; strong observability asks
that appending J to R adds exactly rank(J) to the rank, and then x is
recovered by annihilating the unknown-input image with K = I - J J^+ and
solving K R x = K yhat in the least-squares sense.  The solve factors
K R itself and never forms the normal matrix H = (K R)^T K R, whose
condition number is that of K R squared (Golub & Van Loan, Matrix
Computations, 4th ed., 5.3); H enters only through its eigenvalues, the
reported margin of the map.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, StepPreconditionError
from .expr import MatrixExpr
from .linalg import householder_qr, numerical_rank, orthogonal_projector_complement, require_finite
from .observer import ObserverConfig, frame_track
from .system import LtvSystem

__all__ = [
    "ObservabilityStack",
    "build_stack",
    "SoVerdict",
    "strong_observability_test",
    "horizon_so_check",
    "ReconstructionMap",
    "ErrorStackSampler",
    "error_system_so_test",
]

@dataclass
class ObservabilityStack:
    """Observability stack of one system at its probe times.

    ``r_nu`` (T, r nu, n) stacks C_0..C_{nu-1} and ``j_nu``
    (T, r nu, m (nu - 1)) the unknown-input blocks D_{a,b} at each of the
    T ``probe_times``; ``j_nu`` has no columns when nu < 2.
    """

    nu: int
    q0_rank: int
    r_nu: np.ndarray = field(repr=False)
    j_nu: np.ndarray = field(repr=False)
    probe_times: np.ndarray = field(repr=False)


def _derivatives(m: MatrixExpr, probes):
    """Values at ``probes`` of m, dm/dt, d^2m/dt^2, ..., each order compiled when drawn."""
    while True:
        yield m.bind()(probes)
        m = m.derivative()


def _product(x, y, j):
    """j-th derivative of the product X Y from the jets ``x`` and ``y`` (Leibniz rule)."""
    return sum(math.comb(j, l) * (x[l] @ y[j - l]) for l in range(j + 1))


# an overflowing product leaves a non-finite stack, which require_finite refuses
@np.errstate(over="ignore", invalid="ignore")
def build_stack(sys: LtvSystem, probe_times):
    """Build the derivative stack and determine the observability index.

    The plateau search stops at depth 2n (time-varying systems may
    legitimately need more than n).  Rank decisions are made at
    ``probe_times``; a depth whose rank varies across probes fails the
    constant-rank premise.
    """
    n, m, r = sys.n, sys.m, sys.r
    probes = np.atleast_1d(np.asarray(probe_times, dtype=float))
    if probes.size < 1:
        raise ValueError("need at least one probe time")

    # depth k stacks C_0..C_{k-1}, and cj[i][l] is the l-th derivative of
    # C_i at the probes; the plateau at depth k leaves C_0..C_nu
    a_gen, c_gen = _derivatives(sys.a, probes), _derivatives(sys.c, probes)
    a_jet, cj, q0_rank = [], [[next(c_gen)]], None
    for k in range(1, 2 * n + 2):
        stack = np.concatenate([ci[0] for ci in cj], axis=1)
        ranks = numerical_rank(require_finite(stack, probes, f"depth-{k} observability stack"))
        if not np.all(ranks == ranks[0]):
            raise StepPreconditionError(
                "iv",
                f"rank of the depth-{k} observability stack varies across probe times "
                f"(min {ranks.min()}, max {ranks.max()}); not a constant rank system",
            )
        if ranks[0] == q0_rank:
            break
        q0_rank, r_nu = int(ranks[0]), stack
        # C_{i+1}^(l) = (C_i A)^(l) + C_i^(l+1): raise C_0 to order k, then
        # each C_{i+1} to order k - 1 - i, down to C_k itself
        a_jet.append(next(a_gen))
        cj[0].append(next(c_gen))
        cj.append([])
        for i in range(k):
            l = k - 1 - i
            cj[i + 1].append(_product(cj[i], a_jet, l) + cj[i][l + 1])
    else:
        raise StepPreconditionError(
            "iv", f"no constant-rank plateau of the observability stack within depth {2 * n}"
        )
    nu = k - 1

    # y^(a) = C_a x + sum_{i<a} (C_i D w)^(a-1-i), so the coefficient of
    # w^(b) is D_{a,b} = sum_i binom(a-1-i, b) (C_i D)^(a-1-i-b)
    d_jet = list(itertools.islice(_derivatives(sys.d, probes), nu - 1))
    cd = [[_product(cj[i], d_jet, p) for p in range(nu - 1 - i)] for i in range(nu - 1)]
    j_nu = np.zeros((probes.size, nu, r, nu - 1, m))
    for a in range(1, nu):
        for b in range(a):
            j_nu[:, a, :, b] = sum(
                math.comb(a - 1 - i, b) * cd[i][a - 1 - i - b] for i in range(a - b)
            )
    j_nu = j_nu.reshape(probes.size, nu * r, (nu - 1) * m)
    return ObservabilityStack(
        nu=nu,
        q0_rank=q0_rank,
        r_nu=r_nu,
        j_nu=require_finite(j_nu, probes, "unknown-input stack"),
        probe_times=probes,
    )


@dataclass
class SoVerdict:
    """Grid-certified strong-observability verdict."""

    ok: bool
    nu: int
    probe_times: np.ndarray
    rank_s: np.ndarray
    rank_s_star: np.ndarray


def _so_verdict(r_val, j_val, nu, times):
    """Ranks of S = [R J] and S* = [[I 0],[R J]] at every sample time.

    ``r_val`` (T, rows, n) and ``j_val`` (T, rows, cols) are the stacked
    maps at ``times`` (T,); each rank is one stacked SVD.
    """
    s = np.concatenate([r_val, j_val], axis=2)
    n = r_val.shape[2]
    top = np.zeros((times.size, n, s.shape[2]))
    top[:, :, :n] = np.eye(n)
    rank_s = numerical_rank(s)
    rank_star = numerical_rank(np.concatenate([top, s], axis=1))
    return SoVerdict(
        ok=bool(np.all(rank_s == rank_star)),
        nu=nu,
        probe_times=times,
        rank_s=rank_s,
        rank_s_star=rank_star,
    )


def strong_observability_test(stack: ObservabilityStack):
    """Check rank [R J] = rank [[I 0],[R J]] at every probe time of the stack.

    Equality means appending the unknown-input map J cannot hide state
    directions: the stacked map still determines x uniquely.
    """
    return _so_verdict(stack.r_nu, stack.j_nu, stack.nu, stack.probe_times)


def horizon_so_check(sys: LtvSystem, step):
    """Step (iv) on a run's horizon: the stack and its strong-observability verdict.

    The rank decisions are made at 101 times evenly spaced over
    ``[t0, t0 + horizon]`` of the grid ``step``.  Returns ``(stack, verdict)``.
    """
    probes = np.linspace(step.t0, step.t0 + step.horizon, 101)
    stack = build_stack(sys, probes)
    return stack, strong_observability_test(stack)


def _normal_eigs(kr, times):
    """Ascending eigenvalues (T, n) of H = (K R)^T K R for a stack ``kr`` (T, rows, n).

    The margin of the reconstruction map: H is positive definite exactly
    when K R has full column rank, and its eigenvalues are the squared
    singular values of K R.  An H that overflows raises
    :class:`NumericalError` naming its time in ``times`` (T,).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h = kr.mT @ kr
    return np.linalg.eigvalsh(require_finite(h, times, "normal matrix"))


def _least_squares(m, y):
    """Least-squares solutions x (T, n) of m x = y for stacks ``m`` (T, rows, n), ``y`` (T, rows).

    A square stack is solved by LU.  A tall one is first reduced by
    Householder QR, m = Q R, to the square systems R x = Q^T y, with R
    read as Q^T m, and then solved the same way.
    """
    if m.shape[-2] > m.shape[-1]:
        q, _ = householder_qr(m)
        m, y = q.mT @ m, (q.mT @ y[..., None])[..., 0]
    return np.linalg.solve(m, y[..., None])[..., 0]


class ReconstructionMap:
    """Invertibility margin of the state recovery from K R x = K yhat.

    Built only for strongly observable stacks; construction evaluates the
    normal matrix H = (K R)^T K R at every probe time of the stack and
    refuses a map whose H is not positive definite, or has a condition
    number above 1e12, at some probe.  cond(H) = cond(K R)^2, so the
    second refusal is cond(K R) > 1e6.  ``min_eig_h`` is the smallest
    eigenvalue of H over the probes and ``h_eig_history`` the smallest one
    at each probe.
    """

    def __init__(self, stack: ObservabilityStack):
        verdict = strong_observability_test(stack)
        if not verdict.ok:
            raise StepPreconditionError(
                "iv", "system is not strongly observable; reconstruction undefined"
            )
        probes = stack.probe_times
        k_val = orthogonal_projector_complement(stack.j_nu)
        eigs = _normal_eigs(k_val @ stack.r_nu, probes)
        self.h_eig_history = eigs[:, 0]
        self.min_eig_h = float(self.h_eig_history.min())
        if self.min_eig_h <= 0.0:
            raise NumericalError(
                f"normal matrix not positive definite: min eig {self.min_eig_h:.3e} "
                f"over the probe grid (marginal strong observability)"
            )
        cond = eigs[:, -1] / eigs[:, 0]
        worst = int(np.argmax(cond))
        if cond[worst] > 1e12:
            raise NumericalError(
                f"normal matrix nearly singular: condition number {cond[worst]:.3e} "
                f"at t={probes[worst]} (marginal strong observability)"
            )


class ErrorStackSampler:
    """Depth-2 stack of the error system (A - L C, D, C) with sampled gain.

    The gain appears only inside C_1 = C (A - L C) + dC/dt, so one gain
    value per evaluation time suffices and no gain derivative is needed.
    Deeper stacks would differentiate L, which has no symbolic form; the
    cascade therefore refuses an observability index other than 2.
    """

    def __init__(self, sys: LtvSystem):
        self.sys = sys
        self._fns = tuple(m.bind() for m in (sys.a, sys.c, sys.c.derivative(), sys.d))

    def reconstruct(self, t, l_val, yhat):
        """:meth:`reconstruct_stack` of the one sample at time t."""
        l_vals, yhats = (np.asarray(v, dtype=float)[None] for v in (l_val, yhat))
        return self.reconstruct_stack(np.array([t], dtype=float), l_vals, yhats)[0][0]

    def matrices_stack(self, times, l_vals):
        """(R, J) of the error system at every time of ``times`` (T,), gains (T, n, r)."""
        a_fn, c_fn, cdot_fn, d_fn = self._fns
        c_val = c_fn(times)
        c1 = c_val @ (a_fn(times) - l_vals @ c_val) + cdot_fn(times)
        r_e = np.concatenate([c_val, c1], axis=1)
        cd = c_val @ d_fn(times)
        j_e = np.concatenate([np.zeros_like(cd), cd], axis=1)
        return r_e, j_e

    def reconstruct_stack(self, times, l_vals, yhat):
        """Least-squares errors (T, n) from ``yhat`` (T, 2 r), and each sample's min eig H_e.

        With no nonzero entry in J_e (C D = 0) the projector is the identity,
        and the samples are solved unprojected.  When some H_e is not
        positive definite, :class:`NumericalError` names the time of the
        smallest eigenvalue.
        """
        r_e, j_e = self.matrices_stack(times, l_vals)
        if j_e.any():
            k_val = orthogonal_projector_complement(j_e)
            r_e, yhat = k_val @ r_e, (k_val @ yhat[..., None])[..., 0]
        eig = _normal_eigs(r_e, times)[:, 0]
        if eig.min() <= 0.0:
            raise NumericalError(
                f"normal matrix not positive definite at t={float(times[np.argmin(eig)])}"
            )
        return _least_squares(r_e, yhat), eig


def error_system_so_test(sys: LtvSystem, conf: ObserverConfig, times):
    """Strong-observability ranks of the error system (A - L C, D, C) at ``times``.

    The gain L is the observer's, read off one :func:`frame_track` of
    ``conf`` at the grid points ``times`` names; a time off the step grid
    raises ValueError.  Depth is fixed at 2, as in the cascade.
    """
    cfg = conf.step
    times = np.atleast_1d(np.asarray(times, dtype=float))
    index = np.rint((times - cfg.t0) / cfg.h).astype(int)
    off = (index < 0) | (index > cfg.n_steps)
    off |= np.abs(cfg.time(index) - times) > 1e-9
    if off.any():
        raise ValueError(f"probe time {times[np.argmax(off)]} is off the step grid")
    track = frame_track(sys, conf)
    t = track.t[index]
    gains = track.gains(sys.c.bind()(t), conf.p, index)
    r_e, j_e = ErrorStackSampler(sys).matrices_stack(t, gains)
    return _so_verdict(r_e, j_e, 2, t)
