"""Strong observability: stacked derivative maps, rank tests, reconstruction.

Stacking the output and its derivatives of dx/dt = A(t) x + D(t) w,
y = C(t) x gives

    yhat(t) = R_nu(t) x(t) + J_nu(t) what(t),

where yhat collects y .. y^(nu-1) and what collects w .. w^(nu-2).  The
row blocks follow the recursions (derivatives are symbolic)

    C_0     = C,            C_{i+1}     = C_i A + dC_i/dt,
    D_{1,0} = C_0 D,        D_{a+1,0}   = C_a D + dD_{a,0}/dt,
                            D_{a+1,b}   = D_{a,b-1} + dD_{a,b}/dt   (1 <= b < a),

so the top diagonal of J is always C_0 D.  For constant matrices these
produce the Markov parameters D_{a,b} = C A^(a-1-b) D, which pins the
C_a D form of the first column.  The observability index nu is the
smallest depth whose stacked rank matches the next depth at every probe
time; strong observability asks that appending J to R adds exactly
rank(J) to the rank, and then x is recovered by annihilating the
unknown-input image with K = I - J J^+ and solving the normal equations
H x = (K R)^T K yhat.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, StepPreconditionError
from .expr import MatrixExpr
from .linalg import (
    numerical_rank,
    orthogonal_projector_complement,
    projector_complement_stack,
)
from .system import LtvSystem

__all__ = [
    "ObservabilityStack",
    "build_stack",
    "SoVerdict",
    "strong_observability_test",
    "ReconstructionMap",
    "ErrorStackSampler",
    "solve_normal_stack",
    "error_system_so_test",
]

DEFAULT_PROBES = np.linspace(0.0, 10.0, 101)


def _probe_array(probe_times):
    probes = np.atleast_1d(np.asarray(probe_times, dtype=float))
    if probes.size < 1:
        raise ValueError("need at least one probe time")
    return probes


@dataclass
class ObservabilityStack:
    """Symbolic observability stack of one system.

    ``c_list`` holds C_0..C_nu; ``d_table[(a, b)]`` the unknown-input
    coefficient of w^(b) in y^(a).
    """

    nu: int
    q0_rank: int
    c_list: list
    d_table: dict
    r_nu: MatrixExpr
    j_nu: MatrixExpr | None
    n: int
    m: int
    r: int
    probe_times: np.ndarray = field(repr=False)


def _rank_profile(matrix_expr, probes):
    fn = matrix_expr.bind()
    return np.asarray([numerical_rank(fn(t)) for t in probes])


def _plateau_index(make_depth_expr, probes, depth_max, what):
    """Smallest k with probe-constant rank(k) == rank(k+1); via callback."""
    ranks_prev = None
    expr_prev = None
    for k in range(1, depth_max + 2):
        expr_k = make_depth_expr(k)
        ranks = _rank_profile(expr_k, probes)
        if not np.all(ranks == ranks[0]):
            raise StepPreconditionError(
                "iv",
                f"rank of the depth-{k} {what} stack varies across probe times "
                f"(min {ranks.min()}, max {ranks.max()}); not a constant rank system",
            )
        if ranks_prev is not None and ranks[0] == ranks_prev and k - 1 <= depth_max:
            return k - 1, int(ranks[0]), expr_prev
        ranks_prev = int(ranks[0])
        expr_prev = expr_k
    raise StepPreconditionError(
        "iv", f"no constant-rank plateau of the {what} stack within depth {depth_max}"
    )


def build_stack(sys: LtvSystem, nu_max=None, probe_times=None):
    """Build the derivative stack and determine the observability index.

    ``nu_max`` bounds the plateau search (default 2n; time-varying
    systems may legitimately need more than n).  Rank decisions are made
    at ``probe_times`` (default 101 points on [0, 10]); a depth whose
    rank varies across probes fails the constant-rank premise.
    """
    n, m, r = sys.n, sys.m, sys.r
    nu_max = nu_max or 2 * n
    probes = _probe_array(DEFAULT_PROBES if probe_times is None else probe_times)

    c_list = [sys.c]

    def depth_obs(k):
        while len(c_list) < k:
            prev = c_list[-1]
            c_list.append(prev @ sys.a + prev.derivative())
        return MatrixExpr.vstack(c_list[:k])

    nu, q0_rank, r_nu = _plateau_index(depth_obs, probes, nu_max, "observability")
    depth_obs(nu + 1)  # ensure C_0..C_nu all exist

    d_table = {}
    if nu >= 2:
        d_table[(1, 0)] = sys.c @ sys.d
        for a in range(1, nu - 1):
            d_table[(a + 1, 0)] = c_list[a] @ sys.d + d_table[(a, 0)].derivative()
            for b in range(1, a):
                d_table[(a + 1, b)] = d_table[(a, b - 1)] + d_table[(a, b)].derivative()
            d_table[(a + 1, a)] = d_table[(a, a - 1)]
        rows = []
        for a in range(nu):
            row = [
                d_table[(a, b)] if b < a else MatrixExpr.zeros(r, m)
                for b in range(nu - 1)
            ]
            rows.append(MatrixExpr.hstack(row))
        j_nu = MatrixExpr.vstack(rows)
    else:
        j_nu = None

    return ObservabilityStack(
        nu=nu,
        q0_rank=q0_rank,
        c_list=c_list,
        d_table=d_table,
        r_nu=r_nu,
        j_nu=j_nu,
        n=n,
        m=m,
        r=r,
        probe_times=probes,
    )


def _so_ranks(r_val, j_val, n):
    """Ranks of S = [R J] and S* = [[I 0],[R J]] for one probe."""
    s = np.hstack([r_val, j_val])
    rows, cols_j = r_val.shape[0], j_val.shape[1]
    top = np.hstack([np.eye(n), np.zeros((n, cols_j))])
    s_star = np.vstack([top, s])
    return numerical_rank(s), numerical_rank(s_star)


@dataclass
class SoVerdict:
    """Grid-certified strong-observability verdict."""

    ok: bool
    nu: int
    probe_times: np.ndarray
    rank_s: np.ndarray
    rank_s_star: np.ndarray
    n: int


def _j_evaluator(stack):
    if stack.j_nu is None:
        empty = np.zeros((stack.r * stack.nu, 0))
        return lambda t: empty
    return stack.j_nu.bind()


def strong_observability_test(stack: ObservabilityStack, probe_times=None):
    """Check rank [R J] = rank [[I 0],[R J]] at every probe time.

    Equality means appending the unknown-input map J cannot hide state
    directions: the stacked map still determines x uniquely.
    """
    probes = _probe_array(stack.probe_times if probe_times is None else probe_times)
    r_fn = stack.r_nu.bind()
    j_fn = _j_evaluator(stack)
    rank_s = np.empty(probes.size, dtype=int)
    rank_star = np.empty(probes.size, dtype=int)
    for i, t in enumerate(probes):
        rank_s[i], rank_star[i] = _so_ranks(r_fn(t), j_fn(t), stack.n)
    return SoVerdict(
        ok=bool(np.all(rank_s == rank_star)),
        nu=stack.nu,
        probe_times=probes,
        rank_s=rank_s,
        rank_s_star=rank_star,
        n=stack.n,
    )


class ReconstructionMap:
    """State recovery x = H^{-1} (K R)^T K yhat at any time.

    Built only for strongly observable stacks; construction evaluates the
    invertibility margin of H over the probe grid and refuses maps whose
    condition number exceeds 1e12.
    """

    def __init__(self, stack: ObservabilityStack, probe_times=None):
        verdict = strong_observability_test(stack, probe_times)
        if not verdict.ok:
            raise StepPreconditionError(
                "iv", "system is not strongly observable; reconstruction undefined"
            )
        self.stack = stack
        self.n = stack.n
        self.nu = stack.nu
        self._r_fn = stack.r_nu.bind()
        self._j_fn = _j_evaluator(stack)
        probes = verdict.probe_times
        eigs = np.empty(probes.size)
        for i, t in enumerate(probes):
            h = self.h_at(t)
            eigs[i] = np.linalg.eigvalsh(h)[0]
        self.probe_times = probes
        self.min_eig_h = float(eigs.min())
        self.h_eig_history = eigs
        worst = float(np.abs(eigs).max())
        if self.min_eig_h <= 0.0 or worst / self.min_eig_h > 1e12:
            raise NumericalError(
                f"normal matrix nearly singular: min eig {self.min_eig_h:.3e} "
                f"over the probe grid (marginal strong observability)"
            )

    def k_at(self, t):
        return orthogonal_projector_complement(self._j_fn(t))

    def kr_at(self, t):
        return self.k_at(t) @ self._r_fn(t)

    def h_at(self, t):
        kr = self.kr_at(t)
        return kr.T @ kr

    def reconstruct(self, t, yhat):
        yhat = np.asarray(yhat, dtype=float)
        expected = self.stack.r * self.nu
        if yhat.shape != (expected,):
            raise ValueError(f"yhat must have shape ({expected},), got {yhat.shape}")
        k_val = self.k_at(t)
        kr = k_val @ self._r_fn(t)
        return _solve_normal(kr, k_val @ yhat, t)


def _solve_normal(kr, kyhat, t):
    h = kr.T @ kr
    rhs = kr.T @ kyhat
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"normal matrix not positive definite at t={t}") from exc
    z = np.linalg.solve(chol, rhs)
    return np.linalg.solve(chol.T, z)


def solve_normal_stack(kr, kyhat, times):
    """Batched :func:`_solve_normal` over a stack of samples.

    ``kr`` (T, rows, n) and ``kyhat`` (T, rows) are the projected stack
    maps and stacked outputs at ``times`` (T,).  Returns the solutions
    (T, n) and the smallest eigenvalue of each normal matrix (T,).  A
    normal matrix that is not positive definite raises
    :class:`NumericalError` naming the first such time.
    """
    kr_t = np.swapaxes(kr, 1, 2)
    h = kr_t @ kr
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        for i, h_i in enumerate(h):
            try:
                np.linalg.cholesky(h_i)
            except np.linalg.LinAlgError:
                raise NumericalError(
                    f"normal matrix not positive definite at t={float(times[i])}"
                ) from exc
        raise NumericalError(f"batched Cholesky failed: {exc}") from exc
    z = np.linalg.solve(chol, kr_t @ kyhat[..., None])
    x = np.linalg.solve(np.swapaxes(chol, 1, 2), z)[..., 0]
    return x, np.linalg.eigvalsh(h)[:, 0]


class ErrorStackSampler:
    """Depth-2 stack of the error system (A - L C, D, C) with sampled gain.

    The gain appears only inside C_1 = C (A - L C) + dC/dt, so one gain
    value per evaluation time suffices and no gain derivative is needed.
    Deeper stacks would differentiate L, which has no symbolic form; the
    cascade therefore refuses an observability index other than 2.
    """

    def __init__(self, sys: LtvSystem):
        self.sys = sys
        self._a = sys.a.bind()
        self._c = sys.c.bind()
        self._cdot = sys.c.derivative().bind()
        self._d = sys.d.bind()
        self._grid = tuple(
            m.bind_grid() for m in (sys.a, sys.c, sys.c.derivative(), sys.d)
        )

    def matrices(self, t, l_val):
        """(R, J) of the error system at time t for gain value ``l_val``."""
        a_val, c_val = self._a(t), self._c(t)
        c1 = c_val @ (a_val - l_val @ c_val) + self._cdot(t)
        r_e = np.vstack([c_val, c1])
        j_e = np.vstack([np.zeros((self.sys.r, self.sys.m)), c_val @ self._d(t)])
        return r_e, j_e

    def reconstruct(self, t, l_val, yhat):
        r_e, j_e = self.matrices(t, l_val)
        k_val = orthogonal_projector_complement(j_e)
        return _solve_normal(k_val @ r_e, k_val @ np.asarray(yhat, dtype=float), t)

    def matrices_stack(self, times, l_vals):
        """:meth:`matrices` at every time of ``times`` (T,), gains (T, n, r)."""
        a_fn, c_fn, cdot_fn, d_fn = self._grid
        c_val = c_fn(times)
        c1 = c_val @ (a_fn(times) - l_vals @ c_val) + cdot_fn(times)
        r_e = np.concatenate([c_val, c1], axis=1)
        cd = c_val @ d_fn(times)
        j_e = np.concatenate([np.zeros_like(cd), cd], axis=1)
        return r_e, j_e

    def reconstruct_stack(self, times, l_vals, yhat):
        """Batched :meth:`reconstruct`; also returns each sample's min eig H_e."""
        r_e, j_e = self.matrices_stack(times, l_vals)
        k_val = projector_complement_stack(j_e)
        k_yhat = (k_val @ yhat[..., None])[..., 0]
        return solve_normal_stack(k_val @ r_e, k_yhat, times)


def error_system_so_test(sys: LtvSystem, gain_samples):
    """Strong-observability ranks of (A - L C, D, C) at sampled gains.

    ``gain_samples`` pairs times with gain matrices, e.g. from
    :func:`ltvobs.observer.gain_snapshots`.  Depth is fixed at 2.
    """
    sampler = ErrorStackSampler(sys)
    times = np.asarray([t for t, *_ in gain_samples])
    rank_s = np.empty(times.size, dtype=int)
    rank_star = np.empty(times.size, dtype=int)
    for i, (t, l_val, *_rest) in enumerate(gain_samples):
        r_e, j_e = sampler.matrices(t, l_val)
        rank_s[i], rank_star[i] = _so_ranks(r_e, j_e, sys.n)
    return SoVerdict(
        ok=bool(np.all(rank_s == rank_star)),
        nu=2,
        probe_times=times,
        rank_s=rank_s,
        rank_s_star=rank_star,
        n=sys.n,
    )
