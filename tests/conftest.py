"""Shared fixtures: small closed-form systems used across the suite."""

import functools
import operator
import sys
from dataclasses import replace

import numpy as np
import pytest

from ltvobs import cascade
from ltvobs.cli import _resolve_scenario
from ltvobs.errors import NumericalError
from ltvobs.expr import Call, MatrixExpr, Neg, Num, Time, _add, _mul
from ltvobs.hosm import DEFAULT_GAINS
from ltvobs.linalg import mgs_qr
from ltvobs.system import LtvSystem

# rank-test probe times of a run over [0, 10], as horizon_so_check picks them
PROBES = np.linspace(0.0, 10.0, 101)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance verdict lines after the capture-hidden run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in lines:
            terminalreporter.write_line(line)


def bench8_run(t_end, **kw):
    """The bundled bench8 run spec over [0, t_end], with the fields ``kw`` replaced."""
    run = _resolve_scenario("bench8").run
    step = replace(run.observer.step, t0=0.0, t_end=t_end)
    return replace(run, observer=replace(run.observer, step=step), **kw)


@pytest.fixture(scope="session")
def gate4_run():
    """Gate 4's observer run and the error e that ``_simulate`` stepped for it.

    bench8 over 200 s without unknown input, from a seeded unit error.  It
    takes about 4 s, so gate 4 and the cascade test of ||e|| share one run.
    """
    stepped = []
    real = cascade._simulate

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        stepped.append(out[2])
        return out

    bench = _resolve_scenario("bench8").run
    e0 = np.random.default_rng(2024).standard_normal(8)
    e0 /= np.linalg.norm(e0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cascade, "_simulate", spy)
        run = cascade.run_tso(bench8_run(200.0, w=None, xt0=bench.x0 - e0))
    (e,) = stepped
    return run, e


@pytest.fixture(scope="module")
def toy2():
    """Two states, one unstable mode, scalar output on the unstable mode.

    The unknown input drives only the stable state, so the pair is
    directionally detectable with k=1 and strongly observable at depth 2.
    The system is frozen, so the tests of a module share one.
    """
    return LtvSystem(
        a=[[0.3, 1.0], [0.0, -2.0]],
        f=[[0.0], [1.0]],
        d=[[0.0], [1.0]],
        c=[[1.0, 0.0]],
        w_bound=1.0,
    )


def double_integrator(d_col):
    """Chain of two integrators with position output and input column d_col."""
    return LtvSystem(
        a=[[0.0, 1.0], [0.0, 0.0]],
        f=[[0.0], [1.0]],
        d=[[d_col[0]], [d_col[1]]],
        c=[[1.0, 0.0]],
    )


def rk4_stage_times(t_grid, h):
    """Stage times of one RK4 step from each grid point but the last.

    Flattened in the order an RK4 step visits them: t, t + h/2, t + h/2,
    t + h, so a sequential reference can read its stage matrices from one
    array evaluation by counting its stage calls.
    """
    return (t_grid[:-1, None] + np.array([0.0, 0.5 * h, 0.5 * h, h])).ravel()


def rk4_propagator(m1, m2, m3, m4, h):
    """One RK4 step of dx/dt = M x from the identity, stage by stage."""
    eye = np.eye(m1.shape[0])
    k1 = m1
    k2 = m2 @ (eye + (0.5 * h) * k1)
    k3 = m3 @ (eye + (0.5 * h) * k2)
    k4 = m4 @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def discrete_qr_step(phi, q, t):
    """One step of the discrete QR method, Q_next R = Phi Q, by Gram-Schmidt.

    Returns the next frame and log diag R.
    """
    qn, r = mgs_qr(phi @ q)
    d = np.diag(r)
    if not (np.all(np.isfinite(qn)) and np.all(d > 1e-8)):
        raise NumericalError(f"frame rank collapse at t={t}: pivots {d}")
    return qn, np.log(d)


def rk4_step(f, t, x, h):
    """One classic Runge-Kutta-4 step of ``dx/dt = f(t, x)``.

    Raises :class:`NumericalError` if any stage produces a non-finite
    value.
    """
    k1 = np.asarray(f(t, x))
    k2 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k1))
    k3 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k2))
    k4 = np.asarray(f(t + h, x + h * k3))
    for i, k in enumerate((k1, k2, k3, k4)):
        if not np.all(np.isfinite(k)):
            raise NumericalError(f"non-finite RK4 stage {i + 1} at t={t}")
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def gain_basis(c_val, q):
    """Qt of C^T C Q with degenerate columns zeroed, plus diag(Rt) >= 0.

    The single-matrix reference of ``observer._gain_basis_stack``: columns
    that ``mgs_qr`` finds dependent get Rt_jj = 0, and their completion
    columns are zeroed.
    """
    qt, rt = mgs_qr(c_val.T @ (c_val @ q))
    rdiag = np.diag(rt).copy()
    if np.any(rdiag == 0.0):
        qt = qt * (rdiag > 0.0)
    return qt, rdiag


def evaluate(expr, t):
    """Value of the expression tree ``expr`` at ``t``, a scalar or an ndarray.

    The tree-walking reference of ``MatrixExpr.bind``, on the same numpy
    ufuncs in the same order: a number on an array gives a full array,
    ``/`` runs with division by zero and invalid results ignored, and a
    function with invalid results ignored.
    """
    if isinstance(expr, Num):
        return np.full(t.shape, expr.value) if isinstance(t, np.ndarray) else expr.value
    if isinstance(expr, Time):
        return t
    if isinstance(expr, Neg):
        return -evaluate(expr.arg, t)
    if isinstance(expr, Call):
        x = evaluate(expr.arg, t)
        with np.errstate(invalid="ignore"):
            return getattr(np, expr.name)(x)
    a, b = evaluate(expr.left, t), evaluate(expr.right, t)
    if expr.op == "/":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(a, b)
    return {"+": operator.add, "-": operator.sub, "*": operator.mul}[expr.op](a, b)


def symbolic_matmul(x, y):
    """The product X Y of two :class:`MatrixExpr` as expression trees.

    Each entry is the folded sum of the products of the factors' entries,
    so the product's derivatives are symbolic ones: the reference of the
    Leibniz-rule jets in ``strong_obs.build_stack``.
    """
    return MatrixExpr(
        [
            [
                functools.reduce(_add, (_mul(u, v) for u, v in zip(row, col)), Num(0.0))
                for col in zip(*y.entries)
            ]
            for row in x.entries
        ]
    )


def symbolic_sum(x, y):
    """The sum X + Y of two :class:`MatrixExpr` as expression trees, entry by entry."""
    rows = zip(x.entries, y.entries)
    return MatrixExpr([[_add(u, v) for u, v in zip(ru, rv)] for ru, rv in rows])


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


def reference_step_z(z, f, order, lipschitz, gains, h):
    """One properly discretized differentiator step on a list of floats.

    Independent of ``hosm._step_z``: it recomputes each rate with ``**``
    on every step and builds the Taylor coefficients as running products,
    z_i <- z_i + h v_i + sum_{l=2}^{r-i} h^l / l! z_{i+l}.
    """

    def sign(x):
        # a zero keeps its sign and NaN stays NaN, as in the copysign form
        return 1.0 if x > 0.0 else (-1.0 if x < 0.0 else x * 0.0)

    v_prev = f
    v = [0.0] * (order + 1)
    for i in range(order):
        e = z[i] - v_prev
        denom = order - i + 1.0
        rate = gains[order - i] * lipschitz ** (1.0 / denom)
        v_prev = -rate * abs(e) ** ((order - i) / denom) * sign(e) + z[i + 1]
        v[i] = v_prev
    v[order] = -gains[0] * lipschitz * sign(z[order] - v_prev)
    out = [zi + h * vi for zi, vi in zip(z, v)]
    for i in range(order - 1):
        coef = h
        taylor = 0.0
        for l in range(2, order - i + 1):
            coef *= h / l
            taylor += coef * z[i + l]
        out[i] += taylor
    return out


def reference_bank(e_y, nu, l_est, h, threshold=1e-4, dwell=0.5, gains=DEFAULT_GAINS):
    """Sample-by-sample, channel-by-channel bank: (stack, residuals, settled_index).

    The sequential reference of ``hosm.run_bank``, with the same
    derivative-major stack and settle rule.
    """
    e_y = np.asarray(e_y, dtype=float)
    if e_y.ndim == 1:
        e_y = e_y[:, None]
    n_samples, channels = e_y.shape
    order = nu - 1
    l_arr = np.broadcast_to(np.asarray(l_est, dtype=float), (channels,))
    dwell_steps = max(1, int(round(dwell / h)))
    states = [[0.0] * nu for _ in range(channels)]
    stack = np.empty((n_samples, nu * channels))
    residuals = np.empty((n_samples, channels))
    settled_index = None
    streak = 0
    for s in range(n_samples):
        quiet = True
        for ch, z in enumerate(states):
            residuals[s, ch] = abs(z[0] - e_y[s, ch])
            quiet = quiet and residuals[s, ch] < threshold
            for lev in range(nu):
                stack[s, lev * channels + ch] = z[lev]
        streak = streak + 1 if quiet else 0
        if settled_index is None and streak >= dwell_steps:
            settled_index = s
        if s + 1 < n_samples:
            states = [
                reference_step_z(z, e_y[s, ch], order, float(l_arr[ch]), gains, h)
                for ch, z in enumerate(states)
            ]
    return stack, residuals, settled_index
