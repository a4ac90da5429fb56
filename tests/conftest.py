"""Shared fixtures: small closed-form systems used across the suite."""

import sys

import numpy as np
import pytest

from ltvobs.errors import NumericalError
from ltvobs.linalg import mgs_qr
from ltvobs.system import LtvSystem


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance verdict lines after the capture-hidden run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def toy2():
    """Two states, one unstable mode, scalar output on the unstable mode.

    The unknown input drives only the stable state, so the pair is
    directionally detectable with k=1 and strongly observable at depth 2.
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


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
