"""Triangularization and finite-horizon boundedness certificates."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ltvobs.bibs import (
    general_bibs_certificate,
    scalar_bibs_certificate,
    triangularize,
    triangularize_error_system,
)
from ltvobs.cli import _resolve_scenario
from ltvobs.integrators import StepConfig

from conftest import rk4_step


def test_triangularize_constant_upper_triangular():
    # identity start frame is a fixed point: B(t) = A for all t
    a = np.array([[1.0, 2.0], [0.0, -0.5]])
    tri = triangularize(lambda t: a, StepConfig(h=0.01, t0=0.0, t_end=5.0))
    assert np.allclose(tri.b, a, atol=1e-10)
    assert np.allclose(tri.frames, np.eye(2), atol=1e-10)


def test_triangularize_skew_field_has_zero_diagonal():
    # skew A preserves norms, so every growth rate vanishes
    a = np.array([[0.0, 1.5], [-1.5, 0.0]])
    tri = triangularize(lambda t: a, StepConfig(h=0.01, t0=0.0, t_end=5.0))
    diag = tri.b[:, [0, 1], [0, 1]]
    assert np.max(np.abs(diag)) < 1e-10


def test_triangular_form_rejects_subdiagonal_residue():
    from ltvobs.bibs import TriangularForm

    b = np.zeros((2, 2, 2))
    b[:, 1, 0] = 1.0
    with pytest.raises(ValueError):
        TriangularForm(
            t=np.array([0.0, 1.0]),
            b=b,
            frames=np.stack([np.eye(2)] * 2),
        )
    # one residue, at the last kept sample of a form the flow wrote chunk
    # by chunk (bench8 over 3 s: 24 chunks), in the bottom row's first column
    a = _resolve_scenario("bench8").run.sys.a
    tri = triangularize(a, StepConfig(h=1e-3, t0=0.0, t_end=3.0))
    b = tri.b.copy()
    b[-1, -1, 0] = -2e-8
    with pytest.raises(ValueError, match="subdiagonal residue 2.000e-08"):
        TriangularForm(t=tri.t, b=b, frames=tri.frames)


def test_triangularize_allocates_little_beyond_the_kept_stacks():
    a = _resolve_scenario("bench8").run.sys.a
    cfg = StepConfig(h=1e-3, t0=0.0, t_end=3.0)
    triangularize(a, cfg)  # A's evaluator is compiled and cached here
    tracemalloc.start()
    try:
        tri = triangularize(a, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = tri.t.nbytes + tri.b.nbytes + tri.frames.nbytes
    assert tri.t.size == 3001
    # the stacks are written in place: no per-chunk lists joined at the
    # end, no |B| or tril copy of the whole stack (measured 1.27x)
    assert peak <= 1.5 * kept, f"traced peak {peak} B for {kept} B kept"


def test_scalar_certificate_constant_stable():
    cert = scalar_bibs_certificate(-1.0, epsilon=0.5, cfg=StepConfig(h=0.01, t0=0.0, t_end=10.0))
    assert cert.certified
    assert cert.lambda_hat == pytest.approx(-1.0, abs=1e-12)
    assert cert.tail_mass == 0.0
    assert cert.bound_factor == pytest.approx(1.0, abs=1e-12)
    assert cert.input_gain == pytest.approx((1.0 - np.exp(-5.0)) / 0.5, rel=1e-12)
    # |z| <= M (|z0| + fbar * gain)
    assert cert.state_bound(2.0, 0.5) == pytest.approx(2.0 + 0.5 * cert.input_gain)


def test_scalar_certificate_unstable_refused():
    cert = scalar_bibs_certificate(0.1, epsilon=0.1, cfg=StepConfig(h=0.01, t0=0.0, t_end=10.0))
    assert not cert.certified
    assert cert.lambda_hat == pytest.approx(0.1, abs=1e-12)


def test_scalar_bound_factor_past_exp_range_reads_inf():
    # the positive mass 1.1 * 1000 passes exp's range: the factor is inf,
    # with no overflow warning (warnings are errors)
    cert = scalar_bibs_certificate("1", 0.1, StepConfig(h=0.1, t_end=1000.0))
    assert cert.bound_factor == np.inf
    assert not cert.certified


def test_scalar_certificate_decaying_diagonal():
    # a(t) = -1 + 2 e^{-t}: positive part of a + 0.1 lives on [0, ln(20/9)]
    cfg = StepConfig(h=1e-3, t0=0.0, t_end=20.0)
    cert = scalar_bibs_certificate("-1 + 2*exp(-t)", epsilon=0.1, cfg=cfg)
    t_star = np.log(20.0 / 9.0)
    mass = -0.9 * t_star + 2.0 * (1.0 - np.exp(-t_star))
    assert cert.certified
    assert cert.bound_factor == pytest.approx(np.exp(mass), rel=1e-6)
    # independent quadrature oracle for the same integral
    ts = np.linspace(0.0, 20.0, 200001)
    mass_q = np.trapezoid(np.maximum(-0.9 + 2.0 * np.exp(-ts), 0.0), ts)
    assert cert.bound_factor == pytest.approx(np.exp(mass_q), rel=1e-6)
    assert cert.tail_mass == pytest.approx(0.0, abs=1e-12)


def test_scalar_certificate_rejects_bad_epsilon():
    cfg = StepConfig(h=0.01, t0=0.0, t_end=1.0)
    tri = triangularize(lambda t: -np.eye(2), cfg)
    for epsilon in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            scalar_bibs_certificate(-1.0, epsilon=epsilon, cfg=cfg)
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            general_bibs_certificate(
                tri, epsilon, d=np.zeros((2, 1)), w_bound=0.0, x0=np.zeros(2)
            )


def test_general_certificate_diagonal_system():
    a = np.diag([-1.0, -2.0])
    tri = triangularize(lambda t: a, StepConfig(h=0.01, t0=0.0, t_end=20.0))
    cert = general_bibs_certificate(tri, 0.1, d=[[1.0], [1.0]], w_bound=1.0, x0=(1.0, 1.0))
    assert cert.certified
    want = 1.0 + (1.0 - np.exp(-2.0)) / 0.1
    assert np.allclose([c.state_bound for c in cert.components], [want, want], rtol=1e-9)


def test_general_certificate_chain_blocks_on_unstable_component():
    a = np.array([[-1.0, 5.0], [0.0, 0.2]])
    tri = triangularize(lambda t: a, StepConfig(h=0.01, t0=0.0, t_end=20.0))
    cert = general_bibs_certificate(tri, 0.1, d=[[0.0], [1.0]], w_bound=1.0, x0=np.zeros(2))
    assert not cert.certified
    assert not cert.components[1].certified
    # the top component is scalar-certifiable but its coupling partner
    # is not, so the chained verdict must refuse it too
    assert cert.components[0].scalar.certified
    assert not cert.components[0].certified
    assert np.isinf(cert.components[0].state_bound)


def test_certified_bound_holds_in_simulation():
    a = np.array([[-1.0, 1.0], [0.0, -2.0]])
    cfg = StepConfig(h=0.01, t0=0.0, t_end=20.0)
    tri = triangularize(lambda t: a, cfg)
    x0 = np.array([1.0, -1.0])
    cert = general_bibs_certificate(tri, 0.1, d=[[0.0], [1.0]], w_bound=1.0, x0=x0)
    assert cert.certified
    x = x0.copy()
    sup = np.abs(x0)
    for i in range(cfg.n_steps):
        t = cfg.time(i)
        x = rk4_step(lambda s, z: a @ z + np.array([0.0, np.sin(s)]), t, x, cfg.h)
        sup = np.maximum(sup, np.abs(x))
    # the certificate bounds the rotated coordinates; frames stay I here
    assert np.all(sup <= [c.state_bound + 1e-9 for c in cert.components])


def test_rotated_coordinates_preserve_norm():
    a_fn = lambda t: np.array([[0.0, 1.0 + 0.5 * np.sin(t)], [-1.0, -0.5]])
    tri = triangularize(a_fn, StepConfig(h=0.01, t0=0.0, t_end=10.0))
    rng = np.random.default_rng(5)
    for s in range(0, tri.t.shape[0], 97):
        x = rng.standard_normal(2)
        zeta = tri.frames[s].T @ x
        assert np.linalg.norm(zeta) == pytest.approx(np.linalg.norm(x), rel=1e-10)


def test_error_system_certificate_on_bundled_benchmark():
    # the gain-corrected error flow of the bundled eight-state system,
    # read off the open-loop QR frame: every diagonal decays with zero tail
    # mass, the first two at detect's mu_hat, so the whole chain certifies
    run = _resolve_scenario("bench8").run
    conf = replace(run.observer, step=StepConfig(h=5e-3, t0=0.0, t_end=50.0))
    tri = triangularize_error_system(run.sys, conf)
    cert = general_bibs_certificate(
        tri, 0.1, d=run.sys.d, w_bound=run.sys.w_bound, x0=run.x0 - run.xt0
    )
    lams = [c.scalar.lambda_hat for c in cert.components]
    want = [-24.6792, -3.4080, -1.5872, -2.9104, -2.9298, -3.1703, -4.2087, -4.2151]
    assert lams == pytest.approx(want, abs=1e-3)
    for c in cert.components:
        assert c.certified, f"component {c.index} should certify"
        assert c.scalar.tail_mass == 0.0
        assert np.isfinite(c.state_bound)
    assert cert.certified
