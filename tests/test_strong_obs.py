"""Observability stacking, strong-observability ranks, state reconstruction."""

import numpy as np
import pytest

from ltvobs.errors import NumericalError, StepPreconditionError
from ltvobs.expr import MatrixExpr
from ltvobs.integrators import StepConfig
from ltvobs.cli import _resolve_scenario
from ltvobs.linalg import numerical_rank, orthogonal_projector_complement
from ltvobs.observer import ObserverConfig, frame_track
from ltvobs.strong_obs import (
    ErrorStackSampler,
    ObservabilityStack,
    ReconstructionMap,
    _least_squares,
    _normal_eigs,
    build_stack,
    error_system_so_test,
    strong_observability_test,
)
from ltvobs.system import LtvSystem

from conftest import PROBES, bench8_run, double_integrator


def lti_stack_oracle(a, c, d, depth):
    """Stacked output map of a constant system, built from matrix powers."""
    r_rows = [c @ np.linalg.matrix_power(a, i) for i in range(depth)]
    r = np.vstack(r_rows)
    rr, m = c.shape[0], d.shape[1]
    if depth < 2:
        return r, np.zeros((r.shape[0], 0))
    blocks = []
    for al in range(depth):
        row = []
        for be in range(depth - 1):
            if be < al:
                row.append(c @ np.linalg.matrix_power(a, al - 1 - be) @ d)
            else:
                row.append(np.zeros((rr, m)))
        blocks.append(np.hstack(row))
    return r, np.vstack(blocks)


def lti_so_oracle(a, c, d):
    """(nu, strongly_observable) for a constant system, by brute force."""
    n = a.shape[0]
    ranks = [numerical_rank(lti_stack_oracle(a, c, d, k)[0]) for k in range(1, 2 * n + 2)]
    nu = next(k + 1 for k in range(len(ranks) - 1) if ranks[k + 1] == ranks[k])
    r, j = lti_stack_oracle(a, c, d, nu)
    s = np.hstack([r, j])
    top = np.hstack([np.eye(n), np.zeros((n, j.shape[1]))])
    return nu, numerical_rank(s) == numerical_rank(np.vstack([top, s]))


def test_double_integrator_load_channel_is_so():
    sys = double_integrator([0.0, 1.0])
    stack = build_stack(sys, PROBES)
    assert stack.nu == 2
    assert stack.q0_rank == 2
    assert np.allclose(stack.r_nu.bind()([0.7]), np.eye(2))
    assert np.allclose(stack.j_nu.bind()([0.7]), np.zeros((2, 1)))
    verdict = strong_observability_test(stack)
    assert verdict.ok
    assert np.all(verdict.rank_s == 2) and np.all(verdict.rank_s_star == 2)
    rmap = ReconstructionMap(stack)
    assert rmap.min_eig_h == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["load_channel", "full_output", "bench8"])
def test_h_eig_history_matches_per_probe(name):
    # the stacked projector and eigvalsh against one projector and one
    # eigvalsh per probe; with both outputs measured nu = 1 and J is empty
    systems = {
        "load_channel": lambda: double_integrator([0.0, 1.0]),
        "full_output": lambda: LtvSystem(
            a=[[0.0, 1.0], [0.0, 0.0]], f=[[0.0], [1.0]], d=[[0.0], [1.0]], c=np.eye(2)
        ),
        "bench8": lambda: _resolve_scenario("bench8").run.sys,
    }
    stack = build_stack(systems[name](), PROBES)
    assert (stack.j_nu is None) == (name == "full_output")
    rmap = ReconstructionMap(stack)
    r_val = stack.r_nu.bind()(stack.probe_times)
    if stack.j_nu is None:
        j_val = np.zeros((stack.probe_times.size, r_val.shape[1], 0))
    else:
        j_val = stack.j_nu.bind()(stack.probe_times)
    want = []
    for r_i, j_i in zip(r_val, j_val):
        kr = orthogonal_projector_complement(j_i) @ r_i
        want.append(np.linalg.eigvalsh(kr.T @ kr)[0])
    assert np.array_equal(rmap.h_eig_history, want)


def _static_output(c):
    """Two frozen states (A = 0) seen through C, with no unknown input."""
    zero = [[0.0], [0.0]]
    return LtvSystem(a=np.zeros((2, 2)), f=zero, d=zero, c=c)


def test_reconstruction_map_refuses_ill_conditioned_normal_matrix():
    # H = C^T C is the same at every probe, positive definite, but its
    # condition number is 4e14
    stack = build_stack(_static_output([[1.0, 0.0], [1.0, 1e-7]]), PROBES)
    assert strong_observability_test(stack).ok
    with pytest.raises(NumericalError, match="condition number 4.0"):
        ReconstructionMap(stack)


def test_reconstruction_map_accepts_small_but_well_conditioned_normal_matrix():
    # C = e^{-t} I: H = e^{-2t} I is perfectly conditioned at every probe,
    # however small its eigenvalues get by t = 20
    sys = _static_output([["exp(-t)", "0"], ["0", "exp(-t)"]])
    stack = build_stack(sys, np.linspace(0.0, 20.0, 101))
    rmap = ReconstructionMap(stack)
    assert rmap.min_eig_h == pytest.approx(np.exp(-40.0), rel=1e-12)
    assert np.allclose(rmap.h_eig_history, np.exp(-2.0 * stack.probe_times), rtol=1e-12)


def test_double_integrator_output_channel_not_so():
    # the unknown input feeds the measured state directly: its effect is
    # indistinguishable from a state contribution at every depth
    sys = double_integrator([1.0, 0.0])
    stack = build_stack(sys, PROBES)
    assert stack.nu == 2
    assert np.allclose(stack.j_nu.bind()([0.0]), [[0.0], [1.0]])
    verdict = strong_observability_test(stack)
    assert not verdict.ok
    with pytest.raises(StepPreconditionError) as info:
        ReconstructionMap(stack)
    assert info.value.step == "iv"


def test_stack_matches_lti_markov_parameters(rng):
    # for constant systems the stacked input coefficients must reduce to
    # the Markov parameters C A^{alpha-1-beta} D
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n))
        c = rng.standard_normal((1, n))
        d = rng.standard_normal((n, 1))
        sys = LtvSystem(a=a, f=np.zeros((n, 1)), d=d, c=c)
        stack = build_stack(sys, PROBES)
        for (al, be), entry in stack.d_table.items():
            want = c @ np.linalg.matrix_power(a, al - 1 - be) @ d
            assert np.allclose(entry.bind()([0.0]), want, atol=1e-10), (al, be)
        r_want, j_want = lti_stack_oracle(a, c, d, stack.nu)
        assert np.allclose(stack.r_nu.bind()([3.3]), r_want, atol=1e-9)
        if stack.j_nu is not None:
            assert np.allclose(stack.j_nu.bind()([3.3]), j_want, atol=1e-9)


def test_verdicts_match_brute_force_oracle(rng):
    saw_so, saw_not_so = False, False
    for _ in range(20):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, 3))
        a = rng.standard_normal((n, n))
        c = rng.standard_normal((r, n))
        d = rng.standard_normal((n, 1))
        sys = LtvSystem(a=a, f=np.zeros((n, 1)), d=d, c=c)
        stack = build_stack(sys, PROBES)
        nu_want, so_want = lti_so_oracle(a, c, d)
        assert stack.nu == nu_want
        got = strong_observability_test(stack).ok
        assert got == so_want
        saw_so |= got
        saw_not_so |= not got
    # the sample must exercise both outcomes for the comparison to mean much
    assert saw_so and saw_not_so


def test_time_varying_stack_row():
    sys = LtvSystem(
        a=[["0", "1 + 0.5*sin(t)"], ["0", "0"]],
        f=[[0.0], [1.0]],
        d=[[0.0], [1.0]],
        c=[[1.0, 0.0]],
    )
    stack = build_stack(sys, PROBES)
    assert stack.nu == 2
    ts = np.array([0.0, 1.0, 2.5])
    c1 = stack.c_list[1].bind()(ts)
    assert np.allclose(c1[:, 0, 0], 0.0)
    assert np.allclose(c1[:, 0, 1], 1.0 + 0.5 * np.sin(ts), atol=1e-12)
    assert ReconstructionMap(stack).min_eig_h > 0.0
    # at zero gain the error stack is the plant's stack, and recovers x
    sampler = ErrorStackSampler(sys)
    ts = np.array([0.1, 4.0, 8.0])
    rng = np.random.default_rng(2)
    for t, r_val in zip(ts, stack.r_nu.bind()(ts)):
        x = rng.standard_normal(2)
        assert np.allclose(sampler.reconstruct(t, np.zeros((2, 1)), r_val @ x), x, atol=1e-9)


def test_rank_profile_must_be_constant():
    sys = LtvSystem(
        a=[[0.0, 1.0], [0.0, 0.0]],
        f=[[0.0], [1.0]],
        d=[[0.0], [1.0]],
        c=[["t", "0"]],
    )
    with pytest.raises(StepPreconditionError) as info:
        build_stack(sys, PROBES)
    assert info.value.step == "iv"
    assert str(info.value) == (
        "step iv: rank of the depth-1 observability stack varies across probe times "
        "(min 0, max 1); not a constant rank system"
    )


def test_reconstruction_is_linear(toy2):
    sampler = ErrorStackSampler(toy2)
    l_val = np.array([[2.0], [0.5]])
    rng = np.random.default_rng(8)
    y1, y2 = rng.standard_normal(2), rng.standard_normal(2)
    a, b = 1.7, -0.3
    t = 2.0
    lhs = sampler.reconstruct(t, l_val, a * y1 + b * y2)
    rhs = a * sampler.reconstruct(t, l_val, y1) + b * sampler.reconstruct(t, l_val, y2)
    assert np.allclose(lhs, rhs, atol=1e-10)
    assert np.allclose(sampler.reconstruct(t, l_val, np.zeros(2)), 0.0, atol=1e-14)
    with pytest.raises(ValueError):
        sampler.reconstruct(t, l_val, np.zeros(3))


def test_error_stack_sampler_matches_symbolic_at_zero_gain(toy2):
    stack = build_stack(toy2, PROBES)
    sampler = ErrorStackSampler(toy2)
    ts = np.array([0.0, 1.0, 3.7])
    for t, r_val, j_val in zip(ts, stack.r_nu.bind()(ts), stack.j_nu.bind()(ts)):
        (r_e,), (j_e,) = sampler.matrices_stack(np.array([t]), np.zeros((1, 2, 1)))
        assert np.allclose(r_e, r_val, atol=1e-12)
        assert np.allclose(j_e, j_val, atol=1e-12)


def test_error_stack_sampler_reconstructs_error(toy2):
    sampler = ErrorStackSampler(toy2)
    l_val = np.array([[2.0], [0.5]])
    rng = np.random.default_rng(3)
    for t in (0.0, 0.5, 2.0):
        e = rng.standard_normal(2)
        (r_e,), _ = sampler.matrices_stack(np.array([t]), l_val[None])
        assert np.allclose(sampler.reconstruct(t, l_val, r_e @ e), e, atol=1e-9)


def test_error_system_so_matches_plant_system(toy2):
    conf = ObserverConfig(p=3.0, k=1, step=StepConfig(h=1e-3, t0=0.0, t_end=10.0))
    verdict = error_system_so_test(toy2, conf, PROBES)
    assert verdict.ok
    assert verdict.nu == 2
    assert np.allclose(verdict.probe_times, PROBES, rtol=0.0, atol=1e-9)
    plant = strong_observability_test(build_stack(toy2, PROBES))
    assert verdict.ok == plant.ok


def test_error_system_so_test_refuses_off_grid_time(toy2):
    conf = ObserverConfig(p=2.0, k=1, step=StepConfig(h=1e-3, t0=0.0, t_end=2.0))
    assert error_system_so_test(toy2, conf, [0.0, 1.0, 2.0]).ok
    for t in (0.00037, 2.001, -1e-3):
        with pytest.raises(ValueError, match="off the step grid"):
            error_system_so_test(toy2, conf, [0.0, t])


def test_batched_normal_solve_names_singular_sample():
    # at zero gain R_e = [C; C A] = [[1, 0], [0, 4 t - 1]] is singular at
    # t = 0.25 alone: the batch is refused there, and solved without it
    sys = LtvSystem(
        a=[["0", "4*t - 1"], ["0", "0"]], f=[[0.0], [1.0]], d=[[0.0], [1.0]], c=[[1.0, 0.0]]
    )
    sampler = ErrorStackSampler(sys)
    times, gains, yhat = np.array([0.0, 0.25, 0.5]), np.zeros((3, 2, 1)), np.ones((3, 2))
    with pytest.raises(NumericalError, match=r"not positive definite at t=0\.25"):
        sampler.reconstruct_stack(times, gains, yhat)
    keep = [0, 2]
    x, eig = sampler.reconstruct_stack(times[keep], gains[keep], yhat[keep])
    assert np.array_equal(x, [[1.0, -1.0], [1.0, 1.0]])
    assert np.array_equal(eig, [1.0, 1.0])
    kr = np.stack([np.eye(2), 2.0 * np.eye(2)])
    assert np.array_equal(_least_squares(kr, np.ones((2, 2))), [[1.0, 1.0], [0.5, 0.5]])
    assert np.array_equal(_normal_eigs(kr), [[1.0, 1.0], [4.0, 4.0]])


def _projected_solve(sampler, times, gains, yhat):
    """The samples solved through the projector K = I - J_e J_e^+."""
    r_e, j_e = sampler.matrices_stack(times, gains)
    k_val = orthogonal_projector_complement(j_e)
    kr = k_val @ r_e
    return _least_squares(kr, (k_val @ yhat[..., None])[..., 0]), _normal_eigs(kr)[:, 0]


def _lstsq_each(m, y):
    """Per-sample library least squares (SVD based) of m x = y."""
    return np.array([np.linalg.lstsq(m_i, y_i, rcond=None)[0] for m_i, y_i in zip(m, y)])


def _bench8_samples(rng):
    """bench8's error stacks at 40 grid times of a 2 s track, with its gains."""
    run = bench8_run(2.0)
    track = frame_track(run.sys, run.observer)
    index = np.sort(rng.choice(track.t.size, size=40, replace=False))
    t = track.t[index]
    gains = track.gains(run.sys.c.bind()(t), run.observer.p, index)
    return ErrorStackSampler(run.sys), t, gains


def test_least_squares_matches_lstsq_on_square_stacks(toy2, rng):
    toy_sampler, times = ErrorStackSampler(toy2), np.linspace(0.0, 3.0, 7)
    cases = [(toy_sampler, times, rng.standard_normal((7, 2, 1))), _bench8_samples(rng)]
    for sampler, t, gains in cases:
        r_e, j_e = sampler.matrices_stack(t, gains)
        assert r_e.shape[1] == r_e.shape[2] and not j_e.any()
        yhat = rng.standard_normal(r_e.shape[:2])
        x = _least_squares(r_e, yhat)
        # both solves are backward stable: they agree to cond(R_e) eps
        cond = np.linalg.cond(r_e)[:, None]
        ref = _lstsq_each(r_e, yhat)
        assert np.all(np.abs(x - ref) <= 4.0 * cond * np.finfo(float).eps * np.abs(ref).max())
        assert np.array_equal(sampler.reconstruct_stack(t, gains, yhat)[0], x)


def test_least_squares_matches_lstsq_on_projected_tall_stacks(rng):
    # C = I: the 4 x 2 error stack K R_e is tall and goes through the QR branch
    sys = LtvSystem(
        a=[[0.3, 1.0], [0.0, -2.0]], f=[[0.0], [1.0]], d=[[0.0], [1.0]], c=np.eye(2).tolist()
    )
    times = np.linspace(0.0, 3.0, 7)
    gains = rng.standard_normal((7, 2, 2))
    r_e, j_e = ErrorStackSampler(sys).matrices_stack(times, gains)
    k_val = orthogonal_projector_complement(j_e)
    kr, ky = k_val @ r_e, (k_val @ rng.standard_normal((7, 4))[..., None])[..., 0]
    assert kr.shape == (7, 4, 2)
    assert np.allclose(_least_squares(kr, ky), _lstsq_each(kr, ky), rtol=0.0, atol=1e-14)


def test_zero_input_map_skips_the_projector(toy2, rng):
    # toy2 has C D = 0, so J_e has no nonzero entry and K = I: the
    # unprojected solve gives the projected one to the bit
    sampler = ErrorStackSampler(toy2)
    times = np.linspace(0.0, 3.0, 7)
    gains, yhat = rng.standard_normal((7, 2, 1)), rng.standard_normal((7, 2))
    assert not sampler.matrices_stack(times, gains)[1].any()
    for got, expected in zip(
        sampler.reconstruct_stack(times, gains, yhat),
        _projected_solve(sampler, times, gains, yhat),
        strict=True,
    ):
        assert np.array_equal(got, expected)


def test_nonzero_input_map_still_projects(rng):
    # with C = I the input column reaches the second output's derivative:
    # its stacked row is projected out, and a disturbance there is ignored
    sys = LtvSystem(
        a=[[0.3, 1.0], [0.0, -2.0]], f=[[0.0], [1.0]], d=[[0.0], [1.0]], c=np.eye(2).tolist()
    )
    sampler = ErrorStackSampler(sys)
    times = np.linspace(0.0, 3.0, 7)
    gains, e = rng.standard_normal((7, 2, 2)), rng.standard_normal((7, 2))
    r_e, j_e = sampler.matrices_stack(times, gains)
    assert j_e.any()
    yhat = (r_e @ e[..., None])[..., 0] + j_e[..., 0] * rng.standard_normal((7, 1))
    x, eig = sampler.reconstruct_stack(times, gains, yhat)
    expected_x, expected_eig = _projected_solve(sampler, times, gains, yhat)
    assert np.array_equal(x, expected_x) and np.array_equal(eig, expected_eig)
    assert np.allclose(x, e, rtol=0.0, atol=1e-12)


def test_batched_reconstruction_matches_per_sample(toy2, rng):
    sampler = ErrorStackSampler(toy2)
    times = np.linspace(0.0, 3.0, 7)
    gains = rng.standard_normal((7, 2, 1))
    yhat = rng.standard_normal((7, 2))
    batched, eig = sampler.reconstruct_stack(times, gains, yhat)
    for i, t in enumerate(times):
        single = sampler.reconstruct(t, gains[i], yhat[i])
        assert np.allclose(batched[i], single, rtol=1e-12, atol=1e-14)
    assert np.all(eig > 0.0)
