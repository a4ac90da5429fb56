"""End-to-end cascade: observer + differentiator bank + error reconstruction."""

import copy
import os
import subprocess
import sys
import textwrap
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from ltvobs import cascade
from ltvobs.cascade import CascadeRun, run_cascade, run_tso
from ltvobs.errors import StepPreconditionError
from ltvobs.integrators import StepConfig
from ltvobs.observer import ObserverConfig
from ltvobs.system import LtvSystem

from conftest import bench8_run


def make_run(sys, t_end=6.0, h=1e-3, p=8.0, k=1, **kw):
    conf = ObserverConfig(p=p, k=k, step=StepConfig(h=h, t0=0.0, t_end=t_end))
    kw.setdefault("x0", [1.0, -0.5])
    kw.setdefault("xt0", [0.0, 0.0])
    kw.setdefault("w", ["0.4*sin(t)"])
    kw.setdefault("lipschitz", 8.0)
    return CascadeRun(sys=sys, observer=conf, **kw)


def test_run_is_deterministic(toy2):
    a = run_cascade(make_run(toy2))
    b = run_cascade(make_run(toy2))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.xhat, b.xhat)
    assert a.settled_time == b.settled_time


def _spec_fields(spec):
    """Every field of a spec; arrays and lists copied, the rest by reference."""
    values = (getattr(spec, f.name) for f in fields(spec))
    return [copy.deepcopy(v) if isinstance(v, (np.ndarray, list)) else v for v in values]


def _same_fields(a, b):
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray)
        else x == y if isinstance(x, list)
        else x is y
        for x, y in zip(a, b, strict=True)
    )


@pytest.mark.parametrize("runner", [run_cascade, run_tso])
def test_run_leaves_spec_unchanged(toy2, runner):
    spec = make_run(toy2, t_end=2.0, sigma=1e-3, feedback=[[0.0, 3.0]])
    before = _spec_fields(spec)
    result = runner(spec)
    assert _same_fields(_spec_fields(spec), before)
    assert result.t is not None
    with pytest.raises(FrozenInstanceError):
        spec.sigma = 0.5


def test_zero_sigma_replace_is_bit_identical(toy2):
    spec = make_run(toy2)
    a = run_cascade(spec)
    b = run_cascade(replace(spec, sigma=0.0))
    assert np.array_equal(a.xhat, b.xhat)
    assert np.array_equal(a.e_y, b.e_y)


def test_known_input_cancels_in_error(toy2):
    base = run_cascade(make_run(toy2, u=None))
    driven = run_cascade(make_run(toy2, u=["2*cos(3*t)"]))
    # the estimate tracks the moving plant, but the error dynamics never
    # see the known input
    assert not np.allclose(base.x, driven.x)
    assert np.max(np.abs(base.e_norm_tso - driven.e_norm_tso)) <= 1e-9


def test_feedback_keeps_error_invariant(toy2):
    base = run_cascade(make_run(toy2))
    fed = run_cascade(make_run(toy2, feedback=[[0.0, 3.0]]))
    assert np.max(np.abs(base.e_norm_tso - fed.e_norm_tso)) <= 1e-9
    with pytest.raises(ValueError):
        make_run(toy2, feedback=[[1.0, 0.0], [0.0, 1.0]])


def test_cascade_reconstruction_after_settling(toy2):
    run = run_cascade(make_run(toy2))
    assert run.settled_time is not None
    assert run.t_f == pytest.approx(run.settled_time + run.bank.dwell)
    tail = run.t >= run.t_f
    tso_tail = np.max(np.abs(run.x[tail] - run.xt[tail]), axis=0)
    casc_tail = run.sup_state_error
    # the corrected estimate must beat the raw observer on the same window
    assert np.all(casc_tail <= tso_tail + 1e-12)
    assert np.max(casc_tail) < 0.05
    assert np.allclose(run.summary["sup_state_error_after_t_f"], casc_tail)


def test_summary_health_block(toy2):
    health = run_cascade(make_run(toy2)).summary["health"]
    assert set(health) == {"min_ctcq_sigma", "max_orth_defect", "min_eig_h_e"}
    assert all(np.isfinite(v) and v >= 0.0 for v in health.values())
    # C sees the unstable state directly: C^T C Q and H_e stay well away
    # from singular, and the frame stays orthonormal to round-off
    assert health["min_ctcq_sigma"] > 0.5
    assert health["min_eig_h_e"] > 0.0
    assert health["max_orth_defect"] < 1e-12


def test_bench8_reconstructs_x1_to_x4_to_round_off():
    # bench8's R_e is square with cond(R_e) up to about 1e4; its LU solve
    # keeps x1..4, which the exact e_y block determines, at round-off after
    # t_f, where the normal equations (cond(R_e)^2) left 1.6e-13
    run = run_cascade(bench8_run(8.0))
    assert run.t_f is not None
    assert np.all(run.sup_state_error[:4] <= 1e-14)


def test_oracle_derivatives_reconstruct_exactly(toy2):
    run = run_cascade(make_run(toy2, oracle_derivatives=True))
    assert run.settled_time == run.t[0]
    m = run.t >= 0.1
    assert np.max(np.abs(run.x[m] - run.xhat[m])) <= 1e-9
    assert run.bank is None


def test_noisy_run_settles_and_stays_bounded(toy2):
    run = run_cascade(make_run(toy2, t_end=8.0, sigma=1e-3, noise_seed=0))
    assert run.settled_time is not None
    assert np.all(np.isfinite(run.sup_state_error))
    assert run.sup_state_error[0] <= 0.05
    assert run.sup_state_error[1] <= 0.2
    # the noisy threshold floor is recorded for the caller
    assert run.summary["sigma"] == 1e-3


@pytest.mark.parametrize("oracle", [False, True])
def test_filtered_flag_names_the_output_error_the_stack_reads(toy2, oracle):
    # with noise a bank run reads the bank's z_0, the oracle stack raw e_y
    run = run_cascade(
        make_run(toy2, t_end=2.0, sigma=1e-3, noise_seed=0, oracle_derivatives=oracle)
    )
    assert np.array_equal(run.stack[:, :1], run.e_y) == oracle
    assert run.summary["filtered_output_error"] is (not oracle)


def test_noise_seed_reproducible(toy2):
    spec = make_run(toy2, sigma=1e-3, noise_seed=7)
    a = run_cascade(spec)
    b = run_cascade(replace(spec))
    c = run_cascade(replace(spec, noise_seed=8))
    assert np.array_equal(a.xhat, b.xhat)
    assert not np.array_equal(a.e_y, c.e_y)


def test_tso_only_run(toy2):
    run = run_tso(make_run(toy2, t_end=10.0))
    assert run.bank is None
    assert np.array_equal(run.xhat, run.xt)
    assert np.array_equal(run.e_norm_cascade, run.e_norm_tso)
    # gain 8 against exponent 0.3: the error must shrink hard
    assert run.e_norm_tso[-1] < 0.02 * run.e_norm_tso[0]


def test_never_settling_reports_inf(toy2):
    run = run_cascade(make_run(toy2, t_end=2.0, dwell=5.0))
    assert run.settled_time is None
    assert run.t_f is None
    assert np.all(np.isinf(run.sup_state_error))


def test_precondition_undetectable(toy2):
    sys = LtvSystem(
        a=[[0.3, 0.0], [0.0, -2.0]],
        f=[[0.0], [1.0]],
        d=[[0.0], [1.0]],
        c=[[0.0, 1.0]],
    )
    with pytest.raises(StepPreconditionError) as info:
        run_cascade(make_run(sys))
    assert info.value.step == "ii"


def test_precondition_gain_too_small(toy2):
    with pytest.raises(StepPreconditionError) as info:
        run_cascade(make_run(toy2, p=0.2))
    assert info.value.step == "iii"


def test_precondition_not_strongly_observable():
    sys = LtvSystem(
        a=[[0.3, 1.0], [0.0, -2.0]],
        f=[[0.0], [1.0]],
        d=[[1.0], [0.0]],  # unknown input hits the measured state
        c=[[1.0, 0.0]],
    )
    with pytest.raises(StepPreconditionError) as info:
        run_cascade(make_run(sys))
    assert info.value.step == "iv"


def test_precondition_wrong_index():
    # full measurement: one derivative level already determines the
    # state, so the stack depth is 1 and the cascade refuses
    sys = LtvSystem(
        a=[[0.3, 1.0], [0.0, -2.0]],
        f=[[0.0], [1.0]],
        d=[[0.0], [1.0]],
        c=[[1.0, 0.0], [0.0, 1.0]],
    )
    with pytest.raises(StepPreconditionError) as info:
        run_cascade(make_run(sys, k=1))
    assert info.value.step == "iv"
    assert "index 2" in str(info.value)


def test_bank_run_refuses_a_missing_bound_before_any_flow(toy2, monkeypatch):
    spec = make_run(toy2, t_end=1.0, lipschitz=None)
    # the observer alone and exact derivatives read no bound
    assert run_tso(spec).t_f is None
    assert run_cascade(replace(spec, oracle_derivatives=True)).t_f == 0.0

    def no_flow(*args, **kwargs):
        raise AssertionError("frame_track ran")

    monkeypatch.setattr(cascade, "frame_track", no_flow)
    with pytest.raises(ValueError, match="no Lipschitz bound given"):
        run_cascade(spec)


def test_input_validation(toy2):
    with pytest.raises(ValueError):
        make_run(toy2, sigma=-1.0)
    for dwell in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dwell must be finite and non-negative"):
            make_run(toy2, dwell=dwell)
    with pytest.raises(ValueError):
        make_run(toy2, x0=[1.0, 2.0, 3.0])
    for threshold in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="settle threshold"):
            make_run(toy2, threshold=threshold)
    # the bank's settings are checked with the spec, not after the flows;
    # toy2 has one output channel
    for lipschitz in (0.0, -1.0, float("nan"), float("inf"), [8.0, 0.0]):
        with pytest.raises(ValueError, match="Lipschitz bound"):
            make_run(toy2, lipschitz=lipschitz)
    with pytest.raises(ValueError, match="one value per channel"):
        make_run(toy2, lipschitz=[8.0, 8.0])
    with pytest.raises(ValueError, match="need 3 gains"):
        make_run(toy2, gains=(1.1, 1.5))
    for gains in ((1.1, 0.0, 2.0), (1.1, 1.5, float("inf"))):
        with pytest.raises(ValueError, match="gains must be finite and positive"):
            make_run(toy2, gains=gains)
    for seed in (-1, 1.5, None, True):
        with pytest.raises(ValueError, match="noise seed"):
            make_run(toy2, noise_seed=seed)
    # only a bank run reads the bound, so a spec may leave it out, but its
    # gains are checked now
    assert make_run(toy2, lipschitz=None).lipschitz is None
    with pytest.raises(ValueError, match="need 3 gains"):
        make_run(toy2, lipschitz=None, gains=(1.1, 1.5))
    # the observer's starting frame is checked with the spec too
    with pytest.raises(ValueError, match="exceeds state dimension"):
        make_run(toy2, k=3)
    conf = ObserverConfig(p=8.0, k=1, step=StepConfig(t_end=1.0), q0=[[0.0], [0.0]])
    with pytest.raises(ValueError, match="linearly dependent"):
        CascadeRun(sys=toy2, observer=conf, x0=[1.0, -0.5], xt0=[0.0, 0.0])
    assert make_run(toy2, lipschitz=[8.0], noise_seed=np.int64(3)).noise_seed == 3


def test_noise_free_run_leaves_numpy_random_unloaded():
    # the generator is created only when there is noise to draw, so a
    # noise-free run never imports numpy.random (tens of ms in a fresh
    # process)
    script = textwrap.dedent(
        """
        import sys
        from ltvobs.cascade import CascadeRun, run_cascade
        from ltvobs.integrators import StepConfig
        from ltvobs.observer import ObserverConfig
        from ltvobs.system import LtvSystem

        sys_ = LtvSystem(
            a=[[0.3, 1.0], [0.0, -2.0]], f=[[0.0], [1.0]], d=[[0.0], [1.0]],
            c=[[1.0, 0.0]], w_bound=1.0,
        )
        conf = ObserverConfig(p=8.0, k=1, step=StepConfig(h=1e-3, t_end=1.0))
        run = CascadeRun(
            sys=sys_, observer=conf, x0=[1.0, -0.5], xt0=[0.0, 0.0],
            w=["0.4*sin(t)"], lipschitz=8.0,
        )
        result = run_cascade(run)
        assert result.e_y.shape == (1001, 1)
        print("numpy.random" in sys.modules)
        """
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def test_error_norm_is_the_stepped_error(gate4_run):
    # gate 4's run: bench8 without unknown input from a unit error.  Plant
    # and error decay together, and by t = 200 the error is far below the
    # round-off of x, so ||e|| must come from the stepped e, not from x - x~
    run, e = gate4_run
    assert np.array_equal(run.e_norm_tso, np.linalg.norm(e, axis=1))
    assert abs(run.e_norm_tso[0] - 1.0) < 1e-12
    assert 0.0 < run.e_norm_tso[-1] <= 1e-6
