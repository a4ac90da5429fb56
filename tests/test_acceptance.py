"""Acceptance gate: twelve end-to-end checks at pinned tolerances.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (shown with -s, or
in the captured output of a failing test) and then asserts its criterion,
so ``pytest -v`` reports one verdict per criterion.  The heavy benchmark
runs are shared through module-scoped fixtures.
"""

import json
import time

import numpy as np
import pytest

from conftest import PROBES, bench8_run
from ltvobs.cascade import run_cascade, run_tso
from ltvobs.cli import _resolve_scenario, main
from ltvobs.integrators import StepConfig
from ltvobs.linalg import numerical_rank
from ltvobs.lyapunov import estimate_spectrum
from ltvobs.observer import (
    ObserverConfig,
    detectability_report,
    frame_track,
    min_gain_suggestion,
)
from ltvobs.strong_obs import (
    build_stack,
    error_system_so_test,
    horizon_so_check,
    strong_observability_test,
)
from ltvobs.system import LtvSystem


VERDICT_LINES = []


def verdict(n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    VERDICT_LINES.append(line)
    print(line)
    return ok


# ---------------------------------------------------------------------------
# shared benchmark runs


@pytest.fixture(scope="module")
def bench():
    return _resolve_scenario("bench8").run


@pytest.fixture(scope="module")
def tso_200_with_input(bench):
    rng = np.random.default_rng(2024)
    e0 = rng.standard_normal(8)
    e0 /= np.linalg.norm(e0)
    run = bench8_run(200.0, xt0=bench.x0 - e0)
    return run_tso(run)


@pytest.fixture(scope="module")
def cascade_50():
    start = time.perf_counter()
    run = run_cascade(bench8_run(50.0))
    run.wall_seconds = time.perf_counter() - start
    return run


@pytest.fixture(scope="module")
def cascade_50_noisy():
    return run_cascade(bench8_run(50.0, sigma=1e-3))


# ---------------------------------------------------------------------------
# criteria


def test_01_spectrum_oracle_constant_triangular():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = np.triu(rng.uniform(-2.0, 2.0, (n, n)))
        est = estimate_spectrum(
            lambda t, a=a: a, k=n, cfg=StepConfig(h=0.05, t0=0.0, t_end=100.0)
        )
        worst = max(worst, float(np.max(np.abs(est.exponents - np.sort(np.diag(a))[::-1]))))
    wall = time.perf_counter() - start
    ok = worst <= 1e-4 and wall < 10.0
    assert verdict(1, ok, f"worst |err|={worst:.2e}, wall={wall:.1f}s")


def test_02_benchmark_dimension_detection(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("spec200"))
    start = time.perf_counter()
    code = main(
        ["spectrum", "--scenario", "bench8", "--k", "3", "--horizon", "200", "--out", out]
    )
    wall = time.perf_counter() - start
    with open(f"{out}/spectrum.json") as fh:
        payload = json.load(fh)
    ex = payload["exponents"]
    n_nonstable = sum(1 for v in ex if v >= -1e-3)
    n_decaying = sum(1 for v in ex if v < -1e-1)
    ok = (
        code == 0
        and len(ex) == 3
        and n_nonstable == 2
        and n_decaying == 1
        and payload["nonstable_dimension"] == 2
        and wall < 60.0
    )
    assert verdict(
        2,
        ok,
        f"exponents=({ex[0]:.3f}, {ex[1]:.3f}, {ex[2]:.3f}), wall={wall:.1f}s",
    )


def test_03_double_integrator_negative_control():
    step = StepConfig(h=1e-3, t0=0.0, t_end=20.0)

    def plant(c):
        return LtvSystem(a=[[0.0, 1.0], [0.0, 0.0]], f=[[0.0], [1.0]], d=[[0.0], [1.0]], c=c)

    def report(c):
        conf = ObserverConfig(p=1.0, k=2, step=step)
        return detectability_report(conf, frame_track(plant(c), conf))

    rep_fail = report([[1.0, 0.0]])
    rep_pass = report([[1.0, 0.0], [0.0, 1.0]])
    p_min = min_gain_suggestion(rep_pass, margin=1.0) if rep_pass.ok else np.inf
    ok = (not rep_fail.ok) and rep_pass.ok and np.isfinite(p_min)
    assert verdict(3, ok, f"C=[1 0] ok={rep_fail.ok}, C=I ok={rep_pass.ok}, p_min={p_min:.3f}")


def test_04_observer_converges_without_unknown_input(gate4_run):
    run, _ = gate4_run
    e0 = run.e_norm_tso[0]
    e_final = run.e_norm_tso[-1]
    ok = abs(e0 - 1.0) < 1e-12 and e_final <= 1e-6
    assert verdict(4, ok, f"||e(0)||={e0:.3f}, ||e(200)||={e_final:.3e}")


def test_05_bounded_error_under_unknown_input(tso_200_with_input):
    run = tso_200_with_input
    t, en = run.t, run.e_norm_tso
    sup = float(np.max(en[t >= 5.0]))
    peaks = [float(np.max(en[(t >= lo) & (t < lo + 10.0)])) for lo in range(100, 200, 10)]
    first, second = max(peaks[:5]), max(peaks[5:])
    # "no drift": the envelope of the final 100 s must not grow between
    # its first and second halves (1% headroom for beat alignment)
    ok = np.isfinite(sup) and second <= first * 1.01
    assert verdict(5, ok, f"sup[5,200]={sup:.2f}, envelope {first:.2f} -> {second:.2f}")


def _lti_so_oracle(a, c, d):
    n = a.shape[0]

    def stacked(depth):
        r = np.vstack([c @ np.linalg.matrix_power(a, i) for i in range(depth)])
        blocks = []
        for al in range(depth):
            row = []
            for be in range(depth - 1):
                if be < al:
                    row.append(c @ np.linalg.matrix_power(a, al - 1 - be) @ d)
                else:
                    row.append(np.zeros((c.shape[0], d.shape[1])))
            blocks.append(np.hstack(row) if row else np.zeros((c.shape[0], 0)))
        return r, np.vstack(blocks)

    ranks = [numerical_rank(stacked(k)[0]) for k in range(1, 2 * n + 2)]
    nu = next(k + 1 for k in range(len(ranks) - 1) if ranks[k + 1] == ranks[k])
    r, j = stacked(nu)
    s = np.hstack([r, j])
    star = np.vstack([np.hstack([np.eye(n), np.zeros((n, j.shape[1]))]), s])
    return nu, numerical_rank(s) == numerical_rank(star)


def test_06_strong_observability_verdicts(tmp_path_factory, capsys):
    out = str(tmp_path_factory.mktemp("so"))
    code = main(["check-so", "--scenario", "bench8", "--out", out])
    stdout = capsys.readouterr().out
    bench_ok = code == 0 and stdout == "nu=2, strongly_observable=true\n"

    variants_ok = True
    for d_col, want_so in (([0.0, 1.0], True), ([1.0, 0.0], False)):
        sys = LtvSystem(
            a=[[0.0, 1.0], [0.0, 0.0]],
            f=[[0.0], [1.0]],
            d=[[d_col[0]], [d_col[1]]],
            c=[[1.0, 0.0]],
        )
        stack = build_stack(sys, PROBES)
        got = strong_observability_test(stack).ok
        nu_brute, so_brute = _lti_so_oracle(
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[1.0, 0.0]]),
            np.array([d_col]).T,
        )
        variants_ok &= got == want_so == so_brute and stack.nu == nu_brute
    ok = bench_ok and variants_ok
    assert verdict(6, ok, f"benchmark: {stdout.strip()!r}; variants match brute force: {variants_ok}")


def test_07_error_system_equivalence(bench):
    conf = bench8_run(50.0).observer
    _, plant_verdict = horizon_so_check(bench.sys, conf.step)
    err_verdict = error_system_so_test(bench.sys, conf, plant_verdict.probe_times)
    plant_pointwise = plant_verdict.rank_s == plant_verdict.rank_s_star
    err_pointwise = err_verdict.rank_s == err_verdict.rank_s_star
    ok = (
        plant_verdict.ok
        and err_verdict.ok
        and bool(np.all(plant_pointwise == err_pointwise))
    )
    assert verdict(
        7, ok, f"plant SO={plant_verdict.ok}, gain-corrected SO={err_verdict.ok} at 101 probes"
    )


def test_08_oracle_mode_reconstruction(tmp_path_factory, capsys):
    out = str(tmp_path_factory.mktemp("oracle"))
    code = main(
        ["reconstruct", "--scenario", "bench8", "--out", out, "--oracle-derivatives"]
    )
    data = np.loadtxt(f"{out}/reconstruct.csv", delimiter=",", skiprows=1)
    t = data[:, 0]
    x, xhat = data[:, 1:9], data[:, 9:17]
    m = t >= 0.1
    sup = float(np.max(np.abs(x[m] - xhat[m])))
    ok = code == 0 and sup <= 1e-5
    assert verdict(8, ok, f"sup ||x - xhat|| after 0.1 s = {sup:.2e}")


def test_09_full_cascade_per_state_error(cascade_50):
    run = cascade_50
    settled = run.settled_time is not None
    if settled:
        sup = run.sup_state_error
        low_ok = bool(np.all(sup[:4] <= 1e-4))
        high_ok = bool(np.all(sup[4:] <= 5e-3))
    else:
        sup = np.full(8, np.inf)
        low_ok = high_ok = False
    ok = settled and low_ok and high_ok and run.wall_seconds < 300.0
    detail = (
        f"t_f={run.t_f}, sup x1..4={np.max(sup[:4]):.2e} (<=1e-4: {low_ok}), "
        f"sup x5..8={np.max(sup[4:]):.2e} (<=5e-3: {high_ok}), wall={run.wall_seconds:.0f}s"
    )
    assert verdict(9, ok, detail)


def test_10_noise_run(cascade_50_noisy):
    run = cascade_50_noisy
    finite = all(
        np.all(np.isfinite(arr)) for arr in (run.x, run.xt, run.xhat, run.stack)
    )
    settled = run.settled_time is not None
    if settled:
        sup7, sup8 = float(run.sup_state_error[6]), float(run.sup_state_error[7])
    else:
        sup7 = sup8 = float("inf")
    ok = finite and settled and sup7 <= 0.1 and sup8 <= 0.1
    assert verdict(
        10,
        ok,
        f"finite={finite}, settled={run.settled_time}, sup x7={sup7:.3f}, sup x8={sup8:.3f}",
    )


def _ratio_band_check(r, coeffs, lipschitz):
    from ltvobs.hosm import run_bank

    sups = {}
    for h in (2e-3, 1e-3):
        t = np.arange(0.0, 10.0 + h / 2, h)
        f = np.polyval(coeffs, t)
        bank = run_bank(f, nu=r + 1, l_est=lipschitz, h=h)
        tail = t >= 6.0
        sup_i = []
        for i in range(r + 1):
            d_i = np.polyval(np.polyder(np.poly1d(coeffs), i).coeffs, t) if i else f
            sup_i.append(float(np.max(np.abs(bank.stack[tail, i] - d_i[tail]))))
        sups[h] = sup_i
    ratios = [sups[2e-3][i] / sups[1e-3][i] for i in range(r + 1)]
    bands = [(1.2, 2.0 * 2.0 ** ((r + 1 - i) / (r + 1))) for i in range(r + 1)]
    ok = all(lo <= ratio <= hi for ratio, (lo, hi) in zip(ratios, bands))
    return ok, ratios, bands


def test_11_differentiator_h_scaling():
    ok1, ratios1, bands1 = _ratio_band_check(1, [2.0, 1.0], 1.0)
    ok2, ratios2, bands2 = _ratio_band_check(2, [1.5, 2.0, 1.0], 5.0)
    ok = ok1 and ok2
    detail = (
        f"r=1 ratios={[f'{v:.2f}' for v in ratios1]} bands={[f'{b[1]:.2f}' for b in bands1]}; "
        f"r=2 ratios={[f'{v:.2f}' for v in ratios2]} bands={[f'{b[1]:.2f}' for b in bands2]}"
    )
    assert verdict(11, ok, detail)


def test_12_determinism(tmp_path_factory):
    base = tmp_path_factory.mktemp("det")
    pairs = []
    for tag, argv in (
        ("rec", ["reconstruct", "--scenario", "bench8", "--horizon", "5"]),
        ("spec", ["spectrum", "--scenario", "bench8", "--horizon", "20"]),
    ):
        outs = []
        for run_id in ("a", "b"):
            out = str(base / f"{tag}_{run_id}")
            assert main(argv + ["--out", out]) == 0
            outs.append(out)
        name = "reconstruct.csv" if tag == "rec" else "spectrum.csv"
        with open(f"{outs[0]}/{name}", "rb") as fh:
            blob_a = fh.read()
        with open(f"{outs[1]}/{name}", "rb") as fh:
            blob_b = fh.read()
        pairs.append(blob_a == blob_b)
    ok = all(pairs)
    assert verdict(12, ok, f"byte-identical CSV pairs: {pairs}")
