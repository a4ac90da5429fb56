"""Each output check rejects a deliberately corrupted output.

    python3 perfbench/selftest.py      (also run by ``run.py --quick``)

The tests build outputs that pass from the checks' own references, show
that they pass, then corrupt one figure and show that the check fails.
They need numpy only, not ltvobs, and take a few seconds.  Each test is
a plain function, so pytest can also run this file when given its path.
"""

import copy
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402

HORIZON = 7.0


def _bench8():
    with open(run.BENCH8, encoding="utf-8") as fh:
        return json.load(fh)


def _reconstruct_case():
    doc = _bench8()
    t, x = checks.plant_reference(doc, HORIZON)
    xhat = x + 1e-6 * np.sin(np.arange(x.size).reshape(x.shape))
    return t, x, xhat, {"t_f": 5.9}


def test_evaluator_matches_python_math():
    fn = checks.entry_fn("0.3 + 10*sin(2*pi*0.1*t) - exp(-t)/sqrt(4)")
    t = np.array([0.0, 0.7, 3.1])
    want = 0.3 + 10 * np.sin(2 * np.pi * 0.1 * t) - np.exp(-t) / 2.0
    assert np.allclose(fn(t), want, rtol=0, atol=1e-15)
    for bad in ("__import__('os')", "t.real", "t ** 2", "lambda: 0"):
        try:
            checks.entry_fn(bad)
        except (ValueError, SyntaxError):
            continue
        raise AssertionError(f"evaluator accepted {bad!r}")


def test_reconstruct_check():
    t, x, xhat, summary = _reconstruct_case()
    fails, sup, t_f = checks.check_reconstruct(t, x, xhat, summary, t, x)
    assert fails == [] and 0 < sup < 1e-5 and t_f == 5.9, fails

    bad = x.copy()
    bad[3000, 2] += 1e-7  # plant state off by 6e-9 of its peak
    assert any("plant" in f for f in checks.check_reconstruct(t, bad, xhat, summary, t, x)[0])

    bad = xhat.copy()
    bad[-10, 6] += 6e-3  # x7 estimate over its 5e-3 band after t_f
    assert any("x7" in f for f in checks.check_reconstruct(t, x, bad, summary, t, x)[0])

    bad = xhat.copy()
    bad[-10, 1] += 2e-4  # x2 estimate over its 1e-4 band
    assert any("x2" in f for f in checks.check_reconstruct(t, x, bad, summary, t, x)[0])

    for unsettled in ({"t_f": None}, {"t_f": HORIZON + 1.0}):
        assert any("settle" in f for f in checks.check_reconstruct(t, x, xhat, unsettled, t, x)[0])

    assert checks.check_reconstruct(t[:-1], x[:-1], xhat[:-1], summary, t, x)[0]


def _design_case():
    doc = _bench8()
    mean_tr = checks.mean_trace(doc, 5.0)
    p = float(doc["observer"]["p"])
    lam, rbar = [1.9, 1.65], [0.9, 0.37]
    spectrum = {"exponents": [1.9, 1.65, -1.3], "exponents_by_direction": [1.9, 1.65, -1.3],
                "max_orth_defect": 7e-16}
    sweep = {"sweep": [
        {"p": g, "directions": [
            {"lambda_hat": lam[j], "r_bar": rbar[j], "mu_hat": lam[j] - g * rbar[j]}
            for j in range(2)]}
        for g in (30.0, 90.0)
    ]}
    check_so = {"nu": 2, "strongly_observable": True, "min_eig_h": 8e-4}
    open_lam = [-1.0] * 7 + [mean_tr + 7.0]
    closed_total = mean_tr - p * sum(rbar)
    closed_lam = [-2.0] * 7 + [closed_total + 14.0]
    bibs_open = {"components": [{"lambda_hat": v} for v in open_lam]}
    bibs_closed = {"components": [{"lambda_hat": v} for v in closed_lam]}
    return [spectrum, sweep, check_so, bibs_open, bibs_closed, mean_tr, p]


def test_design_check():
    case = _design_case()
    assert abs(case[5] + 14.38) < 1e-12, case[5]  # bench8's diagonal sums to -14.38
    assert checks.check_design(*case) == []

    def corrupt(index, edit):
        bad = copy.deepcopy(case)
        edit(bad[index])
        return {op for op, _ in checks.check_design(*bad)}

    assert corrupt(0, lambda s: s["exponents"].__setitem__(2, -0.05)) == {"spectrum"}
    assert corrupt(0, lambda s: s.__setitem__("max_orth_defect", 1e-8)) == {"spectrum"}
    assert "detect" in corrupt(0, lambda s: s["exponents_by_direction"].__setitem__(1, 1.65 + 1e-6))
    assert corrupt(1, lambda s: s["sweep"][1]["directions"][0].__setitem__("r_bar", 0.9 + 1e-12)) \
        >= {"detect"}
    assert corrupt(1, lambda s: s["sweep"][1]["directions"][1].__setitem__("mu_hat", -31.0)) \
        == {"detect"}
    assert corrupt(2, lambda s: s.__setitem__("nu", 3)) == {"check-so"}
    assert corrupt(2, lambda s: s.__setitem__("strongly_observable", False)) == {"check-so"}
    assert corrupt(2, lambda s: s.__setitem__("min_eig_h", 0.0)) == {"check-so"}
    assert corrupt(3, lambda s: s["components"][0].__setitem__("lambda_hat", -1.0 + 1e-6)) \
        == {"bibs"}
    assert corrupt(4, lambda s: s["components"][0].__setitem__("lambda_hat", -2.0 - 1e-6)) \
        == {"bibs-closed"}


def test_const_check():
    rng = np.random.default_rng(3)
    a = np.triu(rng.uniform(-2.0, 2.0, (5, 5)))
    exact = np.sort(np.diag(a))[::-1]
    assert checks.check_const(exact + 5e-5, a) == []
    assert checks.check_const(exact + 2e-4, a)
    assert checks.check_const(exact[:-1], a)
    assert checks.check_const(exact[::-1], a)  # unsorted exponents


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layer = {m: u for m, (u, _, _) in run.LAYER_SPANS.items()} | run.LAYER_OTHER
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layer


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"selftest FAILED {test.__name__}: {exc}")
        else:
            print(f"selftest ok     {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
