"""Command-line interface: scenario validation, outputs, exit codes."""

import copy
import json
import os

import numpy as np
import pytest

from ltvobs.cli import _resolve_scenario, _write_csv, load_scenario, main
from ltvobs.errors import ScenarioError

TOY = {
    "name": "toy",
    "dimensions": {"n": 2, "q": 1, "m": 1, "r": 1},
    "a": [["0.3", "1"], ["0", "-2"]],
    "f": [["0"], ["1"]],
    "d": [["0"], ["1"]],
    "c": [["1", "0"]],
    "w": ["0.4*sin(t)"],
    "w_bound": 0.4,
    "x0": [1.0, -0.5],
    "xt0": [0.0, 0.0],
    "observer": {"k": 1, "p": 8.0},
    "differentiator": {"lipschitz3": [8.0], "settled_threshold": 1e-4, "dwell": 0.5},
    "step": {"h": 1e-3, "t0": 0.0, "t_end": 6.0},
}


def write_scenario(tmp_path, doc, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_scenario_round_trip(tmp_path):
    scen = load_scenario(write_scenario(tmp_path, TOY))
    assert scen.name == "toy"
    assert scen.sys.n == 2 and scen.sys.r == 1
    assert scen.observer_k == 1 and scen.observer_p == 8.0
    assert scen.step.t_end == 6.0
    assert scen.sigma == 0.0


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    assert main(["spectrum", "--scenario", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    # unknown names advertise what is bundled
    assert "bench8" in err


def test_wrong_row_width_exits_2(tmp_path, capsys):
    doc = copy.deepcopy(TOY)
    doc["a"][0] = ["0.3", "1", "9"]
    assert main(["spectrum", "--scenario", write_scenario(tmp_path, doc)]) == 2
    assert "A must be 2x2, row 1 has 3 entries" in capsys.readouterr().err


def test_expression_typo_is_located(tmp_path, capsys):
    doc = copy.deepcopy(TOY)
    doc["a"][0][1] = "sn(0.5*t)"
    assert main(["spectrum", "--scenario", write_scenario(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "A[1][2]" in err and "sn" in err


def test_missing_required_key_exits_2(tmp_path, capsys):
    doc = copy.deepcopy(TOY)
    del doc["step"]
    assert main(["check-so", "--scenario", write_scenario(tmp_path, doc)]) == 2
    assert "missing required key 'step'" in capsys.readouterr().err


def test_retired_lipschitz_key_exits_2(tmp_path, capsys):
    # the old key bounded the second derivative; the order-2 bank needs
    # the third, so a file written for it must not load silently
    doc = copy.deepcopy(TOY)
    doc["differentiator"]["lipschitz"] = doc["differentiator"].pop("lipschitz3")
    assert main(["check-so", "--scenario", write_scenario(tmp_path, doc)]) == 2
    assert "differentiator.lipschitz3" in capsys.readouterr().err


def test_time_varying_feedback_rejected(tmp_path, capsys):
    doc = copy.deepcopy(TOY)
    doc["feedback"] = [["sin(t)", "0"]]
    assert main(["observe", "--scenario", write_scenario(tmp_path, doc)]) == 2
    assert "feedback must be a constant matrix" in capsys.readouterr().err


def test_spectrum_outputs(tmp_path, capsys):
    scen = write_scenario(tmp_path, TOY)
    out = str(tmp_path / "out")
    assert main(["spectrum", "--scenario", scen, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("exponents:")
    assert "nonstable_dimension=1" in stdout
    payload = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    # identity frame is already aligned: the average is exactly a_11
    assert payload["exponents"][0] == pytest.approx(0.3, abs=1e-9)
    assert payload["k"] == 1
    with open(tmp_path / "out" / "spectrum.csv", newline="") as fh:
        header = fh.readline()
    assert header == "t,lambda_1\r\n"
    assert (tmp_path / "out" / "spectrum.gp").exists()


def test_spectrum_k_override(tmp_path, capsys):
    scen = write_scenario(tmp_path, TOY)
    out = str(tmp_path / "out")
    assert main(["spectrum", "--scenario", scen, "--out", out, "--k", "2"]) == 0
    payload = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    assert len(payload["exponents"]) == 2
    assert payload["exponents"][1] == pytest.approx(-2.0, abs=1e-6)


def test_detect_outputs(tmp_path, capsys):
    scen = write_scenario(tmp_path, TOY)
    out = str(tmp_path / "out")
    assert main(["detect", "--scenario", scen, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("detectability: PASS, p_min=")
    payload = json.loads((tmp_path / "out" / "detect.json").read_text())
    assert payload["ok"] is True
    assert payload["p_min_margin_1"] == pytest.approx(1.3, abs=2e-3)
    d = payload["directions"][0]
    assert d["nonstable"] and d["detectable"]
    assert d["mu_hat"] == pytest.approx(d["lambda_hat"] - 8.0 * d["r_bar"], abs=1e-12)


def test_detect_sweep(tmp_path, capsys, monkeypatch):
    import ltvobs.integrators as integrators

    steps = []
    step_fn = integrators.projected_rk4_step

    def counted(*args, **kwargs):
        steps.append(args[1])
        return step_fn(*args, **kwargs)

    # every frame flow steps through integrators.frame_flow
    monkeypatch.setattr(integrators, "projected_rk4_step", counted)
    scen = write_scenario(tmp_path, TOY)
    out = str(tmp_path / "out")
    assert main(["detect", "--scenario", scen, "--out", out, "--sweep", "1,3,10"]) == 0
    # p enters only mu_hat, so three gains cost one frame flow over the grid
    assert len(steps) == 6000
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("p=")]
    assert len(lines) == 3
    payload = json.loads((tmp_path / "out" / "detect_sweep.json").read_text())
    assert len(payload["sweep"]) == 3
    worst = [max(d["mu_hat"] for d in pl["directions"]) for pl in payload["sweep"]]
    # a larger gain never predicts a worse exponent
    assert worst[0] >= worst[1] >= worst[2]


def test_check_so_output(tmp_path, capsys):
    scen = write_scenario(tmp_path, TOY)
    out = str(tmp_path / "out")
    assert main(["check-so", "--scenario", scen, "--out", out]) == 0
    assert capsys.readouterr().out == "nu=2, strongly_observable=true\n"
    payload = json.loads((tmp_path / "out" / "check_so.json").read_text())
    assert payload["nu"] == 2
    # H = R^T R is constant here; its small eigenvalue has a closed form
    assert payload["min_eig_h"] == pytest.approx(0.7416437737576499, rel=1e-9)


def test_observe_outputs(tmp_path, capsys):
    scen = write_scenario(tmp_path, TOY)
    out = str(tmp_path / "out")
    assert main(["observe", "--scenario", scen, "--out", out, "--horizon", "3"]) == 0
    assert capsys.readouterr().out.startswith("sup ||e||=")
    with open(tmp_path / "out" / "observe.csv", newline="") as fh:
        header = fh.readline()
    assert header == "t,x_1,x_2,xt_1,xt_2,e_norm_tso,e_norm_cascade\r\n"
    summary = json.loads((tmp_path / "out" / "observe.json").read_text())
    # the unknown input keeps forcing the raw observer error: bounded,
    # but pinned near |w| / |stable pole|, never converging to zero
    assert 1e-3 < summary["final_e_norm_tso"] < 0.3
    assert summary["sup_e_norm_tso"] < 2.0


def test_reconstruct_outputs(tmp_path, capsys):
    scen = write_scenario(tmp_path, TOY)
    out = str(tmp_path / "out")
    assert main(["reconstruct", "--scenario", scen, "--out", out]) == 0
    assert capsys.readouterr().out.startswith("settled_time=")
    with open(tmp_path / "out" / "reconstruct.csv", newline="") as fh:
        header = fh.readline()
    assert header == "t,x_1,x_2,xhat_1,xhat_2,e_norm_tso,e_norm_cascade\r\n"
    summary = json.loads((tmp_path / "out" / "reconstruct.json").read_text())
    assert summary["settled_time"] is not None
    assert summary["t_f"] == pytest.approx(summary["settled_time"] + 0.5)
    health = {"min_ctcq_sigma", "max_orth_defect", "min_eig_h_e"}
    assert set(summary["health"]) == health


def test_reconstruct_undetectable_exits_3(tmp_path, capsys):
    doc = copy.deepcopy(TOY)
    doc["a"] = [["0.3", "0"], ["0", "-2"]]
    doc["c"] = [["0", "1"]]
    assert main(["reconstruct", "--scenario", write_scenario(tmp_path, doc)]) == 3
    assert "step ii" in capsys.readouterr().err


def test_singular_error_stack_exits_4(tmp_path, capsys):
    # A12 = t - 0.005 vanishes on the grid sample t = 0.005 but at no
    # precondition probe, so the error stack [C; C (A - L C)] loses rank
    # at that one sample and the batched normal solve must name it
    doc = copy.deepcopy(TOY)
    doc["a"] = [["0.3", "t - 0.005"], ["0", "-2"]]
    doc["step"]["t_end"] = 1.0
    scen = write_scenario(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["reconstruct", "--scenario", scen, "--out", out]) == 4
    assert "not positive definite at t=0.005" in capsys.readouterr().err


def test_bibs_open_and_closed_loop(tmp_path, capsys):
    scen = write_scenario(tmp_path, TOY)
    out1 = str(tmp_path / "open")
    assert main(["bibs", "--scenario", scen, "--out", out1]) == 0
    open_loop = json.loads((tmp_path / "open" / "bibs.json").read_text())
    # the plant itself has an unstable diagonal: refuse
    assert open_loop["certified"] is False
    out2 = str(tmp_path / "closed")
    assert main(["bibs", "--scenario", scen, "--out", out2, "--closed-loop"]) == 0
    closed = json.loads((tmp_path / "closed" / "bibs.json").read_text())
    assert closed["certified"] is True
    with open(tmp_path / "closed" / "bibs.csv", newline="") as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == 3  # header + one row per component


def test_csv_outputs_are_deterministic(tmp_path, capsys):
    scen = write_scenario(tmp_path, TOY)
    for out in ("r1", "r2"):
        assert main(["spectrum", "--scenario", scen, "--out", str(tmp_path / out)]) == 0
    a = (tmp_path / "r1" / "spectrum.csv").read_bytes()
    b = (tmp_path / "r2" / "spectrum.csv").read_bytes()
    assert a == b


def test_csv_writer_bytes_match_csv_module(tmp_path):
    import csv

    header = ["t", "x_1", "x_2", "x_3"]
    rows = [
        [0, 1, -2, 10**20],
        [float("inf"), float("-inf"), float("nan"), -0.0],
        [1e-300, -1e-300, 5e-324, 1.7976931348623157e308],
        [0.1, 1.0 / 3.0, np.float64(2.5), np.pi],
    ]
    _write_csv(tmp_path / "fast.csv", header, rows)
    with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([format(float(v), ".17g") for v in row])
    data = (tmp_path / "fast.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    assert data.count(b"\r\n") == len(rows) + 1


def test_bundled_scenario_resolves(capsys, tmp_path):
    scen = _resolve_scenario("bench8")
    assert scen.sys.n == 8
    assert scen.observer_k == 2 and scen.observer_p == 30.0
    out = str(tmp_path / "out")
    assert main(["check-so", "--scenario", "bench8", "--out", out]) == 0
    assert capsys.readouterr().out == "nu=2, strongly_observable=true\n"
    with pytest.raises(ScenarioError):
        _resolve_scenario("no_such_bundle")
