"""Command-line interface: scenario validation, outputs, exit codes."""

import copy
import json
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest

from ltvobs import bibs, integrators, lyapunov, observer
from ltvobs.cascade import CascadeRun
from ltvobs.cli import (
    _resolve_scenario,
    _write_csv,
    _write_json,
    _write_outputs,
    load_scenario,
    main,
)
from ltvobs.errors import NumericalError, ScenarioError
from ltvobs.expr import MatrixExpr
from ltvobs.hosm import DEFAULT_GAINS
from ltvobs.integrators import StepConfig
from ltvobs.system import LtvSystem

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
    run = scen.run
    assert run.sys.n == 2 and run.sys.r == 1
    assert run.observer.k == 1 and run.observer.p == 8.0 and run.observer.q0 is None
    assert run.observer.step.t_end == 6.0
    # w is kept as the column the loader compiled, so no run compiles it again
    assert np.array_equal(run.x0, [1.0, -0.5]) and run.u is None
    assert isinstance(run.w, MatrixExpr) and run.w.shape == (1, 1)
    assert run.w.bind() is run.w.bind()
    assert np.array_equal(run.w.bind()(np.array([1.0])), [[[0.4 * np.sin(1.0)]]])
    assert np.array_equal(run.lipschitz, [8.0]) and run.gains == DEFAULT_GAINS
    assert run.sigma == 0.0 and run.noise_seed == 0

    # bench8 without its optional keys: every setting is the spec type's default
    doc = json.loads((resources.files("ltvobs") / "scenarios" / "bench8.json").read_text())
    del doc["w_bound"], doc["step"]["t0"], doc["noise"]
    for key in ("settled_threshold", "dwell", "gains"):
        del doc["differentiator"][key]
    run = load_scenario(write_scenario(tmp_path, doc)).run
    default = {
        f.name: f.default for cls in (CascadeRun, LtvSystem, StepConfig) for f in fields(cls)
    }
    assert run.sys.w_bound == default["w_bound"] and run.observer.step.t0 == default["t0"]
    for name in ("gains", "threshold", "dwell", "sigma", "noise_seed"):
        assert getattr(run, name) == default[name], name


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


def count_flows(monkeypatch):
    """Record the steps of every frame flow the package runs, one entry a flow."""
    flows = []
    flow_fn = integrators.frame_flow

    def counted(*args, **kwargs):
        flows.append(0)
        for chunk in flow_fn(*args, **kwargs):
            flows[-1] += len(chunk[3])  # one log_r row per step
            yield chunk

    for module in (bibs, lyapunov, observer):
        monkeypatch.setattr(module, "frame_flow", counted)
    return flows


def test_detect_sweep(tmp_path, capsys, monkeypatch):
    flows = count_flows(monkeypatch)
    scen = write_scenario(tmp_path, TOY)
    out = str(tmp_path / "out")
    assert main(["detect", "--scenario", scen, "--out", out, "--sweep", "1,3,10"]) == 0
    # p enters only mu_hat, so three gains cost one frame flow over the grid
    assert flows == [6000]
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("p=")]
    assert len(lines) == 3
    payload = json.loads((tmp_path / "out" / "detect_sweep.json").read_text())
    assert len(payload["sweep"]) == 3
    worst = [max(d["mu_hat"] for d in pl["directions"]) for pl in payload["sweep"]]
    # a larger gain never predicts a worse exponent
    assert worst[0] >= worst[1] >= worst[2]


@pytest.mark.parametrize("sweep", ["30,-1", "0,30", "30,nan", "inf"])
def test_bad_sweep_gain_exits_2(tmp_path, capsys, monkeypatch, sweep):
    # every gain of the sweep is checked before the one shared flow runs
    flows = count_flows(monkeypatch)
    scen = write_scenario(tmp_path, TOY)
    argv = ["detect", "--scenario", scen, "--out", str(tmp_path), f"--sweep={sweep}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"with --sweep {sweep}: gain p must be positive" in err
    assert flows == []


@pytest.mark.parametrize("sweep", ["", ","])
def test_empty_sweep_exits_2(tmp_path, capsys, monkeypatch, sweep):
    # an empty list is refused before any flow, not read as no --sweep
    flows = count_flows(monkeypatch)
    scen = write_scenario(tmp_path, TOY)
    argv = ["detect", "--scenario", scen, "--out", str(tmp_path), "--sweep", sweep]
    assert main(argv) == 2
    assert "--sweep needs at least one gain value" in capsys.readouterr().err
    assert flows == []
    assert not (tmp_path / "detect.json").exists()


def test_check_so_output(tmp_path, capsys):
    scen = write_scenario(tmp_path, TOY)
    out = str(tmp_path / "out")
    assert main(["check-so", "--scenario", scen, "--out", out]) == 0
    assert capsys.readouterr().out == "nu=2, strongly_observable=true\n"
    payload = json.loads((tmp_path / "out" / "check_so.json").read_text())
    assert payload["nu"] == 2
    assert "mu" not in payload
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


def test_reconstruct_json_is_strict_when_t_f_passes_the_horizon(tmp_path, capsys):
    # the bank settles at 1.948 s, so t_f = 2.448 s lies past the last sample
    scen = write_scenario(tmp_path, TOY)
    out = tmp_path / "out"
    assert main(["reconstruct", "--scenario", scen, "--out", str(out), "--horizon", "2"]) == 0
    capsys.readouterr()

    def refuse(name):
        raise ValueError(f"{name} is not JSON (RFC 8259)")

    summary = json.loads((out / "reconstruct.json").read_text(), parse_constant=refuse)
    assert summary["t_f"] > 2.0
    assert summary["sup_state_error_after_t_f"] is None


@pytest.mark.parametrize(
    "command, extra, code",
    [
        ("reconstruct", [], 2),
        ("reconstruct", ["--oracle-derivatives"], 0),
        ("observe", [], 0),
        ("spectrum", [], 0),
    ],
)
def test_only_a_bank_run_needs_the_lipschitz_bound(
    tmp_path, capsys, monkeypatch, command, extra, code
):
    # the bound is a design input that only the differentiator bank reads:
    # a file without it serves every other command, and a bank run refuses
    # it before any flow
    doc = copy.deepcopy(TOY)
    del doc["differentiator"]["lipschitz3"]
    flows = count_flows(monkeypatch)
    scen = write_scenario(tmp_path, doc)
    argv = [command, "--scenario", scen, "--out", str(tmp_path), "--horizon", "1"] + extra
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert "differentiator.lipschitz3" in err and flows == []
    else:
        assert err == "" and flows


def test_dwell_past_the_float_range_never_settles(tmp_path, capsys, monkeypatch):
    # 1e308 s in steps of 1e-3 is past the float range; the run never settles
    flows = count_flows(monkeypatch)
    scen = write_scenario(tmp_path, edited({"differentiator.dwell": 1e308}))
    assert main(["reconstruct", "--scenario", scen, "--out", str(tmp_path), "--horizon", "3"]) == 0
    assert capsys.readouterr().out.startswith("settled_time=never")
    summary = json.loads((tmp_path / "reconstruct.json").read_text())
    assert summary["settled_time"] is None and summary["t_f"] is None
    assert flows


def test_reconstruct_undetectable_exits_3(tmp_path, capsys):
    doc = copy.deepcopy(TOY)
    doc["a"] = [["0.3", "0"], ["0", "-2"]]
    doc["c"] = [["0", "1"]]
    assert main(["reconstruct", "--scenario", write_scenario(tmp_path, doc)]) == 3
    assert "step ii" in capsys.readouterr().err


def test_detect_without_a_gain_for_an_invisible_direction(tmp_path, capsys):
    # the non-stable direction of diag(0.3, -2) does not reach y = x_2: no
    # gain makes it decay, so detect names no minimum gain and still exits 0
    doc = copy.deepcopy(TOY)
    doc["a"] = [["0.3", "0"], ["0", "-2"]]
    doc["c"] = [["0", "1"]]
    out = tmp_path / "out"
    assert main(["detect", "--scenario", write_scenario(tmp_path, doc), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("detectability: FAIL, p_min=unbounded")
    assert json.loads((out / "detect.json").read_text())["p_min_margin_1"] is None


@pytest.mark.parametrize("threshold", [0, -1.0])
def test_non_positive_settle_threshold_exits_2(tmp_path, capsys, threshold):
    # no residual falls below a threshold <= 0: the run could never settle
    doc = copy.deepcopy(TOY)
    doc["differentiator"]["settled_threshold"] = threshold
    scen = write_scenario(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["reconstruct", "--scenario", scen, "--out", out]) == 2
    assert "settle threshold must be finite and positive" in capsys.readouterr().err


def edited(edit):
    """TOY with each dotted key of ``edit`` set to its value."""
    doc = copy.deepcopy(TOY)
    for key, value in edit.items():
        *sections, last = key.split(".")
        target = doc
        for section in sections:
            target = target.setdefault(section, {})
        target[last] = value
    return doc


@pytest.mark.parametrize(
    "edit, extra, message",
    [
        ({"differentiator.lipschitz3": 0}, [], "Lipschitz bound must be finite and positive"),
        ({"differentiator.lipschitz3": [-1.0]}, [], "Lipschitz bound must be finite and positive"),
        ({"differentiator.gains": [1.1, 1.5]}, [], "need 3 gains"),
        ({"differentiator.gains": [1.1, 1.5, -2.0]}, [], "gains must be finite and positive"),
        ({}, ["--seed=-1"], "noise seed must be a non-negative integer"),
        # without a bound the gains are still refused with the spec, by
        # their own section
        (
            {"differentiator.lipschitz3": None, "differentiator.gains": [1.1, 1.5]},
            [],
            "differentiator: need 3 gains",
        ),
        ({"noise.seed": 1.5}, [], "noise: noise seed must be a non-negative integer"),
        ({"noise.sigma": -1.0}, [], "noise: noise level must be finite and non-negative"),
        # json reads the literals Infinity and NaN as floats
        *(
            ({"differentiator.dwell": dwell}, [], "dwell must be finite and non-negative")
            for dwell in (float("inf"), float("nan"))
        ),
    ],
)
def test_bad_differentiator_or_noise_setting_exits_2(
    tmp_path, capsys, monkeypatch, edit, extra, message
):
    # the bank's settings and the noise seed are refused with the run spec,
    # before the frame track, the preconditions and the simulation
    flows = count_flows(monkeypatch)
    scen = write_scenario(tmp_path, edited(edit))
    assert main(["reconstruct", "--scenario", scen, "--out", str(tmp_path)] + extra) == 2
    assert message in capsys.readouterr().err
    assert flows == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("differentiator.gains", 5),
        ("differentiator.dwell", [1]),
        ("w_bound", [1]),
        ("noise", [1]),
        ("differentiator", []),
    ],
)
def test_malformed_scenario_value_exits_2(tmp_path, capsys, monkeypatch, key, value):
    # a value of the wrong JSON type is refused by its key, not by a traceback
    flows = count_flows(monkeypatch)
    scen = write_scenario(tmp_path, edited({key: value}))
    assert main(["reconstruct", "--scenario", scen, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert flows == []


@pytest.mark.parametrize(
    "command, edit, extra, message",
    [
        ("spectrum", {"differentiator.gains": [1.1, 1.5]}, [], "differentiator: need 3 gains"),
        ("check-so", {"observer.q0": [[0], [0]]}, [], "observer: q0 columns are linearly dependent"),
        ("check-so", {"observer.k": 3}, [], "observer: k=3 exceeds state dimension 2"),
        ("spectrum", {"observer.k": True}, [], "observer key 'k' has the wrong type"),
        ("spectrum", {"step.t_end": float("inf")}, [], "step: empty or non-finite horizon [0.0, inf]"),
        ("spectrum", {}, ["--horizon", "inf"], "non-finite horizon [0.0, inf]"),
        ("observe", {}, ["--horizon", "inf"], "non-finite horizon [0.0, inf]"),
        # JSON's NaN literal is read as a float: refused at load, not
        # after the flows run into it
        *(
            (command, {"x0": [float("nan"), -0.5]}, [], "x0 has non-finite entries")
            for command in ("spectrum", "detect", "check-so", "observe", "reconstruct", "bibs")
        ),
        ("reconstruct", {"xt0": [0.0, float("inf")]}, [], "xt0 has non-finite entries"),
        ("detect", {"observer.q0": [[float("nan")], [1.0]]}, [], "q0 has non-finite entries"),
        # a horizon off the step grid is refused when the grid is built
        *(
            (command, {"step.t_end": 2.0005}, [], "step: horizon 2.0005 is not a multiple of h=0.001")
            for command in ("spectrum", "detect", "check-so", "observe", "reconstruct", "bibs")
        ),
        *(
            (
                "detect",
                {},
                ["--horizon", horizon],
                f"error: with --horizon {horizon}: horizon {horizon} is not a multiple of h=0.001",
            )
            # 1e-10 is within round-off of no step at all
            for horizon in ("0.0005", "1e-10")
        ),
    ],
)
def test_every_command_checks_the_whole_run(
    tmp_path, capsys, monkeypatch, command, edit, extra, message
):
    # a setting the command never reads is refused too, before any flow
    flows = count_flows(monkeypatch)
    scen = write_scenario(tmp_path, edited(edit))
    assert main([command, "--scenario", scen, "--out", str(tmp_path)] + extra) == 2
    assert message in capsys.readouterr().err
    assert flows == []


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"x0": [float("nan"), -0.5]}, "x0: x0 has non-finite entries"),
        ({"xt0": [0.0, float("inf")]}, "xt0: xt0 has non-finite entries"),
        ({"feedback": [[float("nan"), 0.0]]}, "feedback: feedback has non-finite entries"),
    ],
    ids=["x0", "xt0", "feedback"],
)
def test_run_spec_error_names_its_key(tmp_path, capsys, edit, message):
    # the run spec checks the states and the feedback; its error is labelled
    # with the scenario key, not with the observer section
    scen = write_scenario(tmp_path, edited(edit))
    assert main(["observe", "--scenario", scen, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_k_override_with_q0(tmp_path, capsys):
    # the spectrum starts from the default frame, so the file's 2x1 q0 does
    # not bind --k; the observer starts from q0 and refuses the width
    scen = write_scenario(tmp_path, edited({"observer.q0": [[1.0], [0.5]]}))
    argv = ["--scenario", scen, "--out", str(tmp_path), "--horizon", "1", "--k", "2"]
    assert main(["spectrum"] + argv) == 0
    assert main(["detect"] + argv) == 2
    err = capsys.readouterr().err
    assert "q0 must have shape (2, 2)" in err and "--k 2" in err


@pytest.mark.parametrize("epsilon", ["0", "-1", "nan", "inf"])
def test_bad_bibs_epsilon_exits_2(tmp_path, capsys, monkeypatch, epsilon):
    # a margin of 0 divides by zero in the input gain, and an infinite one
    # makes every transition bound infinite; it is refused before any flow
    flows = count_flows(monkeypatch)
    scen = write_scenario(tmp_path, TOY)
    argv = ["bibs", "--scenario", scen, "--out", str(tmp_path), "--horizon", "0.1"]
    assert main(argv + [f"--epsilon={epsilon}"]) == 2
    assert "epsilon must be finite and positive" in capsys.readouterr().err
    assert flows == []


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


def test_lapack_failure_exits_4(tmp_path, capsys, monkeypatch):
    # LinAlgError is a ValueError, but it is a numerical failure, not a bad
    # scenario
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(observer, "frame_flow", failing)
    scen = write_scenario(tmp_path, TOY)
    assert main(["detect", "--scenario", scen, "--out", str(tmp_path)]) == 4
    assert "error: SVD did not converge" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "change, flags, code",
    [({}, ["--p", "3000"], 3), ({"xt0": [1e160] * 8}, [], 4)],
    ids=["p-3000", "xt0-1e160"],
)
@pytest.mark.parametrize("command", ["observe", "reconstruct"])
def test_overflowing_error_norm_exits_4(tmp_path, capsys, command, change, flags, code):
    # at p = 3000, h p max diag Rt = 3 lies past RK4's real-axis limit of
    # 2.785, so e would grow until ||e|| overflows: the step is refused
    # before any simulation (exit 3).  An observer start 1e160 away
    # overflows ||e|| at once, a numerical failure (exit 4): no summary may
    # hold Infinity, and the norms warn nothing (warnings are errors).
    # Either way the command writes no file, not even its series
    doc = json.loads((resources.files("ltvobs") / "scenarios" / "bench8.json").read_text())
    doc.update(change)
    out = tmp_path / "out"
    argv = [command, "--scenario", write_scenario(tmp_path, doc), "--horizon", "3"]
    assert main(argv + flags + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 3:
        assert err.startswith("error: step iii: gain p=3000 with step h=0.001 ")
        assert "(h p max diag Rt = 3 > 2.785); this step admits p up to 2785\n" in err
    else:
        assert f"error: {command}.json: sup_e_norm_tso is inf, not a finite number" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["observe", "reconstruct"])
def test_plant_past_the_rk4_limit_exits_4(tmp_path, capsys, command):
    # h |A_22| = 3 lies past RK4's real-axis limit of 2.785, so the plant
    # state grows until it overflows: the cascade names the first
    # non-finite sample, and its steps warn nothing (warnings are errors)
    doc = json.loads((resources.files("ltvobs") / "scenarios" / "bench8.json").read_text())
    doc["a"][1][1] = "-3000"
    argv = [command, "--scenario", write_scenario(tmp_path, doc), "--horizon", "2"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 4
    assert "non-finite plant or observer state at t=1.967" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["observe", "reconstruct"])
def test_gain_just_inside_the_rk4_bound_runs(tmp_path, command):
    out = tmp_path / "out"
    argv = [command, "--scenario", "bench8", "--horizon", "3", "--p", "2780", "--out", str(out)]
    assert main(argv) == 0
    summary = json.loads((out / f"{command}.json").read_text(), parse_constant=_reject_constant)
    assert summary["sup_e_norm_tso"] < 20.0


def test_detect_reports_the_gain_the_rk4_step_admits(tmp_path, capsys):
    # detect writes the largest gain that observe admits, the number its
    # refusal of p = 3000 names; a sweep entry carries it too, and stdout
    # does not
    out = tmp_path / "out"
    argv = ["--scenario", "bench8", "--horizon", "3", "--out", str(out)]
    assert main(["detect"] + argv) == 0
    p_max = json.loads((out / "detect.json").read_text())["p_max_rk4"]
    assert "p_max" not in capsys.readouterr().out
    assert main(["observe", "--p", "3000"] + argv) == 3
    assert f"this step admits p up to {p_max:.6g}\n" in capsys.readouterr().err
    assert f"{p_max:.6g}" == "2785"
    assert main(["detect", "--sweep", "30,90"] + argv) == 0
    sweep = json.loads((out / "detect_sweep.json").read_text())["sweep"]
    assert [entry["p_max_rk4"] for entry in sweep] == [p_max, p_max]


def test_json_summaries_hold_only_finite_numbers(tmp_path):
    payload = {"ok": [1.0, None, {"n": 2}], "health": {"worst": [0.5, float("nan")]}}
    with pytest.raises(NumericalError, match=r"s.json: health.worst\[1\] is nan"):
        _write_json(tmp_path / "s.json", payload)
    assert not (tmp_path / "s.json").exists()
    payload["health"]["worst"][1] = 0.25
    _write_json(tmp_path / "s.json", payload)
    text = (tmp_path / "s.json").read_text()
    assert json.loads(text, parse_constant=_reject_constant) == payload


@pytest.mark.parametrize(
    "entry, message",
    [
        ("(" * 2000 + "t" + ")" * 2000, "A[1][2]: expression is nested too deeply to parse"),
        ("+".join(["t"] * 300), "A[1][2]: expression is nested too deeply to compile"),
    ],
    ids=["2000-parens", "300-term-sum"],
)
def test_over_deep_expression_exits_2(tmp_path, capsys, entry, message):
    # the parser recurses per parenthesis and Python's compiler limits the
    # nesting of the generated source; both are refused at load, not with a
    # traceback, and named by the file's entry, not by an entry of a matrix
    # derived from it (check-so compiles the stack [C; C A + dC/dt] first,
    # whose entry (1,1) holds A[1][2])
    doc = copy.deepcopy(TOY)
    doc["a"][0][1] = entry
    scen = write_scenario(tmp_path, doc)
    argv = ["check-so", "--scenario", scen, "--out", str(tmp_path), "--horizon", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["spectrum", "reconstruct"])
@pytest.mark.parametrize(
    "key, where", [("a", "A[2][2]"), ("c", "C[1][2]"), ("w", "w[1]"), ("u", "u[1]")]
)
def test_compile_error_names_the_scenario_entry(tmp_path, capsys, command, key, where):
    # every command loads the scenario through one compile of its matrices
    # and input expressions, so each reports the entry as the file spells it
    doc = copy.deepcopy(TOY)
    deep = "+".join(["t"] * 300)
    if key in "ac":
        doc[key][-1][-1] = deep
    else:
        doc[key] = [deep]
    scen = write_scenario(tmp_path, doc)
    assert main([command, "--scenario", scen, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {where}: expression is nested too deeply to compile\n"


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


def test_bibs_huge_epsilon_reads_infinite_bounds(tmp_path):
    # at epsilon = 1e300 every diagonal's transition factor passes exp's
    # range: no component is certified, every bound is null, and the
    # factors warn nothing (warnings are errors)
    out = tmp_path / "out"
    argv = ["bibs", "--scenario", "bench8", "--epsilon", "1e300", "--horizon", "0.5"]
    assert main(argv + ["--out", str(out)]) == 0
    summary = json.loads((out / "bibs.json").read_text(), parse_constant=_reject_constant)
    assert [c["state_bound"] for c in summary["components"]] == [None] * 8


@pytest.mark.parametrize(
    "command, entry, message",
    [
        pytest.param(command, entry, message, id=" ".join(command) + suffix)
        for entry, message, suffix in [
            ("1e100", "non-finite frame flow at t=0.0", ""),
            ("1e50", "frame rank collapse at t=0.0", "-1e50"),
        ]
        for command in [
            ["spectrum"], ["detect"], ["bibs"], ["bibs", "--closed-loop"], ["observe"], ["reconstruct"]
        ]
    ],
)
def test_overflowing_propagators_exit_4(tmp_path, capsys, command, entry, message):
    # A[1][1] = 1e100 overflows the RK4 stage fold of the first step, and
    # 1e50 the squares of the first frame's column norms: the frame flow
    # names that step, and neither warns (warnings are errors)
    doc = json.loads((resources.files("ltvobs") / "scenarios" / "bench8.json").read_text())
    doc["a"][1][1] = entry
    argv = command + ["--scenario", write_scenario(tmp_path, doc), "--horizon", "1"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 4
    assert message in capsys.readouterr().err


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


def test_refused_summary_leaves_no_files(tmp_path):
    # every command writes through one writer, summary first
    plot = ("title", [(2, "x")], "x", False)
    with pytest.raises(NumericalError, match="s.json: a is nan"):
        _write_outputs(tmp_path, "s", {"a": float("nan")}, ["t", "x"], [[0.0, 1.0]], plot)
    assert list(tmp_path.iterdir()) == []
    _write_outputs(tmp_path, "s", {"a": 1.0}, ["t", "x"], [[0.0, 1.0]], plot)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.gp", "s.json"]


def test_bundled_scenario_resolves(capsys, tmp_path):
    run = _resolve_scenario("bench8").run
    assert run.sys.n == 8
    assert run.observer.k == 2 and run.observer.p == 30.0
    assert run.noise_seed == 42 and run.feedback.shape == (2, 8)
    out = str(tmp_path / "out")
    assert main(["check-so", "--scenario", "bench8", "--out", out]) == 0
    assert capsys.readouterr().out == "nu=2, strongly_observable=true\n"
    with pytest.raises(ScenarioError):
        _resolve_scenario("no_such_bundle")
