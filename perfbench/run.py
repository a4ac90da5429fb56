"""ltvobs benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the root of a source checkout: the package is imported from
``./src``.  Each round of a workload runs in a fresh worker process
(``worker.py``); every output is checked here against references that
``checks.py`` computes without ltvobs.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics: the end-to-end ones with ``--trace 0``, the per-layer ones
(from rounds run under the span tracer) with ``--trace 1``.  ``--quick``
runs the check self-tests and every workload once, shortened, traced
and untraced, with all output checks and no metric gating.  See
README.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402

OUT = os.path.join(HERE, "out")
BENCH8 = os.path.join(ROOT, "src", "ltvobs", "scenarios", "bench8.json")

RECON_HORIZON = 8.0  # settling at t_f ~ 5.9 s plus a 2 s tail
DESIGN_HORIZON = 3.0
SWEEP = "30,90"  # two gains: the pool holds two threads
CONST_PER_N = 1  # systems per n = 2..6 in one round
CONST_GRID = {"h": 0.05, "t_end": 100.0}  # gate 1's grid
XT0_SPREAD = 0.02  # seeded observer start: xt0 + U(-spread, spread)
SETUPS = 9  # set-up samples per run
WORKER_TIMEOUT = 150.0
BUDGET = 170.0  # seconds; no round starts that would end past this

WORKLOADS = ("bench8-reconstruct", "bench8-design", "const-spectra")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, statistic, span names); statistics come from
# tracer.span_totals, "wait_s" is wall minus thread CPU
LAYER_SPANS = {
    "expr.evals": ("count", "calls", ["expr.eval"]),
    "expr.eval_s": ("s", "wall_s", ["expr.eval"]),
    "expr.binds": ("count", "calls", ["expr.bind"]),
    "linalg.qr_calls": ("count", "calls", ["linalg.mgs_qr"]),
    "linalg.qr_s": ("s", "wall_s", ["linalg.mgs_qr"]),
    "linalg.projector_calls": ("count", "calls", ["linalg.orthogonal_projector_complement"]),
    "linalg.projector_s": ("s", "wall_s", ["linalg.orthogonal_projector_complement"]),
    "linalg.rank_calls": ("count", "calls", ["linalg.numerical_rank"]),
    "linalg.rank_s": ("s", "wall_s", ["linalg.numerical_rank"]),
    "integrators.frame_steps": ("count", "calls", ["integrators.projected_rk4_step"]),
    "integrators.frame_self_s": ("s", "self_s", ["integrators.projected_rk4_step"]),
    "integrators.joint_steps": ("count", "calls", ["integrators.joint_rk4_step"]),
    "integrators.joint_self_s": ("s", "self_s", ["integrators.joint_rk4_step"]),
    "lyapunov.spectrum_s": ("s", "wall_s", ["lyapunov.estimate_spectrum"]),
    "lyapunov.regularity_s": ("s", "wall_s", ["lyapunov.regularity_report"]),
    "observer.detectability_calls": ("count", "calls", ["observer.detectability_report"]),
    "observer.detectability_s": ("s", "wall_s", ["observer.detectability_report"]),
    "observer.detectability_wait_s": ("s", "wait_s", ["observer.detectability_report"]),
    "strong_obs.build_stack_s": ("s", "wall_s", ["strong_obs.build_stack"]),
    "strong_obs.so_test_s": ("s", "wall_s", ["strong_obs.strong_observability_test"]),
    "strong_obs.rmap_s": ("s", "wall_s", ["strong_obs.ReconstructionMap.__init__"]),
    "strong_obs.reconstruct_calls": ("count", "calls", ["strong_obs.ErrorStackSampler.reconstruct"]),
    "strong_obs.reconstruct_s": ("s", "wall_s", ["strong_obs.ErrorStackSampler.reconstruct"]),
    "hosm.bank_samples": ("count", "count", ["hosm.run_bank"]),
    "hosm.bank_s": ("s", "wall_s", ["hosm.run_bank"]),
    "cascade.run_s": ("s", "wall_s", ["cascade.run_cascade"]),
    "cascade.self_s": ("s", "self_s", ["cascade.run_cascade"]),
    "bibs.triangularize_s": ("s", "wall_s", ["bibs.triangularize"]),
    "bibs.triangularize_cl_s": ("s", "wall_s", ["bibs.triangularize_error_system"]),
    "bibs.certificate_s": ("s", "wall_s", ["bibs.general_bibs_certificate"]),
    "cli.load_s": ("s", "wall_s", ["cli.load_scenario"]),
    "cli.self_s": ("s", "self_s", ["cli.cmd_reconstruct", "cli.cmd_spectrum", "cli.cmd_detect",
                                   "cli.cmd_check_so", "cli.cmd_bibs"]),
    "cli.reconstruct_s": ("s", "wall_s", ["cli.cmd_reconstruct"]),
    "cli.spectrum_s": ("s", "wall_s", ["cli.cmd_spectrum"]),
    "cli.detect_s": ("s", "wall_s", ["cli.cmd_detect"]),
    "cli.check_so_s": ("s", "wall_s", ["cli.cmd_check_so"]),
    "cli.bibs_s": ("s", "wall_s", ["cli.cmd_bibs"]),
}
# per-layer metrics measured outside the spans
LAYER_OTHER = {
    "cli.bytes_written": "bytes",
    "recon_sup_err": "1",
    "t_f": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# inputs, drawn from the seed


def prepare(workload, seed, rundir):
    """Write the workload's inputs; returns (ops, set-up spec, reference)."""
    with open(BENCH8, encoding="utf-8") as fh:
        doc = json.load(fh)
    rng = np.random.default_rng(seed)
    if workload == "bench8-reconstruct":
        horizon = RECON_HORIZON
        xt0 = np.asarray(doc["xt0"], dtype=float)
        doc["xt0"] = [float(v) for v in xt0 + rng.uniform(-XT0_SPREAD, XT0_SPREAD, xt0.size)]
        path = os.path.join(rundir, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        ops = [_cli_op("reconstruct", ["reconstruct", "--scenario", path, "--horizon", str(horizon)])]
        return ops, {"scenario": path}, checks.plant_reference(doc, horizon)
    if workload == "bench8-design":
        horizon = DESIGN_HORIZON
        common = ["--scenario", "bench8", "--horizon", str(horizon)]
        ops = [
            _cli_op("spectrum", ["spectrum", "--k", "3"] + common),
            _cli_op("detect", ["detect", "--sweep", SWEEP] + common),
            _cli_op("check-so", ["check-so"] + common),
            _cli_op("bibs", ["bibs"] + common),
            _cli_op("bibs-closed", ["bibs", "--closed-loop"] + common),
        ]
        reference = (checks.mean_trace(doc, horizon), float(doc["observer"]["p"]))
        return ops, {"scenario": BENCH8}, reference
    systems = [
        np.triu(rng.uniform(-2.0, 2.0, (n, n))).tolist()
        for n in range(2, 7)
        for _ in range(CONST_PER_N)
    ]
    ops = [
        {"kind": "spectrum", "name": f"system{i}-n{len(a)}", "system": i, "k": len(a), **CONST_GRID}
        for i, a in enumerate(systems)
    ]
    return ops, {"systems": systems}, systems


def _cli_op(name, argv):
    return {"kind": "cli", "name": name, "argv": argv}


# ---------------------------------------------------------------------------
# workers


def run_worker(spec, rundir, tag):
    """Run worker.py on ``spec``; returns its result dict, or None if it failed."""
    spec = dict(spec, result=os.path.join(rundir, f"{tag}.result.json"))
    spec_path = os.path.join(rundir, f"{tag}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    spawned = time.perf_counter()
    with open(os.path.join(rundir, f"{tag}.log"), "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    if code != 0 or not os.path.exists(spec["result"]):
        print(f"perfbench: worker {tag} exited with {code}; see {log.name}", file=sys.stderr)
        return None
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    return result


def _dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def check_round(workload, ops, result, reference):
    """Per-op failures plus accuracy figures.

    ``fails[op]`` lists ``(kind, message)``: kind "error" when the op
    raised or exited non-zero, "check" when its output is missing,
    unreadable or fails a check.
    """
    fails = {op["name"]: [] for op in ops}
    extra = {}
    if result is None:
        for name in fails:
            fails[name].append(("error", "worker failed"))
        return fails, extra
    for rec in result["ops"]:
        if rec["status"] != "ok":
            fails[rec["name"]].append(("error", f"{rec['status']}: {rec['detail']}"))
    out = {op["name"]: op.get("out") for op in ops}

    def load(name, fname):
        with open(os.path.join(out[name], fname), encoding="utf-8") as fh:
            return json.load(fh)

    try:
        if workload == "bench8-reconstruct" and not fails["reconstruct"]:
            t, x, xhat = checks.read_series(os.path.join(out["reconstruct"], "reconstruct.csv"))
            summary = load("reconstruct", "reconstruct.json")
            msgs, sup, t_f = checks.check_reconstruct(t, x, xhat, summary, *reference)
            fails["reconstruct"] += [("check", m) for m in msgs]
            extra = {"recon_sup_err": sup, "t_f": t_f}
        elif workload == "bench8-design" and not any(fails.values()):
            mean_tr, p = reference
            for name, msg in checks.check_design(
                load("spectrum", "spectrum.json"),
                load("detect", "detect_sweep.json"),
                load("check-so", "check_so.json"),
                load("bibs", "bibs.json"),
                load("bibs-closed", "bibs.json"),
                mean_tr,
                p,
            ):
                fails[name].append(("check", msg))
        elif workload == "const-spectra":
            for op in ops:
                if not fails[op["name"]]:
                    msgs = checks.check_const(result["outputs"][op["name"]], reference[op["system"]])
                    fails[op["name"]] += [("check", m) for m in msgs]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        for name in fails:
            fails[name].append(("check", f"unreadable output: {type(exc).__name__}: {exc}"))
    if any(op.get("out") for op in ops):
        extra["bytes_written"] = sum(_dir_bytes(op["out"]) for op in ops)
    return fails, extra


def layer_metrics(result):
    """Per-layer metrics of one traced round."""
    spans, counts = result["spans"], result["counts"]
    values = {}
    for metric, (_unit, stat, names) in LAYER_SPANS.items():
        total = 0.0
        for name in names:
            entry = spans.get(name)
            if stat == "count":
                total += counts.get(name, 0)
            elif entry is None:
                continue
            elif stat == "wait_s":
                total += entry["wall_s"] - entry["cpu_s"]
            else:
                total += entry[stat]
        values[metric] = total
    values["trace.spans"] = result["n_spans"]
    return values


# ---------------------------------------------------------------------------
# one run


def run(workload, seed, seconds, trace, quick=False):
    """Measure one workload; returns the result object to print."""
    run_start = time.perf_counter()
    rundir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}{'-quick' if quick else ''}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    ops, setup, reference = prepare(workload, seed, rundir)
    base = dict(setup, root=ROOT, workload=workload)

    setups = []
    for i in range(1 if quick else SETUPS):
        res = run_worker(dict(base, setup_only=True), rundir, f"setup{i}")
        if res is None:
            _fail(f"set-up failed for {workload}; is this the root of an ltvobs checkout?")
        setups.append(res["setup_s"])

    attempted = failed = 0
    correct = True
    untraced, traced, accuracy, written = [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        is_traced = trace and index % 2 == 1
        round_dir = os.path.join(rundir, f"round{index}")
        round_ops = [dict(op, out=os.path.join(round_dir, op["name"])) if op["kind"] == "cli" else op
                     for op in ops]
        spec = dict(base, ops=round_ops, trace=is_traced,
                    trace_path=os.path.join(rundir, "trace.jsonl.gz"))
        began = time.perf_counter()
        result = run_worker(spec, rundir, f"round{index}")
        fails, extra = check_round(workload, round_ops, result, reference)
        attempted += len(ops)
        for name, msgs in fails.items():
            if msgs:
                failed += 1
                print(f"perfbench: round {index} {name}: {msgs}", file=sys.stderr)
                correct = correct and all(kind != "check" for kind, _ in msgs)
        if result is not None:
            (traced if is_traced else untraced).append(result)
            if "recon_sup_err" in extra:
                accuracy.append((extra["recon_sup_err"], extra["t_f"]))
            if "bytes_written" in extra:
                written.append(extra["bytes_written"])
        shutil.rmtree(round_dir, ignore_errors=True)  # keep the disk footprint to one round
        index += 1
        now = time.perf_counter()
        if trace and index % 2 == 1:
            continue  # rounds come in untraced/traced pairs
        if now - start >= seconds or now - run_start + (now - began) > BUDGET:
            break

    if not untraced or (trace and not traced):
        _fail(f"no round of {workload} completed")
    metrics = {}
    if trace:
        per_round = [layer_metrics(r) for r in traced]
        for metric in LAYER_SPANS:
            metrics[metric] = statistics.median(v[metric] for v in per_round)
        metrics["trace.spans"] = statistics.median(v["trace.spans"] for v in per_round)
        metrics["cli.bytes_written"] = statistics.median(written) if written else 0
        metrics["recon_sup_err"] = statistics.median(a for a, _ in accuracy) if accuracy else 0.0
        metrics["t_f"] = statistics.median(t for _, t in accuracy) if accuracy else 0.0
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
            r["wall_s"] for r in untraced
        )
        units = {m: u for m, (u, _, _) in LAYER_SPANS.items()} | LAYER_OTHER
    else:
        metrics["setup_s"] = statistics.median(setups)
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = statistics.median(r[key] for r in untraced)
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def quick():
    """Self-tests, then every workload once (untraced and traced), shortened."""
    import selftest

    ok = selftest.main() == 0
    for workload in WORKLOADS:
        began = time.perf_counter()
        res = run(workload, seed=0, seconds=0, trace=True, quick=True)
        ok = ok and res["correct"] and res["failed"] == 0
        print(json.dumps({"workload": workload, "elapsed_s": time.perf_counter() - began, **res}))
    print("quick: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ltvobs", "__init__.py")):
        _fail(f"no ltvobs sources under {os.path.join(ROOT, 'src')}")
    if args.quick:
        return quick()
    if args.workload is None:
        ap.error("--workload is required unless --quick is given")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
