"""Command-line front end: scenario loading, dispatch, CSV/plot emission.

Subcommands follow the observer design steps: ``spectrum`` estimates the
Lyapunov exponents (step i), ``detect`` checks directional detectability
and suggests the minimum gain (steps ii-iii), ``check-so`` verifies
strong observability and the reconstruction margins (step iv),
``observe`` runs the observer alone, ``reconstruct`` runs the full
cascade (steps v-vi), and ``bibs`` evaluates boundedness certificates.

Scenario files are UTF-8 JSON with matrix entries as expression strings
in the variable ``t``; the bundled ``bench8`` scenario is the canonical
schema example.  Every run writes CSV artifacts (RFC 4180, ``.``
decimal, 17 significant digits) plus a gnuplot script into the output
directory.  Exit codes: 0 ok, 2 validation error, 3 failed design-step
precondition, 4 numerical failure.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import bibs as bibs_mod
from .cascade import CascadeRun, run_cascade, run_tso
from .errors import ExprError, NumericalError, ScenarioError, StepPreconditionError
from .expr import MatrixExpr, parse
from .integrators import StepConfig
from .lyapunov import estimate_spectrum, nonstable_dimension, regularity_report
from .observer import (
    ObserverConfig,
    detectability_report,
    frame_track,
    min_gain_suggestion,
)
from .strong_obs import ReconstructionMap, build_stack, strong_observability_test
from .system import LtvSystem

__all__ = ["Scenario", "load_scenario", "main"]


def _fmt(x):
    """17 significant digits, enough to round-trip a double."""
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    """Header through ``csv.writer``, then every row as ``%.17g`` fields.

    ``"%.17g" % v`` spells a value as ``format(float(v), ".17g")`` does and
    never needs quoting, so one row format per row gives the bytes
    ``csv.writer`` would write, ``\r\n`` line ends included.
    """
    row_fmt = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(row_fmt % tuple(row) for row in rows)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_plot(path, csv_name, title, ycols, ylabel, logy=False):
    """Emit a small gnuplot script plotting the named CSV columns."""
    lines = [
        "set datafile separator ','",
        "set key outside",
        f"set title '{title}'",
        "set xlabel 't'",
        f"set ylabel '{ylabel}'",
    ]
    if logy:
        lines.append("set logscale y")
    plots = [
        f"'{csv_name}' using 1:{idx} with lines title '{name}'"
        for idx, name in ycols
    ]
    lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# scenario loading


@dataclass
class Scenario:
    """Validated run description: system, signals, and tool configs."""

    name: str
    sys: LtvSystem
    u: list
    w: list
    x0: np.ndarray
    xt0: np.ndarray
    feedback: np.ndarray | None
    observer_k: int
    observer_p: float
    observer_q0: np.ndarray | None
    lipschitz: object
    settled_threshold: float
    dwell: float
    gains: tuple
    step: StepConfig
    sigma: float
    seed: int


def _parse_grid(raw, name, rows, cols):
    """Parse a matrix of expression strings with entry-coordinate errors."""
    if not isinstance(raw, list) or len(raw) != rows:
        got_r = len(raw) if isinstance(raw, list) else "?"
        raise ScenarioError(f"{name} must be {rows}x{cols}, got {got_r} row(s)")
    parsed = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            got_c = len(row) if isinstance(row, list) else "?"
            raise ScenarioError(
                f"{name} must be {rows}x{cols}, row {i + 1} has {got_c} entries"
            )
        out_row = []
        for j, entry in enumerate(row):
            try:
                out_row.append(parse(entry))
            except ExprError as e:
                raise ScenarioError(f"{name}[{i + 1}][{j + 1}]: {e}") from e
        parsed.append(tuple(out_row))
    return MatrixExpr(tuple(parsed))


def _parse_vector_exprs(raw, name, length):
    if raw is None:
        return None
    if not isinstance(raw, list) or len(raw) != length:
        got = len(raw) if isinstance(raw, list) else "?"
        raise ScenarioError(f"{name} must have {length} entries, got {got}")
    for i, entry in enumerate(raw):
        try:
            parse(entry)
        except ExprError as e:
            raise ScenarioError(f"{name}[{i + 1}]: {e}") from e
    return list(raw)


def _require(doc, key, kind, where="scenario"):
    if key not in doc:
        raise ScenarioError(f"{where} is missing required key '{key}'")
    val = doc[key]
    if kind is not None and not isinstance(val, kind):
        raise ScenarioError(f"{where} key '{key}' has the wrong type")
    return val


def _float_vector(raw, name, length):
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"{name} must be a numeric vector: {e}") from e
    if arr.shape != (length,):
        raise ScenarioError(f"{name} must have {length} entries, got {arr.shape}")
    return arr


def load_scenario(path) -> Scenario:
    """Load and fully validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")

    dims = _require(doc, "dimensions", dict)
    n = int(_require(dims, "n", int, "dimensions"))
    q = int(_require(dims, "q", int, "dimensions"))
    m = int(_require(dims, "m", int, "dimensions"))
    r = int(_require(dims, "r", int, "dimensions"))
    if min(n, q, m, r) < 1:
        raise ScenarioError("dimensions must be positive")

    a = _parse_grid(_require(doc, "a", list), "A", n, n)
    f = _parse_grid(_require(doc, "f", list), "F", n, q)
    d = _parse_grid(_require(doc, "d", list), "D", n, m)
    c = _parse_grid(_require(doc, "c", list), "C", r, n)
    w_bound = float(doc.get("w_bound", 0.0))
    system = LtvSystem(a=a, f=f, d=d, c=c, w_bound=w_bound)

    u = _parse_vector_exprs(doc.get("u"), "u", q)
    w = _parse_vector_exprs(doc.get("w"), "w", m)
    x0 = _float_vector(_require(doc, "x0", list), "x0", n)
    xt0 = _float_vector(_require(doc, "xt0", list), "xt0", n)

    feedback = None
    if doc.get("feedback") is not None:
        fb_expr = _parse_grid(doc["feedback"], "feedback", q, n)
        if not fb_expr.is_constant:
            raise ScenarioError("feedback must be a constant matrix")
        feedback = fb_expr(0.0)

    obs = _require(doc, "observer", dict)
    k = int(_require(obs, "k", int, "observer"))
    p = float(_require(obs, "p", (int, float), "observer"))
    if not 1 <= k <= n:
        raise ScenarioError(f"observer.k must be in 1..{n}, got {k}")
    q0 = None
    if obs.get("q0") is not None:
        q0 = np.asarray(obs["q0"], dtype=float)
        if q0.shape != (n, k):
            raise ScenarioError(f"observer.q0 must be {n}x{k}, got {q0.shape}")

    diff = doc.get("differentiator", {})
    if "lipschitz" in diff:
        # the key once bounded |d2 e_y/dt2|; reading it as the order-2
        # bank's bound would silently mix up derivatives
        raise ScenarioError(
            "differentiator.lipschitz is no longer read: the differentiator "
            "bank runs at order 2, so give a bound on |d3 e_y/dt3| as "
            "differentiator.lipschitz3"
        )
    lip = diff.get("lipschitz3")
    if lip is not None:
        lip = np.asarray(lip, dtype=float)
        if lip.ndim == 0:
            lip = float(lip)
        elif lip.shape != (r,):
            raise ScenarioError(
                f"differentiator.lipschitz3 must be scalar or {r}-vector"
            )
    threshold = float(diff.get("settled_threshold", 1e-4))
    dwell = float(diff.get("dwell", 0.5))
    gains = tuple(float(g) for g in diff.get("gains", (1.1, 1.5, 2.0, 3.0, 5.0, 8.0)))

    stp = _require(doc, "step", dict)
    try:
        step = StepConfig(
            h=float(_require(stp, "h", (int, float), "step")),
            t0=float(stp.get("t0", 0.0)),
            t_end=float(_require(stp, "t_end", (int, float), "step")),
        )
    except ValueError as e:
        raise ScenarioError(f"step: {e}") from e

    noise = doc.get("noise", {})
    sigma = float(noise.get("sigma", 0.0))
    seed = int(noise.get("seed", 0))
    if sigma < 0:
        raise ScenarioError("noise.sigma must be non-negative")

    return Scenario(
        name=str(doc.get("name", os.path.basename(str(path)))),
        sys=system,
        u=u,
        w=w,
        x0=x0,
        xt0=xt0,
        feedback=feedback,
        observer_k=k,
        observer_p=p,
        observer_q0=q0,
        lipschitz=lip,
        settled_threshold=threshold,
        dwell=dwell,
        gains=gains,
        step=step,
        sigma=sigma,
        seed=seed,
    )


def bundled_scenario_names():
    pkg = resources.files("ltvobs") / "scenarios"
    return sorted(
        p.name[: -len(".json")] for p in pkg.iterdir() if p.name.endswith(".json")
    )


def _resolve_scenario(ref):
    """Accept a filesystem path or the name of a bundled scenario."""
    if os.path.exists(ref):
        return load_scenario(ref)
    name = ref[: -len(".json")] if ref.endswith(".json") else ref
    res = resources.files("ltvobs") / "scenarios" / f"{name}.json"
    if res.is_file():
        with resources.as_file(res) as concrete:
            return load_scenario(concrete)
    raise ScenarioError(
        f"scenario '{ref}' is neither a file nor a bundled name "
        f"(bundled: {', '.join(bundled_scenario_names())})"
    )


# ---------------------------------------------------------------------------
# shared run assembly


def _run_step_config(scen, args):
    step = scen.step
    horizon = getattr(args, "horizon", None)
    if horizon is None:
        return step
    return StepConfig(h=step.h, t0=step.t0, t_end=step.t0 + float(horizon))


def _observer_config(scen, args, step):
    k = getattr(args, "k", None)
    p = getattr(args, "p", None)
    return ObserverConfig(
        p=float(p) if p is not None else scen.observer_p,
        k=int(k) if k is not None else scen.observer_k,
        step=step,
        q0=scen.observer_q0,
    )


def _make_run(scen, args, oracle=False):
    step = _run_step_config(scen, args)
    conf = _observer_config(scen, args, step)
    sigma = getattr(args, "sigma", None)
    seed = getattr(args, "seed", None)
    return CascadeRun(
        sys=scen.sys,
        observer=conf,
        x0=scen.x0,
        xt0=scen.xt0,
        w=scen.w,
        u=scen.u,
        feedback=scen.feedback,
        lipschitz=scen.lipschitz,
        gains=scen.gains,
        threshold=scen.settled_threshold,
        dwell=scen.dwell,
        sigma=float(sigma) if sigma is not None else scen.sigma,
        noise_seed=int(seed) if seed is not None else scen.seed,
        oracle_derivatives=oracle,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(scen, args, outdir):
    step = _run_step_config(scen, args)
    k = int(args.k) if args.k is not None else scen.observer_k
    est = estimate_spectrum(scen.sys.a, k, step)
    reg = regularity_report(est.history_t, est.history_b)

    header = ["t"] + [f"lambda_{j + 1}" for j in range(k)]
    rows = [
        [t] + list(lam)
        for t, lam in zip(est.history_t, est.history_lambda)
    ]
    csv_path = os.path.join(outdir, "spectrum.csv")
    _write_csv(csv_path, header, rows)
    _write_plot(
        os.path.join(outdir, "spectrum.gp"),
        "spectrum.csv",
        f"running Lyapunov exponent estimates (k={k})",
        [(j + 2, f"lambda_{j + 1}") for j in range(k)],
        "running average",
    )
    payload = {
        "scenario": scen.name,
        "k": k,
        "horizon": step.horizon,
        "exponents": [float(v) for v in est.exponents],
        "exponents_by_direction": [float(v) for v in est.exponents_by_direction],
        "nonstable_dimension": int(nonstable_dimension(est)),
        "max_orth_defect": float(est.max_orth_defect),
        "forward_regular": bool(reg.forward_regular),
        "strong_regular": bool(reg.strong_regular),
    }
    _write_json(os.path.join(outdir, "spectrum.json"), payload)
    print(
        "exponents:",
        " ".join(_fmt(v) for v in est.exponents),
        f"| nonstable_dimension={payload['nonstable_dimension']}",
    )
    return 0


def _detect_payload(scen, conf, track):
    rep = detectability_report(scen.sys, conf, track=track)
    try:
        p_min = min_gain_suggestion(rep, margin=1.0)
    except StepPreconditionError:
        p_min = None
    return rep, {
        "scenario": scen.name,
        "k": conf.k,
        "p": conf.p,
        "ok": bool(rep.ok),
        "p_min_margin_1": p_min,
        "min_ctcq_sigma": float(rep.min_ctcq_sigma),
        "directions": [
            {
                "index": d.index + 1,
                "lambda_hat": d.lambda_hat,
                "r_bar": d.r_bar,
                "nonstable": d.nonstable,
                "detectable": d.detectable,
                "mu_hat": d.mu_hat,
            }
            for d in rep.directions
        ],
    }


def cmd_detect(scen, args, outdir):
    step = _run_step_config(scen, args)
    conf = _observer_config(scen, args, step)
    if args.sweep:
        try:
            p_values = [float(v) for v in args.sweep.split(",") if v.strip()]
        except ValueError as e:
            raise ScenarioError(f"--sweep expects comma-separated numbers: {e}")
        if not p_values:
            raise ScenarioError("--sweep needs at least one gain value")
        # the gain enters only mu_hat = lambda - p rbar: one flow serves all
        track = frame_track(scen.sys, conf)
        results = [
            _detect_payload(
                scen,
                ObserverConfig(p=p, k=conf.k, step=step, q0=scen.observer_q0),
                track,
            )
            for p in p_values
        ]
        _write_json(
            os.path.join(outdir, "detect_sweep.json"),
            {"scenario": scen.name, "sweep": [pl for _, pl in results]},
        )
        for p, (_, pl) in zip(p_values, results):
            worst = max(d["mu_hat"] for d in pl["directions"])
            print(f"p={_fmt(p)}: ok={str(pl['ok']).lower()} worst_mu_hat={_fmt(worst)}")
        rep, payload = results[0]
    else:
        rep, payload = _detect_payload(scen, conf, frame_track(scen.sys, conf))
        verdict = "PASS" if payload["ok"] else "FAIL"
        pm = payload["p_min_margin_1"]
        print(
            f"detectability: {verdict}"
            + (f", p_min={_fmt(pm)}" if pm is not None else ", p_min=unbounded")
        )

    k = rep.history_lambda.shape[1]
    header = (
        ["t"]
        + [f"lambda_{j + 1}" for j in range(k)]
        + [f"rbar_{j + 1}" for j in range(k)]
    )
    rows = [
        [t] + list(lam) + list(rb)
        for t, lam, rb in zip(rep.history_t, rep.history_lambda, rep.history_rbar)
    ]
    _write_csv(os.path.join(outdir, "detect.csv"), header, rows)
    _write_plot(
        os.path.join(outdir, "detect.gp"),
        "detect.csv",
        "running exponents and output visibility",
        [(j + 2, f"lambda_{j + 1}") for j in range(k)]
        + [(k + j + 2, f"rbar_{j + 1}") for j in range(k)],
        "running average",
    )
    _write_json(os.path.join(outdir, "detect.json"), payload)
    return 0


def cmd_check_so(scen, args, outdir):
    step = _run_step_config(scen, args)
    probes = np.linspace(step.t0, step.t0 + step.horizon, 101)
    stack = build_stack(scen.sys, probe_times=probes)
    verdict = strong_observability_test(stack, probe_times=probes)
    payload = {
        "scenario": scen.name,
        "nu": int(stack.nu),
        "q0_rank": int(stack.q0_rank),
        "strongly_observable": bool(verdict.ok),
        "rank_s_min": int(verdict.rank_s.min()),
        "rank_s_max": int(verdict.rank_s.max()),
        "rank_s_star_min": int(verdict.rank_s_star.min()),
        "rank_s_star_max": int(verdict.rank_s_star.max()),
        "mu": None if stack.mu is None else int(stack.mu),
    }
    if verdict.ok:
        rmap = ReconstructionMap(stack, probe_times=probes)
        payload["min_eig_h"] = float(rmap.min_eig_h)
    _write_json(os.path.join(outdir, "check_so.json"), payload)
    print(f"nu={stack.nu}, strongly_observable={str(verdict.ok).lower()}")
    return 0


def _series_csv(path, run, include_xhat):
    n = run.x.shape[1]
    header = ["t"] + [f"x_{i + 1}" for i in range(n)]
    cols = [run.t, *(run.x[:, i] for i in range(n))]
    if include_xhat:
        header += [f"xhat_{i + 1}" for i in range(n)]
        cols += [run.xhat[:, i] for i in range(n)]
    else:
        header += [f"xt_{i + 1}" for i in range(n)]
        cols += [run.xt[:, i] for i in range(n)]
    header += ["e_norm_tso", "e_norm_cascade"]
    cols += [run.e_norm_tso, run.e_norm_cascade]
    _write_csv(path, header, np.column_stack(cols).tolist())
    return header


def cmd_observe(scen, args, outdir):
    run = run_tso(_make_run(scen, args))
    _series_csv(os.path.join(outdir, "observe.csv"), run, include_xhat=False)
    _write_plot(
        os.path.join(outdir, "observe.gp"),
        "observe.csv",
        "observer-only error norm",
        [(2 * run.x.shape[1] + 2, "e_norm_tso")],
        "||x - x~||",
        logy=True,
    )
    _write_json(os.path.join(outdir, "observe.json"), run.summary)
    print(
        f"sup ||e||={_fmt(run.summary['sup_e_norm_tso'])}, "
        f"final ||e||={_fmt(run.summary['final_e_norm_tso'])}"
    )
    return 0


def cmd_reconstruct(scen, args, outdir):
    run = run_cascade(_make_run(scen, args, oracle=bool(args.oracle_derivatives)))
    n = run.x.shape[1]
    _series_csv(os.path.join(outdir, "reconstruct.csv"), run, include_xhat=True)
    _write_plot(
        os.path.join(outdir, "reconstruct.gp"),
        "reconstruct.csv",
        "observer vs corrected estimate",
        [(2 * n + 2, "e_norm_tso"), (2 * n + 3, "e_norm_cascade")],
        "error norm",
        logy=True,
    )
    _write_json(os.path.join(outdir, "reconstruct.json"), run.summary)
    settled = run.summary["settled_time"]
    print(
        "settled_time="
        + ("never" if settled is None else _fmt(settled))
        + f", final ||x - xhat||={_fmt(run.summary['final_e_norm_cascade'])}"
    )
    return 0


def cmd_bibs(scen, args, outdir):
    step = _run_step_config(scen, args)
    if args.closed_loop:
        conf = _observer_config(scen, args, step)
        tri = bibs_mod.triangularize_error_system(scen.sys, conf)
        x0 = scen.x0 - scen.xt0
        subject = "closed-loop error matrix"
    else:
        tri = bibs_mod.triangularize(scen.sys.a, step)
        x0 = scen.x0
        subject = "system matrix"
    cert = bibs_mod.general_bibs_certificate(
        tri,
        epsilon=float(args.epsilon),
        d=scen.sys.d,
        w_bound=scen.sys.w_bound,
        x0=x0,
    )
    header = ["component", "lambda_hat", "epsilon", "tail_mass", "certified", "state_bound"]
    rows = []
    for comp in cert.components:
        rows.append(
            [
                comp.index + 1,
                comp.scalar.lambda_hat,
                cert.epsilon,
                comp.scalar.tail_mass,
                1.0 if comp.certified else 0.0,
                comp.state_bound if math.isfinite(comp.state_bound) else float("inf"),
            ]
        )
    _write_csv(os.path.join(outdir, "bibs.csv"), header, rows)
    payload = {
        "scenario": scen.name,
        "subject": subject,
        "epsilon": cert.epsilon,
        "certified": bool(cert.certified),
        "components": [
            {
                "component": comp.index + 1,
                "lambda_hat": comp.scalar.lambda_hat,
                "tail_mass": comp.scalar.tail_mass,
                "certified": bool(comp.certified),
                "state_bound": (
                    comp.state_bound if math.isfinite(comp.state_bound) else None
                ),
            }
            for comp in cert.components
        ],
    }
    _write_json(os.path.join(outdir, "bibs.json"), payload)
    print(
        f"bibs({subject}): "
        + ("certified" if cert.certified else "not certified")
        + f" on [{_fmt(tri.t[0])}, {_fmt(tri.t[-1])}], epsilon={_fmt(cert.epsilon)}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="ltvobs",
        description=(
            "Tangent-space observer laboratory for time-varying linear "
            "systems with unknown inputs"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_k=False, with_p=False, with_noise=False):
        p.add_argument("--scenario", required=True, help="path or bundled name")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument(
            "--horizon", type=float, default=None, help="override run length [s]"
        )
        if with_k:
            p.add_argument("--k", type=int, default=None, help="frame width override")
        if with_p:
            p.add_argument("--p", type=float, default=None, help="gain override")
        if with_noise:
            p.add_argument(
                "--sigma", type=float, default=None, help="measurement noise level"
            )
            p.add_argument("--seed", type=int, default=None, help="noise seed")

    p_spec = sub.add_parser("spectrum", help="Lyapunov exponent estimates (step i)")
    common(p_spec, with_k=True)
    p_spec.set_defaults(handler=cmd_spectrum)

    p_det = sub.add_parser("detect", help="directional detectability (steps ii-iii)")
    common(p_det, with_k=True, with_p=True)
    p_det.add_argument(
        "--sweep",
        default=None,
        help="comma-separated gain values, analyzed on one frame flow",
    )
    p_det.set_defaults(handler=cmd_detect)

    p_so = sub.add_parser("check-so", help="strong observability (step iv)")
    common(p_so)
    p_so.set_defaults(handler=cmd_check_so)

    p_obs = sub.add_parser("observe", help="observer-only run")
    common(p_obs, with_k=True, with_p=True, with_noise=True)
    p_obs.set_defaults(handler=cmd_observe)

    p_rec = sub.add_parser("reconstruct", help="full cascade (steps v-vi)")
    common(p_rec, with_k=True, with_p=True, with_noise=True)
    p_rec.add_argument(
        "--oracle-derivatives",
        action="store_true",
        help="replace the differentiator bank with exact derivatives",
    )
    p_rec.set_defaults(handler=cmd_reconstruct)

    p_bibs = sub.add_parser("bibs", help="boundedness certificates")
    common(p_bibs, with_k=True, with_p=True)
    p_bibs.add_argument("--epsilon", type=float, default=0.1, help="margin")
    p_bibs.add_argument(
        "--closed-loop",
        action="store_true",
        help="certify the observer error matrix instead of the system matrix",
    )
    p_bibs.set_defaults(handler=cmd_bibs)
    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        scen = _resolve_scenario(args.scenario)
        os.makedirs(args.out, exist_ok=True)
        return args.handler(scen, args, args.out)
    except (ScenarioError, ExprError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StepPreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
