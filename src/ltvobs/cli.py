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
from dataclasses import dataclass, replace
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
from .strong_obs import ReconstructionMap, horizon_so_check
from .system import LtvSystem

__all__ = ["Scenario", "load_scenario", "main"]


def _fmt(x):
    """17 significant digits, enough to round-trip a double."""
    return format(float(x), ".17g")


# rows formatted per block: the Python floats of one block at a time
CSV_BLOCK_ROWS = 4096


def _write_csv(path, header, rows):
    """Header through ``csv.writer``, then every row as ``%.17g`` fields.

    ``rows`` is a 2-D array of numbers, or anything ``np.asarray`` turns
    into one.  ``"%.17g" % v`` spells a value as ``format(float(v),
    ".17g")`` does and never needs quoting, so one row format per row gives
    the bytes ``csv.writer`` would write, ``\r\n`` line ends included.
    The rows become Python floats :data:`CSV_BLOCK_ROWS` at a time, never
    all at once.
    """
    rows = np.asarray(rows, dtype=float)
    row_fmt = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, rows.shape[0], CSV_BLOCK_ROWS):
            block = rows[lo : lo + CSV_BLOCK_ROWS].tolist()
            fh.writelines(row_fmt % tuple(row) for row in block)


def _non_finite(value, where=""):
    """``(key path, number)`` of the first non-finite number in ``value``, or None."""
    if isinstance(value, dict):
        items = ((f"{where}.{k}" if where else str(k), v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(value))
    elif isinstance(value, float) and not math.isfinite(value):
        return where, value
    else:
        return None
    return next(filter(None, (_non_finite(v, key) for key, v in items)), None)


def _write_json(path, payload):
    """``payload`` as indented JSON, which has no NaN or Infinity.

    A summary value that is not finite is a numerical failure: it raises
    NumericalError naming its key, before the file is opened.
    """
    bad = _non_finite(payload)
    if bad is not None:
        key, value = bad
        raise NumericalError(
            f"{os.path.basename(path)}: {key} is {value}, not a finite number"
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_outputs(outdir, stem, payload, header, rows, plot=None):
    """A command's files: ``<stem>.json``, ``<stem>.csv``, then any ``<stem>.gp``.

    The summary comes first, so one that :func:`_write_json` refuses leaves
    no series behind.  ``plot`` is ``(title, ycols, ylabel, logy)`` for a
    small gnuplot script of the CSV columns ``ycols``, ``(index, name)``
    pairs.
    """
    _write_json(os.path.join(outdir, f"{stem}.json"), payload)
    _write_csv(os.path.join(outdir, f"{stem}.csv"), header, rows)
    if plot is None:
        return
    title, ycols, ylabel, logy = plot
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
        f"'{stem}.csv' using 1:{idx} with lines title '{name}'"
        for idx, name in ycols
    ]
    lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    with open(os.path.join(outdir, f"{stem}.gp"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# scenario loading


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario file: its name and the run spec it describes."""

    name: str
    run: CascadeRun


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
    return _compile(MatrixExpr(tuple(parsed)), name)


def _parse_vector_exprs(raw, name, length):
    """A list of expression strings as a column, parsed and compiled."""
    if raw is None:
        return None
    if not isinstance(raw, list) or len(raw) != length:
        got = len(raw) if isinstance(raw, list) else "?"
        raise ScenarioError(f"{name} must have {length} entries, got {got}")
    column = []
    for i, entry in enumerate(raw):
        try:
            column.append([parse(entry)])
        except ExprError as e:
            raise ScenarioError(f"{name}[{i + 1}]: {e}") from e
    return _compile(MatrixExpr(column), name, column=True)


def _compile(matrix, name, column=False):
    """``matrix`` bound, so that its closure is cached for every later call.

    Every command evaluates the scenario's matrices, so a compile error is
    raised here, as a ScenarioError naming the entry as the file does
    (``name[i][j]``, or ``name[i]`` for a column), and not later for an
    entry of a matrix derived from it.
    """
    try:
        matrix.bind()
    except ExprError as e:
        i, j = e.entry
        where = f"{name}[{i + 1}]" if column else f"{name}[{i + 1}][{j + 1}]"
        raise ScenarioError(f"{where}: expression is nested too deeply to compile") from e
    return matrix


def _require(doc, key, kind, where="scenario"):
    if key not in doc:
        raise ScenarioError(f"{where} is missing required key '{key}'")
    val = doc[key]
    # bool is an int to Python, but JSON true is no integer
    if kind is not None and (isinstance(val, bool) or not isinstance(val, kind)):
        raise ScenarioError(f"{where} key '{key}' has the wrong type")
    return val


def _section(doc, key):
    """The optional object ``key`` of the scenario; {} when absent or null."""
    sec = doc.get(key)
    if sec is not None and not isinstance(sec, dict):
        raise ScenarioError(f"scenario key '{key}' must be an object")
    return sec or {}


def _number(raw, name):
    """A JSON number as a float; anything else is a ScenarioError naming ``name``."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(f"{name}: {json.dumps(raw)} is not a number")
    return float(raw)


def _numbers(raw, name):
    """A JSON number as a float, or nested lists of them as a float array."""
    if not isinstance(raw, list):
        return _number(raw, name)
    items = [_numbers(v, name) for v in raw]
    try:
        return np.array(items, dtype=float)
    except ValueError as e:
        raise ScenarioError(f"{name} has rows of unequal length") from e


def _number_list(raw, name):
    """A JSON list of numbers as a tuple of floats."""
    if not isinstance(raw, list):
        raise ScenarioError(f"{name} must be a list of numbers")
    return tuple(_number(v, f"{name}[{i + 1}]") for i, v in enumerate(raw))


def _given(sec, where, **fields):
    """Spec keywords for the optional keys that the section ``sec`` gives.

    ``fields`` maps a keyword to its ``(key, convert)``; each present key
    becomes ``convert(value, "<where><key>")``.  An absent key is left out,
    so the spec type's default applies.
    """
    return {
        field: convert(sec[key], f"{where}{key}")
        for field, (key, convert) in fields.items()
        if key in sec
    }


def _float_vector(raw, name, length):
    arr = _numbers(raw, name)
    if np.shape(arr) != (length,):
        raise ScenarioError(f"{name} must have {length} entries, got {np.shape(arr)}")
    return arr


def _spec(section, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError a ScenarioError naming ``section``."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise ScenarioError(f"{section}: {e}") from e


def load_scenario(path) -> Scenario:
    """Load a scenario JSON file as one run spec.

    This checks the schema; the spec types check the values, and their
    errors are reported with the file's section.
    """
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
    n, q, m, r = (_require(dims, key, int, "dimensions") for key in "nqmr")
    if min(n, q, m, r) < 1:
        raise ScenarioError("dimensions must be positive")

    system = LtvSystem(
        a=_parse_grid(_require(doc, "a", list), "A", n, n),
        f=_parse_grid(_require(doc, "f", list), "F", n, q),
        d=_parse_grid(_require(doc, "d", list), "D", n, m),
        c=_parse_grid(_require(doc, "c", list), "C", r, n),
        **_given(doc, "", w_bound=("w_bound", _number)),
    )

    feedback = None
    if doc.get("feedback") is not None:
        fb_expr = _parse_grid(doc["feedback"], "feedback", q, n)
        if not fb_expr.is_constant:
            raise ScenarioError("feedback must be a constant matrix")
        feedback = np.array([[e.value for e in row] for row in fb_expr.entries])

    stp = _require(doc, "step", dict)
    step = _spec(
        "step",
        StepConfig,
        h=_number(_require(stp, "h", None, "step"), "step.h"),
        t_end=_number(_require(stp, "t_end", None, "step"), "step.t_end"),
        **_given(stp, "step.", t0=("t0", _number)),
    )

    obs = _require(doc, "observer", dict)
    q0 = obs.get("q0")
    observer = _spec(
        "observer",
        ObserverConfig,
        p=_number(_require(obs, "p", None, "observer"), "observer.p"),
        k=_require(obs, "k", int, "observer"),
        step=step,
        q0=None if q0 is None else _numbers(q0, "observer.q0"),
    )
    # the spec is built one section at a time, so that an error names its
    # section or key: the observer from a zero state, then the states and
    # the feedback; the differentiator and noise settings start at the
    # defaults of CascadeRun, and only the keys a file gives replace them
    run = _spec(
        "observer",
        CascadeRun,
        sys=system,
        observer=observer,
        x0=np.zeros(n),
        xt0=np.zeros(n),
        w=_parse_vector_exprs(doc.get("w"), "w", m),
        u=_parse_vector_exprs(doc.get("u"), "u", q),
    )
    for key in ("x0", "xt0"):
        state = _float_vector(_require(doc, key, None), key, n)
        run = _spec(key, replace, run, **{key: state})
    run = _spec("feedback", replace, run, feedback=feedback)

    diff = _section(doc, "differentiator")
    if "lipschitz" in diff:
        # the key once bounded |d2 e_y/dt2|; reading it as the order-2
        # bank's bound would silently mix up derivatives
        raise ScenarioError(
            "differentiator.lipschitz is no longer read: the differentiator "
            "bank runs at order 2, so give a bound on |d3 e_y/dt3| as "
            "differentiator.lipschitz3"
        )
    lip = diff.get("lipschitz3")
    run = _spec(
        "differentiator",
        replace,
        run,
        lipschitz=None if lip is None else _numbers(lip, "differentiator.lipschitz3"),
        **_given(
            diff,
            "differentiator.",
            gains=("gains", _number_list),
            threshold=("settled_threshold", _number),
            dwell=("dwell", _number),
        ),
    )
    run = _spec(
        "noise",
        replace,
        run,
        **_given(
            _section(doc, "noise"),
            "noise.",
            sigma=("sigma", _number),
            noise_seed=("seed", lambda raw, name: raw),
        ),
    )
    return Scenario(name=str(doc.get("name", os.path.basename(str(path)))), run=run)


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


# the command-line flags that override a setting of the scenario file
_OVERRIDES = ("horizon", "k", "p", "sigma", "seed")


def _run_spec(scen, args, reads_q0=True):
    """``scen.run`` with the command-line overrides applied.

    Without ``reads_q0`` (a flow from the default frame) the file's q0 is
    dropped, so ``--k`` may pick any width.  A setting the overrides make
    invalid is a ScenarioError naming the flags given.
    """
    given = {flag: value for flag, value in vars(args).items() if value is not None}
    run, conf = scen.run, scen.run.observer
    try:
        step = conf.step
        if "horizon" in given:
            step = replace(step, t_end=step.t0 + given["horizon"])
        observer = replace(
            conf,
            step=step,
            k=given.get("k", conf.k),
            p=given.get("p", conf.p),
            q0=conf.q0 if reads_q0 else None,
        )
        return replace(
            run,
            observer=observer,
            sigma=given.get("sigma", run.sigma),
            noise_seed=given.get("seed", run.noise_seed),
            oracle_derivatives=given.get("oracle_derivatives", False),
        )
    except ValueError as e:
        flags = [f"--{key} {given[key]}" for key in _OVERRIDES if key in given]
        raise ScenarioError(f"with {' '.join(flags)}: {e}") from e


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(scen, args, outdir):
    run = _run_spec(scen, args, reads_q0=False)
    k, step = run.observer.k, run.observer.step
    est = estimate_spectrum(run.sys.a, k, step)
    reg = regularity_report(est.history_t, est.history_b)

    payload = {
        "scenario": scen.name,
        "k": k,
        "horizon": step.horizon,
        "exponents": [float(v) for v in est.exponents],
        "exponents_by_direction": [float(v) for v in est.exponents_by_direction],
        "nonstable_dimension": int(nonstable_dimension(est)),
        "max_orth_defect": float(est.max_orth_defect),
        "log_r_gap": float(
            np.max(np.abs(est.exponents_log_r - est.exponents_by_direction))
        ),
        "forward_regular": bool(reg.forward_regular),
        "strong_regular": bool(reg.strong_regular),
    }
    header = ["t"] + [f"lambda_{j + 1}" for j in range(k)]
    rows = np.column_stack([est.history_t, est.history_lambda])
    title = f"running Lyapunov exponent estimates (k={k})"
    ycols = [(j + 2, f"lambda_{j + 1}") for j in range(k)]
    plot = (title, ycols, "running average", False)
    _write_outputs(outdir, "spectrum", payload, header, rows, plot)
    print(
        "exponents:",
        " ".join(_fmt(v) for v in est.exponents),
        f"| nonstable_dimension={payload['nonstable_dimension']}",
    )
    return 0


def _detect_payload(scen, conf, track):
    rep = detectability_report(conf, track)
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
    conf = _run_spec(scen, args).observer
    if args.sweep is not None:
        try:
            p_values = [float(v) for v in args.sweep.split(",") if v.strip()]
        except ValueError as e:
            raise ScenarioError(f"--sweep expects comma-separated numbers: {e}")
        if not p_values:
            raise ScenarioError("--sweep needs at least one gain value")
        # every gain is checked before the flow; the gain enters only
        # mu_hat = lambda - p rbar, so one flow serves all
        try:
            confs = [replace(conf, p=p) for p in p_values]
        except ValueError as e:
            raise ScenarioError(f"with --sweep {args.sweep}: {e}") from e
        track = frame_track(scen.run.sys, conf)
        results = [_detect_payload(scen, c, track) for c in confs]
        _write_json(
            os.path.join(outdir, "detect_sweep.json"),
            {"scenario": scen.name, "sweep": [pl for _, pl in results]},
        )
        for p, (_, pl) in zip(p_values, results):
            worst = max(d["mu_hat"] for d in pl["directions"])
            print(f"p={_fmt(p)}: ok={str(pl['ok']).lower()} worst_mu_hat={_fmt(worst)}")
        rep, payload = results[0]
    else:
        rep, payload = _detect_payload(scen, conf, frame_track(scen.run.sys, conf))
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
    rows = np.column_stack([rep.history_t, rep.history_lambda, rep.history_rbar])
    ycols = [(j + 2, name) for j, name in enumerate(header[1:])]
    plot = ("running exponents and output visibility", ycols, "running average", False)
    _write_outputs(outdir, "detect", payload, header, rows, plot)
    return 0


def cmd_check_so(scen, args, outdir):
    stack, verdict = horizon_so_check(scen.run.sys, _run_spec(scen, args).observer.step)
    payload = {
        "scenario": scen.name,
        "nu": int(stack.nu),
        "q0_rank": int(stack.q0_rank),
        "strongly_observable": bool(verdict.ok),
        "rank_s_min": int(verdict.rank_s.min()),
        "rank_s_max": int(verdict.rank_s.max()),
        "rank_s_star_min": int(verdict.rank_s_star.min()),
        "rank_s_star_max": int(verdict.rank_s_star.max()),
    }
    if verdict.ok:
        rmap = ReconstructionMap(stack)
        payload["min_eig_h"] = float(rmap.min_eig_h)
    _write_json(os.path.join(outdir, "check_so.json"), payload)
    print(f"nu={stack.nu}, strongly_observable={str(verdict.ok).lower()}")
    return 0


def _series(run, include_xhat):
    """Header and rows of a run's CSV: t, x, xhat or x~, both error norms."""
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
    return header, np.column_stack(cols)


def cmd_observe(scen, args, outdir):
    run = run_tso(_run_spec(scen, args))
    header, rows = _series(run, include_xhat=False)
    plot = ("observer-only error norm", [(len(header) - 1, "e_norm_tso")], "||x - x~||", True)
    _write_outputs(outdir, "observe", run.summary, header, rows, plot)
    print(
        f"sup ||e||={_fmt(run.summary['sup_e_norm_tso'])}, "
        f"final ||e||={_fmt(run.summary['final_e_norm_tso'])}"
    )
    return 0


def cmd_reconstruct(scen, args, outdir):
    spec = _run_spec(scen, args)
    # only the bank reads the bound, so a file may leave it out for every
    # other command; a bank run refuses that here, naming the key
    if not spec.oracle_derivatives:
        _spec("differentiator.lipschitz3", spec.bank_bounds)
    run = run_cascade(spec)
    header, rows = _series(run, include_xhat=True)
    ycols = [(len(header) - 1, "e_norm_tso"), (len(header), "e_norm_cascade")]
    plot = ("observer vs corrected estimate", ycols, "error norm", True)
    _write_outputs(outdir, "reconstruct", run.summary, header, rows, plot)
    settled = run.summary["settled_time"]
    print(
        "settled_time="
        + ("never" if settled is None else _fmt(settled))
        + f", final ||x - xhat||={_fmt(run.summary['final_e_norm_cascade'])}"
    )
    return 0


def cmd_bibs(scen, args, outdir):
    epsilon = bibs_mod.check_epsilon(float(args.epsilon))
    # the open loop starts from the identity frame and never reads q0
    run = _run_spec(scen, args, reads_q0=args.closed_loop)
    if args.closed_loop:
        tri = bibs_mod.triangularize_error_system(run.sys, run.observer)
        x0 = run.x0 - run.xt0
        subject = "closed-loop error matrix"
    else:
        tri = bibs_mod.triangularize(run.sys.a, run.observer.step)
        x0 = run.x0
        subject = "system matrix"
    cert = bibs_mod.general_bibs_certificate(
        tri, epsilon=epsilon, d=run.sys.d, w_bound=run.sys.w_bound, x0=x0
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
    _write_outputs(outdir, "bibs", payload, header, rows)
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
    # LinAlgError is a ValueError, so the numerical clause comes first
    except (NumericalError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (ScenarioError, ExprError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StepPreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
