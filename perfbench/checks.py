"""Output checks, computed apart from ltvobs.

Scenario strings are evaluated here with Python's own ``ast`` on numpy
arrays, never with ``ltvobs.expr``; the plant reference is an RK4
integration written here.  Each ``check_*`` function takes parsed
outputs and returns a list of failure messages (empty when the output
passes), so ``selftest.py`` can feed it corrupted outputs.
"""

import ast
import csv

import numpy as np

_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub, ast.Mult,
          ast.Div, ast.USub, ast.UAdd, ast.Constant, ast.Name, ast.Call, ast.Load)
_NAMES = {"t", "pi", "sin", "cos", "exp", "sqrt"}
_ENV = {"pi": np.pi, "sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}


def entry_fn(text):
    """Vectorized ``t -> value`` for one scenario expression string."""
    tree = ast.parse(text, mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _NODES) or (
            isinstance(node, ast.Name) and node.id not in _NAMES
        ):
            raise ValueError(f"unsupported expression {text!r}")
    code = compile(tree, "<scenario>", "eval")
    return lambda t: eval(code, {"__builtins__": {}}, dict(_ENV, t=t))  # noqa: S307


def matrix_at(grid, t):
    """Evaluate a grid of expression strings at times ``t``: (len(t), r, c)."""
    t = np.asarray(t, dtype=float)
    out = np.empty((t.size, len(grid), len(grid[0])))
    for i, row in enumerate(grid):
        for j, text in enumerate(row):
            out[:, i, j] = np.broadcast_to(entry_fn(text)(t), t.shape)
    return out


def plant_reference(doc, horizon):
    """RK4 of dx/dt = A x + F (u - K x) + D w on the scenario's grid.

    Returns (t, x) with x of shape (steps + 1, n).
    """
    h = float(doc["step"]["h"])
    t0 = float(doc["step"].get("t0", 0.0))
    steps = int(round(horizon / h))
    t = t0 + h * np.arange(steps + 1)
    ts = t[:-1]
    fb = np.asarray([[float(v) for v in row] for row in doc["feedback"]])

    def stage(times):
        a = matrix_at(doc["a"], times)
        f = matrix_at(doc["f"], times)
        d = matrix_at(doc["d"], times)
        u = matrix_at([[s] for s in doc["u"]], times)[:, :, 0]
        w = matrix_at([[s] for s in doc["w"]], times)[:, :, 0]
        m = a - f @ fb
        g = np.einsum("sij,sj->si", f, u) + np.einsum("sij,sj->si", d, w)
        return m, g

    m1, g1 = stage(ts)
    m2, g2 = stage(ts + 0.5 * h)
    m4, g4 = stage(ts + h)
    x = np.asarray(doc["x0"], dtype=float)
    out = np.empty((steps + 1, x.size))
    out[0] = x
    for i in range(steps):
        k1 = m1[i] @ x + g1[i]
        k2 = m2[i] @ (x + 0.5 * h * k1) + g2[i]
        k3 = m2[i] @ (x + 0.5 * h * k2) + g2[i]
        k4 = m4[i] @ (x + h * k3) + g4[i]
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = x
    return t, out


def mean_trace(doc, horizon):
    """Time average of tr A(t) over [t0, t0 + horizon], trapezoid on a fine grid."""
    t0 = float(doc["step"].get("t0", 0.0))
    t = np.linspace(t0, t0 + horizon, 20001)
    diag = [[doc["a"][i][i]] for i in range(len(doc["a"]))]
    tr = matrix_at(diag, t)[:, :, 0].sum(axis=1)
    return float(np.trapezoid(tr, t) / horizon)


def read_series(path):
    """(t, x, xhat) columns of reconstruct.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], np.asarray(rows[1:], dtype=float)
    x_cols = [i for i, name in enumerate(header) if name.startswith("x_")]
    xhat_cols = [i for i, name in enumerate(header) if name.startswith("xhat_")]
    return data[:, 0], data[:, x_cols], data[:, xhat_cols]


# bench8-reconstruct: plant to round-off, settling, per-state sup error
PLANT_RTOL = 1e-9
SUP_ERR_LIMITS = (1e-4,) * 4 + (5e-3,) * 4


def check_reconstruct(t, x, xhat, summary, ref_t, ref_x):
    """Returns (failures, recon_sup_err, t_f)."""
    fails = []
    if t.shape != ref_t.shape or np.max(np.abs(t - ref_t)) > 1e-9:
        return [f"time grid differs from the reference ({t.shape} vs {ref_t.shape})"], None, None
    scale = max(1.0, float(np.max(np.abs(ref_x))))
    plant_err = float(np.max(np.abs(x - ref_x))) / scale
    if not plant_err <= PLANT_RTOL:
        fails.append(f"plant trajectory off the reference RK4 by {plant_err:.3e} relative")
    t_f = summary.get("t_f")
    if t_f is None or not t_f < t[-1]:
        return fails + [f"differentiator bank did not settle inside the horizon (t_f={t_f})"], None, t_f
    tail = t >= t_f - 1e-12
    sup = np.max(np.abs(ref_x - xhat)[tail], axis=0)
    for i, (err, limit) in enumerate(zip(sup, SUP_ERR_LIMITS)):
        if not err <= limit:
            fails.append(f"sup |x{i + 1} - xhat{i + 1}| after t_f = {err:.3e} > {limit:g}")
    return fails, float(np.max(sup)), float(t_f)


# bench8-design
def check_design(spectrum, sweep, check_so, bibs_open, bibs_closed, mean_tr, p):
    """Cross-checks of the design-step outputs against method properties.

    Returns ``(op, message)`` pairs naming the operation whose output is
    wrong: spectrum, detect, check-so, bibs or bibs-closed.
    """
    fails = []
    ex = spectrum["exponents"]
    if len(ex) != 3 or sum(v >= -1e-3 for v in ex) != 2 or sum(v < -0.1 for v in ex) != 1:
        fails.append(("spectrum", f"exponents {ex}: want two >= -1e-3 and one < -0.1"))
    if not spectrum["max_orth_defect"] <= 1e-10:
        fails.append(("spectrum", f"orthogonality defect {spectrum['max_orth_defect']:.3e} > 1e-10"))

    # nested frames: the k = 2 flow is the first two columns of the k = 3 one
    entries = sweep["sweep"]
    first = entries[0]["directions"]
    lam = [d["lambda_hat"] for d in first]
    rbar = [d["r_bar"] for d in first]
    by_dir = spectrum["exponents_by_direction"][: len(lam)]
    if len(lam) != 2 or any(abs(a - b) > 1e-9 for a, b in zip(lam, by_dir)):
        fails.append(("detect", f"k=2 lambda {lam} differs from the spectrum's first two {by_dir}"))
    # p enters only mu_hat, so every gain sees the same flow
    for entry in entries:
        dirs, gain = entry["directions"], entry["p"]
        if [d["lambda_hat"] for d in dirs] != lam or [d["r_bar"] for d in dirs] != rbar:
            fails.append(("detect", f"lambda_hat or r_bar changes with the gain (p={gain})"))
        for d in dirs:
            want = d["lambda_hat"] - gain * d["r_bar"]
            if abs(d["mu_hat"] - want) > 1e-12 * (abs(d["lambda_hat"]) + gain * d["r_bar"]):
                fails.append(("detect", f"mu_hat {d['mu_hat']} != lambda - p rbar = {want} (p={gain})"))

    if check_so.get("nu") != 2 or check_so.get("strongly_observable") is not True:
        fails.append(("check-so", f"nu={check_so.get('nu')}, "
                                  f"strongly_observable={check_so.get('strongly_observable')}"))
    if not check_so.get("min_eig_h", 0.0) > 0.0:
        fails.append(("check-so", f"min_eig_h={check_so.get('min_eig_h')} is not positive"))

    # the triangular diagonal's trace is tr(Q^T M Q) = tr M for orthogonal Q,
    # and tr(L C) = p sum diag(Rt) for the closed-loop matrix M = A - L C
    open_sum = sum(c["lambda_hat"] for c in bibs_open["components"])
    if abs(open_sum - mean_tr) > 1e-8:
        fails.append(("bibs", f"exponents sum to {open_sum}, mean tr A is {mean_tr}"))
    at_p = [e for e in entries if e["p"] == p]
    if not at_p:
        fails.append(("detect", f"the sweep has no entry at the scenario gain p={p}"))
    else:
        want = mean_tr - p * sum(d["r_bar"] for d in at_p[0]["directions"])
        closed_sum = sum(c["lambda_hat"] for c in bibs_closed["components"])
        if abs(closed_sum - want) > 1e-8:
            fails.append(("bibs-closed", f"exponents sum to {closed_sum}, "
                                         f"mean tr A - p sum rbar is {want}"))
    return fails


# const-spectra
def check_const(exponents, a):
    """Exponents of constant upper-triangular A equal its sorted diagonal."""
    want = np.sort(np.diag(np.asarray(a, dtype=float)))[::-1]
    got = np.asarray(exponents, dtype=float)
    if got.shape != want.shape:
        return [f"{got.size} exponents for n={want.size}"]
    err = float(np.max(np.abs(got - want)))
    return [] if err <= 1e-4 else [f"exponents off sorted diag(A) by {err:.3e}"]
