"""One round of a workload in a fresh process; started by run.py.

    python3 perfbench/worker.py SPEC.json

The spec names the checkout root, the operations and where to write the
result.  The worker imports ltvobs from ``<root>/src``, loads the
workload's inputs (the set-up that ``setup_s`` times), optionally
installs the span tracer, runs the operations and writes one JSON
result: per-operation status and wall time, process CPU time and peak
RSS over the operations, and, when traced, per-span totals.
"""

import json
import os
import resource
import sys
import time


def _setup(spec):
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import numpy as np

    from ltvobs import cli

    if spec["workload"] == "const-spectra":
        systems = [np.asarray(a, dtype=float) for a in spec["systems"]]
        return [(lambda t, a=a: a) for a in systems]
    return cli.load_scenario(spec["scenario"])


def _run_op(op, inputs, outputs):
    """Run one operation; returns (status, detail)."""
    from ltvobs import cli, lyapunov
    from ltvobs.integrators import StepConfig

    if op["kind"] == "cli":
        code = cli.main(op["argv"] + ["--out", op["out"]])
        return ("ok", None) if code == 0 else ("exit", code)
    fn = inputs[op["system"]]
    est = lyapunov.estimate_spectrum(
        fn, k=op["k"], cfg=StepConfig(h=op["h"], t0=0.0, t_end=op["t_end"])
    )
    outputs[op["name"]] = [float(v) for v in est.exponents]
    return "ok", None


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    inputs = _setup(spec)
    result = {"ready": time.perf_counter()}
    if spec.get("setup_only"):
        _write(spec["result"], result)
        return 0

    tracer = None
    if spec["trace"]:
        import tracer as tracing  # this file's directory is sys.path[0]

        tracer = tracing.Tracer()
        tracing.install(tracer)

    outputs, ops = {}, []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for index, op in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.run = index + 1
        t0 = time.perf_counter()
        try:
            status, detail = _run_op(op, inputs, outputs)
        except Exception as exc:  # an operation that raises counts as failed
            status, detail = "raised", f"{type(exc).__name__}: {exc}"
        ops.append({"name": op["name"], "status": status, "detail": detail,
                    "wall_s": time.perf_counter() - t0})
    result["wall_s"] = time.perf_counter() - start
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ops"] = ops
    result["outputs"] = outputs
    if tracer is not None:
        result["spans"] = tracing.span_totals(tracer)
        result["counts"] = dict(tracer.counts)
        result["n_spans"] = len(tracer.rows) // tracing.FIELDS
        tracer.write_jsonl(spec["trace_path"])
    _write(spec["result"], result)
    return 0


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
