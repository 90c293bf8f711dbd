"""One benchmark run in a fresh process, started by ``run.py``.

The parent has already pinned the BLAS thread pools and switched the
hardware profile off in this process's environment. The first thing timed
is ``import repro``, so ``setup_s`` includes what a fresh user's
interpreter pays; then the workload prepares its inputs, sets up (timed),
and measures. With ``--setup-only`` the process stops after set-up: the
parent starts several such processes and reports the median. The result is
printed as one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time


def _json_default(value):
    if hasattr(value, "tolist"):  # numpy scalars and arrays
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro

    import_s = time.perf_counter() - start
    expected = os.path.realpath(os.path.join(args.src, "repro"))
    if os.path.dirname(os.path.realpath(repro.__file__)) != expected:
        print(f"imported repro from {repro.__file__}, not {expected}", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    import workloads
    from repro.tuning import use_profile

    os.makedirs(args.work_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.work_dir)
    try:
        with use_profile(None):
            workload.prepare()
            tick = time.perf_counter()
            workload.setup()
            result = {"setup_s": import_s + time.perf_counter() - tick, "import_s": import_s}
            if not args.setup_only:
                result.update(_measure(args, workload))
    finally:
        workload.close()
        shutil.rmtree(args.work_dir, ignore_errors=True)
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(result, default=_json_default))
    return 0


def _measure(args, workload) -> dict:
    # Not at module level: nothing may load before ``import repro`` is timed.
    import numpy as np

    import spans

    # A traced run splits its seconds: an untraced half, the baseline of
    # trace.overhead, then the traced half.
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = workload.run(seconds, None)
    ops = plain["op_ms"]
    p50 = np.percentile(ops, 50)
    # Tail percentiles only where at least ten samples lie beyond them.
    tails = {f"p{q}_ms": np.percentile(ops, q) for q in (90, 99) if len(ops) * (100 - q) >= 1000}
    out = {
        "p50_ms": p50,
        "peak_rss_mb": plain["rss_mb"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "diagnostics": {"n_ops": len(ops), **tails, **plain["diagnostics"]},
    }
    if args.trace:
        tracer = spans.Tracer(args.workload)
        tracer.install()
        try:
            traced = workload.run(seconds, tracer)
        finally:
            tracer.uninstall()
        layers = traced["layers"]
        layers["trace.overhead"] = np.percentile(traced["op_ms"], 50) / p50 - 1.0
        out["attempted"] += traced["attempted"]
        out["failed"] += traced["failed"]
        out["layers"] = layers
        out["absent"] = tracer.absent
        for key in ("breakdown", "breakdown_last_pass"):
            if key in traced:
                out[key] = traced[key]
        if args.spans:
            tracer.write_jsonl(args.spans)
            out["spans_file"] = args.spans
            out["n_spans"] = len(tracer.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
