"""Run the repository benchmark: four workloads, end-to-end and per layer.

Usage, from the repository root::

    python benchmarks/suite/run.py [--workload W ...] [--seed N] [--repeat N]
                                   [--trace [0|1]] [--smoke] [--out F]

Every run measures for ``run_seconds`` from ``BENCHMARK.json`` (1 s with
``--smoke``), so a parent and a change are always measured at the same
length. ``--seconds S`` is accepted for harnesses that pass the length on
the command line, and refused unless it equals ``run_seconds``.

Each run of a workload happens in fresh child processes (``child.py``) with
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` pinned
to 1, glibc's mmap and trim thresholds pinned (README.md says why) and the
hardware profile off, so every run sees the static policy a fresh user
gets and its set-up time and memory start clean. Several
set-up-only children measure ``setup_s``, each followed by a run of the
speed probe (``probe.py``); the median of their times at the reference
machine speed is reported. The program under test is imported from ``src/`` next to this directory; there
is nothing to build.

The end-to-end metrics and per-layer metrics, with their units, are the
ones listed in ``BENCHMARK.json``. Every metric is printed by name with its
unit; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 1``
the metrics are the per-layer ones of a separate traced pass, and the spans
are written as JSON lines next to ``--out``, else under
``benchmarks/suite/out/``. The exit code is
0 when every correctness check passed, 1 when one failed, 2 when the
program cannot be found, and 3 when a child failed or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import probe

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
OUT = SUITE / "out"
WORKLOADS = ("fit_sbd", "query_cdtw", "serve_sbd", "swap_sbd")
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # Serve blocks under 32 MiB from the heap and keep freed memory, so the
    # fit's multi-megabyte temporaries stop costing fresh page faults.
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(128 << 20),
}
#: Set-up-only children per run; ``setup_s`` is the median of their samples.
SETUP_CHILDREN = 5
#: Wall-clock limit of one run of one workload, children included; a run
#: that needs longer fails.
RUN_BUDGET_S = 30.0


class RunError(RuntimeError):
    pass


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` directly (None outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED)
    env["REPRO_HARDWARE_PROFILE"] = "off"
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(args: List[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("run budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(SUITE / "child.py"), *args],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=str(ROOT),
            timeout=remaining,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RunError(f"child timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_one(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict,
    tag: str, spans_dir: Path,
) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    base = [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--src", str(ROOT / "src"), "--work-dir", str(OUT / f"work-{tag}"),
    ] + (["--smoke"] if smoke else [])
    # Each set-up child is followed by a run of the speed probe, so that
    # set-up time too is reported at the reference machine speed.
    setup, setup_probe = [], []
    with probe.SpeedProbe(child_env()) as speed:
        for _ in range(1 if smoke else SETUP_CHILDREN):
            setup.append(spawn(base + ["--setup-only"], deadline)["setup_s"])
            setup_probe.append(speed.time_ns())
    main = spawn(
        base + ["--trace", str(int(trace)), "--spans", str(spans_dir / f"spans-{tag}.jsonl")],
        deadline,
    )
    values = {
        "setup_s": float(statistics.median(probe.at_reference_speed(setup, setup_probe))),
        "p50_ms": main["p50_ms"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    if trace:
        source, names = main["layers"], spec["per_layer"]
    else:
        source, names = values, spec["end_to_end"]
    metrics = {}
    for metric in names:
        value = source.get(metric["name"])
        if value is None:
            if not trace:
                raise RunError(f"{workload} reported no {metric['name']}")
            value = 0.0  # the layer is not on this workload's path
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
        "end_to_end": values,
        "setup_samples": setup,
        "setup_probe_ms": [ns / 1e6 for ns in setup_probe],
        "diagnostics": main["diagnostics"],
        "breakdown": main.get("breakdown"),
        "breakdown_last_pass": main.get("breakdown_last_pass"),
        "absent": main.get("absent", []),
        "spans_file": main.get("spans_file"),
        "env": {
            "cpu_count": cpu_count(),
            **main["versions"],
            "pinned_env": PINNED,
            "git_commit": git_commit(ROOT),
            "hardware_profile": "static, pinned",
            "seed": seed,
        },
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']}")
    print(f"   env: {json.dumps(record['env'], sort_keys=True)}")
    for name, value in record["end_to_end"].items():
        print(f"   {name} = {_fmt(value)} {units[name]}")
    print(f"   setup samples (s): {[round(v, 4) for v in record['setup_samples']]}, "
          f"probe (ms): {[round(v, 2) for v in record['setup_probe_ms']]}")
    for name, value in record["diagnostics"].items():
        if name != "ladder":
            print(f"   [diagnostic] {name} = {_fmt(value)}")
    for row in record["diagnostics"].get("ladder", []):
        print("   [ladder] " + " ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
    if record["trace"]:
        for name, metric in record["metrics"].items():
            print(f"   {name} = {_fmt(metric['value'])} {metric['unit']}")
        for key in ("breakdown", "breakdown_last_pass"):
            for name, value in sorted((record[key] or {}).items()):
                print(f"   [{key}] {name} = {_fmt(value)}")
        for path in record["absent"]:
            print(f"   [absent] {path}")
        print(f"   spans: {record['spans_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    # Terminated from outside, unwind so subprocess.run kills and reaps the
    # running child instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no program to benchmark under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(f"the run length is fixed: --seconds must be {spec['run_seconds']}")
    seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    OUT.mkdir(exist_ok=True)
    spans_dir = Path(args.out).resolve().parent if args.out else OUT
    records = []
    try:
        for rep in range(args.repeat):
            for workload in args.workload:
                tag = f"{workload}-s{args.seed}-{os.getpid()}-{rep}"
                record = run_one(
                    workload, args.seed, seconds, bool(args.trace), args.smoke, spec, tag,
                    spans_dir,
                )
                report(record, spec)
                records.append(record)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": records}, indent=1) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {}
        for name in records[0]["metrics"]:
            for workload in args.workload:
                mine = [r["metrics"][name] for r in records if r["workload"] == workload]
                metrics[f"{workload}.{name}"] = {
                    "value": statistics.median(m["value"] for m in mine),
                    "unit": mine[0]["unit"],
                }
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
