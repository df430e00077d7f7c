"""Benchmark driver for the multiphonon package.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload rate-scan --seed 1 --seconds 20 --trace 0

Runs the workload in fresh child interpreters (``child.py``), one at a
time, with the package imported from ``src``.  With ``--trace 0`` it
prints the end-to-end metrics named in ``BENCHMARK.json``; with
``--trace 1`` it runs the workload untraced and traced for half the time
each and prints the per-layer metrics.  The last line of stdout is the
result object; the line before it holds provenance and detail.  Exits
with code 2, printing no result, when the checkout has no package source.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
PACKAGE = ROOT / "src" / "multiphonon"
WORKDIR = ROOT / ".perfbench_work"
# Set-up is timed in this many children per run (one of them is the
# measured run), and setup_s is their median.
SETUP_SAMPLES = 9
CHILD_GRACE_S = 120
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread per process: with the workload child and at most one CLI
# grandchild alive, a run never has more compute threads than nproc (2 on
# the reference machine).
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name in BLAS_THREAD_VARS:
        env[name] = str(BLAS_THREADS)
    return env


def run_child(env, workload, seed, seconds, trace, setup_only=False):
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "setup_only": setup_only, "workdir": str(WORKDIR)}
    spawned_at = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=seconds + CHILD_GRACE_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload child exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_raw_s"] = report["first_op_at"] - spawned_at
    report["setup_s"] = report["setup_raw_s"] * report["setup_speed"]
    report["interpreter_ms"] = 1e3 * (report["started_at"] - spawned_at)
    return report


def git_commit():
    """Commit of the checkout read from ``.git``, or None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(spec, env, args):
    setups = [run_child(env, args.workload, args.seed, 0, False, setup_only=True)
              for _ in range(SETUP_SAMPLES - 1)]
    main = run_child(env, args.workload, args.seed, args.seconds, False)
    reports = setups + [main]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": main["peak_rss_mb"],
        "results_per_s": main["results_per_s"],
        "op_ms_p50": main["op_ms_p50"],
        "op_ms_tail": main["op_ms_tail"],
        "ok_frac": (attempted - failed) / attempted,
    }
    detail = {
        "tail_pct": main["op_tail_pct"],
        "ops": main["ops"],
        "results": main["results"],
        "blocks": main["blocks"],
        "wall_s": main["wall_s"],
        "failed_frac": failed / attempted,
        "setup_samples_s": [r["setup_s"] for r in reports],
        "setup_raw_samples_s": [r["setup_raw_s"] for r in reports],
        "raw": main["raw"],
        "counts": main["counts"],
    }
    for key in ("table_worst_rel", "table_worst_m"):
        if key in main:
            detail[key] = main[key]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return reports, attempted, failed, {k: metric(v, units[k]) for k, v in values.items()}, detail


def per_layer(spec, env, args):
    half = args.seconds / 2.0
    plain = run_child(env, args.workload, args.seed, half, False)
    traced = run_child(env, args.workload, args.seed, half, True)
    layers, cases = traced["layers"]
    layers["package.interpreter_ms"] = statistics.median(
        [plain["interpreter_ms"], traced["interpreter_ms"]])
    layers["package.import_ms"] = 1e3 * statistics.median([plain["import_s"], traced["import_s"]])
    layers["rates.moments_replay_s"] = sum(
        case["busy_s"] for group, case in cases.items() if group.startswith("oscillator.rows/replay"))
    entries = layers.get("quadrature.table.entries", 0)
    layers["quadrature.resolved_share"] = layers.get("quadrature.resolved", 0) / entries if entries else 0.0
    # Tracing overhead: op time of the blocks both runs completed (the same
    # inputs, as the seed is the same), traced against untraced, in percent.
    common = min(len(plain["block_busy_s"]), len(traced["block_busy_s"]))
    layers["trace.overhead_pct"] = 100.0 * (
        sum(traced["block_busy_s"][:common]) / sum(plain["block_busy_s"][:common]) - 1.0)
    values = {m["name"]: metric(layers.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    detail = {
        "untraced": {k: plain[k] for k in ("results_per_s", "op_ms_p50", "op_ms_tail", "op_tail_pct")},
        "traced": {k: traced[k] for k in ("results_per_s", "op_ms_p50", "op_ms_tail", "op_tail_pct")},
        "layers_all": layers,
        "cases": cases,
    }
    return [plain, traced], attempted, failed, values, detail


def main(argv=None):
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no package source at {PACKAGE}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = child_env()
    measure = per_layer if args.trace else end_to_end
    try:
        reports, attempted, failed, metrics, detail = measure(spec, env, args)
    finally:
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        failures=[f for r in reports for f in r["failures"]][:20],
        provenance={
            "git_commit": git_commit(),
            "source_sha256": source_sha256(),
            "versions": reports[-1]["versions"],
            "nproc": nproc(),
            "blas_threads": BLAS_THREADS,
            "seed": args.seed,
            "inputs_sha256": sorted({r["inputs_sha256"] for r in reports}),
        },
    )
    correct = failed == 0 and len(set(detail["provenance"]["inputs_sha256"])) == 1
    for value in metrics.values():
        if isinstance(value["value"], float) and not math.isfinite(value["value"]):
            correct = False
            value["value"] = None
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
