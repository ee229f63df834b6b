"""The repository benchmark: one workload, measured from outside the program.

Usage::

    python3 perfbench/run.py --workload multideploy --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 1

``--trace 0`` runs the workload repeatedly, each time in a fresh
interpreter, until the next run would overshoot ``--seconds`` (at least
:data:`MIN_REPS` runs), and reports the end-to-end metrics: host times,
``setup_s`` included, as medians over the runs; simulated values from the
model. ``--trace 1`` runs
it once plainly and once under cProfile and reports the per-layer metrics:
self time split over the ``repro`` layers, exact work counts, and the
profiling overhead.

Every run is checked: the workload's invariants, identical simulated
values and counts across runs of one seed (also across invocations, via a
digest file under ``.perfbench-state/`` keyed by the source digest), and
op failures, which are counted. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is non-zero when a check failed.

The ``sim_*`` metrics are outcomes of the model, deterministic for a seed.
The workloads' profiles differ from the paper's testbed, so these values
are not validated against the paper's figures.
"""

from __future__ import annotations

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

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "repro"
STATE = ROOT / ".perfbench-state" / "digests.json"

WORKLOADS = ("multideploy", "multisnapshot", "rack-p2p", "churn")
#: fewest plain runs a measurement takes, whatever ``--seconds`` says
MIN_REPS = 3
#: a run that takes longer than this is killed and fails the measurement
REP_TIMEOUT_S = 150.0
#: no new run starts once this much time has gone
MAX_ELAPSED_S = 150.0

#: (name, unit, better) of the end-to-end metrics
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("sim_makespan_s", "s", "lower"),
    ("sim_op_p50_s", "s", "lower"),
    ("sim_op_p95_s", "s", "lower"),
    ("sim_traffic_mib", "MiB", "lower"),
)

#: exact counts from the profile (plain functions, so call counts are exact)
PROFILE_COUNTS = ("simkit.core.processes", "simkit.network.flows", "simkit.network.messages")
TRACE_METRICS = ("trace.overhead", "trace.untraced_wall_s", "trace.traced_wall_s", "trace.profiled_s")
#: counts where more is better: completed work and useful-outcome ratios
HIGHER_IS_BETTER = {
    "workload.ops", "churn.deploys", "churn.admit_ratio", "lineage.restores",
    "core.translator.mirror_hit_ratio", "p2p.peer_hit_ratio", "p2p.peer_mib",
}


def metric_unit(name: str) -> str:
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith((".share", "_ratio", "_share", ".overhead")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("events_per_op"):
        return "events/op"
    if name.endswith("restore_hops_mean"):
        return "hops"
    return "count"


def per_layer_names(count_names) -> list:
    """Every ``--trace 1`` metric name, in report order."""
    names = [f"{layer}.{kind}" for layer in layers.LAYERS for kind in ("self_s", "share")]
    return names + sorted([*count_names, *PROFILE_COUNTS]) + list(TRACE_METRICS)


def per_layer_spec(count_names) -> list:
    out = []
    for name in per_layer_names(count_names):
        better = "higher" if name in HIGHER_IS_BETTER else "lower"
        out.append({"name": name, "unit": metric_unit(name), "better": better})
    return out


# --------------------------------------------------------------------------- #
# runs
# --------------------------------------------------------------------------- #
class RepFailed(Exception):
    pass


def now_ns() -> int:
    """System-wide monotonic clock, comparable across processes on Linux."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, mode: str) -> dict:
    """One measurement in a fresh interpreter; returns the worker's report."""
    t0 = now_ns()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(t0), mode]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{workload} run exceeded {REP_TIMEOUT_S:.0f} s") from None
    host_s = (now_ns() - t0) / 1e9
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{workload} run exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(lines[-1])
    report["host_s"] = host_s
    return report


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_state(key: str, value: str) -> str | None:
    """Record ``value`` under ``key``; return a problem if it differs from a
    value recorded by an earlier invocation on the same sources."""
    try:
        state = json.loads(STATE.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        state = {}
    seen = state.setdefault(key, value)
    if seen != value:
        return f"{key}: digest {value} differs from {seen} recorded by an earlier run"
    STATE.parent.mkdir(exist_ok=True)
    tmp = STATE.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, STATE)
    return None


def provenance(workload: str, seed: int, seconds: float, trace: int, reps: list) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": src_digest(),
        "code_version": reps[0]["code_version"] if reps else None,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "runs": len(reps),
    }


# --------------------------------------------------------------------------- #
# the two modes
# --------------------------------------------------------------------------- #
def measure(workload: str, seed: int, seconds: float) -> tuple:
    """``--trace 0``: plain runs until the time budget is spent."""
    reps, t0 = [], time.monotonic()
    while True:
        reps.append(spawn(workload, seed, "plain"))
        next_end = time.monotonic() - t0 + reps[-1]["host_s"]
        if len(reps) >= MIN_REPS and next_end > min(seconds, MAX_ELAPSED_S):
            break
    for r in reps:
        r["ops_per_s"] = (r["attempted"] - r["failed"]) / r["wall_s"]
    first = reps[0]
    units = {name: unit for name, unit, _ in END_TO_END}
    metrics, lines = dict(first["sim"]), [f"  runs: {len(reps)}, each in a fresh interpreter"]
    for name in ("wall_s", "ops_per_s", "setup_s", "peak_rss_mib"):
        vals = sorted(r[name] for r in reps)
        metrics[name] = statistics.median(vals)
        lines.append(f"  {name:<16} {metrics[name]:>12.6g} {units[name]:<6} "
                     f"median of {len(vals)}, range {vals[0]:.4g}..{vals[-1]:.4g}")
    n = first["samples"]
    for name, q in (("sim_makespan_s", None), ("sim_op_p50_s", 0.50),
                    ("sim_op_p95_s", 0.95), ("sim_traffic_mib", None)):
        note = f"n={n} samples, {n - math.ceil(q * n)} beyond" if q else ""
        lines.append(f"  {name:<16} {metrics[name]:>12.6g} {units[name]:<6} {note}")
    return reps, {name: metrics[name] for name in units}, units, lines


def trace(workload: str, seed: int, seconds: float) -> tuple:
    """``--trace 1``: one plain run and one profiled run."""
    plain = spawn(workload, seed, "plain")
    traced = spawn(workload, seed, "profile")
    prof = traced["profile"]
    total = prof["profiled_s"]
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = prof["self_s"][layer]
        metrics[f"{layer}.share"] = prof["self_s"][layer] / total if total else 0.0
    metrics.update(traced["counts"])
    metrics.update(prof["counts"])
    metrics.update({
        "trace.overhead": traced["wall_s"] / plain["wall_s"],
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.traced_wall_s": traced["wall_s"],
        "trace.profiled_s": total,
    })
    names = per_layer_names(traced["counts"])
    metrics = {n: metrics[n] for n in names}
    units = {n: metric_unit(n) for n in names}
    by_time = sorted(layers.LAYERS, key=lambda name: -prof["self_s"][name])
    lines = [f"  profiled {total:.3f} s, {sum(prof['self_s'].values()) / total:.1%} "
             "attributed to named layers (builtins charged to callers)"]
    for layer in by_time:
        lines.append(f"  {layer:<20} {metrics[layer + '.self_s']:>9.4f} s "
                     f"{metrics[layer + '.share']:>7.2%}")
    lines.append(f"  trace.overhead {metrics['trace.overhead']:.3f} "
                 f"({traced['wall_s']:.3f} s traced / {plain['wall_s']:.3f} s plain)")
    for name in names:
        if name.endswith((".self_s", ".share")) or name.startswith("trace."):
            continue
        lines.append(f"  {name:<40} {metrics[name]:.10g} {units[name]}")
    return [plain, traced], metrics, units, lines


def check_runs(reps: list, key: str) -> list:
    """Every failed check over one measurement's runs: broken invariants,
    simulated values or counts that differ between runs of the same seed
    (here, or as recorded by an earlier invocation under ``key``)."""
    problems = [f"invariant: {p}" for r in reps for p in r["problems"]]
    digests = sorted({r["digest"] for r in reps})
    if len(digests) > 1:
        problems.append(f"determinism: simulated values and counts differ across runs {digests}")
    problems.append(check_state(key + "/sim", reps[0]["digest"]))
    profiled = [r["profile"]["counts"] for r in reps if "profile" in r]
    for counts in profiled:
        text = json.dumps(counts, sort_keys=True)
        problems.append(check_state(key + "/profile", hashlib.sha256(text.encode()).hexdigest()[:16]))
    return [p for p in problems if p]


def phase_lines(report: dict) -> list:
    """Host and simulated time per public entry point, from one run."""
    totals: dict = {}
    for name, host_s, sim_s in report["phases"]:
        calls, h, t = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, h + host_s, t + sim_s)
    return [f"  phase {name:<18} x{calls:<3} {h:9.4f} s host {t:11.4f} s simulated"
            for name, (calls, h, t) in totals.items()]


def run_workload(workload: str, seed: int, seconds: float, trace_mode: int) -> dict:
    """Measure one workload, print its report, return its result object."""
    print(f"perfbench {workload} seed={seed} trace={trace_mode}")
    try:
        reps, metrics, units, lines = (trace if trace_mode else measure)(workload, seed, seconds)
    except RepFailed as exc:
        print(f"  FAILED: {exc}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print("\n".join(lines + phase_lines(reps[0])))
    problems = check_runs(reps, f"{src_digest()}/{workload}/{seed}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"  op_fail_ratio    {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print(f"  digest           {reps[0]['digest']} (simulated values + layer counts)")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print("provenance " + json.dumps(
        provenance(workload, seed, seconds, trace_mode, reps), sort_keys=True
    ))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC.parent}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
