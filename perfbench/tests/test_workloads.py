"""Metric extraction and the checks, on the tiny ``*-smoke`` profiles."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import workloads
from repro.common.payload import Payload

ROOT = Path(__file__).resolve().parents[2]
W = workloads.WORKLOADS

#: the benchmark's workloads on the tiny ``*-smoke`` profiles
SMOKE = {
    "multideploy": dataclasses.replace(W["multideploy"], profile="scale-smoke", n=8),
    "multisnapshot": dataclasses.replace(W["multisnapshot"], profile="scale-smoke", n=4, rounds=2),
    "rack-p2p": dataclasses.replace(
        W["rack-p2p"], profile="topo-smoke", n=8, cloud_kw={**W["rack-p2p"].cloud_kw, "racks": 4},
    ),
    "churn": dataclasses.replace(
        W["churn"], profile="churn-smoke", n=20, spec_kw={**W["churn"].spec_kw, "rate": 0.3},
    ),
}


@pytest.fixture(scope="module")
def reports():
    return {name: workloads.measure(wl, seed=3) for name, wl in SMOKE.items()}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_extracts_metrics_and_passes_checks(reports, name):
    r = reports[name]
    assert r["problems"] == []
    assert r["attempted"] >= 1 and r["failed"] == 0
    assert r["samples"] >= 1
    for metric, value in r["sim"].items():
        assert value > 0, metric
    c = r["counts"]
    assert c["workload.ops"] == r["attempted"] - r["failed"]
    assert c["simkit.core.events"] > 0 and c["simkit.rpc.calls"] > 0
    assert c["simkit.core.events_per_op"] == c["simkit.core.events"] / c["workload.ops"]
    assert 0.0 <= c["core.translator.mirror_hit_ratio"] <= 1.0


def test_workload_specific_counts(reports):
    wl = SMOKE
    assert reports["multideploy"]["counts"]["vmsim.boots"] == wl["multideploy"].n
    snap = reports["multisnapshot"]
    assert snap["counts"]["core.commits"] == wl["multisnapshot"].n * wl["multisnapshot"].rounds
    assert snap["counts"]["blobseer.client.chunk_puts"] > 0
    rack = reports["rack-p2p"]["counts"]
    assert 0.0 < rack["topo.cross_rack_share"] < 1.0 and rack["p2p.chunk_lookups"] > 0
    churn = reports["churn"]["counts"]
    assert churn["churn.deploys"] == wl["churn"].n and churn["churn.admit_ratio"] == 1.0
    assert reports["multideploy"]["counts"]["topo.traffic_mib"] == 0.0


def test_same_seed_same_digest_other_seed_other_values(reports):
    wl = SMOKE["multideploy"]
    again = workloads.measure(wl, seed=3)
    assert again["digest"] == reports["multideploy"]["digest"]
    other = workloads.measure(wl, seed=4)
    assert other["sim"] != reports["multideploy"]["sim"]


def test_profiled_run_attributes_all_time_and_keeps_the_simulation(reports):
    r = workloads.measure(SMOKE["rack-p2p"], seed=3, profile=True)
    assert r["digest"] == reports["rack-p2p"]["digest"]
    prof = r["profile"]
    assert sum(prof["self_s"].values()) == pytest.approx(prof["profiled_s"])
    top = max(prof["self_s"], key=prof["self_s"].get)
    assert top == "simkit.core"
    assert prof["self_s"]["p2p"] > 0 and prof["self_s"]["topo"] > 0
    assert prof["counts"]["simkit.core.processes"] > 0
    assert prof["counts"]["simkit.network.flows"] > 0


# --------------------------------------------------------------------------- #
# doctored runs are reported as failed
# --------------------------------------------------------------------------- #
def _doctored(wl, seed, tamper):
    run = wl.setup(seed)
    wl.timed(run)
    wl.finish(run)
    tamper(run)
    wl.check(run)
    return run.problems


def test_readback_mismatch_fails(monkeypatch):
    wl = SMOKE["multisnapshot"]
    monkeypatch.setattr(
        workloads.SnapshotWorkload, "expected_content",
        lambda self, run, k: Payload.zeros(run.image.size),
    )
    problems = _doctored(wl, 3, lambda run: None)
    assert any("differs from the bytes" in p for p in problems)


def test_unpublished_commit_fails():
    wl = SMOKE["multisnapshot"]
    problems = _doctored(wl, 3, lambda run: run.state["published"][1].pop())
    assert any("COMMITs published" in p for p in problems)


def test_missing_boot_fails():
    wl = SMOKE["multideploy"]

    def tamper(run):
        run.state["deploy"].vms[0].boot_time = None

    assert any("VMs booted" in p for p in _doctored(wl, 3, tamper))


def test_tier_traffic_mismatch_fails():
    wl = SMOKE["rack-p2p"]
    problems = _doctored(wl, 3, lambda run: run.cloud.metrics.add_traffic(1, "bulk"))
    assert any("per-tier traffic" in p for p in problems)


def test_churn_accounting_mismatch_fails():
    wl = SMOKE["churn"]

    def tamper(run):
        run.state["result"].summary["requests"]["rejected"] += 1

    assert any("deploy accounting" in p for p in _doctored(wl, 3, tamper))


def test_broken_invariant_and_drifted_count_fail_the_measurement(reports, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "STATE", tmp_path / "digests.json")
    good = reports["multideploy"]
    assert bench.check_runs([good, good], "k") == []

    broken = dict(good, problems=["3 of 8 VMs booted"])
    assert any(p.startswith("invariant:") for p in bench.check_runs([good, broken], "k"))

    counts = dict(good["counts"], **{"simkit.rpc.calls": good["counts"]["simkit.rpc.calls"] + 1})
    drifted = dict(good, counts=counts, digest=workloads.digest({**good["sim"], **counts}))
    assert any(p.startswith("determinism:") for p in bench.check_runs([good, drifted], "k"))
    # the same drift seen by a later invocation on the same sources
    assert any("earlier run" in p for p in bench.check_runs([drifted], "k"))


# --------------------------------------------------------------------------- #
# the command and BENCHMARK.json
# --------------------------------------------------------------------------- #
def test_benchmark_json_matches_what_the_command_reports(reports):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert spec["per_layer"] == bench.per_layer_spec(reports["churn"]["counts"])


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "multideploy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_replace_keeps_workload_types():
    wl = dataclasses.replace(workloads.WORKLOADS["multisnapshot"], n=2)
    assert isinstance(wl, workloads.SnapshotWorkload) and wl.rounds == 5
