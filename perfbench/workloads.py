"""The benchmark's four workloads, driven through the public ``repro`` API.

Each workload has a set-up (reported as ``setup_s``), a timed section, and
invariants that do not depend on the model. The sizes follow the regimes
the benchmark is meant to track:

* ``multideploy`` — the paper's Fig. 4 fan-in: hundreds of mirror boots
  pulling one image from a repository concentrated on 8 NVMe providers;
* ``multisnapshot`` — the back-and-forth pattern of Fig. 5/8: rounds of
  local diffs followed by a concurrent CLONE/COMMIT of every VM;
* ``rack-p2p`` — the same deployment on an 8-rack, 4:1 oversubscribed
  fabric with the peer exchange and locality on (path-mode flow engine);
* ``churn`` — Poisson arrivals over a long simulated horizon with
  snapshots, restores, teardown and periodic GC at low concurrency.

Set-up and timed sections only call ``build_point_cloud``, ``seed_image``,
``deploy``, ``apply_diffs``, ``snapshot_all`` and ``ChurnEngine.run``;
every count comes from ``cloud.metrics`` and the results those calls
return, except three call counts taken from the profile of a traced run.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import math
import pstats
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import repro
from repro.churn import ChurnEngine, ChurnSpec
from repro.cloud import deploy, seed_image, snapshot_all
from repro.common.payload import Payload, SparseFile
from repro.common.rng import RngStreams
from repro.lineage.dedup import dedup_accounting
from repro.runner import CODE_VERSION, apply_diffs, build_point_cloud, resolve_profile
from repro.simkit.core import Process
from repro.simkit.network import FlowNetwork
from repro.vmsim.boottrace import boot_trace
from repro.vmsim.workloads import read_your_writes_workload

import layers

MiB = float(2**20)


@dataclass
class Run:
    """One measurement: the built cloud plus what the timed section left."""

    cloud: object
    image: object
    seed: int
    state: dict = field(default_factory=dict)
    #: (entry point, host seconds, simulated seconds), in call order
    phases: List[tuple] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: per-op simulated latencies (boot times, or COMMIT durations)
    latencies: List[float] = field(default_factory=list)
    #: workload-specific exact counts, merged into the layer counts
    counts: Dict[str, float] = field(default_factory=dict)
    #: broken invariants; any entry fails the run
    problems: List[str] = field(default_factory=list)

    def phase(self, name: str, fn: Callable, *args, **kw):
        """Call one entry point, recording its host and simulated duration."""
        s0 = self.cloud.env.now if self.cloud is not None else 0.0
        t0 = time.perf_counter()
        out = fn(*args, **kw)
        host_s = time.perf_counter() - t0
        sim_s = self.cloud.env.now - s0 if self.cloud is not None else 0.0
        self.phases.append((name, host_s, sim_s))
        return out


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DeployWorkload:
    """Mirror multideployment of ``n`` VMs; the timed section is ``deploy``."""

    name: str
    profile: str
    n: int
    cloud_kw: Dict[str, object] = field(default_factory=dict)

    def setup(self, seed: int) -> Run:
        run = Run(None, None, seed)
        run.cloud, run.image = run.phase(
            "build_point_cloud", build_point_cloud, resolve_profile(self.profile),
            seed, **self.cloud_kw,
        )
        run.state["idents"] = run.phase("seed_image", seed_image, run.cloud, run.image)
        return run

    def timed(self, run: Run) -> None:
        run.state["deploy"] = run.phase(
            "deploy", deploy, run.cloud, run.image, self.n, "mirror",
            idents=run.state["idents"],
        )

    def finish(self, run: Run) -> None:
        run.latencies = list(run.state["deploy"].boot_times)
        run.attempted = self.n
        run.failed = self.n - len(run.latencies)

    def check(self, run: Run) -> None:
        vms = run.state["deploy"].vms
        booted = sum(1 for vm in vms if vm.boot_time is not None)
        if booted != self.n:
            run.problems.append(f"{booted} of {self.n} VMs booted")
        if run.cloud.topology is not None and run.cloud.topology.multi_rack:
            m = run.cloud.metrics
            tiers = sum(m.topo_scope_totals().values())
            if tiers != m.total_traffic():
                run.problems.append(
                    f"per-tier traffic {tiers} B != total traffic {m.total_traffic()} B"
                )


@dataclass(frozen=True)
class SnapshotWorkload(DeployWorkload):
    """``n`` VMs deployed in set-up, then ``rounds`` of local diffs plus a
    concurrent COMMIT of every VM (CLONE first, the first time)."""

    rounds: int = 5

    def setup(self, seed: int) -> Run:
        run = super().setup(seed)
        super().timed(run)  # the deployment is part of the set-up here
        res = run.state["deploy"]
        if len(res.boot_times) != self.n:
            raise RuntimeError(f"set-up booted {len(res.boot_times)} of {self.n} VMs")
        return run

    def timed(self, run: Run) -> None:
        cloud, image, vms = run.cloud, run.image, run.state["deploy"].vms
        diff = resolve_profile(self.profile).diff_bytes
        rounds = []
        for _ in range(self.rounds):
            run.phase("apply_diffs", apply_diffs, cloud, image, vms, diff)
            rounds.append(run.phase("snapshot_all", snapshot_all, cloud, vms, "mirror"))
        run.state["rounds"] = rounds

    def finish(self, run: Run) -> None:
        """A COMMIT whose version the version manager does not list as
        published counts as failed."""
        registry = run.cloud.blobseer.registry
        published: List[List[tuple]] = [[] for _ in range(self.n)]
        for snap in run.state["rounds"]:
            for i, s in enumerate(snap.per_instance):
                run.latencies.append(s.duration)
                blob, version = (int(x) for x in s.ident[len("blob"):].split("@v"))
                if registry.is_published(blob, version):
                    published[i].append((blob, version))
        run.state["published"] = published
        run.attempted = self.n * self.rounds
        run.failed = run.attempted - sum(len(p) for p in published)

    def check(self, run: Run) -> None:
        for i, versions in enumerate(run.state["published"]):
            if len(versions) != self.rounds:
                run.problems.append(
                    f"vm{i:03d}: {len(versions)} of {self.rounds} COMMITs published"
                )
            elif len({b for b, _ in versions}) != 1 or any(
                a[1] >= b[1] for a, b in zip(versions, versions[1:])
            ):
                run.problems.append(f"vm{i:03d}: versions are not one chain {versions}")
        if run.problems:
            return
        k = run.seed % self.n
        blob, version = run.state["published"][k][-1]
        if self.read_back(run, k, blob, version) != self.expected_content(run, k):
            run.problems.append(
                f"vm{k:03d}: blob{blob}@v{version} differs from the bytes the VM wrote"
            )

    def read_back(self, run: Run, k: int, blob: int, version: int) -> Payload:
        cloud = run.cloud
        client = cloud.blobseer.client(run.state["deploy"].vms[k].host)

        def read():
            data = yield from client.read(blob, version, 0, run.image.size)
            return data

        proc = cloud.env.process(read(), name="perfbench-readback")
        cloud.run(proc)
        return proc.value

    def expected_content(self, run: Run, k: int) -> Payload:
        """VM ``k``'s image rebuilt from the writes its boot and diff rounds
        issued, replayed from fresh RNG streams onto the seeded image."""
        cloud, image = run.cloud, run.image
        vm = run.state["deploy"].vms[k]
        streams = RngStreams(cloud.fabric.rng.seed)
        ops = list(boot_trace(image, cloud.calib.boot, streams.get("trace", "mirror", k)))
        diff_rng = streams.get("app-diff", k)
        diff = resolve_profile(self.profile).diff_bytes
        for _ in range(self.rounds):
            ops += read_your_writes_workload(
                image.write_base, diff, diff_rng, reread_fraction=0.05
            )
        content = SparseFile(image.size, base=image.payload)
        for op in ops:
            if op.kind == "write":
                content.write(op.offset, Payload.opaque(f"vmwrite-{vm.name}", op.nbytes))
        return content.snapshot_payload()


@dataclass(frozen=True)
class ChurnWorkload:
    """A ``ChurnEngine`` run of ``n`` deploy requests; an op is a deploy, a
    snapshot or a restore request, and its latency a boot time."""

    name: str
    profile: str
    n: int
    spec_kw: Dict[str, object] = field(default_factory=dict)

    def setup(self, seed: int) -> Run:
        profile = resolve_profile(self.profile)
        run = Run(None, None, seed)
        run.cloud, run.image = run.phase(
            "build_point_cloud", build_point_cloud, profile, seed, with_pvfs=False, p2p=True,
        )
        spec = ChurnSpec(n_deploys=self.n, diff_bytes=profile.diff_bytes, **self.spec_kw)
        run.state["engine"] = run.phase("ChurnEngine", ChurnEngine, run.cloud, run.image, spec)
        run.state["boots0"] = len(run.cloud.metrics.raw.get("boot-time", ()))
        return run

    def timed(self, run: Run) -> None:
        run.state["result"] = run.phase("ChurnEngine.run", run.state["engine"].run)

    def finish(self, run: Run) -> None:
        s = run.state["result"].summary
        req = s["requests"]
        run.latencies = list(run.cloud.metrics.raw["boot-time"][run.state["boots0"]:])
        run.attempted = (
            req["deploys"] + req["snapshots_taken"] + req["snapshots_missed"]
            + req["restores_completed"] + req["restores_missed"]
        )
        run.failed = (
            req["rejected"] + req["canceled"] + req["snapshots_missed"] + req["restores_missed"]
        )
        run.counts.update({
            "blobseer.gc_reclaimed_mib": s["gc"]["bytes_reclaimed"] / MiB,
            "churn.deploys": req["deploys"],
            "churn.admit_ratio": _ratio(req["booted"], req["deploys"]),
            "lineage.restores": req["restores_completed"],
            "lineage.restore_hops_mean": s["restore_latency"]["mean_hops"],
        })

    def check(self, run: Run) -> None:
        req = run.state["result"].summary["requests"]
        if req["booted"] + req["rejected"] + req["canceled"] != req["deploys"]:
            run.problems.append(f"deploy accounting does not add up: {req}")
        if not dedup_accounting(run.cloud.blobseer).conserves():
            run.problems.append("dedup accounting: exclusive + shared != live bytes")


WORKLOADS = {
    w.name: w for w in (
        DeployWorkload("multideploy", "scale", 256),
        SnapshotWorkload("multisnapshot", "scale", 48, rounds=5),
        DeployWorkload("rack-p2p", "topo", 200, dict(
            racks=8, oversubscription=4.0, topo_aware=True, p2p=True,
        )),
        # rate x (min + mean lifetime) = 72 VMs on 96 slots: bursts queue,
        # yet no deploy is refused; near-constant lifetimes keep the
        # makespan set by the arrivals rather than by one long-lived VM
        ChurnWorkload("churn", "churn", 200, dict(
            rate=1.6, min_lifetime=40.0, mean_lifetime=5.0, n_tenants=2,
            policy="locality", snapshot_fraction=0.5, restore_fraction=0.5,
            retain_snapshots=True, gc_interval=60.0,
        )),
    )
}


# --------------------------------------------------------------------------- #
# one measurement
# --------------------------------------------------------------------------- #
class Snapshot:
    """The cloud's cumulative counters at one instant."""

    def __init__(self, cloud):
        m = cloud.metrics
        self.events = cloud.env.event_count
        self.now = cloud.env.now
        self.boots = len(m.raw.get("boot-time", ()))
        self.counters = dict(m.counters)
        self.traffic = dict(m.traffic)
        self.topo = dict(m.topo_traffic)

    def delta(self, later: "Snapshot") -> dict:
        def diff(a, b):
            return {k: b.get(k, 0) - a.get(k, 0) for k in set(a) | set(b)}

        return {
            "events": later.events - self.events,
            "sim_s": later.now - self.now,
            "boots": later.boots - self.boots,
            "counters": diff(self.counters, later.counters),
            "traffic": diff(self.traffic, later.traffic),
            "topo": diff(self.topo, later.topo),
        }


def measure(wl, seed: int, profile: bool = False) -> dict:
    """Set up, run the timed section (under cProfile if ``profile``), then
    collect the simulated metrics and counts and check the invariants."""
    run = wl.setup(seed)
    # system-wide monotonic clock, comparable with the parent's on Linux
    setup_end_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    before = Snapshot(run.cloud)
    prof = cProfile.Profile() if profile else None
    if prof is not None:
        prof.enable()
    t0 = time.perf_counter()
    wl.timed(run)
    wall_s = time.perf_counter() - t0
    if prof is not None:
        prof.disable()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wl.finish(run)
    delta = before.delta(Snapshot(run.cloud))
    sim = sim_metrics(run, delta)
    counts = layer_counts(run, delta)
    wl.check(run)  # may advance the simulation, so after the counts
    out = {
        "workload": wl.name,
        "seed": seed,
        "code_version": CODE_VERSION,
        "setup_end_ns": setup_end_ns,
        "wall_s": wall_s,
        "peak_rss_mib": peak_rss_mib,
        "attempted": run.attempted,
        "failed": run.failed,
        "samples": len(run.latencies),
        "sim": sim,
        "counts": counts,
        "digest": digest({**sim, **counts}),
        "problems": run.problems,
        "phases": run.phases,
    }
    if prof is not None:
        out["profile"] = profile_summary(prof)
    return out


def profile_summary(prof: cProfile.Profile) -> dict:
    stats = pstats.Stats(prof).stats
    classify = layers.Classifier(Path(repro.__file__).parent, Path(__file__).parent)
    return {
        "self_s": layers.attribute(stats, classify),
        "profiled_s": sum(row[2] for row in stats.values()),
        # plain functions, so cProfile's call counts are exact
        "counts": {
            "simkit.core.processes": layers.ncalls(stats, Process.__init__.__code__),
            "simkit.network.flows": layers.ncalls(stats, FlowNetwork.transfer.__code__),
            "simkit.network.messages": layers.ncalls(stats, FlowNetwork.message.__code__),
        },
    }


def nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sim_metrics(run: Run, d: dict) -> Dict[str, float]:
    """The model's outcomes over the timed section (seed-deterministic)."""
    return {
        "sim_makespan_s": d["sim_s"],
        "sim_op_p50_s": nearest_rank(run.latencies, 0.50),
        "sim_op_p95_s": nearest_rank(run.latencies, 0.95),
        "sim_traffic_mib": sum(d["traffic"].values()) / MiB,
    }


def layer_counts(run: Run, d: dict) -> Dict[str, float]:
    """Exact per-layer work counts over the timed section."""
    c, t, topo = d["counters"], d["traffic"], d["topo"]
    ops = run.attempted - run.failed
    local, remote = c.get("mirror-local-read", 0), c.get("mirror-remote-read", 0)
    p2p_hits = c.get("p2p-local-hit", 0) + c.get("p2p-chunk-hit", 0)
    p2p_lookups = p2p_hits + c.get("p2p-chunk-miss", 0)
    topo_total = sum(topo.values())
    cross = sum(v for k, v in topo.items() if not k.startswith("intra-rack/"))
    counts = {
        "workload.ops": ops,
        "simkit.core.events": d["events"],
        "simkit.core.events_per_op": _ratio(d["events"], ops),
        "simkit.network.payload_mib": t.get("payload", 0) / MiB,
        "simkit.network.rpc_mib": (t.get("rpc-request", 0) + t.get("rpc-response", 0)) / MiB,
        "simkit.rpc.calls": c.get("rpc", 0),
        "simkit.rpc.connects": c.get("rpc-connect", 0),
        "simkit.disk.reads": c.get("disk-read", 0),
        "simkit.disk.writes": c.get("disk-write", 0),
        "simkit.disk.write_mib": c.get("disk-write-bytes", 0) / MiB,
        "blobseer.client.chunk_gets": c.get("chunk-get", 0),
        "blobseer.client.chunk_puts": c.get("chunk-put", 0),
        "blobseer.client.provider_mib": c.get("provider-bytes", 0) / MiB,
        "blobseer.metadata.meta_gets": c.get("meta-get", 0),
        "blobseer.metadata.meta_puts": c.get("meta-put", 0),
        "blobseer.gc_reclaimed_mib": 0.0,
        "core.translator.mirror_local_reads": local,
        "core.translator.mirror_remote_reads": remote,
        "core.translator.mirror_reads": local + remote,
        "core.translator.mirror_hit_ratio": _ratio(local, local + remote),
        "core.translator.gap_fills": c.get("mirror-gap-fill", 0),
        "core.commits": c.get("ioctl-commit", 0),
        "vmsim.boots": d["boots"],
        "p2p.peer_hit_ratio": _ratio(p2p_hits, p2p_lookups),
        "p2p.chunk_lookups": p2p_lookups,
        "p2p.peer_mib": c.get("p2p-bytes-peer", 0) / MiB,
        "p2p.failovers": c.get("p2p-peer-failover", 0),
        "topo.cross_rack_share": _ratio(cross, topo_total),
        "topo.traffic_mib": topo_total / MiB,
        "churn.deploys": 0,
        "churn.admit_ratio": 0.0,
        "lineage.restores": 0,
        "lineage.restore_hops_mean": 0.0,
    }
    counts.update(run.counts)
    return counts


def digest(values: Dict[str, float]) -> str:
    """Fingerprint of exact values; floats keep every digit (``repr``)."""
    text = json.dumps({k: repr(v) for k, v in sorted(values.items())}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
