"""Timeline determinism of the full stack (regression guard for the fast path).

The engine promises bit-identical timelines for identical seeds; every
optimization in the simulator fast path (sentinel wakeups, incremental fair
share, shared process bootstraps, merged timeouts) argues it preserves the
exact event timeline. This test pins that promise at the system level: a
full deploy + snapshot cycle run twice from the same seed must agree on the
final clock, the processed-event count, and every traffic counter.
"""

import pytest

from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud, deploy, snapshot_all
from repro.common.units import KiB, MiB
from repro.topo import Topology
from repro.vmsim import make_image

CALIB = Calibration(
    image=ImageSpec(size=64 * MiB, chunk_size=256 * KiB, boot_touched_bytes=8 * MiB)
)
N_NODES = 8
SEED = 7


def _run_cycle(approach="mirror", with_snapshot=False):
    cloud = build_cloud(N_NODES, seed=SEED, calib=CALIB)
    image = make_image(CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=16)
    result = deploy(cloud, image, N_NODES, approach)
    if with_snapshot:
        snapshot_all(cloud, result.vms, approach)
    return {
        "now": cloud.env.now,
        "events": cloud.env.event_count,
        "traffic": dict(cloud.metrics.traffic),
        "boot_times": tuple(result.boot_times),
        "completion": result.completion_time,
    }


@pytest.mark.parametrize("approach", ["mirror", "qcow2-pvfs", "prepropagation"])
def test_deploy_timeline_is_reproducible(approach):
    a = _run_cycle(approach)
    b = _run_cycle(approach)
    # exact equality on purpose: same seed must give the same timeline
    # bit for bit, not merely approximately
    assert a["now"] == b["now"]
    assert a["events"] == b["events"]
    assert a["traffic"] == b["traffic"]
    assert a["boot_times"] == b["boot_times"]
    assert a["completion"] == b["completion"]


def test_deploy_snapshot_timeline_is_reproducible():
    a = _run_cycle(with_snapshot=True)
    b = _run_cycle(with_snapshot=True)
    assert a == b


def test_distinct_seeds_diverge():
    """Sanity check that the equality above is not vacuous."""
    a = _run_cycle()
    cloud = build_cloud(N_NODES, seed=SEED + 1, calib=CALIB)
    image = make_image(CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=16)
    deploy(cloud, image, N_NODES, "mirror")
    assert cloud.env.now != a["now"] or cloud.env.event_count != a["events"]


def _engine_kw(engine):
    """``build_cloud`` arguments that select the flow engine.

    The default flat build runs the cohort engine. The per-flow oracle is a
    two-rack topology with every host left in rack 0: the network runs per
    flow, no path crosses a trunk, and ``topo_aware=False`` keeps every
    placement and read policy topology-blind.
    """
    if engine == "cohort":
        return {}
    return {"topology": Topology(n_racks=2, rack_uplink=1.0), "topo_aware": False}


def _run_engine_cycle(engine, approach="mirror", with_snapshot=False, traced=False):
    """One full cycle under an explicit flow engine."""
    cloud = build_cloud(N_NODES, seed=SEED, calib=CALIB, **_engine_kw(engine))
    tracer = None
    if traced:
        from repro import obs

        tracer = obs.install_tracer(cloud.fabric)
    image = make_image(
        CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=16
    )
    result = deploy(cloud, image, N_NODES, approach)
    if with_snapshot:
        snapshot_all(cloud, result.vms, approach)
    return {
        "now": cloud.env.now,
        "events": cloud.env.event_count,
        "traffic": dict(cloud.metrics.traffic),
        "boot_times": tuple(result.boot_times),
        "completion": result.completion_time,
        "spans": len(tracer.spans) if tracer is not None else 0,
    }


def _run_engine_fault_cycle(engine):
    """A fault-injected deployment (NIC degradation + a provider crash that
    replication survives) under an explicit flow engine."""
    from repro.faults import FaultPlan, RetryPolicy, resilient_deploy
    from repro.faults.plan import FaultEvent

    cloud = build_cloud(
        N_NODES, seed=SEED, calib=CALIB,
        **_engine_kw(engine),
        replication_factor=2,
        retry=RetryPolicy(attempts=4, base_delay=0.25, rpc_timeout=1.0),
    )
    plan = FaultPlan(
        (
            FaultEvent(
                at=0.3, kind="nic-degrade",
                target=cloud.compute[1].name, factor=4.0,
            ),
            FaultEvent(
                at=0.6, kind="provider-crash",
                target=cloud.compute[N_NODES - 1].name, duration=2.0,
            ),
        )
    )
    image = make_image(
        CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=16
    )
    res = resilient_deploy(cloud, image, N_NODES - 2, "mirror", plan=plan)
    return {
        "now": cloud.env.now,
        "events": cloud.env.event_count,
        "traffic": dict(cloud.metrics.traffic),
        "boot_times": tuple(res.boot_times),
        "completion": res.completion_time,
        "survival": res.survival_rate,
        "boots_failed": res.boots_failed,
    }


class TestCohortEngineMatchesLegacy:
    """The cohort engine against its per-flow oracle, full stack.

    The cohort engine must not move a single event on the fig. 4 / fig. 5
    cycles: same clock, same event count, same traffic, same boot times —
    exact equality, including traced and fault-injected runs. (The class
    name dates from when the oracle was a separate flat engine.)
    """

    @pytest.mark.parametrize("approach", ["mirror", "qcow2-pvfs", "prepropagation"])
    def test_deploy_bit_identical(self, approach):
        per_flow = _run_engine_cycle("per-flow", approach)
        cohort = _run_engine_cycle("cohort", approach)
        assert cohort == per_flow

    def test_snapshot_cycle_bit_identical(self):
        per_flow = _run_engine_cycle("per-flow", with_snapshot=True)
        cohort = _run_engine_cycle("cohort", with_snapshot=True)
        assert cohort == per_flow

    def test_traced_cycle_bit_identical(self):
        per_flow = _run_engine_cycle("per-flow", traced=True)
        cohort = _run_engine_cycle("cohort", traced=True)
        assert cohort == per_flow
        assert cohort["spans"] > 0

    def test_fault_injected_results_identical(self):
        per_flow = _run_engine_fault_cycle("per-flow")
        cohort = _run_engine_fault_cycle("cohort")
        assert cohort == per_flow
        # the crash must actually have bitten (otherwise this is vacuous)
        assert cohort["survival"] > 0
