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


class _engine:
    """Force a rebalance engine (cohort or legacy) for the enclosed build."""

    def __init__(self, rebalance):
        self.rebalance = rebalance

    def __enter__(self):
        import repro.simkit.network as netmod

        self._netmod = netmod
        self._prev = netmod.DEFAULT_REBALANCE
        netmod.DEFAULT_REBALANCE = self.rebalance

    def __exit__(self, *exc):
        self._netmod.DEFAULT_REBALANCE = self._prev


def _run_engine_cycle(rebalance, approach="mirror", with_snapshot=False, traced=False):
    """One full cycle under an explicit rebalance engine."""
    with _engine(rebalance):
        cloud = build_cloud(N_NODES, seed=SEED, calib=CALIB)
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


def _run_engine_fault_cycle(rebalance):
    """A fault-injected deployment (NIC degradation + a provider crash that
    replication survives) under an explicit rebalance engine."""
    from repro.faults import FaultPlan, RetryPolicy, resilient_deploy
    from repro.faults.plan import FaultEvent

    with _engine(rebalance):
        cloud = build_cloud(
            N_NODES, seed=SEED, calib=CALIB,
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
            "traffic": dict(cloud.metrics.traffic),
            "boot_times": tuple(res.boot_times),
            "completion": res.completion_time,
            "survival": res.survival_rate,
            "boots_failed": res.boots_failed,
        }


class TestCohortEngineMatchesLegacy:
    """The cohort rebalance engine against its per-flow oracle, full stack.

    The cohort engine must not move a single event on the fig. 4 / fig. 5
    cycles: same clock, same event count, same traffic, same boot times —
    exact equality, including traced runs. Fault-injected runs compare
    everything except the event count (`fail_nic` arms a different number
    of no-op sentinel timers per engine; application ordering and results
    are unaffected — see DESIGN.md §8).
    """

    @pytest.mark.parametrize("approach", ["mirror", "qcow2-pvfs", "prepropagation"])
    def test_deploy_bit_identical(self, approach):
        legacy = _run_engine_cycle("legacy", approach)
        cohort = _run_engine_cycle("cohort", approach)
        assert cohort == legacy

    def test_snapshot_cycle_bit_identical(self):
        legacy = _run_engine_cycle("legacy", with_snapshot=True)
        cohort = _run_engine_cycle("cohort", with_snapshot=True)
        assert cohort == legacy

    def test_traced_cycle_bit_identical(self):
        legacy = _run_engine_cycle("legacy", traced=True)
        cohort = _run_engine_cycle("cohort", traced=True)
        assert cohort == legacy
        assert cohort["spans"] > 0

    def test_fault_injected_results_identical(self):
        legacy = _run_engine_fault_cycle("legacy")
        cohort = _run_engine_fault_cycle("cohort")
        assert cohort == legacy
        # the crash must actually have bitten (otherwise this is vacuous)
        assert cohort["survival"] > 0
