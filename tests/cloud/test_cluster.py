"""Tests for cluster construction options."""

import pytest

from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud, deploy
from repro.common.units import KiB, MiB
from repro.vmsim import make_image

SMALL = Calibration(
    image=ImageSpec(size=32 * MiB, chunk_size=256 * KiB, boot_touched_bytes=4 * MiB)
)


class TestBuildCloud:
    def test_topology(self):
        cloud = build_cloud(6, seed=1, calib=SMALL)
        assert len(cloud.compute) == 6
        assert cloud.manager.name == "manager"
        assert cloud.nfs_host.name == "nfs-server"
        assert cloud.blobseer is not None
        assert cloud.pvfs is not None

    def test_services_optional(self):
        cloud = build_cloud(4, seed=1, calib=SMALL, with_blobseer=False)
        assert cloud.blobseer is None
        assert cloud.pvfs is not None
        cloud2 = build_cloud(4, seed=1, calib=SMALL, with_pvfs=False)
        assert cloud2.pvfs is None

    def test_storage_on_compute_nodes(self):
        """§3.1.1: the pool aggregates the compute nodes' local disks."""
        cloud = build_cloud(5, seed=1, calib=SMALL)
        assert set(cloud.blobseer.data_services) == {h.name for h in cloud.compute}
        assert set(cloud.pvfs.io_servers) == {h.name for h in cloud.compute}

    def test_calibration_applied(self):
        cloud = build_cloud(2, seed=1, calib=SMALL)
        tb = SMALL.testbed
        node = cloud.compute[0]
        assert node.nic.up_capacity == tb.nic_bandwidth
        assert node.disk.read_bandwidth == tb.disk_read_bandwidth
        assert node.disk.seek_time == tb.disk_seek_time
        assert cloud.fabric.connection_setup == SMALL.service.connection_setup

    def test_dedup_flag(self):
        cloud = build_cloud(2, seed=1, calib=SMALL, dedup=True)
        assert cloud.blobseer.dedup_index is not None
        cloud2 = build_cloud(2, seed=1, calib=SMALL)
        assert cloud2.blobseer.dedup_index is None

    def test_placement_strategy(self):
        cloud = build_cloud(3, seed=1, calib=SMALL, placement="least-loaded")
        assert cloud.blobseer.policy.strategy == "least-loaded"

    def test_fairness_mode(self):
        cloud = build_cloud(2, seed=1, calib=SMALL, fairness="maxmin")
        assert cloud.fabric.network.fairness == "maxmin"

    def test_write_buffer_from_calibration(self):
        cloud = build_cloud(2, seed=1, calib=SMALL)
        svc = next(iter(cloud.blobseer.data_services.values()))
        assert svc._buffer.capacity == float(SMALL.service.provider_write_buffer)


class TestFairnessFullStack:
    """Max-min fairness through the whole stack at small scale.

    The fairness ablation (``make bench``, not run in CI) checks that the
    equal-share approximation is conservative; this is the same invariant
    on a deployment small enough for the tier-1 suite. Three dedicated
    providers feeding six instances make the two rules part ways.
    """

    CALIB = Calibration(
        image=ImageSpec(size=64 * MiB, chunk_size=256 * KiB, boot_touched_bytes=16 * MiB)
    )

    def _deploy(self, fairness):
        cloud = build_cloud(8, seed=5, calib=self.CALIB, fairness=fairness, data_nodes=3)
        image = make_image(
            self.CALIB.image.size, self.CALIB.image.boot_touched_bytes, n_regions=8
        )
        result = deploy(cloud, image, 6, "mirror")
        assert cloud.fabric.network.active_flow_count == 0
        return result

    def test_equal_share_never_faster_than_maxmin(self):
        maxmin = self._deploy("maxmin")
        equal = self._deploy("equal-share")
        assert len(maxmin.boot_times) == len(equal.boot_times) == 6
        assert equal.completion_time >= maxmin.completion_time * 0.999
