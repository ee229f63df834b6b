"""Tests for the disk model, hosts, and the RPC layer."""

import gc

import pytest

from repro.common.errors import ProviderUnavailableError, SimulationError
from repro.common.payload import Payload
from repro.common.units import MB, MiB
from repro.simkit import rpc
from repro.simkit.core import Environment
from repro.simkit.disk import Disk, FileDevice, WritePolicy
from repro.simkit.host import Fabric


class TestDisk:
    def test_sequential_read_time(self):
        env = Environment()
        disk = Disk(env, "d", read_bandwidth=55 * MB)

        def proc():
            yield from disk.read(55 * MB)
            return env.now

        assert env.run(env.process(proc())) == pytest.approx(1.0, rel=1e-6)

    def test_random_read_adds_seek(self):
        env = Environment()
        disk = Disk(env, "d", read_bandwidth=55 * MB, seek_time=0.008)

        def proc():
            yield from disk.read(55 * MB, sequential=False)
            return env.now

        assert env.run(env.process(proc())) == pytest.approx(1.008, rel=1e-6)

    def test_disk_queue_serializes(self):
        env = Environment()
        disk = Disk(env, "d", read_bandwidth=10 * MB)
        ends = []

        def reader():
            yield from disk.read(10 * MB)
            ends.append(env.now)

        env.process(reader())
        env.process(reader())
        env.run()
        assert ends == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_metrics_counted(self):
        from repro.simkit.trace import Metrics

        env = Environment()
        m = Metrics()
        disk = Disk(env, "d", metrics=m)

        def proc():
            yield from disk.write(5 * MB)

        env.run(env.process(proc()))
        assert m.counters["disk-write"] == 1
        assert m.counters["disk-write-bytes"] == 5 * MB


class TestFileDevice:
    def _make(self, policy_kwargs=None):
        env = Environment()
        disk = Disk(env, "d", write_bandwidth=55 * MB)
        kwargs = dict(
            name="test",
            write_absorb_bandwidth=400 * MB,
            cached_read_bandwidth=500 * MB,
            per_op_overhead=0.0,
            dirty_budget=100 * MiB,
        )
        kwargs.update(policy_kwargs or {})
        dev = FileDevice(env, disk, WritePolicy(**kwargs), size=1024 * MiB)
        return env, dev

    def test_write_within_budget_at_absorb_speed(self):
        env, dev = self._make()

        def proc():
            yield from dev.write(40 * MB)
            return env.now

        t = env.run(env.process(proc()))
        assert t == pytest.approx(0.1, rel=1e-3)

    def test_write_over_budget_throttled_to_disk(self):
        env, dev = self._make()
        dev.dirty = 100 * MiB  # budget exhausted

        def proc():
            yield from dev.write(55 * MB)
            return env.now

        t = env.run(env.process(proc()))
        assert t == pytest.approx(1.0, rel=1e-2)

    def test_cached_read_fast_uncached_hits_disk(self):
        env, dev = self._make()
        times = {}

        def proc():
            t0 = env.now
            yield from dev.read(50 * MB, cached=True)
            times["cached"] = env.now - t0
            t0 = env.now
            yield from dev.read(55 * MB, cached=False)
            times["disk"] = env.now - t0

        env.run(env.process(proc()))
        assert times["cached"] == pytest.approx(0.1, rel=1e-3)
        assert times["disk"] == pytest.approx(1.0, rel=1e-2)

    def test_per_op_overhead_applied(self):
        env, dev = self._make({"per_op_overhead": 0.001})

        def proc():
            yield from dev.metadata_op()
            return env.now

        assert env.run(env.process(proc())) == pytest.approx(0.001)

    def test_flusher_drains_dirty(self):
        env, dev = self._make()

        def proc():
            yield from dev.write(20 * MB)

        env.run(env.process(proc()))
        env.run()  # let the background flusher finish
        assert dev.dirty == 0


class TestHostFabric:
    def test_add_host_and_files(self):
        fab = Fabric(seed=0)
        h = fab.add_host("n1")
        f = h.create_file("/img", 100)
        f.write(0, Payload.from_bytes(b"x" * 100))
        assert h.open_file("/img").read(0, 3).to_bytes() == b"xxx"
        assert h.exists("/img")
        h.unlink("/img")
        assert not h.exists("/img")

    def test_duplicate_host_rejected(self):
        fab = Fabric(seed=0)
        fab.add_host("n1")
        with pytest.raises(SimulationError):
            fab.add_host("n1")

    def test_duplicate_file_rejected(self):
        fab = Fabric(seed=0)
        h = fab.add_host("n1")
        h.create_file("/a", 10)
        with pytest.raises(SimulationError):
            h.create_file("/a", 10)

    def test_missing_file_raises(self):
        fab = Fabric(seed=0)
        h = fab.add_host("n1")
        with pytest.raises(SimulationError):
            h.open_file("/nope")

    def test_compute_occupies_core(self):
        fab = Fabric(seed=0)
        h = fab.add_host("n1", cores=1)
        ends = []

        def job():
            yield from h.compute(1.0)
            ends.append(fab.env.now)

        h.spawn(job())
        h.spawn(job())
        fab.run()
        assert ends == [pytest.approx(1.0), pytest.approx(2.0)]


class EchoService:
    def __init__(self, host):
        self.host = host

    def rpc_echo(self, caller, value):
        yield self.host.env.timeout(0.001)
        return value

    def rpc_fetch(self, caller, nbytes):
        yield self.host.env.timeout(0.0)
        return Payload.zeros(nbytes)


class TestRpc:
    def _setup(self):
        fab = Fabric(seed=0)
        a = fab.add_host("a")
        b = fab.add_host("b")
        rpc.bind(b, "svc", EchoService(b))
        return fab, a, b

    def test_roundtrip(self):
        fab, a, b = self._setup()

        def client():
            return (yield from rpc.call(a, b, "svc", "echo", 7))

        assert fab.run(fab.env.process(client())) == 7

    def test_bulk_response_is_flow(self):
        fab, a, b = self._setup()

        def client():
            payload = yield from rpc.call(a, b, "svc", "fetch", 10 * MB)
            return payload

        p = fab.run(fab.env.process(client()))
        assert p.size == 10 * MB
        assert fab.metrics.traffic["payload"] == 10 * MB
        # ~10MB at 117.5 MB/s
        assert fab.env.now == pytest.approx(10 * MB / (117.5 * MB), rel=0.05)

    def test_unknown_service(self):
        fab, a, b = self._setup()

        def client():
            yield from rpc.call(a, b, "nope", "echo", 1)

        with pytest.raises(SimulationError):
            fab.run(fab.env.process(client()))

    def test_unknown_method(self):
        fab, a, b = self._setup()

        def client():
            yield from rpc.call(a, b, "svc", "nope")

        with pytest.raises(SimulationError):
            fab.run(fab.env.process(client()))

    def test_host_down_raises_after_timeout(self):
        fab, a, b = self._setup()
        rpc.host_down(b)

        def client():
            yield from rpc.call(a, b, "svc", "echo", 1)

        with pytest.raises(ProviderUnavailableError):
            fab.run(fab.env.process(client()))
        assert fab.env.now >= rpc.RPC_TIMEOUT

    def test_host_recovers(self):
        fab, a, b = self._setup()
        rpc.host_down(b)
        rpc.host_up(b)

        def client():
            return (yield from rpc.call(a, b, "svc", "echo", 3))

        assert fab.run(fab.env.process(client())) == 3

    def test_fresh_fabric_never_sees_an_earlier_fabrics_crash(self):
        fab, a, b = self._setup()
        b.fail("crash")
        assert rpc.is_host_down(b)
        del fab, a, b  # free the crashed fabric; its id may be reused
        gc.collect()

        for _ in range(8):
            fab, a, b = self._setup()
            assert not fab.down_hosts
            assert not rpc.is_host_down(b)

            def client():
                return (yield from rpc.call(a, b, "svc", "echo", 5))

            assert fab.run(fab.env.process(client())) == 5
            assert fab.env.now < rpc.RPC_TIMEOUT

    def test_double_bind_rejected(self):
        fab, a, b = self._setup()
        with pytest.raises(SimulationError):
            rpc.bind(b, "svc", EchoService(b))

    def test_rpc_counted(self):
        fab, a, b = self._setup()

        def client():
            yield from rpc.call(a, b, "svc", "echo", 1)
            yield from rpc.call(a, b, "svc", "echo", 2)

        fab.run(fab.env.process(client()))
        assert fab.metrics.counters["rpc"] == 2
