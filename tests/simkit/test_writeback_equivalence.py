"""The callback write-back drain reproduces the process-based flusher exactly.

:class:`~repro.simkit.disk.FileDevice` absorbs a write with callbacks on
its two delay events and drains the page cache with a callback state
machine on the :class:`~repro.simkit.disk.Disk` FIFO. This file keeps the
design it replaced alive as an in-test oracle: a ``write`` generator that
resumes after each delay, and a ``page-cache-flusher`` :class:`Process`
spawned whenever dirty bytes appear, doing its I/O through a copy of the
generator disk path. Each scenario runs once per design and the two runs
must agree exactly on

* every write's completion time;
* the device ``dirty`` counters after every processed event;
* the ordered disk-op log (time, kind, bytes) and the disk counters;
* the final ``env.now``.

All delays are binary fractions of a second, so simultaneous events tie
exactly and the scenarios exercise same-instant ordering: a drain started
inline instead of one event later, or a write whose budget decision is
taken at issue instead of after the per-op delay, changes the log.
"""

from collections import defaultdict
from typing import Callable, Dict, List, Optional

import pytest

from repro.common.errors import InterruptedError_
from repro.common.units import KiB, MB, MiB
from repro.simkit.core import Environment, Process, Timeout
from repro.simkit.disk import Disk, FileDevice, WritePolicy
from repro.simkit.host import Fabric
from repro.simkit.trace import Metrics

#: time unit: the absorb delay of one 8 KiB write
U = 2.0 ** -13
DISK_BW = float(2 ** 24)  # 16 MiB/s: an 8 KiB flush takes 4 U
ABSORB_BW = float(2 ** 26)  # 64 MiB/s: an 8 KiB write is absorbed in 1 U
OVERHEAD = 2 * U


# --------------------------------------------------------------------------- #
# the oracle: the process-based page cache, as it was
# --------------------------------------------------------------------------- #
def reference_disk_io(disk: Disk, nbytes: int, bandwidth: float, sequential: bool, kind: str):
    """The generator disk path the flusher used (``Disk._io``)."""
    if not disk._queue.try_acquire():
        yield disk._queue.request()
    try:
        duration = nbytes / bandwidth
        if not sequential:
            duration += disk.seek_time
        yield Timeout(disk.env, duration)
        metrics = disk.metrics
        if metrics is not None:
            count_key, bytes_key = {
                "read": ("disk-read", "disk-read-bytes"),
                "write": ("disk-write", "disk-write-bytes"),
            }[kind]
            metrics.counters[count_key] += 1
            metrics.counters[bytes_key] += nbytes
    finally:
        disk._queue.release()


class ProcessFlusherDevice:
    """Reference page cache: a generator write and a flusher Process."""

    def __init__(self, env: Environment, disk: Disk, policy: WritePolicy, size: int):
        self.env = env
        self.disk = disk
        self.policy = policy
        self.size = size
        self.dirty = 0
        self._flusher_active = False

    def write(self, nbytes: int):
        yield self.env.timeout(self.policy.data_op_overhead)
        if self.dirty + nbytes <= self.policy.dirty_budget:
            yield self.env.timeout(nbytes / self.policy.write_absorb_bandwidth)
        else:
            yield self.env.timeout(nbytes / self.disk.write_bandwidth)
        self.dirty += nbytes
        self._ensure_flusher()

    def sync(self):
        while self.dirty > 0:
            yield self.env.timeout(self.dirty / self.disk.write_bandwidth)
            if self.dirty > 0 and not self._flusher_active:
                self._ensure_flusher()

    def _ensure_flusher(self) -> None:
        if not self._flusher_active and self.dirty > 0:
            self._flusher_active = True
            self.env.process(self._flusher(), name="page-cache-flusher")

    def _flusher(self):
        flush_quantum = 4 * MB
        while self.dirty > 0:
            batch = min(self.dirty, flush_quantum)
            yield from reference_disk_io(
                self.disk, batch, self.disk.write_bandwidth, True, "write"
            )
            self.dirty -= batch
        self._flusher_active = False


def reference_read(disk: Disk, nbytes: int):
    return reference_disk_io(disk, nbytes, disk.read_bandwidth, True, "read")


def callback_read(disk: Disk, nbytes: int):
    return disk.read(nbytes, sequential=True)


ORACLE = (ProcessFlusherDevice, reference_read)
CALLBACK = (FileDevice, callback_read)


# --------------------------------------------------------------------------- #
# recording harness
# --------------------------------------------------------------------------- #
class LoggedCounters(defaultdict):
    """Metrics counters that log every disk charge as (time, kind, bytes)."""

    def __init__(self, env: Environment, log: List[tuple]):
        super().__init__(int)
        self.env = env
        self.log = log

    def __setitem__(self, key, value):
        if key in ("disk-read-bytes", "disk-write-bytes"):
            self.log.append(("disk", self.env.now, key[5:-6], value - self.get(key, 0)))
        super().__setitem__(key, value)


class World:
    """One scenario run under one page-cache design."""

    def __init__(self, design, fabric: Optional[Fabric] = None):
        self.device_cls, self.read = design
        self.fabric = fabric
        self.env = fabric.env if fabric is not None else Environment()
        self.log: List[tuple] = []
        self.metrics = fabric.metrics if fabric is not None else Metrics()
        self.metrics.counters = LoggedCounters(self.env, self.log)
        self.devices: List = []
        self.completions: Dict[str, List[float]] = defaultdict(list)

    def disk(self, name: str = "d") -> Disk:
        return Disk(
            self.env, name, read_bandwidth=DISK_BW, write_bandwidth=DISK_BW,
            seek_time=U, metrics=self.metrics,
        )

    def device(self, disk: Disk, budget: int = 64 * MiB):
        policy = WritePolicy(
            "writeback", write_absorb_bandwidth=ABSORB_BW,
            cached_read_bandwidth=ABSORB_BW, per_op_overhead=OVERHEAD,
            dirty_budget=budget,
        )
        dev = self.device_cls(self.env, disk, policy, 1024 * MiB)
        self.devices.append(dev)
        return dev

    def actor(self, name: str, script, dev=None, disk: Optional[Disk] = None):
        """Run ``script``: ("cpu", units) | ("w", bytes) | ("r", bytes) |
        ("sync",) | ("stall", factor) | ("unstall",)."""
        env = self.env

        def run():
            for op in script:
                kind = op[0]
                if kind == "cpu":
                    yield Timeout(env, op[1] * U)
                elif kind == "w":
                    yield from dev.write(op[1])
                    self.completions[name].append(env.now)
                    self.log.append(("done", env.now, name))
                elif kind == "r":
                    yield from self.read(disk, op[1])
                elif kind == "sync":
                    yield from dev.sync()
                    self.log.append(("synced", env.now, name))
                elif kind == "stall":
                    disk.stall(op[1])
                elif kind == "unstall":
                    disk.unstall()

        return run()

    def spawn(self, name: str, script, dev=None, disk=None) -> None:
        self.env.process(self.actor(name, script, dev, disk), name=name)

    def run(self) -> dict:
        env = self.env
        seen = [dev.dirty for dev in self.devices]
        dirty_trace = []
        while env._queue:
            env.step()
            for i, dev in enumerate(self.devices):
                if dev.dirty != seen[i]:
                    seen[i] = dev.dirty
                    dirty_trace.append((env.now, i, dev.dirty))
                    self.log.append(("dirty", env.now, i, dev.dirty))
        counters = {k: v for k, v in self.metrics.counters.items() if k.startswith("disk")}
        return {
            "completions": dict(self.completions),
            "dirty": dirty_trace,
            "disk_ops": [e for e in self.log if e[0] == "disk"],
            "counters": counters,
            "now": env.now,
            "log": self.log,
        }


# --------------------------------------------------------------------------- #
# scenarios
# --------------------------------------------------------------------------- #
W8 = 8 * KiB


def lockstep_separate_devices(w: World) -> None:
    """Four VMs on their own disks running one script in lockstep."""
    script = [("cpu", 1), ("w", W8), ("cpu", 2), ("w", W8), ("w", W8), ("cpu", 4), ("w", W8)] * 3
    for i in range(4):
        w.spawn(f"vm{i}", script, dev=w.device(w.disk(f"d{i}")))


def two_writers_one_device(w: World) -> None:
    """A VM's small writes and the prefetcher's chunk writes share a device."""
    dev = w.device(w.disk())
    w.spawn("vm", [("w", 0)] + [("w", W8), ("cpu", 1)] * 12, dev=dev)
    w.spawn("prefetch", [("cpu", 3), ("w", 256 * KiB), ("cpu", 5), ("w", 256 * KiB)], dev=dev)


def two_devices_one_disk_with_reads(w: World) -> None:
    """Two mirrors on one disk; a reader's I/O lands on write completions."""
    disk = w.disk()
    a, b = w.device(disk), w.device(disk)
    w.spawn("vm-a", [("w", W8), ("cpu", 3)] * 6, dev=a)
    w.spawn("vm-b", [("cpu", 1), ("w", W8), ("cpu", 2)] * 6, dev=b)
    # each read is issued exactly when vm-a's write completes: its timer is
    # queued after vm-a's completion event but before the drain's start
    w.spawn("reader", [("cpu", 2), ("cpu", 1), ("r", W8), ("cpu", 3)] * 4, disk=disk)
    w.spawn("reader-2", [("cpu", 5), ("r", 4 * KiB)] * 5, disk=disk)


def over_budget_throttling(w: World) -> None:
    """A 16 KiB dirty budget throttles writers to disk speed."""
    dev = w.device(w.disk(), budget=16 * KiB)
    w.spawn("vm", [("w", W8)] * 12 + [("cpu", 3), ("w", W8), ("w", W8)], dev=dev)
    w.spawn("big", [("cpu", 2), ("w", 64 * KiB), ("w", 24 * KiB)], dev=dev)


def sync_while_writing(w: World) -> None:
    """sync() waits for the drain while another writer keeps dirtying."""
    dev = w.device(w.disk())
    w.spawn("closer", [("w", W8)] * 5 + [("sync",), ("w", W8), ("w", W8), ("sync",)], dev=dev)
    w.spawn("vm", [("cpu", 1), ("w", W8), ("cpu", 3)] * 8, dev=dev)


def stall_mid_drain(w: World) -> None:
    """A disk stall lands while flush batches wait in the disk FIFO."""
    disk = w.disk()
    dev = w.device(disk)
    w.spawn("vm", [("w", MiB), ("w", 3 * MiB), ("cpu", 16), ("w", 2 * MiB)], dev=dev)
    # the first batch is issued at 130 U behind a read that holds the disk
    # until 192 U; the stall at 150 U must not reprice it
    w.spawn("reader", [("cpu", 64), ("r", 256 * KiB)] * 6, disk=disk)
    w.spawn("staller", [("cpu", 150), ("stall", 4.0), ("cpu", 4000), ("unstall",)], disk=disk)


def host_fail(crash_at: float) -> Callable[[World], None]:
    def scenario(w: World) -> None:
        host = w.fabric.add_host(
            "n0", disk_read_bw=DISK_BW, disk_write_bw=DISK_BW, disk_seek_time=U
        )
        a, b = w.device(host.disk), w.device(host.disk)
        # the VM's second write starts at 5 U: its per-op delay ends at 7 U,
        # its absorb delay at 8 U
        script = [("w", W8), ("cpu", 2), ("w", W8), ("cpu", 1), ("w", W8)]
        host.spawn(w.actor("vm", script, dev=a), name="vm")
        w.spawn("survivor", [("cpu", 1), ("w", W8), ("cpu", 2)] * 5, dev=b)

        def crash():
            yield Timeout(w.env, crash_at * U)
            host.fail("test-crash")

        w.env.process(crash(), name="crash")

    return scenario


SCENARIOS = {
    "lockstep-separate-devices": lockstep_separate_devices,
    "two-writers-one-device": two_writers_one_device,
    "two-devices-one-disk-with-reads": two_devices_one_disk_with_reads,
    "over-budget-throttling": over_budget_throttling,
    "sync-while-writing": sync_while_writing,
    "stall-mid-drain": stall_mid_drain,
    "host-fail-in-per-op-delay": host_fail(6.0),
    "host-fail-in-absorb-delay": host_fail(7.5),
}


def run_scenario(design, name: str) -> dict:
    fabric = Fabric(seed=0) if name.startswith("host-fail") else None
    world = World(design, fabric)
    SCENARIOS[name](world)
    return world.run()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_callback_drain_matches_process_flusher(name):
    ref = run_scenario(ORACLE, name)
    new = run_scenario(CALLBACK, name)
    assert ref["disk_ops"], "scenario must exercise the drain"
    assert new["completions"] == ref["completions"]
    assert new["dirty"] == ref["dirty"]
    assert new["disk_ops"] == ref["disk_ops"]
    assert new["counters"] == ref["counters"]
    assert new["now"] == ref["now"]
    assert new["log"] == ref["log"]


@pytest.mark.parametrize("name", ["host-fail-in-per-op-delay", "host-fail-in-absorb-delay"])
def test_interrupted_write_adds_no_dirty_bytes(name):
    out = run_scenario(CALLBACK, name)
    # only the VM's first write (done at 3 U) completed before the crash,
    # and only its bytes ever passed through the VM's device
    assert out["completions"]["vm"] == [3 * U]
    assert [d for _t, i, d in out["dirty"] if i == 0] == [W8, 0]


def test_write_costs_four_events_and_no_process(monkeypatch):
    """Per-op delay, absorb delay, drain start and one flush batch."""
    spawned = []
    init = Process.__init__

    def counting_init(self, *args, **kw):
        spawned.append(self)
        init(self, *args, **kw)

    world = World(CALLBACK)
    dev = world.device(world.disk())
    env = world.env
    monkeypatch.setattr(Process, "__init__", counting_init)

    def writer():
        yield from dev.write(W8)

    env.process(writer())
    env.run()
    # the writer's own bootstrap and finish events plus four for the write
    assert env.event_count == 2 + 4
    assert len(spawned) == 1
    assert dev.dirty == 0
    assert world.metrics.counters["disk-write-bytes"] == W8


def interrupted_writer(design, interrupt_at: float):
    device_cls, _read = design
    env = Environment()
    disk = Disk(env, "d", write_bandwidth=DISK_BW)
    policy = WritePolicy("p", ABSORB_BW, ABSORB_BW, OVERHEAD, 64 * MiB)
    dev = device_cls(env, disk, policy, MiB)
    caught = []

    def writer():
        try:
            yield from dev.write(W8)
        except InterruptedError_:
            caught.append(env.now)

    proc = env.process(writer())

    def killer():
        yield Timeout(env, interrupt_at)
        proc.interrupt("stop")

    env.process(killer())
    env.run()
    return caught, dev.dirty, env.now


@pytest.mark.parametrize("interrupt_at", [1 * U, 2.5 * U])
def test_interrupted_writer_schedules_nothing_more(interrupt_at):
    """The interrupt raises in the writer, and a write interrupted in its
    per-op delay never schedules its completion: the run ends when the
    delay that was pending expires, exactly as with the oracle."""
    ref = interrupted_writer(ORACLE, interrupt_at)
    new = interrupted_writer(CALLBACK, interrupt_at)
    assert new == ref
    assert new[0] == [interrupt_at]
    assert new[1] == 0
