"""Local-disk and page-cache models.

The paper's compute nodes have commodity SATA disks (~55 MB/s measured).
Two layers are modelled:

* :class:`Disk` — the raw device: a single-served FIFO queue where an
  operation costs ``seek (if random) + size / bandwidth``. This is what the
  repository providers, the broadcast receivers and the mirror's local file
  pay when they actually hit the platter.

* :class:`FileDevice` — a host file-access path *through the kernel page
  cache*, parameterized by a write policy. This is what the Bonnie++
  experiment (Figs. 6 and 7) exercises: the paper's headline observation is
  that the mirror's ``mmap``-based local file triggers the kernel's
  asynchronous write-back and roughly doubles effective write throughput over
  the default hypervisor file path, while FUSE's user/kernel context switches
  add a fixed per-operation CPU cost that shows up in the ops/s metrics.

  We model exactly those two effects: a policy-dependent cache-absorption
  bandwidth for writes (with a dirty budget drained at disk speed in the
  background) and a per-operation overhead added by the FUSE path.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..common.units import MB, MILLISECONDS
from .core import Environment, Event, Timeout
from .resources import Request, Resource
from .trace import Metrics


class Disk:
    """Raw block device with FIFO queueing and a sequential/random cost model."""

    def __init__(
        self,
        env: Environment,
        name: str,
        read_bandwidth: float = 55 * MB,
        write_bandwidth: float = 55 * MB,
        seek_time: float = 8 * MILLISECONDS,
        metrics: Optional[Metrics] = None,
    ):
        self.env = env
        self.name = name
        self.read_bandwidth = read_bandwidth
        self.write_bandwidth = write_bandwidth
        self.seek_time = seek_time
        self.metrics = metrics
        self._base_read_bandwidth = read_bandwidth
        self._base_write_bandwidth = write_bandwidth
        self._stall_factor = 1.0
        self._queue = Resource(env, capacity=1)
        # counter keys hoisted out of the per-I/O hot path
        self._keys = {
            "read": ("disk-read", "disk-read-bytes"),
            "write": ("disk-write", "disk-write-bytes"),
        }

    # ------------------------------------------------------------------ #
    # one I/O: FIFO acquisition, pricing and accounting, shared by the
    # generator callers below and the page cache's callback drain
    # ------------------------------------------------------------------ #
    def _acquire(self) -> Optional[Request]:
        """Take the FIFO slot: ``None`` when it was free (no event is
        spent, the common case outside contention), else the request that
        grants it in arrival order."""
        queue = self._queue
        if queue.try_acquire():
            return None
        return queue.request()

    def _service_time(self, nbytes: int, bandwidth: float, sequential: bool) -> float:
        duration = nbytes / bandwidth
        if not sequential:
            duration += self.seek_time
        return duration

    def _complete(self, kind: str, nbytes: int) -> None:
        """Charge a finished I/O to the counters and hand the slot on."""
        metrics = self.metrics
        if metrics is not None:
            count_key, bytes_key = self._keys[kind]
            counters = metrics.counters
            counters[count_key] += 1
            counters[bytes_key] += nbytes
        self._queue.release()

    def _io(self, nbytes: int, bandwidth: float, sequential: bool, kind: str):
        request = self._acquire()
        if request is not None:
            yield request
        try:
            yield Timeout(self.env, self._service_time(nbytes, bandwidth, sequential))
        except BaseException:
            # interrupted mid-I/O: free the slot at once, charge nothing
            self._queue.release()
            raise
        self._complete(kind, nbytes)

    def read(self, nbytes: int, sequential: bool = True) -> Generator[Event, None, None]:
        """Process-style: ``yield from disk.read(n)`` blocks for the I/O time."""
        return self._io(nbytes, self.read_bandwidth, sequential, "read")

    def write(self, nbytes: int, sequential: bool = True) -> Generator[Event, None, None]:
        return self._io(nbytes, self.write_bandwidth, sequential, "write")

    @property
    def queue_length(self) -> int:
        return self._queue.queue_length

    # ------------------------------------------------------------------ #
    # fault injection
    # ------------------------------------------------------------------ #
    def stall(self, factor: float) -> None:
        """Degrade both bandwidths by ``factor`` (fault injection: disk stall).

        Affects operations *priced after* the call — an I/O already in the
        device queue completes at its original rate, like a request the
        controller has already accepted.
        """
        if factor < 1.0:
            raise ValueError(f"stall factor must be >= 1, got {factor}")
        self._stall_factor = factor
        self.read_bandwidth = self._base_read_bandwidth / factor
        self.write_bandwidth = self._base_write_bandwidth / factor

    def unstall(self) -> None:
        """Restore the calibrated bandwidths after a :meth:`stall`."""
        self._stall_factor = 1.0
        self.read_bandwidth = self._base_read_bandwidth
        self.write_bandwidth = self._base_write_bandwidth

    @property
    def stalled(self) -> bool:
        return self._stall_factor != 1.0


#: bytes the page cache's write-back drain flushes per disk I/O
FLUSH_QUANTUM = 4 * MB


class WritePolicy:
    """Parameters of one file-access path through the page cache."""

    def __init__(
        self,
        name: str,
        write_absorb_bandwidth: float,
        cached_read_bandwidth: float,
        per_op_overhead: float,
        dirty_budget: int,
        data_op_overhead: float | None = None,
    ):
        #: label for reports ("hypervisor-default", "mirror-mmap")
        self.name = name
        #: rate at which writes enter the cache while the dirty budget holds
        self.write_absorb_bandwidth = write_absorb_bandwidth
        #: rate for reads served from cache (copy + syscall path)
        self.cached_read_bandwidth = cached_read_bandwidth
        #: fixed CPU cost per *metadata* operation (context switches)
        self.per_op_overhead = per_op_overhead
        #: fixed CPU cost per *data* operation (amortized by readahead /
        #: request merging; defaults to the metadata cost when not split)
        self.data_op_overhead = (
            data_op_overhead if data_op_overhead is not None else per_op_overhead
        )
        #: dirty bytes tolerated before writers are throttled to disk speed
        self.dirty_budget = dirty_budget


class FileDevice:
    """A file opened on a host through the page cache under a write policy.

    Writes are absorbed into a ``dirty`` byte count, at disk speed once it
    exceeds the policy's budget, and a background write-back drain flushes
    it to the disk in batches of up to :data:`FLUSH_QUANTUM` bytes. Both run
    as event callbacks: a write resumes its caller once, at completion, and
    the drain is a state machine on the disk FIFO, not a process.
    """

    def __init__(self, env: Environment, disk: Disk, policy: WritePolicy, size: int):
        self.env = env
        self.disk = disk
        self.policy = policy
        self.size = size
        self.dirty = 0
        self._draining = False
        #: the flush batch in flight: its bytes and the bandwidth it was
        #: priced at when issued (a later stall does not reprice it)
        self._batch = 0
        self._batch_bandwidth = 0.0

    # ------------------------------------------------------------------ #
    def write(self, nbytes: int) -> Generator[Event, None, None]:
        """Write ``nbytes`` through the cache (throttled past the dirty budget).

        The budget is checked when the per-op delay ends, by a callback that
        schedules the completion; the caller resumes only then and adds its
        dirty bytes, so a writer interrupted in either delay adds none.
        """
        env = self.env
        done = Event(env)

        def absorb(_ev: Event) -> None:
            if not done.callbacks:
                return  # the writer was interrupted during the per-op delay
            policy = self.policy
            if self.dirty + nbytes <= policy.dirty_budget:
                delay = nbytes / policy.write_absorb_bandwidth
            else:
                # Over budget: the writer effectively runs at drain (disk) speed.
                delay = nbytes / self.disk.write_bandwidth
            env.schedule_at(done, env.now + delay)

        env.call_later(self.policy.data_op_overhead, absorb)
        yield done
        self.dirty += nbytes
        self._ensure_drain()

    def read(self, nbytes: int, cached: bool) -> Generator[Event, None, None]:
        """Read ``nbytes``; ``cached`` says whether the page cache holds them."""
        if cached:
            # Per-op cost + copy-out in one timeout: the two delays are
            # consecutive with no observable state in between, so merging
            # them is timeline-exact and halves the events per cached read.
            policy = self.policy
            yield Timeout(
                self.env,
                policy.data_op_overhead + nbytes / policy.cached_read_bandwidth,
            )
        else:
            yield Timeout(self.env, self.policy.data_op_overhead)
            yield from self.disk.read(nbytes, sequential=True)

    def metadata_op(self) -> Generator[Event, None, None]:
        """A create/delete/seek-class operation: pure per-op cost."""
        yield self.env.timeout(self.policy.per_op_overhead)

    def sync(self) -> Generator[Event, None, None]:
        """Block until all dirty bytes have been flushed to disk."""
        while self.dirty > 0:
            yield self.env.timeout(self.dirty / self.disk.write_bandwidth)
            # the drain runs concurrently; loop until it caught up
            self._ensure_drain()

    # ------------------------------------------------------------------ #
    # write-back drain
    # ------------------------------------------------------------------ #
    def _ensure_drain(self) -> None:
        if not self._draining and self.dirty > 0:
            self._draining = True
            # Deferred by one event, never started inline: same-instant
            # events already queued (lockstep writers, a reader on the same
            # disk) must reach the disk FIFO before the first batch does.
            self.env.call_later(0.0, self._drain)

    def _drain(self, _ev: Optional[Event] = None) -> None:
        """Queue the next flush batch on the disk (``dirty`` is positive)."""
        disk = self.disk
        self._batch = min(self.dirty, FLUSH_QUANTUM)
        self._batch_bandwidth = disk.write_bandwidth
        request = disk._acquire()
        if request is None:
            self._issue_batch()
        else:
            request.callbacks.append(self._issue_batch)

    def _issue_batch(self, _ev: Optional[Event] = None) -> None:
        duration = self.disk._service_time(self._batch, self._batch_bandwidth, True)
        self.env.call_later(duration, self._batch_done)

    def _batch_done(self, _ev: Event) -> None:
        self.disk._complete("write", self._batch)
        self.dirty -= self._batch
        if self.dirty > 0:
            self._drain()
        else:
            self._draining = False
