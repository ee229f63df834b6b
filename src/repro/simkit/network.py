"""Flow-level network fabric with fair bandwidth sharing over links.

The paper's testbed is a commodity GigE cluster (117.5 MB/s measured TCP
throughput, ~0.1 ms latency) behind a non-blocking switch, so the only
bandwidth constraints that matter are the hosts' NICs. We therefore model the
network at *flow level*: a bulk transfer is a fluid flow whose instantaneous
rate is its fair share of the links it crosses.

**Links.** Every capacity constraint is one :class:`Link`: a NIC direction
(``h3:up``, ``h3:down``) or, when a multi-rack
:class:`~repro.topo.Topology` is attached, one direction of a shared trunk
(``rack2:up``, ``pod0:down``, ``core``). A link holds its capacity, the
flows crossing it and their cached equal share ``capacity / max(1, n)``. A
flow's path is its source uplink, its destination downlink and, between
racks, the trunks it crosses (resolved once per host pair; intra-rack and
flat paths have none).

Two fairness disciplines are provided:

``"equal-share"`` (default)
    a flow's rate is the minimum share over its links. It slightly
    *under*-estimates throughput versus true max-min fairness because the
    share a bottlenecked-elsewhere flow leaves on a link is not
    redistributed.

``"maxmin"``
    exact max-min fairness via progressive filling over the same links,
    recomputed globally on every change. Heap-driven water filling,
    O(F log L) per recompute — used to bound the error of equal-share.

Every mutation (flow start, completion, abort, capacity change) ends in one
"shares changed on these links" call to one of two engines, picked once
from the fairness and the topology:

* The **cohort engine** runs equal-share on a flat or single-rack fabric,
  where every path is two NIC links. Flows bottlenecked on the same link
  share one rate, so the link keeps one lazy cohort record (a generation
  and a closed-segment history of past share levels) instead of touching
  every crossing flow. A flow's ``(remaining, t_last)`` is materialized only
  when its bottleneck switches side, when it becomes the cohort head (its
  ETA is needed), or when it aborts — by replaying the exact per-segment
  products the per-flow engine computes, so results are bit-identical to
  it. The completion heap holds one entry per link (the head's ETA),
  making flow maintenance near-O(1) per event instead of O(flows on the
  link). See DESIGN.md §8.
* The **per-flow engine** runs everything else: multi-rack equal-share and
  maxmin. After a change it recomputes the rate of every flow crossing a
  touched link (equal-share) or of every flow (maxmin) and re-arms only the
  flows whose rate changed. A flat fabric is the case where no path has a
  trunk, so a multi-rack topology with every host in one rack reproduces the
  cohort engine's results exactly: the oracle the tests compare it with.

**Completion wakeups** use a single earliest-ETA sentinel event per network
rather than one timer per flow per rebalance: rate changes push absolute
completion times onto a lazily-invalidated heap whose entries go stale when
their owner's (flow's or link's) generation moves on, and at most one
pending sentinel timer tracks the heap head. Flows whose share did not
change are not touched at all (their linear progress makes deferring the
bookkeeping exact).

A single-rack topology only adds per-tier traffic *accounting* (scope
classification lives in Metrics and never affects the timeline).

Small control messages (below :attr:`FlowNetwork.message_threshold`) bypass
the fluid model and pay ``latency + size/capacity + per_message_overhead``;
their bytes still land in the traffic accounting (per-tier scoped when a
topology is attached — the trunk is latency-dominated for them, not
bandwidth-limited, so they do not consume trunk share).
"""

from __future__ import annotations

from bisect import insort_right
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from ..topo.fabric import Topology

from ..common.errors import ProviderUnavailableError
from ..common.units import MB, MILLISECONDS
from ..obs.span import NULL_TRACER
from .core import Environment, Event, Timeout
from .trace import Metrics

_INF = float("inf")


class Link:
    """One direction of a NIC or of a shared trunk.

    ``flows`` is an insertion-ordered dict used as an ordered set: iteration
    order must be deterministic across runs, or float accumulation and event
    tie-breaking would depend on object memory addresses. ``share`` caches
    the equal-share level ``capacity / max(1, len(flows))``.

    The remaining fields are cohort-engine state. ``segs`` is the closed
    history of past share levels as ``(t_end, share)`` pairs: a lazy flow
    replays the pending suffix (from its ``seg_idx``) to materialize exactly
    the subtract-and-clamp products the per-flow engine would have applied
    at each boundary. ``natives`` holds the flows bottlenecked here, sorted
    by remaining bytes (ties in join order — insort_right is stable), so
    ``natives[0]`` is always the link's next completion. ``foreign`` holds
    crossing flows bottlenecked on their other link. ``gen`` invalidates
    completion-heap entries; ``partner_floor`` is a sound lower bound on the
    natives' other-link shares, letting a share increase skip the
    switch-out scan when no native can possibly leave.
    """

    __slots__ = (
        "name", "capacity", "flows", "share",
        "gen", "natives", "foreign", "segs", "seg_base", "partner_floor",
    )

    def __init__(self, name: str, capacity: float):
        self.name = name
        self.capacity = Link.checked(f"{name} capacity", capacity)
        self.flows: Dict[Flow, None] = {}
        self.share = self.capacity
        self.gen = 0
        self.natives: List[Flow] = []
        self.foreign: Dict[Flow, None] = {}
        self.segs: List[Tuple[float, float]] = []
        self.seg_base = 0
        self.partner_floor = _INF

    @staticmethod
    def checked(what: str, capacity: float) -> float:
        """``capacity`` as a float; ValueError unless it is positive."""
        if not capacity > 0:
            raise ValueError(f"{what} must be positive, got {capacity!r}")
        return float(capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name}, cap={self.capacity / MB:.1f}MB/s, n={len(self.flows)})"


class Nic:
    """A full-duplex network interface: one :class:`Link` per direction."""

    __slots__ = ("name", "up", "down")

    def __init__(self, name: str, up_capacity: float, down_capacity: float | None = None):
        self.name = name
        self.up = Link(f"{name}:up", up_capacity)
        self.down = Link(
            f"{name}:down", up_capacity if down_capacity is None else down_capacity
        )

    @property
    def up_capacity(self) -> float:
        return self.up.capacity

    @property
    def down_capacity(self) -> float:
        return self.down.capacity

    def __repr__(self) -> str:
        return f"Nic({self.name}, up={self.up.capacity / MB:.1f}MB/s)"


class Flow:
    """A bulk transfer in flight. Internal to :class:`FlowNetwork`.

    ``links`` is the flow's path: source uplink, destination downlink, then
    any trunks. ``gen`` is the flow's generation counter: it is bumped on
    every rate change (and on completion or abort), which lazily invalidates
    completion-heap entries pushed under earlier generations. ``ctime`` is
    the absolute simulated time at which the flow completes under its
    current rate.
    """

    __slots__ = (
        "src", "dst", "size", "remaining", "rate", "t_last", "ctime", "done",
        "gen", "kind", "span", "links", "scope", "home", "seg_idx",
    )

    def __init__(
        self, src: Nic, dst: Nic, size: float, done: Event, kind: str,
        links: Tuple[Link, ...],
    ):
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.t_last = 0.0
        self.ctime = 0.0
        self.done = done
        self.gen = 0
        self.kind = kind
        self.span = None  # observability: set by transfer() when tracing
        self.links = links
        #: tier label for traffic accounting (None = no topology)
        self.scope: Optional[str] = None
        #: cohort engine: the link whose share is this flow's rate (its
        #: bottleneck side) and the absolute index of the first segment of
        #: that link's history not yet applied to ``remaining``
        self.home: Optional[Link] = None
        self.seg_idx = 0


class FlowNetwork:
    """The cluster fabric: NIC registry, flows, messages, traffic accounting."""

    def __init__(
        self,
        env: Environment,
        metrics: Optional[Metrics] = None,
        latency: float = 0.1 * MILLISECONDS,
        fairness: str = "equal-share",
        message_threshold: int = 4096,
        per_message_overhead: float = 0.02 * MILLISECONDS,
        message_header_bytes: int = 66,
        topology: Optional["Topology"] = None,
    ):
        if fairness not in ("equal-share", "maxmin"):
            raise ValueError(f"unknown fairness discipline {fairness!r}")
        multi_rack = topology is not None and topology.multi_rack
        if multi_rack and fairness != "equal-share":
            raise ValueError(
                "hierarchical (multi-rack) topology requires equal-share fairness"
            )
        #: hierarchical fabric (None = flat switch). Multi-rack topologies
        #: add trunks to paths; a single-rack one only adds tier accounting.
        self.topology = topology
        self.env = env
        self.metrics = metrics if metrics is not None else Metrics()
        self.latency = latency
        self.fairness = fairness
        self.message_threshold = message_threshold
        self.per_message_overhead = per_message_overhead
        self.message_header_bytes = message_header_bytes
        #: observability: flow begin/end spans; inert unless a tracer is
        #: installed via :func:`repro.obs.install_tracer`
        self.tracer = NULL_TRACER
        #: the cohort engine needs equal-share (one rate per bottleneck
        #: link) and two-link paths; everything else runs per flow
        self._cohort = fairness == "equal-share" and not multi_rack
        if self._cohort:
            self._rebalance = self._cohort_rebalance
            self._detach = self._cohort_detach
        else:
            self._rebalance = self._flow_rebalance
            self._detach = self._flow_detach
        #: trunk link registry and memoized (src, dst) -> trunks
        self._trunks: Dict[str, Link] = {}
        self._trunk_cache: Dict[Tuple[str, str], Tuple[Link, ...]] = {}
        if multi_rack:
            self._build_trunks()
        #: cohort engine: links touched by the current event, in encounter
        #: order; flushed (generation bump + head ETA repush) at event end
        self._dirty: Dict[Link, None] = {}
        #: share changes of the current event awaiting bottleneck settling:
        #: ``(link, old_share)`` in change order. Settling is deferred until
        #: every share of the event is final so switch decisions compare
        #: final values — mid-event comparisons against stale partner shares
        #: could move a flow twice and subdivide its float products.
        self._pending: List[Tuple[Link, float]] = []
        self._nics: Dict[str, Nic] = {}
        self._flows: Dict[Flow, None] = {}
        #: min-heap of (completion time, push tie-breaker, owner generation,
        #: owner, flow); the owner is the flow (per-flow engine) or its
        #: bottleneck link (cohort engine). Entries whose generation no
        #: longer matches the owner's are stale and dropped lazily.
        self._completions: List[Tuple[float, int, int, object, Flow]] = []
        self._push_seq = 0
        #: generation of the currently armed sentinel timer (stale timers
        #: no-op on fire) and the absolute time it targets (None = no timer).
        self._sentinel_gen = 0
        self._sentinel_time: float | None = None

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #
    def add_nic(self, name: str, up_capacity: float, down_capacity: float | None = None) -> Nic:
        if name in self._nics:
            raise ValueError(f"duplicate NIC name {name!r}")
        nic = Nic(name, up_capacity, down_capacity)
        self._nics[name] = nic
        return nic

    def nic(self, name: str) -> Nic:
        return self._nics[name]

    @property
    def active_flow_count(self) -> int:
        return len(self._flows)

    def _build_trunks(self) -> None:
        topo = self.topology
        names = [(f"rack{r}", topo.rack_uplink) for r in range(topo.n_racks)]
        if topo.racks_per_pod:
            names += [(f"pod{p}", topo.pod_uplink) for p in range(topo.n_pods)]
        for name, capacity in names:
            for d in (":up", ":down"):
                self._trunks[name + d] = Link(name + d, capacity)
        if topo.core_capacity is not None:
            self._trunks["core"] = Link("core", topo.core_capacity)

    def trunk(self, name: str) -> Link:
        """Look up a trunk link by name (``rack3:up``, ``pod0:down``, ``core``)."""
        return self._trunks[name]

    def _trunk_path(self, src: Nic, dst: Nic) -> Tuple[Link, ...]:
        """Trunk links a src->dst flow crosses, memoized per host pair.

        Intra-rack flows cross none (the top-of-rack switch is non-blocking);
        cross-rack flows pay both rack trunks, plus pod trunks and the core
        when pods / a finite core are configured.
        """
        key = (src.name, dst.name)
        cached = self._trunk_cache.get(key)
        if cached is not None:
            return cached
        topo = self.topology
        r1 = topo.rack(src.name)
        r2 = topo.rack(dst.name)
        if r1 == r2:
            path: Tuple[Link, ...] = ()
        else:
            trunks = self._trunks
            links = [trunks[f"rack{r1}:up"]]
            core = trunks.get("core")
            if topo.pod(r1) != topo.pod(r2):
                links.append(trunks[f"pod{topo.pod(r1)}:up"])
                if core is not None:
                    links.append(core)
                links.append(trunks[f"pod{topo.pod(r2)}:down"])
            elif core is not None and not topo.racks_per_pod:
                # no pod tier: every cross-rack flow transits the core
                links.append(core)
            links.append(trunks[f"rack{r2}:down"])
            path = tuple(links)
        self._trunk_cache[key] = path
        return path

    # ------------------------------------------------------------------ #
    # transfers
    # ------------------------------------------------------------------ #
    def transfer(self, src: Nic, dst: Nic, nbytes: int, kind: str = "bulk") -> Event:
        """Start a bulk transfer; the event fires when the last byte lands."""
        if src is dst:
            # Loopback: no NIC constraint; charge memory-copy-ish zero time.
            self.metrics.add_traffic(0, kind)  # loopback does not hit the wire
            done = Event(self.env)
            done.succeed()
            return done
        if nbytes <= self.message_threshold:
            # message() returns a pre-scheduled Timeout — identical to an
            # Event fired via schedule_at, minus the extra allocation.
            return self.message(src, dst, nbytes, kind=kind)
        done = Event(self.env)
        links = (src.up, dst.down)
        if self._trunks:
            links += self._trunk_path(src, dst)
        flow = Flow(src, dst, nbytes, done, kind, links)
        flow.t_last = self.env.now
        topo = self.topology
        if topo is not None:
            flow.scope = topo.scope(src.name, dst.name)
        tracer = self.tracer
        if tracer.enabled:
            # async span: the flow ends inside the sentinel callback where no
            # process is active, so it never sits on a context stack
            flow.span = tracer.start_async(
                f"flow:{src.name}->{dst.name}", "net", nbytes=int(nbytes), kind=kind
            )
        self._flows[flow] = None
        for link in links:
            link.flows[flow] = None
        self._rebalance(links, flow)
        return done

    def message(
        self,
        src: Nic,
        dst: Nic,
        nbytes: int,
        kind: str = "message",
        done: Event | None = None,
    ) -> Event:
        """A small control message: latency + serialization, no fair sharing."""
        env = self.env
        wire_bytes = nbytes + self.message_header_bytes
        if src is dst:
            delay = self.per_message_overhead
        else:
            up = src.up.capacity
            down = dst.down.capacity
            delay = (
                self.latency
                + self.per_message_overhead
                + wire_bytes / (up if up < down else down)
            )
            # Same API as transfer()/_complete(): accounting hooks (test
            # doubles, future per-kind observers) see every wire byte.
            self.metrics.add_traffic(wire_bytes, kind)
            topo = self.topology
            if topo is not None:
                self.metrics.add_topo_traffic(
                    topo.scope(src.name, dst.name), kind, wire_bytes
                )
        if done is None:
            # A Timeout *is* an event pre-scheduled at now+delay: one
            # flattened constructor instead of Event + schedule_at.
            return Timeout(env, delay)
        # Caller-supplied completion event: fire it directly at delivery time.
        env.schedule_at(done, env.now + delay)
        return done

    # ------------------------------------------------------------------ #
    # fault injection
    # ------------------------------------------------------------------ #
    def set_nic_capacity(
        self, nic: Nic, up_capacity: float, down_capacity: float | None = None
    ) -> None:
        """Change a NIC's capacities mid-run (fault injection: NIC degradation).

        Both values are validated before either is applied. In-flight flows
        crossing the NIC are rebalanced immediately; flows on other links
        are untouched (equal-share) or globally refilled (maxmin).
        """
        up = Link.checked("up_capacity", up_capacity)
        down = up if down_capacity is None else Link.checked("down_capacity", down_capacity)
        nic.up.capacity = up
        nic.down.capacity = down
        self._rebalance((nic.up, nic.down))

    def set_trunk_capacity(self, name: str, capacity: float) -> None:
        """Change a trunk's capacity mid-run (fault injection: uplink squeeze)."""
        capacity = Link.checked("trunk capacity", capacity)
        link = self._trunks[name]
        link.capacity = capacity
        self._rebalance((link,))

    def fail_nic(self, nic: Nic, cause: str = "nic failure") -> None:
        """Abort every flow crossing ``nic`` (host crash / link loss).

        Each victim's ``done`` event fails with
        :class:`~repro.common.errors.ProviderUnavailableError`, so waiting
        transfer callers see the loss exactly like an RPC failure. Bytes
        already on the wire are charged to the traffic accounting.
        """
        victims = list(nic.up.flows) + list(nic.down.flows)
        if not victims:
            return
        now = self.env.now
        nics: Dict[Nic, None] = {}  # insertion-ordered: determinism
        trunks: Dict[Link, None] = {}
        for flow in victims:
            # materialize at the pre-failure rate, then leave every link
            self._detach(flow, now, True)
            del self._flows[flow]
            nics[flow.src] = None
            nics[flow.dst] = None
            for link in flow.links:
                del link.flows[flow]
            for link in flow.links[2:]:
                trunks[link] = None
            flow.gen += 1  # invalidate completion-heap entries
            sent = flow.size - flow.remaining
            self.metrics.add_traffic(sent, flow.kind)
            if flow.scope is not None:
                self.metrics.add_topo_traffic(flow.scope, flow.kind, sent)
            span = flow.span
            if span is not None:
                span.set_error(f"aborted: {cause}")
                span.finish()
                flow.span = None
            flow.done.fail(ProviderUnavailableError(cause))
        self._rebalance(
            [n.up for n in nics] + [n.down for n in nics] + list(trunks)
        )

    def _complete(self, flow: Flow) -> None:
        env = self.env
        self._detach(flow, env.now, False)
        del self._flows[flow]
        links = flow.links
        for link in links:
            del link.flows[flow]
        flow.gen += 1  # invalidate any remaining heap entries
        self.metrics.add_traffic(flow.size, flow.kind)
        if flow.scope is not None:
            self.metrics.add_topo_traffic(flow.scope, flow.kind, flow.size)
        span = flow.span
        if span is not None:
            elapsed = env.now - span.t0
            if elapsed > 0.0:
                span.set(achieved_bw=flow.size / elapsed)
            span.finish()
            flow.span = None
        self._rebalance(links)
        # Last byte still pays propagation latency; deliver `done` directly.
        env.schedule_at(flow.done, env.now + self.latency)

    # ------------------------------------------------------------------ #
    # per-flow engine: multi-rack paths and maxmin
    # ------------------------------------------------------------------ #
    def _flow_rebalance(self, links: Sequence[Link], arrival: Optional[Flow] = None) -> None:
        """Recompute shares of ``links``, then the rates that may have moved.

        Equal-share walks the union of the touched links' flows in encounter
        order (insertion-ordered dicts keep this deterministic); maxmin
        refills every flow. Flows whose rate is unchanged are skipped. A new
        flow needs no special case: it sits on the links with rate 0.
        """
        for link in links:
            link.share = link.capacity / max(1, len(link.flows))
        now = self.env.now
        if self.fairness == "maxmin":
            for flow, rate in self._progressive_filling():
                if rate != flow.rate:
                    self._set_rate(flow, rate, now)
        else:
            seen: Dict[Flow, None] = {}
            for link in links:
                seen.update(link.flows)
            for flow in seen:
                rate = _INF
                for link in flow.links:
                    share = link.share
                    if share < rate:
                        rate = share
                if rate != flow.rate:
                    self._set_rate(flow, rate, now)
        self._arm_sentinel()

    def _flow_detach(self, flow: Flow, now: float, aborted: bool) -> None:
        if aborted and flow.rate > 0.0:
            rem = flow.remaining - flow.rate * (now - flow.t_last)
            flow.remaining = rem if rem > 0.0 else 0.0
            flow.t_last = now

    def _set_rate(self, flow: Flow, new_rate: float, now: float) -> None:
        """Apply a rate change: advance progress, bump generation, push ETA.

        Callers skip flows whose rate is unchanged — a flow drains linearly,
        so leaving ``(t_last, remaining)`` untouched until the rate actually
        changes is exact (and keeps its completion-heap entry valid).
        """
        old = flow.rate
        if old > 0.0:
            rem = flow.remaining - old * (now - flow.t_last)
            flow.remaining = rem if rem > 0.0 else 0.0
        flow.t_last = now
        flow.rate = new_rate
        flow.gen += 1
        if new_rate > 0.0:
            ctime = now + flow.remaining / new_rate
            flow.ctime = ctime
            self._push_seq += 1
            heappush(self._completions, (ctime, self._push_seq, flow.gen, flow, flow))

    def _progressive_filling(self) -> List[Tuple[Flow, float]]:
        """Exact max-min fairness over all active flows (water filling).

        Heap-driven: each link carries (residual capacity, unfixed flow
        count); the globally tightest link fixes all its unfixed flows at
        its share level, then the other links on their paths are re-pushed.
        Lazy invalidation via per-link version counters. O(F log L) instead
        of repeated O(links x flows) scans.
        """
        flows = self._flows
        if not flows:
            return []
        # record: [residual, count, unfixed-flows dict, version, index]
        records: Dict[Link, list] = {}
        record_list: List[list] = []
        flow_records: Dict[Flow, List[list]] = {}
        for flow in flows:
            mine = []
            for link in flow.links:
                rec = records.get(link)
                if rec is None:
                    rec = records[link] = [link.capacity, 0, {}, 0, len(record_list)]
                    record_list.append(rec)
                rec[1] += 1
                rec[2][flow] = None
                mine.append(rec)
            flow_records[flow] = mine
        heap: List[Tuple[float, int, int]] = [
            (rec[0] / rec[1], rec[4], rec[3]) for rec in record_list
        ]
        heapify(heap)
        rates: List[Tuple[Flow, float]] = []
        n_unfixed = len(flows)
        while n_unfixed and heap:
            level, idx, ver = heappop(heap)
            rec = record_list[idx]
            if ver != rec[3] or rec[1] == 0:
                continue  # stale entry
            touched: Dict[int, list] = {}
            for flow in list(rec[2]):
                rates.append((flow, level))
                n_unfixed -= 1
                for other in flow_records[flow]:
                    del other[2][flow]
                    other[1] -= 1
                    other[0] -= level
                    if other is not rec:
                        touched[other[4]] = other
            rec[3] += 1  # saturated; invalidate pending entries
            for other in touched.values():
                other[3] += 1
                if other[1] > 0:
                    heappush(heap, (other[0] / other[1], other[4], other[3]))
        return rates

    # ------------------------------------------------------------------ #
    # cohort engine (equal-share, two-link paths): lazy per-link epochs
    # ------------------------------------------------------------------ #
    def _cohort_rebalance(self, links: Sequence[Link], arrival: Optional[Flow] = None) -> None:
        now = self.env.now
        for link in links:
            self._reshare(link, now)
        if arrival is not None:
            # The new flow's bottleneck is the strictly tighter side (ties
            # stay on the uplink — the per-flow engine's strict min compare).
            up, down = links
            home, other = (down, up) if down.share < up.share else (up, down)
            other.foreign[arrival] = None
            self._insert_native(home, arrival, now, other)
        self._flush_dirty(now)

    def _cohort_detach(self, flow: Flow, now: float, aborted: bool) -> None:
        home = flow.home
        if aborted:
            self._materialize(flow, now)
        partner = self._partner(flow)
        self._remove_native(home, flow)
        del partner.foreign[flow]
        flow.home = None

    @staticmethod
    def _partner(flow: Flow) -> Link:
        """The link a flow crosses besides its bottleneck side."""
        up, down = flow.links
        return down if flow.home is up else up

    def _materialize(self, flow: Flow, now: float) -> None:
        """Bring ``(remaining, t_last)`` to ``now`` at the flow's current rate.

        Replays the pending closed segments, then the open partial at the
        home share — the exact products the per-flow engine applies.
        """
        self._replay(flow)
        t = flow.t_last
        if t < now:
            rem = flow.remaining - flow.home.share * (now - t)
            flow.remaining = rem if rem > 0.0 else 0.0
            flow.t_last = now

    def _replay(self, flow: Flow, stop: Optional[int] = None) -> None:
        """Drain the flow's pending closed segments (exact materialization).

        Each pending segment ``(t_end, share)`` corresponds to one
        subtract-and-clamp the per-flow engine performs at that boundary;
        replaying them in order reproduces the same float results
        bit-for-bit. ``stop`` (an absolute segment index) excludes a suffix —
        used when a bottleneck switch does not change the rate *value*, where
        the per-flow engine skips the materialization entirely.
        """
        home = flow.home
        segs = home.segs
        i = flow.seg_idx - home.seg_base
        end = len(segs) if stop is None else stop - home.seg_base
        if i >= end:
            return
        rem = flow.remaining
        t = flow.t_last
        while i < end:
            t_end, share = segs[i]
            rem -= share * (t_end - t)
            if rem <= 0.0:
                rem = 0.0
            t = t_end
            i += 1
        flow.remaining = rem
        flow.t_last = t
        flow.seg_idx = home.seg_base + end

    def _virtual_rem(self, flow: Flow, now: float) -> float:
        """The flow's remaining bytes at ``now``, computed without mutating.

        Used as the insort key: probing a native mid-segment must not
        materialize it (the per-flow engine would not have touched it), so
        the pending segments plus the open partial are applied to a copy.
        """
        home = flow.home
        segs = home.segs
        i = flow.seg_idx - home.seg_base
        n = len(segs)
        rem = flow.remaining
        t = flow.t_last
        while i < n:
            t_end, share = segs[i]
            rem -= share * (t_end - t)
            if rem <= 0.0:
                rem = 0.0
            t = t_end
            i += 1
        if t < now:
            rem -= home.share * (now - t)
            if rem <= 0.0:
                rem = 0.0
        return rem

    def _insert_native(self, d: Link, flow: Flow, now: float, partner: Link) -> None:
        """Make ``flow`` a native of ``d`` (its rate = d.share from now on)."""
        flow.home = d
        flow.seg_idx = d.seg_base + len(d.segs)
        flow.rate = d.share  # informational; authoritative rate is d.share
        if partner.share < d.partner_floor:
            d.partner_floor = partner.share
        insort_right(d.natives, flow, key=lambda g: self._virtual_rem(g, now))
        self._dirty[d] = None

    def _remove_native(self, d: Link, flow: Flow) -> None:
        d.natives.remove(flow)
        self._dirty[d] = None

    def _reshare(self, d: Link, now: float) -> None:
        """Recompute one link's share after its flow set or capacity changed.

        A changed value closes the current segment (recording the old level
        for lazy replays) and queues the link for bottleneck settling at
        event end (:meth:`_settle`). An unchanged value is a no-op, exactly
        like the per-flow engine's skip-unchanged-rate.
        """
        new_share = d.capacity / max(1, len(d.flows))
        old = d.share
        if new_share == old:
            return
        self._dirty[d] = None
        natives = d.natives
        if natives:
            segs = d.segs
            segs.append((now, old))
            if len(segs) > 256 and len(segs) > 8 * len(natives):
                # compact: drain everyone to the second-to-last boundary
                # (the final segment stays — a tie switch may need to skip
                # it) and drop the replayed prefix
                stop = d.seg_base + len(segs) - 1
                for g in natives:
                    self._replay(g, stop)
                last = segs[-1]
                d.seg_base += len(segs) - 1
                segs[:] = [last]
        d.share = new_share
        self._pending.append((d, old))

    def _settle(self, now: float) -> None:
        """Process the event's bottleneck switches, all shares final.

        A decrease can capture foreign flows whose other side is now looser;
        an increase can lose natives to their other side. Each link is
        reshared at most once per event, so ``old`` is the rate its natives
        actually had before now.
        """
        pending = self._pending
        if not pending:
            return
        for d, old in pending:
            if d.share < old:
                if d.foreign:
                    self._absorb(d, now)
            elif d.natives and d.partner_floor < d.share:
                self._expel(d, now, old)
        pending.clear()

    def _absorb(self, d: Link, now: float) -> None:
        """After a share decrease: capture foreign flows now tighter here."""
        share = d.share
        moved: List[Flow] = []
        for f in d.foreign:
            home = f.home
            if share < home.share:
                moved.append(f)
            elif home.partner_floor > share:
                # this side got looser than the cached bound of the flow's
                # bottleneck cohort; lower it so future increases there scan
                home.partner_floor = share
        for f in moved:
            home = f.home
            hsegs = home.segs
            if hsegs and hsegs[-1][0] == now and hsegs[-1][1] == share:
                # the home was reshared away from exactly our level: the
                # flow's rate *value* is preserved across the switch, so the
                # per-flow engine skips the materialization — replay all but
                # the just-closed segment, keeping (t_last, remaining)
                # spanning it
                self._replay(f, home.seg_base + len(hsegs) - 1)
            else:
                # the rate value changes: materialize at now (if the home
                # was reshared this event the partial is empty)
                self._materialize(f, now)
            self._remove_native(home, f)
            home.foreign[f] = None
            del d.foreign[f]
            self._insert_native(d, f, now, home)

    def _expel(self, d: Link, now: float, old_share: float) -> None:
        """After a share increase: hand off natives now tighter elsewhere."""
        share = d.share
        keep: List[Flow] = []
        moved: List[Tuple[Flow, Link]] = []
        floor = _INF
        for f in d.natives:
            p = self._partner(f)
            ps = p.share
            if ps < share:
                moved.append((f, p))
            else:
                keep.append(f)
                if ps < floor:
                    floor = ps
        d.partner_floor = floor
        if not moved:
            return
        d.natives = keep  # removal preserves the survivors' sorted order
        stop = d.seg_base + len(d.segs) - 1
        for f, p in moved:
            if p.share == old_share:
                # the rate *value* is unchanged, so the per-flow engine skips
                # this materialization: replay all but the segment just
                # closed, keeping (t_last, remaining) spanning it — the next
                # product covers the whole constant-rate interval
                self._replay(f, stop)
            else:
                self._replay(f)
            d.foreign[f] = None
            del p.foreign[f]
            self._insert_native(p, f, now, d)
        self._dirty[d] = None

    def _flush_dirty(self, now: float) -> None:
        """End-of-event: settle switches, invalidate links, repush head ETAs."""
        self._settle(now)
        dirty = self._dirty
        if dirty:
            completions = self._completions
            for d in dirty:
                d.gen += 1
                natives = d.natives
                if natives:
                    head = natives[0]
                    self._replay(head)
                    # t_last may lag now after a value-preserving switch; the
                    # ETA is the one the per-flow engine pushed at that older
                    # materialization: t_last + remaining / share
                    ctime = head.t_last + head.remaining / d.share
                    head.ctime = ctime
                    self._push_seq += 1
                    heappush(completions, (ctime, self._push_seq, d.gen, d, head))
            dirty.clear()
        self._arm_sentinel()

    # ------------------------------------------------------------------ #
    # completion sentinel
    # ------------------------------------------------------------------ #
    def _head(self):
        """The earliest live completion entry (stale ones are dropped)."""
        heap = self._completions
        while heap:
            head = heap[0]
            if head[2] == head[3].gen:
                return head
            heappop(heap)
        return None

    def _arm_sentinel(self) -> None:
        """Ensure one timer is pending at the earliest valid completion time.

        Lazy cancellation: if the armed timer targets a time at or before the
        heap head it is left alone (a too-early fire simply re-arms); if the
        head moved earlier, a fresh timer is armed and the generation bump
        makes the old one a no-op.
        """
        head = self._head()
        if head is None:
            return
        t = head[0]
        if self._sentinel_time is not None and self._sentinel_time <= t:
            return
        self._sentinel_gen += 1
        self._sentinel_time = t
        env = self.env
        ev = Event(env)
        ev.callbacks.append(self._on_sentinel)
        env.schedule_at(ev, t, value=self._sentinel_gen)

    def _on_sentinel(self, ev: Event) -> None:
        if ev._value != self._sentinel_gen:
            return  # superseded by an earlier-armed sentinel
        self._sentinel_time = None
        head = self._head()
        if head is None:
            return
        if head[0] <= self.env.now:
            # Complete exactly one flow; the rebalance it triggers re-arms
            # the sentinel (a tied completion fires again at the same time),
            # which keeps completion ordering identical to per-flow timers.
            heappop(self._completions)
            self._complete(head[4])
        else:
            self._arm_sentinel()
