"""A PVFS-like striped distributed file system (baseline substrate).

What the paper's comparison needs from PVFS [9]:

* files striped round-robin over I/O servers at a fixed stripe size
  (256 KB in the eval, matching BlobSeer's chunk size);
* distributed metadata servers (no centralized bottleneck);
* parallel stripe access — a range read/write fans out to the servers
  holding the touched stripes;
* **synchronous semantics and no versioning/shadowing** — a write
  overwrites in place; snapshotting a qcow2 file means physically copying
  it into PVFS.

Content lives in per-server stripe stores keyed by ``(path, stripe_idx)``;
I/O servers RAM-cache stripes after first access like any Linux server
(page cache), so hot boot data is memory-served under concurrency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..calibration import ServiceModel
from ..common.errors import StorageError
from ..common.payload import Payload, SparseFile
from ..simkit import rpc
from ..simkit.host import Fabric, Host


@dataclass
class PvfsFileMeta:
    """Metadata-server record for one file."""

    path: str
    size: int
    stripe_size: int
    #: server names, in stripe round-robin order starting at stripe 0
    layout: Tuple[str, ...]


class PvfsIoServer:
    """One I/O server: stripe store + disk/cache behaviour."""

    def __init__(self, host: Host, model: ServiceModel, cache_stripes: bool = False):
        self.host = host
        self.model = model
        #: PVFS I/O servers perform direct stripe I/O; no server-side caching
        #: unless explicitly enabled (kept symmetric with the BlobSeer
        #: providers' default).
        self.cache_stripes = cache_stripes
        self._stripes: Dict[Tuple[str, int], SparseFile] = {}
        self._ram: set[Tuple[str, int]] = set()

    def _stripe(self, path: str, idx: int, stripe_size: int) -> SparseFile:
        key = (path, idx)
        stripe = self._stripes.get(key)
        if stripe is None:
            stripe = SparseFile(stripe_size)
            self._stripes[key] = stripe
        return stripe

    def rpc_read(self, caller: Host, path: str, requests: Sequence[Tuple[int, int, int, int]]):
        """Serve ``(stripe_idx, stripe_size, off_in_stripe, nbytes)`` requests."""
        parts: List[Payload] = []
        for idx, stripe_size, off, nbytes in requests:
            yield self.host.env.timeout(self.model.chunk_request_overhead)
            key = (path, idx)
            if key not in self._ram and key in self._stripes:
                # random read of the requested extent within the stripe
                yield from self.host.disk.read(nbytes, sequential=False)
                if self.cache_stripes:
                    self._ram.add(key)
            parts.append(self._stripe(path, idx, stripe_size).read(off, nbytes))
        self.host.fabric.metrics.count("pvfs-read", len(requests))
        return Payload.concat(parts)

    def rpc_write(self, caller: Host, path: str, writes: Sequence[Tuple[int, int, int, Payload]]):
        """Apply ``(stripe_idx, stripe_size, off_in_stripe, payload)`` writes."""
        total = 0
        for idx, stripe_size, off, payload in writes:
            yield self.host.env.timeout(self.model.chunk_request_overhead)
            self._stripe(path, idx, stripe_size).write(off, payload)
            if self.cache_stripes:
                self._ram.add((path, idx))
            total += payload.size
        # PVFS semantics: synchronous write-through to the server disk.
        yield from self.host.disk.write(total, sequential=True)
        self.host.fabric.metrics.count("pvfs-write", len(writes))
        return None

    def stored_bytes(self) -> int:
        return sum(s.written_bytes() for s in self._stripes.values())


class PvfsMetaServer:
    """One metadata server: a shard of the path namespace."""

    def __init__(self, host: Host, model: ServiceModel, deployment: "PvfsDeployment" = None):
        self.host = host
        self.model = model
        self.deployment = deployment
        self.files: Dict[str, PvfsFileMeta] = {}

    def rpc_create(self, caller: Host, meta: PvfsFileMeta):
        """Create a file: a datafile handle on *every* I/O server.

        PVFS creates are expensive by design — the metadata server
        synchronously provisions a datafile on each server in the layout
        (a small random metadata write per server). This is what makes a
        new-file-per-snapshot scheme costly at scale (Fig. 5).
        """
        yield self.host.env.timeout(self.model.metadata_node_overhead)
        if meta.path in self.files:
            raise StorageError(f"pvfs: {meta.path!r} exists")
        if self.deployment is not None:
            for server_name in meta.layout:
                server = self.deployment.io_servers[server_name]
                yield self.host.env.timeout(self.model.metadata_node_overhead)
                yield from server.host.disk.write(4096, sequential=False)
        self.files[meta.path] = meta
        return None

    def rpc_lookup(self, caller: Host, path: str):
        yield self.host.env.timeout(self.model.metadata_node_overhead)
        meta = self.files.get(path)
        if meta is None:
            raise StorageError(f"pvfs: no such file {path!r}")
        return meta

    def rpc_truncate(self, caller: Host, path: str, size: int):
        yield self.host.env.timeout(self.model.metadata_node_overhead)
        meta = self.files.get(path)
        if meta is None:
            raise StorageError(f"pvfs: no such file {path!r}")
        self.files[path] = PvfsFileMeta(path, size, meta.stripe_size, meta.layout)
        return None


class PvfsDeployment:
    """A running PVFS instance."""

    def __init__(
        self,
        fabric: Fabric,
        io_hosts: Sequence[Host],
        meta_hosts: Optional[Sequence[Host]] = None,
        stripe_size: int = 256 * 1024,
        model: Optional[ServiceModel] = None,
    ):
        if not io_hosts:
            raise StorageError("pvfs needs at least one I/O server")
        self.fabric = fabric
        self.stripe_size = stripe_size
        self.model = model if model is not None else ServiceModel()
        self.io_hosts = list(io_hosts)
        self.meta_hosts = list(meta_hosts) if meta_hosts else list(io_hosts)
        self.io_servers: Dict[str, PvfsIoServer] = {}
        for host in self.io_hosts:
            srv = PvfsIoServer(host, self.model)
            rpc.bind(host, "pvfs-io", srv)
            self.io_servers[host.name] = srv
        self.meta_servers: Dict[str, PvfsMetaServer] = {}
        for host in self.meta_hosts:
            srv = PvfsMetaServer(host, self.model, deployment=self)
            rpc.bind(host, "pvfs-meta", srv)
            self.meta_servers[host.name] = srv
        #: qcow2 snapshot files written so far (numbers their names)
        self.snapshot_files = 0

    def meta_host_for(self, path: str) -> Host:
        acc = 2166136261
        for ch in path.encode():
            acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
        return self.meta_hosts[acc % len(self.meta_hosts)]

    def client(self, host: Host) -> "PvfsClient":
        return PvfsClient(host, self)

    def stored_bytes(self) -> int:
        return sum(s.stored_bytes() for s in self.io_servers.values())

    def peek(self, path: str, offset: int, nbytes: int) -> Payload:
        """Content-plane read bypassing the simulated fabric.

        Used by pure-format callbacks (the qcow2 backing read) whose timing
        is charged separately by the simulated backend; always consistent
        with the stripe stores.
        """
        shard = self.meta_host_for(path)
        meta = self.meta_servers[shard.name].files.get(path)
        if meta is None:
            raise StorageError(f"pvfs: no such file {path!r}")
        if offset < 0 or offset + nbytes > meta.size:
            raise StorageError(f"pvfs peek beyond eof of {path!r}")
        parts: List[Payload] = []
        cursor = offset
        end = offset + nbytes
        while cursor < end:
            idx = cursor // meta.stripe_size
            s_lo = idx * meta.stripe_size
            w_hi = min(end, s_lo + meta.stripe_size)
            server = self.io_servers[meta.layout[idx % len(meta.layout)]]
            parts.append(
                server._stripe(path, idx, meta.stripe_size).read(cursor - s_lo, w_hi - cursor)
            )
            cursor = w_hi
        return Payload.concat(parts)

    # Zero-time setup injection (mirror of BlobSeer's seed_blob).
    def seed_file(self, path: str, payload: Payload) -> PvfsFileMeta:
        layout = tuple(h.name for h in self.io_hosts)
        meta = PvfsFileMeta(path, payload.size, self.stripe_size, layout)
        shard = self.meta_host_for(path)
        self.meta_servers[shard.name].files[path] = meta
        for idx in range(-(-payload.size // self.stripe_size)):
            lo = idx * self.stripe_size
            hi = min(lo + self.stripe_size, payload.size)
            server = self.io_servers[layout[idx % len(layout)]]
            server._stripe(path, idx, self.stripe_size).write(0, payload.slice(lo, hi))
        return meta


class PvfsClient:
    """Per-host PVFS access library."""

    def __init__(self, host: Host, deployment: PvfsDeployment):
        self.host = host
        self.deployment = deployment
        self._meta_cache: Dict[str, PvfsFileMeta] = {}

    def _parallel(self, gens) -> Generator:
        procs = self.host.env.process_batch(gens)
        results = yield self.host.env.all_of(procs)
        return results

    def _lookup(self, path: str) -> Generator:
        meta = self._meta_cache.get(path)
        if meta is None:
            shard = self.deployment.meta_host_for(path)
            meta = yield from rpc.call(self.host, shard, "pvfs-meta", "lookup", path)
            self._meta_cache[path] = meta
        return meta

    def create(self, path: str, size: int) -> Generator:
        dep = self.deployment
        meta = PvfsFileMeta(path, size, dep.stripe_size, tuple(h.name for h in dep.io_hosts))
        shard = dep.meta_host_for(path)
        yield from rpc.call(self.host, shard, "pvfs-meta", "create", meta)
        self._meta_cache[path] = meta
        return meta

    def _plan(self, meta: PvfsFileMeta, offset: int, nbytes: int):
        """Split a range into per-server stripe requests (ordered per server)."""
        by_server: Dict[str, List[Tuple[int, int, int, int]]] = {}
        cursor = offset
        end = offset + nbytes
        while cursor < end:
            idx = cursor // meta.stripe_size
            s_lo = idx * meta.stripe_size
            w_hi = min(end, s_lo + meta.stripe_size)
            server = meta.layout[idx % len(meta.layout)]
            by_server.setdefault(server, []).append(
                (idx, meta.stripe_size, cursor - s_lo, w_hi - cursor)
            )
            cursor = w_hi
        return by_server

    def read(self, path: str, offset: int, nbytes: int) -> Generator:
        meta = yield from self._lookup(path)
        if offset < 0 or offset + nbytes > meta.size:
            raise StorageError(f"pvfs read beyond eof of {path!r}")
        by_server = self._plan(meta, offset, nbytes)
        dep = self.deployment

        def fetch(server_name, requests):
            server = dep.fabric.hosts[server_name]
            data = yield from rpc.call(self.host, server, "pvfs-io", "read", path, requests)
            return requests, data

        results = yield from self._parallel(
            [fetch(s, reqs) for s, reqs in sorted(by_server.items())]
        )
        # Reassemble in stripe order.
        pieces: List[Tuple[int, Payload]] = []
        for requests, data in results:
            cursor = 0
            for idx, stripe_size, off, ln in requests:
                pieces.append((idx * stripe_size + off, data.slice(cursor, cursor + ln)))
                cursor += ln
        pieces.sort(key=lambda t: t[0])
        return Payload.concat([p for _, p in pieces])

    def write(self, path: str, offset: int, payload: Payload) -> Generator:
        meta = yield from self._lookup(path)
        if offset < 0 or offset + payload.size > meta.size:
            raise StorageError(f"pvfs write beyond eof of {path!r}")
        by_server = self._plan(meta, offset, payload.size)
        dep = self.deployment

        def push(server_name, requests):
            server = dep.fabric.hosts[server_name]
            writes = []
            for idx, stripe_size, off, ln in requests:
                abs_lo = idx * stripe_size + off
                writes.append(
                    (idx, stripe_size, off, payload.slice(abs_lo - offset, abs_lo - offset + ln))
                )
            total = sum(w[3].size for w in writes)
            yield from rpc.call(
                self.host, server, "pvfs-io", "write", path, writes,
                request_bytes=total + 64 * len(writes),
            )

        yield from self._parallel([push(s, reqs) for s, reqs in sorted(by_server.items())])
        return None
