"""A minimal RPC layer over the flow network.

Services are plain objects bound to a host under a name; methods prefixed
``rpc_`` are remotely callable and written as generators (they may perform
disk I/O, timeouts, or nested RPCs). A call from host A to host B pays:

1. the request control message (latency + serialization),
2. the server-side handler's simulated work,
3. the response: a control message, or a fair-shared bulk flow when the
   handler returns a :class:`~repro.common.payload.Payload` bigger than the
   network's message threshold (this is how chunk fetches become flows).

Handlers execute inline in the calling process — server-side contention is
still modelled faithfully because it lives in the server's *resources*
(its disk queue, its NIC), not in a scheduler thread.

Failure injection: ``host_down(host)`` makes every call to that host raise
:class:`~repro.common.errors.ProviderUnavailableError` after one timeout
interval, which the replication layer of the storage service exercises.
"""

from __future__ import annotations

from typing import Any, Generator

from ..common.errors import ProviderUnavailableError, SimulationError
from ..common.payload import Payload
from .core import Event
from .host import Host

#: Simulated time a caller waits before declaring an unreachable host dead.
RPC_TIMEOUT = 0.5

#: Wire size assumed for an RPC request / non-payload response envelope.
REQUEST_BYTES = 256
RESPONSE_BYTES = 192


def host_down(host: Host) -> None:
    """Mark ``host`` as failed: subsequent RPCs to it raise (failure injection)."""
    host.fabric.down_hosts.add(host)


def host_up(host: Host) -> None:
    host.fabric.down_hosts.discard(host)


def is_host_down(host: Host) -> bool:
    """True while ``host`` is in its fabric's failure registry (crash injected)."""
    return host in host.fabric.down_hosts


class Sized:
    """Wrap an RPC result with an explicit wire size.

    Handlers return ``Sized(value, nbytes)`` when the response is a plain
    Python object whose serialized size should still be charged to the
    network (e.g. a batch of metadata tree nodes). ``rpc.call`` unwraps it.
    """

    __slots__ = ("value", "nbytes")

    def __init__(self, value: Any, nbytes: int):
        self.value = value
        self.nbytes = int(nbytes)


def bind(host: Host, name: str, service: object) -> None:
    """Register ``service`` under ``name`` on ``host``."""
    if name in host.services:
        raise SimulationError(f"{host.name}: service {name!r} already bound")
    host.services[name] = service


def call(
    caller: Host,
    callee: Host,
    service_name: str,
    method: str,
    *args: Any,
    request_bytes: int = REQUEST_BYTES,
) -> Generator[Event, None, Any]:
    """Invoke ``rpc_<method>`` of ``service_name`` on ``callee`` from ``caller``.

    Use as ``result = yield from rpc.call(...)`` inside a process.
    """
    fabric = caller.fabric
    net = fabric.network
    metrics = fabric.metrics
    env = caller.env
    metrics.counters["rpc"] += 1
    tracer = fabric.tracer
    span = None
    if tracer.enabled:
        span = tracer.start(
            f"rpc:{service_name}.{method}", "rpc", src=caller.name, dst=callee.name
        )
    down = fabric.down_hosts
    try:
        if callee in down:
            yield env.timeout(RPC_TIMEOUT)
            raise ProviderUnavailableError(f"{callee.name} unreachable")

        # First contact between two hosts pays connection setup (TCP + service
        # handshake). Configured per fabric; default 0 keeps unit tests exact.
        setup = fabric.connection_setup
        if setup > 0.0 and caller is not callee:
            pairs = fabric._rpc_conn_pairs
            pair = (caller.name, callee.name)
            if pair not in pairs:
                pairs.add(pair)
                metrics.counters["rpc-connect"] += 1
                yield env.timeout(setup)

        # 1. request envelope; bulk requests (e.g. chunk PUTs) ride the fabric
        if request_bytes > net.message_threshold:
            yield net.transfer(caller.nic, callee.nic, request_bytes, kind="payload")
        else:
            yield net.message(caller.nic, callee.nic, request_bytes, kind="rpc-request")

        # 2. server-side handler (dispatch memoized per callee: the service dict
        # probe + getattr with an f-string key is measurable at ~40k calls/run)
        try:
            handler = callee._rpc_cache[(service_name, method)]
        except KeyError:
            service = callee.services.get(service_name)
            if service is None:
                raise SimulationError(f"{callee.name}: no service {service_name!r}")
            handler = getattr(service, f"rpc_{method}", None)
            if handler is None:
                raise SimulationError(f"{service_name}: no RPC method {method!r}")
            callee._rpc_cache[(service_name, method)] = handler
        if span is not None:
            srv_span = tracer.start(
                f"serve:{service_name}.{method}", "rpc-server", host=callee.name
            )
            try:
                result = yield from handler(caller, *args)
            except BaseException as exc:
                srv_span.set_error(exc)
                raise
            finally:
                srv_span.finish()
        else:
            result = yield from handler(caller, *args)

        if callee in down:
            # Host died while serving (failure injected mid-call).
            raise ProviderUnavailableError(f"{callee.name} failed during call")

        # 3. response: bulk payloads ride the fair-shared fabric
        if isinstance(result, Sized):
            yield net.transfer(callee.nic, caller.nic, result.nbytes, kind="rpc-response")
            return result.value
        if isinstance(result, Payload) and result.size > net.message_threshold:
            yield net.transfer(callee.nic, caller.nic, result.size, kind="payload")
        else:
            size = result.size if isinstance(result, Payload) else RESPONSE_BYTES
            yield net.message(callee.nic, caller.nic, max(size, 1), kind="rpc-response")
        return result
    except BaseException as exc:
        if span is not None:
            span.set_error(exc)
        raise
    finally:
        if span is not None:
            span.finish()


def send_payload(
    sender: Host, receiver: Host, payload_bytes: int, kind: str = "payload"
) -> Generator[Event, None, None]:
    """One-way bulk push (used by writes: client streams a chunk to a provider)."""
    net = sender.fabric.network
    yield net.transfer(sender.nic, receiver.nic, payload_bytes, kind=kind)
