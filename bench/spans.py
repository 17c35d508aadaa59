"""Per-layer spans recorded from outside the program.

One table maps each layer (a module of ``repro``) to the public
callables that are its boundary.  :class:`Tracer.install` replaces each
with a timing wrapper that pushes/pops an in-memory span stack; frame
handlers registered through ``Node.open_port`` while the tracer is
installed are wrapped too and attributed by port prefix.  Nothing in
``src/`` knows about any of this, and the timed pass never runs with a
wrapper installed.

A table entry that no longer resolves (later PRs will delete some of
these callables) is reported through :attr:`Tracer.lost`: that layer's
metrics read ``null`` and a warning is printed, nothing raises.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import types
from time import perf_counter_ns
from typing import Any, Callable, Optional

from spec import LAYERS, TRACE_SCHEMA

#: layer -> ["module:Class.attr" | "module:function", ...]
SPAN_TABLE: dict[str, list[str]] = {
    "core.invocation": [
        "repro.core.invocation:Invocation.invoke",
        "repro.core.invocation:Invocation.create_stub",
        "repro.core.invocation:HttpInvocation.invoke_async",
        "repro.core.invocation:P2psInvocation.invoke_async",
    ],
    "core.hosting": [
        "repro.core.hosting:LightweightContainer.process_request",
        "repro.core.hosting:LightweightContainer.deploy",
        "repro.core.hosting:LightweightContainer.undeploy",
        "repro.core.deployer:HttpServiceDeployer.deploy",
        "repro.core.deployer:HttpServiceDeployer.undeploy",
        "repro.core.deployer:P2psServiceDeployer.deploy",
        "repro.core.deployer:P2psServiceDeployer.undeploy",
    ],
    "core.locator": [
        "repro.core.locator:UddiServiceLocator.locate",
        "repro.core.locator:P2psServiceLocator.locate",
    ],
    "core.publisher": [
        "repro.core.publisher:UddiServicePublisher.publish",
        "repro.core.publisher:UddiServicePublisher.withdraw",
        "repro.core.publisher:P2psServicePublisher.publish",
        "repro.core.publisher:P2psServicePublisher.withdraw",
    ],
    "wsa.headers": [
        "repro.wsa.headers:MessageAddressingProperties.for_request",
        "repro.wsa.headers:MessageAddressingProperties.apply_to",
        "repro.wsa.headers:MessageAddressingProperties.extract_from",
        "repro.wsa.headers:RequestTemplateCache.render",
        "repro.wsa.headers:message_id_of",
    ],
    "soap.envelope": [
        "repro.soap.envelope:SoapEnvelope.from_wire_message",
        "repro.soap.envelope:SoapEnvelope.from_wire",
        "repro.soap.envelope:SoapEnvelope.to_wire_message",
        "repro.soap.envelope:SoapEnvelope.to_wire",
    ],
    "soap.rpc": [
        "repro.soap.rpc:build_rpc_request",
        "repro.soap.rpc:extract_rpc_result",
        "repro.soap.rpc:RpcDispatcher.dispatch",
    ],
    "soap.handlers": ["repro.soap.handlers:HandlerChain.run"],
    "xmlkit.parser": [
        "repro.xmlkit.parser:parse",
        "repro.xmlkit.parser:parse_fragment",
    ],
    "xmlkit.serializer": ["repro.xmlkit.serializer:serialize"],
    "reliability.executor": [
        "repro.reliability.executor:ReliableCall.start",
        "repro.reliability.policy:RetryPolicy.delay",
        "repro.reliability.breaker:CircuitBreaker.allow",
        "repro.reliability.breaker:CircuitBreaker.record_success",
        "repro.reliability.breaker:CircuitBreaker.record_failure",
    ],
    "reliability.dedup": [
        "repro.reliability.dedup:DedupWindow.seen",
        "repro.reliability.dedup:DedupWindow.get",
        "repro.reliability.dedup:DedupWindow.remember",
        "repro.reliability.dedup:DedupWindow.__contains__",
    ],
    "transport.http": [
        "repro.transport.http:HttpTransport.send",
        "repro.transport.http:HttpClient.request_async",
        "repro.transport.http:HttpRequest.to_wire",
        "repro.transport.http:HttpRequest.from_wire",
        "repro.transport.http:HttpResponse.to_wire",
        "repro.transport.http:HttpResponse.from_wire",
    ],
    "transport.connection": [
        "repro.transport.connection:ConnectionPool.lease",
        "repro.transport.connection:HttpConnection.send",
    ],
    "p2ps.pipes": ["repro.p2ps.pipes:OutputPipe.send"],
    "p2ps.peer": [
        "repro.p2ps.peer:Peer.send_down_pipe",
        "repro.p2ps.peer:Peer.create_input_pipe",
        "repro.p2ps.peer:Peer.close_input_pipe",
        "repro.p2ps.peer:Peer.open_output_pipe",
        "repro.p2ps.peer:Peer.publish",
        "repro.p2ps.peer:Peer.discover",
    ],
    "simnet.network": ["repro.simnet.network:Network.send"],
    "simnet.kernel": [
        "repro.simnet.kernel:Kernel.step",
        "repro.simnet.kernel:Kernel.schedule",
    ],
    "uddi.client": [
        "repro.uddi.client:UddiClient.call",
        "repro.uddi.client:UddiClient.call_async",
    ],
    "uddi.registry": [
        f"repro.uddi.registry:UddiRegistry.{op}"
        for op in (
            "save_business", "save_service", "save_binding", "save_tmodel",
            "delete_service", "find_business", "find_service",
            "get_service_detail", "get_tmodel_detail",
        )
    ],
    "wsdl": [
        "repro.wsdl.generator:generate_wsdl",
        "repro.wsdl.parser:parse_wsdl",
        "repro.wsdl.stubspec:to_stub_spec",
    ],
    "supervision.admission": [
        "repro.supervision.admission:AdmissionController.try_admit",
    ],
    "observability.metrics": [
        "repro.observability.metrics:inc",
        "repro.observability.metrics:observe",
        "repro.observability.metrics:set_gauge",
    ],
}

#: frame handlers are attributed by the prefix of the port they open.
#: ``http-conn:`` is used by both HTTP client paths, so it is refined
#: by the module that defines the handler.
PORT_LAYERS: tuple[tuple[str, str], ...] = (
    ("http-srv:", "transport.connection"),
    ("http-conn:", "transport.http"),
    ("http:", "transport.http"),
    ("pipe:", "p2ps.pipes"),
    ("p2ps", "p2ps.peer"),
)
_OPEN_PORT = "repro.simnet.network:Node.open_port"
_ROOT = "op"


def _resolve(target: str) -> tuple[Any, str]:
    """``(owner, attribute name)`` of a table entry; the owner is the
    module for a function and the defining class for a method."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if inspect.isclass(owner):
        for klass in owner.__mro__:
            if name in vars(klass):
                return klass, name
        raise AttributeError(f"{path} not defined on {owner.__name__} or its bases")
    getattr(owner, name)
    return owner, name


class Tracer:
    """An in-memory span recorder plus the patches that feed it."""

    def __init__(self, node_layers: Optional[dict[str, str]] = None):
        #: node id -> layer, overriding the port prefix (the UDDI
        #: registry is an HTTP server like any other on the wire)
        self.node_layers = dict(node_layers or {})
        #: (name index, parent span id or -1, start ns, end ns, op id)
        self.spans: list[Optional[tuple[int, int, int, int, int]]] = []
        self.names: list[str] = [_ROOT]
        self.layer_of_name: list[Optional[str]] = [None]
        #: op id -> how many operations that root span covers
        self.op_sizes: dict[int, int] = {}
        #: layer -> entries that did not resolve
        self.lost: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._op: Optional[int] = None
        self._root_start = 0
        #: (owner, attribute, original, wrapper)
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # -- root spans ------------------------------------------------------
    def begin(self, op_id: int) -> None:
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._root_start = perf_counter_ns()

    def end(self, ops: int = 1) -> None:
        end = perf_counter_ns()
        span_id = self._stack.pop()
        self.spans[span_id] = (0, -1, self._root_start, end, self._op)
        self.op_sizes[self._op] = ops
        self._op = None

    # -- wrapping --------------------------------------------------------
    def _name_index(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of_name.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn: Callable, index: int) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            op = self._op
            if op is None:  # set-up and warm-up are not recorded
                return fn(*args, **kwargs)
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[span_id] = (index, parent, start, end, op)

        return traced

    def _patch(self, owner: Any, name: str, layer: str, label: str) -> None:
        original = inspect.getattr_static(owner, name)
        index = self._name_index(label, layer)
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(self._wrap(original.__func__, index))
        else:
            wrapped = self._wrap(original, index)
        if isinstance(owner, types.ModuleType):
            # ``from x import f`` copies the reference: patch every alias
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").partition(".")[0] != "repro":
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, alias, original, wrapped))
        else:
            self._patches.append((owner, name, original, wrapped))

    def _layer_for_port(self, node_id: str, port: str, handler: Callable) -> Optional[str]:
        if node_id in self.node_layers:
            return self.node_layers[node_id]
        for prefix, layer in PORT_LAYERS:
            if port.startswith(prefix):
                if prefix == "http-conn:" and getattr(handler, "__module__", "").endswith(
                    ".connection"
                ):
                    return "transport.connection"
                return layer
        return None

    def _patch_open_port(self) -> None:
        owner, name = _resolve(_OPEN_PORT)
        original = inspect.getattr_static(owner, name)
        port_names: dict[tuple[str, str], int] = {}

        def open_port(node, port, handler):
            layer = self._layer_for_port(node.id, port, handler)
            if layer is not None:
                key = (layer, port.partition(":")[0])
                if key not in port_names:
                    port_names[key] = self._name_index(f"port {key[1]}", layer)
                handler = self._wrap(handler, port_names[key])
            return original(node, port, handler)

        self._patches.append((owner, name, original, open_port))

    def install(self) -> list[str]:
        """Wrap every table entry that resolves and switch the wrappers
        on; returns warnings for the entries that are gone."""
        warnings = []
        for layer, targets in SPAN_TABLE.items():
            for target in targets:
                try:
                    owner, name = _resolve(target)
                except (ImportError, AttributeError) as exc:
                    self.lost.setdefault(layer, []).append(target)
                    warnings.append(f"span target {target} is gone ({exc}): {layer}.* reads null")
                    continue
                self._patch(owner, name, layer, target.partition(":")[2])
        try:
            self._patch_open_port()
        except (ImportError, AttributeError) as exc:
            for layer in {layer for _, layer in PORT_LAYERS} | set(self.node_layers.values()):
                self.lost.setdefault(layer, []).append(_OPEN_PORT)
            warnings.append(f"{_OPEN_PORT} is gone ({exc}): frame handlers are not attributed")
        self.switch(True)
        return warnings

    def switch(self, on: bool) -> None:
        """Put the wrappers (or the originals) in place.  Handlers that
        registered while the wrappers were on stay wrapped; off the
        record they only pass calls through."""
        for owner, name, original, wrapped in self._patches:
            setattr(owner, name, wrapped if on else original)

    # -- results ---------------------------------------------------------
    def self_times(self) -> list[int]:
        """Self time of every span: its duration minus its children's."""
        self_ns = [span[3] - span[2] for span in self.spans]
        for span in self.spans:
            if span[1] >= 0:
                self_ns[span[1]] -= span[3] - span[2]
        return self_ns

    def layer_metrics(self) -> dict[str, Optional[float]]:
        """``<layer>.self_us_per_op`` / ``.calls_per_op`` plus the
        unattributed remainder, over every recorded operation."""
        ops = sum(self.op_sizes.values())
        self_ns = self.self_times()
        busy = dict.fromkeys(LAYERS, 0)
        calls = dict.fromkeys(LAYERS, 0)
        unattributed = 0
        for span, own in zip(self.spans, self_ns):
            layer = self.layer_of_name[span[0]]
            if layer is None:
                unattributed += own
            else:
                busy[layer] += own
                calls[layer] += 1
        out: dict[str, Optional[float]] = {}
        for layer in LAYERS:
            gone = layer in self.lost or not ops
            out[f"{layer}.self_us_per_op"] = None if gone else busy[layer] / ops / 1e3
            out[f"{layer}.calls_per_op"] = None if gone else calls[layer] / ops
        out["bench.unattributed_us_per_op"] = unattributed / ops / 1e3 if ops else None
        return out

    def write(self, path, header: dict) -> None:
        """One JSON object per line: a header, then every span."""
        self_ns = self.self_times()
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"schema": TRACE_SCHEMA, **header}) + "\n")
            for span_id, (span, own) in enumerate(zip(self.spans, self_ns)):
                index, parent, start, end, op = span
                record = {
                    "id": span_id,
                    "parent": parent if parent >= 0 else None,
                    "op": op,
                    "layer": self.layer_of_name[index],
                    "name": self.names[index],
                    "start_ns": start,
                    "end_ns": end,
                    "self_ns": own,
                }
                if parent < 0:
                    record["ops"] = self.op_sizes[op]
                out.write(json.dumps(record) + "\n")
