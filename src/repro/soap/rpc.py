"""Server-side RPC dispatch: envelope in, envelope out.

The unit of deployment is a :class:`ServiceObject`.  Per the paper's
third break with tradition (§III), a service is an *interface to live
objects*: "each operation given to the service can map to a different
stateful object in memory".  :meth:`ServiceObject.map_operation` is
exactly that facility; :meth:`ServiceObject.from_instance` is the common
case of exposing one object's public methods.

Values enter and leave an envelope here.  Outgoing, one walk
(:func:`~repro.soap.encoding.value_shape`) takes the texts and the
attachments, and the body stays those texts, keyed by the value shape
its tree derives from, unless the values have no shape; incoming, the
readers the skeleton compiled from the body's shape are asked first and
the element tree is decoded only when there are none, one refuses, or
someone has already looked at ``body_content``.
"""

from __future__ import annotations

import inspect
from itertools import filterfalse
from operator import methodcaller
from types import FunctionType, MethodType
from typing import Any, Callable, Optional

from repro.caching import ArtifactCache
from repro.soap.attachments import attachment_scope
from repro.soap.encoding import EncodingError, StructRegistry, decode_value, encode_value, value_shape
from repro.soap.envelope import DeferredBody, SoapEnvelope
from repro.soap.faults import FaultCode, SoapFault
from repro.xmlkit import Element, QName
from repro.xmlkit.names import intern_qname


#: what an operation reads off its callable's signature, by its key
_signatures = ArtifactCache("operation-signatures", 256)


class Operation:
    """One callable operation of a service.  Its signature is read once
    per :attr:`key` — ``(function, class)`` of a bound method, ``(function,
    None)`` of a function, what signature and documentation depend on;
    any other callable (a partial, a builtin) has none: read every time."""

    def __init__(self, name: str, target: Any, method_name: str):
        self.name = name
        self.target = target
        self.method_name = method_name
        self.callable: Callable[..., Any] = getattr(target, method_name)
        kind, owner = self.callable.__class__, getattr(self.callable, "__self__", None)
        if kind is MethodType and self.callable.__func__.__class__ is FunctionType:
            self.key = (self.callable.__func__, owner if isinstance(owner, type) else owner.__class__)
        else:
            self.key = (self.callable, None) if kind is FunctionType else None
        found = None if self.key is None else _signatures.get(self.key)
        if found is None:
            try:
                signature: Optional[inspect.Signature] = inspect.signature(self.callable)
            except (TypeError, ValueError):
                signature = None
            parameters = signature.parameters.values() if signature else ()
            names = frozenset(p.name for p in parameters if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY))
            found = (signature, names, any(p.kind is p.VAR_KEYWORD for p in parameters))
            if self.key is not None:
                _signatures.put(self.key, found)
        #: the signature; the names an argument may be passed by; and
        #: whether the callable takes ``**kwargs`` (a wrapper hiding the
        #: real signature, say): then every argument is passed by name
        self.signature, self.parameter_names, self.takes_any_name = found

    def __repr__(self) -> str:
        return f"<Operation {self.name} -> {type(self.target).__name__}.{self.method_name}>"


class ServiceObject:
    """A deployable service: named operations over in-memory objects."""

    def __init__(self, name: str, namespace: str):
        self.name = name
        self.namespace = namespace
        self.operations: dict[str, Operation] = {}

    @classmethod
    def from_instance(
        cls,
        name: str,
        instance: Any,
        namespace: str,
        include: Optional[list[str]] = None,
    ) -> "ServiceObject":
        """Expose the public methods of *instance* as operations.

        *include* restricts to the listed method names; otherwise every
        non-underscore callable attribute becomes an operation.
        """
        service = cls(name, namespace)
        if include is None:
            # per instance: an instance attribute may shadow a method
            public = filterfalse(methodcaller("startswith", "_"), dir(instance))
            include = [attr for attr in public if callable(getattr(instance, attr))]
        else:
            for method_name in include:
                if not callable(getattr(instance, method_name, None)):
                    raise ValueError(f"{method_name!r} is not a callable of {instance!r}")
        for method_name in include:
            service.map_operation(method_name, instance, method_name)
        return service

    def map_operation(self, op_name: str, target: Any, method_name: Optional[str] = None) -> Operation:
        """Map operation *op_name* to ``target.<method_name>``.

        Different operations may target different objects — the paper's
        "a service can be an interface to multiple objects".
        """
        op = Operation(op_name, target, method_name or op_name)
        self.operations[op_name] = op
        return op

    @property
    def operation_names(self) -> list[str]:
        return sorted(self.operations)

    def __repr__(self) -> str:
        return f"<ServiceObject {self.name} ops={self.operation_names}>"


class RpcDispatcher:
    """Decodes an RPC request body, calls the operation, encodes the reply."""

    def __init__(self, service: ServiceObject, registry: Optional[StructRegistry] = None):
        self.service = service
        self.registry = registry or StructRegistry()

    def dispatch(self, request: SoapEnvelope) -> SoapEnvelope:
        name = request.body_name
        if name is None:
            raise SoapFault(FaultCode.CLIENT, "empty request body")
        op_name = name.local
        operation = self.service.operations.get(op_name)
        if operation is None:
            raise SoapFault(
                FaultCode.CLIENT,
                f"service {self.service.name!r} has no operation {op_name!r}",
            )
        args, kwargs = self._decode_args(operation, request)
        try:
            result = operation.callable(*args, **kwargs)
        except SoapFault:
            raise
        except TypeError as exc:
            raise SoapFault(FaultCode.CLIENT, f"bad arguments for {op_name}: {exc}") from exc
        except Exception as exc:  # noqa: BLE001 - service boundary
            raise SoapFault(FaultCode.SERVER, f"{type(exc).__name__}: {exc}") from exc
        return _rpc_envelope(
            intern_qname(self.service.namespace, f"{op_name}Response", "tns"),
            {"return": result},
            self.registry,
        )

    def _decode_args(self, operation: Operation, request: SoapEnvelope) -> tuple[list, dict]:
        # the envelope's readers while nobody has looked at the tree;
        # else, and whenever a reader refuses, the tree
        values = request.rpc_values()
        if values is None:
            with attachment_scope(request.attachments):
                values = [
                    (child.name.local, decode_value(child, self.registry))
                    for child in request.body_content.children
                ]
        if operation.takes_any_name:
            return [], dict(values)
        param_names = operation.parameter_names
        positional: list[Any] = []
        keyword: dict[str, Any] = {}
        for name, value in values:
            if name in param_names:
                keyword[name] = value
            else:
                positional.append(value)
        return positional, keyword


def _rpc_envelope(
    name: QName, params: dict[str, Any], registry: Optional[StructRegistry]
) -> SoapEnvelope:
    """The envelope whose body is the RPC wrapper *name* around
    *params*.  One walk takes the texts and finds the attachments; when
    the values have a shape the body stays those texts, otherwise the
    element tree is built here — either way an unencodable value raises
    now, not when the wire is written."""
    texts: list = [name.uri]
    found: list = []
    try:
        shape = value_shape(params, texts, found)
    except EncodingError:
        shape = None  # the element path raises it, or an offence before it
    if shape is not None:
        return SoapEnvelope.for_deferred(DeferredBody(name, texts, (name.local, shape[1])))
    wrapper = Element(name, nsdecls={"tns": name.uri})
    for param, value in params.items():
        wrapper.append(encode_value(QName("", param), value, registry))
    return SoapEnvelope(body_content=wrapper, attachments=found)


def build_rpc_request(
    namespace: str,
    op_name: str,
    args: dict[str, Any],
    registry: Optional[StructRegistry] = None,
) -> SoapEnvelope:
    """Client-side helper: build the RPC request envelope for *op_name*."""
    return _rpc_envelope(intern_qname(namespace, op_name, "tns"), args, registry)


def extract_rpc_result(
    response: SoapEnvelope,
    registry: Optional[StructRegistry] = None,
) -> Any:
    """Client-side helper: pull the return value (or raise the fault)."""
    fault = response.fault()
    if fault is not None:
        raise fault
    if response.body_name is None:
        return None
    values = response.rpc_values()
    if values is not None:
        return next((value for name, value in values if name == "return"), None)
    ret = response.body_content.find("return")
    if ret is None:
        return None
    with attachment_scope(response.attachments):
        return decode_value(ret, registry)
