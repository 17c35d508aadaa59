"""Client stub generation.

Axis generated client stubs by emitting Java source and compiling it;
the paper notes WSPeer "extends the stub generation capabilities of
Axis by generating stubs directly to bytes, bypassing source generation
and compilation" (§IV-A).  Both strategies are reproduced:

:class:`DynamicStubBuilder`
    The WSPeer way — builds the proxy class in memory with ``type()``
    and closures.  No source text ever exists.
:class:`SourceCodegenStubBuilder`
    The traditional way — renders Python source for the stub class,
    ``compile()``\\ s and ``exec()``\\ s it.  Functionally identical,
    measurably slower; experiment E5 quantifies the difference.

Both produce classes whose instances forward each operation to an
``invoke`` callable: ``invoke(op_name, args_dict) -> result``.  The
invoke callable is supplied by the WSPeer client layer, so a stub works
identically over HTTP, HTTPG or P2PS pipes.
"""

from __future__ import annotations

import keyword
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.caching import ArtifactCache

InvokeFn = Callable[[str, dict[str, Any]], Any]


@dataclass(frozen=True)
class OperationSpec:
    """Shape of one operation as needed for stub generation."""

    name: str
    parameters: tuple[str, ...] = ()
    doc: str = ""


@dataclass(frozen=True)
class StubSpec:
    """Shape of a service port: what a stub class must expose."""

    service_name: str
    operations: tuple[OperationSpec, ...] = field(default_factory=tuple)

    def validate(self) -> None:
        seen: set[str] = set()
        for op in self.operations:
            if not op.name.isidentifier() or keyword.iskeyword(op.name):
                raise ValueError(f"operation name unusable as method: {op.name!r}")
            if op.name in seen:
                raise ValueError(f"duplicate operation: {op.name!r}")
            seen.add(op.name)
            for p in op.parameters:
                if not p.isidentifier() or keyword.iskeyword(p):
                    raise ValueError(f"parameter name unusable: {p!r} in {op.name}")


#: per operations tuple, the last service's class: a subclass of the one built for them
_class_cache = ArtifactCache("stub-classes", max_entries=128)


class DynamicStubBuilder:
    """Builds stub classes directly in memory — no source, no compile."""

    def build_class(self, spec: StubSpec) -> type:
        named = _class_cache.get(spec.operations)
        if named is not None and named._spec.service_name == spec.service_name:
            return named
        base = self._build_class(spec) if named is None else named.__base__
        return _class_cache.put(spec.operations, type(f"{spec.service_name}Stub", (base,), {
            "__doc__": f"Dynamic stub for service {spec.service_name!r}.", "_spec": spec,
        }))

    def _build_class(self, spec: StubSpec) -> type:
        spec.validate()

        def __init__(self, invoke: InvokeFn):  # noqa: N807
            self._invoke = invoke

        namespace: dict[str, Any] = {"__init__": __init__}
        for op in spec.operations:
            namespace[op.name] = self._make_method(op)
        return type("DynamicStub", (object,), namespace)

    @staticmethod
    def _make_method(op: OperationSpec) -> Callable[..., Any]:
        params = op.parameters

        def method(self, *args: Any, **kwargs: Any) -> Any:
            if len(args) > len(params):
                raise TypeError(
                    f"{op.name}() takes at most {len(params)} arguments ({len(args)} given)"
                )
            call_args = dict(zip(params, args))
            for name, value in kwargs.items():
                if name not in params:
                    raise TypeError(f"{op.name}() got unexpected argument {name!r}")
                if name in call_args:
                    raise TypeError(f"{op.name}() got duplicate argument {name!r}")
                call_args[name] = value
            return self._invoke(op.name, call_args)

        method.__name__ = op.name
        method.__doc__ = op.doc or f"Invoke remote operation {op.name!r}."
        return method

    def build(self, spec: StubSpec, invoke: InvokeFn) -> Any:
        """Build the class and instantiate it over *invoke* in one step."""
        return self.build_class(spec)(invoke)


class SourceCodegenStubBuilder:
    """Builds stubs the traditional way: render source, compile, exec."""

    def render_source(self, spec: StubSpec) -> str:
        spec.validate()
        lines = [
            f"class {spec.service_name}Stub:",
            f"    '''Generated stub for service {spec.service_name!r}.'''",
            "    def __init__(self, invoke):",
            "        self._invoke = invoke",
        ]
        for op in spec.operations:
            arglist = ", ".join(["self", *op.parameters])
            mapping = ", ".join(f"{p!r}: {p}" for p in op.parameters)
            lines.append(f"    def {op.name}({arglist}):")
            lines.append(f"        return self._invoke({op.name!r}, {{{mapping}}})")
        return "\n".join(lines) + "\n"

    def build_class(self, spec: StubSpec) -> type:
        source = self.render_source(spec)
        code = compile(source, f"<stub:{spec.service_name}>", "exec")
        module_ns: dict[str, Any] = {}
        exec(code, module_ns)  # noqa: S102 - deliberate: this IS the codegen path
        return module_ns[f"{spec.service_name}Stub"]

    def build(self, spec: StubSpec, invoke: InvokeFn) -> Any:
        return self.build_class(spec)(invoke)
