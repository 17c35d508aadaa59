"""Lazy re-exports (PEP 562): a package loads a submodule when one of
its names is first read, not when the package is imported.

A package ``__init__`` keeps one table, submodule → the names it
defines, and takes its ``__all__``, ``__getattr__`` and ``__dir__``
from it::

    __all__, __getattr__, __dir__ = exports(__name__, {
        ".envelope": ("SoapEnvelope",),
        ".faults": ("FaultCode", "SoapFault"),
    })

A plain module may serve names that moved to a sibling the same way.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def exports(
    name: str, table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` of module *name*.  *table*
    maps a module, relative to *name*'s package, to the names it
    serves; a name equal to its module's own last part is the module.
    A name is stored in the module when first read, so from then on it
    costs one dictionary lookup."""
    where = {export: module for module, names in table.items() for export in names}
    namespace = vars(sys.modules[name])
    package = namespace["__package__"]

    def __getattr__(attr: str) -> Any:
        module = where.get(attr)
        if module is None:
            raise AttributeError(f"module {name!r} has no attribute {attr!r}")
        value: Any = importlib.import_module(module, package)
        if module.rpartition(".")[2] != attr:
            value = getattr(value, attr)
        namespace[attr] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *where})

    return list(where), __getattr__, __dir__
