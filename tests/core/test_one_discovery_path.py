"""Discovery keeps one path: ``locate_async``.

``ServiceLocator.locate`` is written once, on the base, as a pump of
virtual time over ``locate_async``, and ``DiscoveryClient.resolve`` is
a pump over ``resolve_async``.  This sweep fails if a locator under
``src/repro`` or in the lab package (``examples/lab``, whose semantic
locator plugs into the same tree) grows a blocking ``locate`` body of
its own again, or if ``resolve`` does anything but start
``resolve_async`` and wait for it.
"""

import ast
import pathlib

import lab
import repro

SRC = pathlib.Path(repro.__file__).parent
LAB = pathlib.Path(lab.__file__).parent


def _classes() -> list[tuple[pathlib.Path, ast.ClassDef]]:
    return [
        (path, node)
        for root in (SRC, LAB)
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    ]


def _base_names(node: ast.ClassDef) -> set[str]:
    return {
        base.id if isinstance(base, ast.Name) else base.attr
        for base in node.bases
        if isinstance(base, (ast.Name, ast.Attribute))
    }


def _methods(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {item.name: item for item in node.body if isinstance(item, ast.FunctionDef)}


def test_no_locator_defines_its_own_locate():
    classes = _classes()
    locators = {"ServiceLocator"}
    while True:
        grown = locators | {node.name for _, node in classes if _base_names(node) & locators}
        if grown == locators:
            break
        locators = grown
    assert {
        "UddiServiceLocator", "P2psServiceLocator",
        "DistributedUddiLocator", "SemanticServiceLocator",
    } <= locators, "the sweep lost track of the locator subclasses"
    offenders = [
        f"{path.relative_to(path.parents[1])}: {node.name}.locate"
        for path, node in classes
        if node.name in locators - {"ServiceLocator"} and "locate" in _methods(node)
    ]
    assert not offenders, f"a locator defines its own blocking locate: {offenders}"


def test_resolve_only_pumps_resolve_async():
    tree = ast.parse((SRC / "discovery" / "client.py").read_text())
    client = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "DiscoveryClient"
    )
    methods = _methods(client)
    resolve = methods["resolve"]
    called = {
        node.func.attr for node in ast.walk(resolve)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert called == {"wait", "resolve_async"}, called
    assert not [
        node for node in ast.walk(resolve)
        if isinstance(node, (ast.For, ast.While, ast.If, ast.Try, ast.With))
    ], "resolve has a body of its own"
    # the second, blocking resolve body and its helpers stay gone
    assert not {"_resolve_record", "_fetch", "_scatter"} & set(methods)
