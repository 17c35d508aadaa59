"""Every definition in ``src/repro`` is used somewhere.

Collects each ``def`` and ``class`` name under ``src/repro`` and counts
its whole-word occurrences across the program, its tests, benchmarks
and examples.  A name found no more often than it is defined is dead
code: delete it, or use it.  Dunder methods are called by the
interpreter, not by name, so they are left out.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "bench", "benchmarks", "examples")


def test_no_definition_in_src_goes_unreferenced():
    defined: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    defined.setdefault(node.name, []).append(where)
    words: Counter = Counter()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    dead = {name: where for name, where in defined.items() if words[name] <= len(where)}
    assert not dead, f"defined but referenced nowhere: {dead}"
