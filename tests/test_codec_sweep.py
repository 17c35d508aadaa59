"""One XML codec in ``src/``, and no switch that selects another.

The frozen reference codec is a test oracle and lives in
``tests/_oracle``; the process-global that used to route the product
through it (``fastpath_enabled`` and the ``_ACTIVE_*`` module slots) is
gone.  This sweep fails if either comes back under ``src/``, or if the
oracle starts borrowing production's parser or serializer — a bug there
would then pass for parity.
"""

import ast
import pathlib
import re

import repro
from tests._oracle import reference_codec

SWITCH = re.compile(
    r"fastpath|_ACTIVE_(TOKENIZER|QNAME|SERIALIZE)|reference_codec"
    r"|xmlkit\.reference|xmlkit import reference|^\s*(from|import) tests\b",
    re.MULTILINE,
)

#: all of production the oracle may see: the data model, the error
#: types, and the enum that names token kinds
ORACLE_MAY_IMPORT = {
    "repro.xmlkit.element": None,
    "repro.xmlkit.names": None,
    "repro.xmlkit.errors": None,
    "repro.xmlkit.tokenizer": {"TokenType"},
}


def test_no_codec_switch_or_oracle_under_src():
    src = pathlib.Path(repro.__file__).parent
    swept = sorted(src.rglob("*.py"))
    assert swept, "the sweep found no source files at all"
    offenders = [
        f"{path.relative_to(src)}: {match.group().strip()}"
        for path in swept
        for match in SWITCH.finditer(path.read_text())
    ]
    assert not offenders, f"codec switch or oracle import under src/: {offenders}"
    assert not (src / "xmlkit" / "reference.py").exists()


def test_oracle_shares_no_code_with_the_production_codec():
    tree = ast.parse(pathlib.Path(reference_codec.__file__).read_text())
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            offenders += [a.name for a in node.names if a.name.partition(".")[0] == "repro"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "repro":
            allowed = ORACLE_MAY_IMPORT.get(node.module, set())
            if allowed is not None:
                offenders += [
                    f"{node.module}.{a.name}" for a in node.names if a.name not in allowed
                ]
    assert not offenders, f"the oracle imports production code: {offenders}"
