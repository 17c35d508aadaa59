"""One codec per wire format in ``src/``, and no switch that selects another.

The frozen reference codecs are test oracles and live in
``tests/_oracle``: the XML one (``reference_codec``) and the
TraceContext header's (``reference_tracecontext``).  The process-global
that used to route the product through the XML oracle
(``fastpath_enabled`` and the ``_ACTIVE_*`` module slots) is gone.  This
sweep fails if either oracle comes back under ``src/``, or if an oracle
starts borrowing production's codec — a bug there would then pass for
parity.
"""

import ast
import pathlib
import re

import repro
from tests._oracle import reference_codec, reference_tracecontext

SWITCH = re.compile(
    r"fastpath|_ACTIVE_(TOKENIZER|QNAME|SERIALIZE)|reference_codec"
    r"|xmlkit\.reference|xmlkit import reference|^\s*(from|import) tests\b"
    r"|reference_(encode|decode|tracecontext)|TraceContextError",
    re.MULTILINE,
)

#: all of production each oracle may see: the data model, the error
#: types, and the enum that names token kinds
ORACLE_MAY_IMPORT = {
    reference_codec: {
        "repro.xmlkit.element": None,
        "repro.xmlkit.names": None,
        "repro.xmlkit.errors": None,
        "repro.xmlkit.tokenizer": {"TokenType"},
    },
    reference_tracecontext: {
        "repro.observability.tracecontext": {"TraceContext"},
    },
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
    offenders = []
    for oracle, may_import in ORACLE_MAY_IMPORT.items():
        tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                offenders += [a.name for a in node.names if a.name.partition(".")[0] == "repro"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "repro":
                allowed = may_import.get(node.module, set())
                if allowed is not None:
                    offenders += [
                        f"{node.module}.{a.name}" for a in node.names if a.name not in allowed
                    ]
    assert not offenders, f"an oracle imports production code: {offenders}"
