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

#: all of production each oracle may see: the data model and the error types
ORACLE_MAY_IMPORT = {
    reference_codec: {
        "repro.xmlkit.element": None,
        "repro.xmlkit.names": None,
        "repro.xmlkit.errors": None,
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


#: the one module under ``src/`` that may read XML: the tree builder over expat
READER = pathlib.Path("xmlkit") / "parser.py"
XML_READERS = re.compile(r"^\s*(from|import) (xml\b|pyexpat\b)|\bTokenizer\b|ParserCreate", re.MULTILINE)


def test_one_xml_reader():
    """Expat reads, through one tree builder; no module keeps a reader of its own."""
    src = pathlib.Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(src)}: {match.group().strip()}"
        for path in sorted(src.rglob("*.py"))
        if path.relative_to(src) != READER
        for match in XML_READERS.finditer(path.read_text())
    ]
    assert not offenders, f"XML read outside {READER}: {offenders}"
    assert XML_READERS.search((src / READER).read_text())  # the sweep sees what it looks for
    assert not (src / "xmlkit" / "tokenizer.py").exists()


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


#: the one module that plants sentinels, cuts wires at them and walks
#: slot texts; the parser under ``xmlkit`` walks text of its own
SHAPES = pathlib.Path("soap") / "shapes.py"


def _engine_offenses(tree: ast.AST) -> list[str]:
    """What a second template or skeleton engine would have to do."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\x00" in node.value:
            found.append(f"line {node.lineno}: plants a NUL sentinel")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("EnvelopeTemplate", "Wire", "split_at_sentinels", "Tokenizer"):
                found.append(f"line {node.lineno}: cuts a wire ({name})")
            elif name == "decode_entities" or (
                name == "find" and len(node.args) == 2
                and isinstance(node.args[0], ast.Constant) and node.args[0].value == "<"
            ):
                found.append(f"line {node.lineno}: walks slot texts ({name})")
    return found


def test_one_shape_engine_for_both_codec_directions():
    """Every wire template, skeleton and slot walk is compiled by
    ``soap/shapes.py``; the codec's other modules are its clients."""
    src = pathlib.Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(src)} {offense}"
        for path in sorted(src.rglob("*.py"))
        if path.relative_to(src) != SHAPES and path.relative_to(src).parts[0] != "xmlkit"
        for offense in _engine_offenses(ast.parse(path.read_text()))
    ]
    assert not offenders, f"a second codec engine outside {SHAPES}: {offenders}"
    # the sweep sees what it is looking for
    assert _engine_offenses(ast.parse((src / SHAPES).read_text()))
