"""``LightweightContainer.serve`` is the only server-side message path,
and each service's ``DedupWindow`` the only place answers are retained.

A second path needs to decode a request, encode an answer, or look a
MessageID up.  This sweep fails if ``core/deployer.py`` does any of the
three, or if anything under ``src/repro`` outside ``core/hosting.py``
builds a window of its own — so a binding cannot grow its private
request handler or response cache back unnoticed.
"""

import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: decoding, encoding, touching a dedup window, or going around serve()
DEPLOYER_MUST_NOT = (
    "from_wire_message(", "to_wire_message(", ".dedup", "process_request(",
)


def test_deployers_never_decode_encode_or_dedup():
    text = (SRC / "core" / "deployer.py").read_text()
    offenders = [needle for needle in DEPLOYER_MUST_NOT if needle in text]
    assert not offenders, f"core/deployer.py re-implements the pipeline: {offenders}"
    assert ".serve(" in text, "the sweep is looking at the wrong file"


def test_dedup_windows_are_built_only_by_the_container():
    builders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "DedupWindow(" in path.read_text()
    ]
    assert builders == ["core/hosting.py"]
