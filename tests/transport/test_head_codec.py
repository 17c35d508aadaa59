"""HTTP head templates against two other readers of the same bytes.

``parse_head_block`` answers a head from a cached skeleton when the
bytes before its final ``Content-Length`` line were read before, and
``to_wire`` splices the length into a cached prefix.  Both are
optimisations and nothing else.  For every head:

- **parse** — cold (strict grammar, and the skeleton stored), then warm
  (answered from the skeleton), the result equals the strict grammar's
  (``_parse_strict``) — start line, every field with its casing and
  position, the length — or both raise the same ``TransportError``;
- **second reader** — a head the template answers is also accepted by
  ``http.client.parse_headers`` with the same fields and length;
- **render** — cold and warm, ``to_wire`` is byte-identical to the
  rendering the templates replaced (copy the headers, set
  ``Content-Length``, format every line).

Then the hostile mutants of a cached prefix: each must give the strict
grammar's exact result or its ``TransportError``; the heads RFC 9110/9112
refuse that the grammar refuses too, cold and off a warm prefix's slots;
and whole messages: a request or response built off a cached head
(``from_wire``'s hit) equals the one built off the grammar, framing and
body errors included.
"""

import http.client
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching import cache_stats, clear_all_caches
from repro.simnet import FixedLatency, Network
from repro.transport import HeaderMap, HttpRequest, HttpResponse, HttpServer, TransportError
from repro.transport.http import _parse_strict, parse_head_block
from tests.transport.test_http import raw_on_connection

SKELETONS = "http-head-skeletons"
TEMPLATES = "http-head-templates"

#: RFC 9110 token characters, the only ones a field name may hold
_TCHAR = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

_names = st.text(alphabet=_TCHAR, min_size=1, max_size=12).filter(
    lambda name: name.lower() != "content-length"
)
_values = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x24FF,
                           blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
    max_size=24,
).map(str.strip)
_fields = st.lists(st.tuples(_names, _values), max_size=6,
                   unique_by=lambda field: field[0].lower())
_start_lines = st.one_of(
    st.builds("{} /{} HTTP/1.1".format, st.sampled_from(["GET", "POST", "PUT"]),
              st.text(alphabet="abcz0129/._-", max_size=16)),
    st.builds("HTTP/1.1 {} {}".format, st.integers(100, 599),
              st.sampled_from(["OK", "Not Found", "Service Unavailable", ""])),
)
_lengths = st.integers(0, 10**12)


@pytest.fixture(autouse=True)
def _clean_caches():
    clear_all_caches()


def _head(start: str, fields: list, length: int) -> bytes:
    lines = [start] + [f"{name}: {value}" for name, value in fields]
    return ("\r\n".join(lines) + f"\r\nContent-Length: {length}").encode("utf-8")


def _outcome(parse, head):
    """What *parse* makes of *head*: (start, [(name, value)...], length)
    or the error it raised, as comparable data."""
    try:
        start, headers, length = parse(head)[:3]
    except TransportError as exc:
        return ("error", str(exc))
    return start, list(headers._entries.values()), length


def _strict(head: bytes):
    try:
        text = head.decode("utf-8")
    except UnicodeDecodeError:
        raise TransportError("malformed HTTP head: not valid UTF-8") from None
    parsed, headers, length, _ = _parse_strict(text)
    return parsed.start, headers, length


def _hits() -> int:
    return cache_stats()[SKELETONS]["hits"]


def _warm(head: bytes):
    """Parse *head* twice; the second parse must come off the skeleton."""
    cold = _outcome(parse_head_block, head)
    before = _hits()
    warm = _outcome(parse_head_block, head)
    assert _hits() == before + 1, "the warm parse did not use the skeleton"
    return cold, warm


class TestParseAgreesWithStrictGrammar:
    @given(_start_lines, _fields, _lengths)
    @settings(max_examples=300)
    def test_cold_and_warm_equal_the_strict_grammar(self, start, fields, length):
        clear_all_caches()
        head = _head(start, fields, length)
        strict = _outcome(_strict, head)
        cold, warm = _warm(head)
        assert cold == strict
        assert warm == strict

    @given(_start_lines, _fields, _lengths)
    @settings(max_examples=300)
    def test_a_templated_head_is_what_the_stdlib_reads(self, start, fields, length):
        clear_all_caches()
        head = _head(start, fields, length)
        _, warm = _warm(head)
        got_start, got_fields, got_length = warm
        first_line, _, field_lines = head.partition(b"\r\n")
        message = http.client.parse_headers(io.BytesIO(field_lines + b"\r\n\r\n"))
        # the stdlib reads field bytes as Latin-1
        stdlib = [(name, value.encode("latin-1").decode("utf-8"))
                  for name, value in message.items()]
        assert got_start == first_line.decode("utf-8")
        assert got_fields == stdlib
        assert got_length == int(message["Content-Length"])

    @given(_start_lines, st.lists(st.tuples(_names, _values), max_size=6), _lengths)
    @settings(max_examples=150)
    def test_duplicate_fields_merge_the_same_way_both_paths(self, start, fields, length):
        clear_all_caches()
        head = _head(start, fields, length)
        cold, warm = _warm(head)
        assert cold == warm == _outcome(_strict, head)

    def test_a_hit_hands_out_a_copy(self):
        head = _head("POST /svc HTTP/1.1", [("X-A", "1")], 5)
        parse_head_block(head)
        _, headers, _ = parse_head_block(head)
        headers["X-A"] = "changed"
        headers["X-B"] = "added"
        assert _outcome(parse_head_block, head) == (
            "POST /svc HTTP/1.1", [("X-A", "1"), ("Content-Length", "5")], 5
        )


_tokens = st.text(alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x2FF), max_size=12)


class TestSlots:
    """A request head's target and SOAPAction value are slots: a head
    that differs from a learned one only there is read off the slotted
    skeleton, as the strict grammar reads it."""

    @given(_fields, _tokens, _values, _tokens, _values, _lengths)
    @settings(max_examples=300)
    def test_another_target_or_action_reads_as_the_grammar_does(
        self, fields, target, action, other_target, other_action, length
    ):
        clear_all_caches()
        head = _head(f"POST /{target} HTTP/1.1", [("SOAPAction", action), *fields], length)
        _outcome(parse_head_block, head)
        other = _head(f"POST /{other_target} HTTP/1.1", [("SOAPAction", other_action), *fields], length)
        hits = cache_stats()["http-head-slots"]["hits"]
        assert _outcome(parse_head_block, other) == _outcome(_strict, other)
        if other != head and not any(name.lower() == "soapaction" for name, _ in fields):
            assert cache_stats()["http-head-slots"]["hits"] == hits + 1


class TestHostileMutantsOfACachedPrefix:
    """A warm prefix, then bytes that differ from it: none may be
    answered by the template unless the strict grammar says the same."""

    PREFIX = b"POST /services/Bench HTTP/1.1\r\nSOAPAction: urn:x#echo\r\nHost: provider:80"

    @pytest.fixture(autouse=True)
    def _warm_prefix(self):
        _warm(self.PREFIX + b"\r\nContent-Length: 5")

    def _agrees(self, head: bytes) -> None:
        assert _outcome(parse_head_block, head) == _outcome(_strict, head)
        # and again, now that a cold parse may have stored something
        assert _outcome(parse_head_block, head) == _outcome(_strict, head)

    @pytest.mark.parametrize("value", [
        b"+5", b" 5", b"5 ", b"  5", b"\t5", b"-5", b"0x5", b"5\x00", b"",
        "٥".encode("utf-8"),           # Arabic-Indic five
        "1٢".encode("utf-8"),          # ASCII one, Arabic-Indic two
        "５".encode("utf-8"),           # full-width five
        b"9" * 19, b"9" * 5000,             # past int64; past int()'s digit limit
    ])
    def test_length_values(self, value):
        self._agrees(self.PREFIX + b"\r\nContent-Length: " + value)

    def test_lower_case_length_name(self):
        head = self.PREFIX + b"\r\ncontent-length: 5"
        self._agrees(head)
        assert _outcome(parse_head_block, head)[1][-1] == ("content-length", "5")

    @pytest.mark.parametrize("inner", [b"5", b"6", b"+5"])
    def test_a_second_length_line_inside_the_prefix(self, inner):
        head = (self.PREFIX + b"\r\nContent-Length: " + inner
                + b"\r\nContent-Length: 5")
        self._agrees(head)
        assert cache_stats()[SKELETONS]["size"] == 1  # never stored

    @pytest.mark.parametrize("junk", [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80abc"])
    def test_non_utf8_bytes_in_the_prefix(self, junk):
        self._agrees(self.PREFIX + junk + b"\r\nContent-Length: 5")
        self._agrees(junk + self.PREFIX + b"\r\nContent-Length: 5")

    def test_every_one_byte_difference(self):
        for at in range(len(self.PREFIX)):
            for byte in (0x00, 0x0A, 0x0D, 0x20, 0x3A, 0x41, 0x80, 0xFF):
                if self.PREFIX[at] == byte:
                    continue
                mutant = self.PREFIX[:at] + bytes([byte]) + self.PREFIX[at + 1:]
                self._agrees(mutant + b"\r\nContent-Length: 5")

    def test_a_truncated_or_extended_prefix(self):
        for cut in range(len(self.PREFIX)):
            self._agrees(self.PREFIX[:cut] + b"\r\nContent-Length: 5")
        self._agrees(self.PREFIX + b"\r\nX-Extra: 1\r\nContent-Length: 5")
        self._agrees(self.PREFIX + b"\r\n\r\nContent-Length: 5")

    def test_the_length_must_be_the_last_line(self):
        self._agrees(self.PREFIX + b"\r\nContent-Length: 5\r\nX-After: 1")
        self._agrees(self.PREFIX + b"\r\nContent-Length: 5\r\n")

    def test_an_oversized_prefix_is_never_stored(self):
        head = self.PREFIX + b"\r\nX-Big: " + b"a" * 5000 + b"\r\nContent-Length: 5"
        self._agrees(head)
        assert cache_stats()[SKELETONS]["size"] == 1


class TestStrictGrammar:
    """Heads RFC 9110/9112 refuse: whitespace before a field's colon (a
    request-smuggling shape), an empty field name, a C0 control in a
    field value, an HTTP version other than 1.0 and 1.1.  The grammar
    refuses each, so no cached head can answer one."""

    REFUSED = {
        "space-before-colon": b"POST /svc HTTP/1.1\r\nHost : provider:80",
        "tab-before-colon": b"POST /svc HTTP/1.1\r\nHost\t: provider:80",
        "empty-name": b"POST /svc HTTP/1.1\r\n: provider:80",
        "obs-fold": b"POST /svc HTTP/1.1\r\nHost: provider:80\r\n X-Folded: 1",
        "nul-in-value": b"POST /svc HTTP/1.1\r\nHost: provider\x00:80",
        "bare-lf-in-value": b"POST /svc HTTP/1.1\r\nHost: provider\nX-Smuggled: 1",
        "escape-in-value": b"POST /svc HTTP/1.1\r\nX-A: \x1b[31m",
        "version-9": b"POST /svc HTTP/9.1\r\nHost: provider:80",
        "version-2": b"HTTP/2 200 OK\r\nX-A: 1",
        "no-version": b"POST /svc\r\nHost: provider:80",
        "not-a-start-line": b"THIS IS NOT HTTP\r\nHost: provider:80",
    }

    @pytest.mark.parametrize("head", REFUSED.values(), ids=REFUSED.keys())
    def test_the_grammar_refuses(self, head):
        for length_line in (b"", b"\r\nContent-Length: 0"):
            with pytest.raises(TransportError):
                _strict(head + length_line)
            for _ in range(2):
                with pytest.raises(TransportError):
                    parse_head_block(head + length_line)
        with pytest.raises(TransportError):
            (HttpResponse if head.startswith(b"HTTP/") else HttpRequest).from_wire(
                head + b"\r\nContent-Length: 0\r\n\r\n"
            )
        assert cache_stats()[SKELETONS]["size"] == 0

    @pytest.mark.parametrize("value", [b"a\x01b", b"urn:x#echo\x1f", b"\x00"])
    def test_a_slotted_action_is_held_to_the_field_value_grammar(self, value):
        _warm(b"POST /svc HTTP/1.1\r\nSOAPAction: urn:x#echo\r\nHost: h\r\nContent-Length: 5")
        head = b"POST /other HTTP/1.1\r\nSOAPAction: " + value + b"\r\nHost: h\r\nContent-Length: 5"
        with pytest.raises(TransportError):
            parse_head_block(head)
        assert _outcome(parse_head_block, head) == _outcome(_strict, head)

    def test_tabs_and_obs_text_stay_legal(self):
        head = "POST /svc HTTP/1.0\r\nX-A: a\tb é\x7f\r\nContent-Length: 0".encode("utf-8")
        cold, warm = _warm(head)
        assert cold == warm == ("POST /svc HTTP/1.0", [("X-A", "a\tb é\x7f"), ("Content-Length", "0")], 0)

    def test_the_server_answers_400(self):
        net = Network(latency=FixedLatency(0.001))
        for name in ("server", "client"):
            net.add_node(name)
        server = HttpServer(net.get_node("server"), 80)
        server.add_route("/svc", lambda request: HttpResponse(200, request.body))
        server.start()
        replies = raw_on_connection(net, b"POST /svc HTTP/1.1\r\nHost : x\r\nContent-Length: 2\r\n\r\nhi")
        assert [HttpResponse.from_wire(reply).status for reply in replies] == [400]
        assert server.bad_requests == 1 and server.requests_served == 0


def _message(kind, data):
    """What *kind*'s ``from_wire`` makes of *data*, as comparable data."""
    try:
        message = kind.from_wire(data)
    except TransportError as exc:
        return ("error", str(exc))
    start = (message.method, message.path) if kind is HttpRequest else (message.status, message.reason)
    return start, list(message.headers._entries.values()), message.body


_content_types = st.sampled_from([
    None, "text/xml; charset=utf-8", "multipart/related; boundary=x",
    "Application/Octet-Stream", "application/octet-streamy",
])
_raw_bodies = st.one_of(st.binary(max_size=24), st.text(max_size=24).map(str.encode))


class TestMessagesOffACachedHead:
    """``from_wire`` builds a message on a cached head without the
    grammar; it must build exactly what the grammar's path builds."""

    @given(_start_lines, _fields, _content_types, _raw_bodies, st.integers(-1, 1))
    @settings(max_examples=300)
    def test_a_hit_is_the_grammars_message(self, start, fields, content_type, body, skew):
        clear_all_caches()
        if content_type is not None:
            fields = [*fields, ("Content-Type", content_type)]
        data = _head(start, fields, max(len(body) + skew, 0)) + b"\r\n\r\n" + body
        kind = HttpResponse if start.startswith("HTTP/") else HttpRequest
        cold = _message(kind, data)
        hits = _hits()
        assert _message(kind, data) == cold
        assert _hits() == hits + 1
        # the grammar's own reading of the same bytes, built by hand
        parsed, headers, length, _ = _parse_strict(data.partition(b"\r\n\r\n")[0].decode("utf-8"))
        if length != len(body):
            assert cold == ("error", f"Content-Length mismatch: declared {length}, got {len(body)} bytes")
        elif parsed.binary:
            assert cold[2] == body and content_type.lower().startswith(("multipart/", "application/octet-stream"))
        else:
            try:
                text = body.decode("utf-8")
            except UnicodeDecodeError:
                assert cold == ("error", "message body is not valid UTF-8")
            else:
                start_parts = parsed.request if kind is HttpRequest else parsed.response
                assert cold == (start_parts, list(headers._entries.values()), text)

    def test_a_request_head_answers_no_response(self):
        request = b"POST /svc HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
        for _ in range(3):
            assert HttpRequest.from_wire(request).path == "/svc"
            with pytest.raises(TransportError, match="malformed status line"):
                HttpResponse.from_wire(request)
        response = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"
        for _ in range(3):
            assert HttpResponse.from_wire(response).status == 200
            with pytest.raises(TransportError, match="malformed request line"):
                HttpRequest.from_wire(response)

    def test_a_hit_hands_out_its_own_message(self):
        data = b"POST svc HTTP/1.1\r\nX-A: 1\r\nContent-Length: 2\r\n\r\nhi"
        first = HttpRequest.from_wire(data)
        first.headers["X-A"] = "changed"
        first.path = "/elsewhere"
        for _ in range(2):
            again = HttpRequest.from_wire(data)
            assert (again.method, again.path, again.body) == ("POST", "/svc", "hi")
            assert list(again.headers.items()) == [("X-A", "1"), ("Content-Length", "2")]


def _reference_wire(start: str, headers: HeaderMap, body: bytes) -> bytes:
    """The rendering the templates replaced."""
    headers = headers.copy()
    headers["Content-Length"] = str(len(body))
    lines = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    return f"{start}\r\n{lines}\r\n".encode("utf-8") + body


_bodies = st.one_of(st.text(max_size=40), st.binary(max_size=40))


class TestRender:
    @given(_fields, _bodies, st.sampled_from(["GET", "POST"]),
           st.text(alphabet="abc/_", max_size=8))
    @settings(max_examples=200)
    def test_request_cold_and_warm(self, fields, body, method, path):
        clear_all_caches()
        request = HttpRequest(method, path, body, fields)
        raw = body.encode("utf-8") if isinstance(body, str) else body
        expected = _reference_wire(f"{request.method} {request.path} HTTP/1.1",
                                   request.headers, raw)
        assert request.to_wire() == expected
        assert request.to_wire() == expected
        assert b"".join(request.iter_wire()) == expected

    @given(_fields, _bodies, st.sampled_from([200, 404, 500, 503]))
    @settings(max_examples=200)
    def test_response_cold_and_warm(self, fields, body, status):
        clear_all_caches()
        response = HttpResponse(status, body, fields)
        raw = body.encode("utf-8") if isinstance(body, str) else body
        expected = _reference_wire(f"HTTP/1.1 {status} {response.reason}",
                                   response.headers, raw)
        assert response.to_wire() == expected
        assert response.to_wire() == expected
        assert cache_stats()[TEMPLATES]["hits"] >= 1

    def test_a_caller_content_length_keeps_its_casing_and_place(self):
        request = HttpRequest("POST", "/x", "hello", {"content-length": "99", "X-A": "1"})
        for _ in range(2):
            assert request.to_wire() == (
                b"POST /x HTTP/1.1\r\ncontent-length: 5\r\nX-A: 1\r\n\r\nhello"
            )

    def test_render_then_parse_round_trips_warm(self):
        request = HttpRequest("POST", "/svc", "<x/>", {"SOAPAction": "a#b"})
        for _ in range(3):
            back = HttpRequest.from_wire(request.to_wire())
            assert (back.method, back.path, back.body) == ("POST", "/svc", "<x/>")
            assert list(back.headers.items()) == [("SOAPAction", "a#b"), ("Content-Length", "4")]
        assert cache_stats()[SKELETONS]["hits"] >= 2
