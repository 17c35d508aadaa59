"""Tests for the URI model, including the p2ps scheme shapes from §IV-B."""

import pytest

from repro.transport import Uri, UriError


class TestParse:
    def test_http_full(self):
        u = Uri.parse("http://hostA:8080/services/Echo")
        assert u.scheme == "http"
        assert u.host == "hostA"
        assert u.port == 8080
        assert u.path == "services/Echo"
        assert u.fragment == ""

    def test_paper_p2ps_example(self):
        # the exact shape from the paper: p2ps://<peerid>/<service>#<pipe>
        u = Uri.parse("p2ps://peer-1234/Echo#echoString")
        assert u.scheme == "p2ps"
        assert u.host == "peer-1234"
        assert u.path == "Echo"
        assert u.fragment == "echoString"

    def test_p2ps_no_service(self):
        # "If there is no service associated with the pipe, the path
        #  component may be empty" (§IV-B)
        u = Uri.parse("p2ps://peer-1234")
        assert u.path == ""
        assert u.fragment == ""

    def test_scheme_lowercased(self):
        assert Uri.parse("HTTP://h/x").scheme == "http"

    def test_no_port(self):
        assert Uri.parse("http://h/x").port is None

    def test_fragment_only(self):
        u = Uri.parse("p2ps://peer#reply")
        assert u.fragment == "reply"
        assert u.path == ""

    def test_missing_scheme(self):
        with pytest.raises(UriError):
            Uri.parse("no-scheme-here")

    def test_missing_host(self):
        with pytest.raises(UriError):
            Uri.parse("http:///path")

    def test_bad_port(self):
        with pytest.raises(UriError):
            Uri.parse("http://h:abc/x")

    def test_port_out_of_range(self):
        with pytest.raises(UriError):
            Uri.parse("http://h:70000/x")


class TestRender:
    CASES = [
        "http://hostA:8080/services/Echo",
        "p2ps://peer-1234/Echo#echoString",
        "p2ps://peer-1234",
        "httpg://secure:8443/svc",
        "http://h/deep/path/here",
    ]

    def test_roundtrip(self):
        for text in self.CASES:
            assert str(Uri.parse(text)) == text

    def test_authority(self):
        assert Uri.parse("http://h:81/x").authority == "h:81"
        assert Uri.parse("http://h/x").authority == "h"

    def test_frozen(self):
        u = Uri.parse("http://h/x")
        with pytest.raises(AttributeError):
            u.host = "other"  # type: ignore[misc]
