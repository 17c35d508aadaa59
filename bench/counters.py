"""The count pass and the off-path codec rates.

The count pass runs a fixed number of operations with a frame counter
on the network and listeners on both peers, so everything it reports is
an exact count that repeats for a seed.  Each probe reads one public
hook of the program; a hook that is gone yields ``None`` for its metric
and a warning, never an exception.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any, Callable, Optional

from calibration import kernel_seconds, speed
from spec import CODEC_RATES
from workloads import Tally, Workload

#: distinct envelopes kept for the codec rates
WIRE_SAMPLES = 32
CODEC_SECONDS = 0.05
FEED_CHUNK = 1024

_GONE = (ImportError, AttributeError, KeyError, TypeError)


def attempt(what: str, fn: Callable[[], Any], warnings: list[str]) -> Any:
    """``fn()``, or ``None`` plus a warning when the hook it reads is gone."""
    try:
        return fn()
    except _GONE as exc:
        warnings.append(f"count probe {what} is gone ({exc!r}): its metrics read null")
        return None


def _envelope_of(payload) -> Optional[str]:
    """The SOAP text inside a frame: the frame itself on a pipe, the
    body after the header block in an HTTP message."""
    if isinstance(payload, (bytes, bytearray, memoryview)):
        try:
            payload = bytes(payload).decode("utf-8")
        except UnicodeDecodeError:
            return None
    if not payload.startswith("<"):
        payload = payload.partition("\r\n\r\n")[2]
    return payload if payload.startswith("<") and "Envelope" in payload else None


class FrameCounter:
    """A delivery hook that counts what reaches the wire."""

    def __init__(self) -> None:
        self.frames = 0
        self.bytes = 0
        self.envelopes: dict[str, None] = {}

    def __call__(self, frame) -> bool:
        self.frames += 1
        self.bytes += frame.size
        if len(self.envelopes) < WIRE_SAMPLES:
            text = _envelope_of(frame.payload)
            if text is not None:
                self.envelopes.setdefault(text)
        return True


class EventCounter:
    """The ``PeerMessageListener`` surface the event tree calls, counting
    the two kinds the reliability metrics are made of."""

    def __init__(self) -> None:
        self.kinds = {"retransmit": 0, "duplicate-suppressed": 0}

    def message_received(self, event) -> None:
        if event.kind in self.kinds:
            self.kinds[event.kind] += 1


class TemplateRecorder:
    """Counts the request-template outcomes the codec reports."""

    active = True

    def __init__(self) -> None:
        self.kinds: dict[str, int] = {}

    def codec_event(self, kind: str, detail=None) -> None:
        self.kinds[kind] = self.kinds.get(kind, 0) + 1


def _set_recorder(recorder) -> Any:
    from repro.observability import set_recorder

    return set_recorder(recorder)


def _conn_opened() -> int:
    from repro.observability import default_registry

    return default_registry().get("transport.http.conn_opened")


def _cache_lookups() -> tuple[int, int]:
    from repro.caching import cache_stats

    stats = cache_stats().values()
    return sum(s["hits"] for s in stats), sum(s["hits"] + s["misses"] for s in stats)


def count_pass(workload: Workload, warnings: list[str]) -> tuple[Tally, dict, list[str]]:
    """Run ``workload.count_ops`` operations under the counters.

    Returns the tally, the per-op count metrics (``None`` where a probe
    is gone) and the distinct envelopes seen on the wire.
    """
    net = workload.net
    peers = (workload.consumer, workload.provider)
    frames = FrameCounter()
    hooked = attempt(
        "Network.add_delivery_hook", lambda: net.add_delivery_hook(frames) or True, warnings
    )

    listener = EventCounter()
    listening = attempt(
        "WSPeer.add_listener", lambda: [p.add_listener(listener) for p in peers], warnings
    )
    templates = TemplateRecorder()
    previous = attempt("observability.set_recorder", lambda: _set_recorder(templates), warnings)

    fired_before = attempt("Kernel.events_fired", lambda: net.kernel.events_fired, warnings)
    opened_before = attempt("metric transport.http.conn_opened", _conn_opened, warnings)
    cache_before = attempt("caching.cache_stats", _cache_lookups, warnings)

    tally = workload.run(ops=workload.count_ops)
    ops = max(tally.attempted, 1)

    def hit_rate(hits: int, lookups: int) -> float:
        return hits / lookups if lookups else 0.0

    kinds = templates.kinds
    counts = {
        "wire_bytes_per_op": frames.bytes / ops if hooked else None,
        "simnet.network.frames_per_op": frames.frames / ops if hooked else None,
        "simnet.kernel.events_per_op": (
            None if fired_before is None else (net.kernel.events_fired - fired_before) / ops
        ),
        "reliability.executor.retransmits_per_op": (
            listener.kinds["retransmit"] / ops if listening else None
        ),
        "reliability.dedup.duplicates_per_op": (
            listener.kinds["duplicate-suppressed"] / ops if listening else None
        ),
        "transport.connection.connects_per_op": (
            None if opened_before is None else (_conn_opened() - opened_before) / ops
        ),
        "caching.hit_rate": (
            None
            if cache_before is None
            else hit_rate(*(now - before for now, before in zip(_cache_lookups(), cache_before)))
        ),
        "wsa.headers.template_hit_rate": (
            None
            if previous is None
            else hit_rate(
                kinds.get("template-hit", 0),
                sum(kinds.get(k, 0) for k in ("template-hit", "template-build", "template-bypass")),
            )
        ),
    }

    if hooked:
        net.remove_delivery_hook(frames)
    if listening:
        for peer in peers:
            peer.remove_listener(listener)
    if previous is not None:
        _set_recorder(previous)
    return tally, counts, list(frames.envelopes)


def _mb_per_s(fn: Callable[[], int]) -> float:
    """Bytes processed per second by repeated *fn* over ~CODEC_SECONDS."""
    done = 0
    started = perf_counter()
    while True:
        done += fn()
        elapsed = perf_counter() - started
        if elapsed >= CODEC_SECONDS:
            return done / elapsed / 1e6


def codec_rates(envelopes: list[str], warnings: list[str]) -> dict[str, Optional[float]]:
    """Batch and streaming codec throughput over the captured wires,
    with no network or SOAP layer in the way, at nominal machine speed."""
    names = tuple(CODEC_RATES)  # parse, serialize, feed-parse, iter-serialize
    try:
        from repro.xmlkit import FeedParser, iter_serialize, parse, serialize
    except ImportError as exc:
        warnings.append(f"xmlkit codec entry points are gone ({exc}): codec rates read null")
        return dict.fromkeys(names)
    if not envelopes:
        warnings.append("no envelope was seen on the wire: codec rates read null")
        return dict.fromkeys(names)

    raw = [text.encode("utf-8") for text in envelopes]
    trees = [parse(text) for text in envelopes]

    def do_parse() -> int:
        for text in envelopes:
            parse(text)
        return sum(map(len, raw))

    def do_serialize() -> int:
        return sum(len(serialize(tree)) for tree in trees)

    def do_feed() -> int:
        for data in raw:
            parser = FeedParser()
            for at in range(0, len(data), FEED_CHUNK):
                parser.feed(data[at : at + FEED_CHUNK])
            parser.close()
        return sum(map(len, raw))

    def do_iter_serialize() -> int:
        return sum(len(chunk) for tree in trees for chunk in iter_serialize(tree))

    rates, readings = [], [kernel_seconds()]
    for fn in (do_parse, do_serialize, do_feed, do_iter_serialize):
        rates.append(_mb_per_s(fn))
        readings.append(kernel_seconds())
    factor = speed(statistics.median(readings))  # one reading in a hiccup must not halve it
    return {name: rate / factor for name, rate in zip(names, rates)}
