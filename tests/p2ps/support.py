"""Shared helper for tests that drive a bare P2PS :class:`Peer`."""

from repro.simnet.kernel import SimTimeoutError


def wait_for_results(handle, timeout: float = 10.0) -> list:
    """Pump the kernel until the query *handle* has a result, the queue
    drains or *timeout* virtual seconds pass; return what it holds."""
    try:
        handle.peer.network.kernel.pump_until(lambda: handle.results, timeout=timeout)
    except SimTimeoutError:
        pass
    return list(handle.results)
