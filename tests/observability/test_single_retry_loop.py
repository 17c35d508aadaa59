"""``ReliableCall`` is the only retry loop in the program.

A second loop needs the schedule: how long to back off, how many
attempts are allowed, how much deadline is left.  This sweep fails if
anything under ``src/repro`` outside ``reliability/`` reads one of them,
so a private resend loop cannot come back unnoticed.  (Passing
``max_attempts=`` to build a policy is configuration, not a loop; only
reads are swept.)  Its kin are swept too: failover walks its endpoints
on a ``ReliableCall`` and arms no timer of its own, a blocking call
waits through ``Kernel.wait``, and a periodic task runs on
``Kernel.every`` rather than re-arming itself.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: reading the backoff, the attempt cap, or minting a deadline
SCHEDULE_READS = (".retry.delay(", ".max_attempts", "new_deadline(")
#: the kernel calls that arm a timer
TIMERS = {"schedule", "schedule_at", "call_soon"}


def _sources(skip_top: str = ""):
    swept = [
        path for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != skip_top
    ]
    assert swept, "the sweep found no source files at all"
    return swept


def test_retry_schedule_is_read_only_inside_reliability():
    offenders = [
        f"{path.relative_to(SRC)}: {needle}"
        for path in _sources("reliability")
        for needle in SCHEDULE_READS
        if needle in path.read_text()
    ]
    assert not offenders, f"retry schedule read outside reliability/: {offenders}"


def test_supervision_arms_no_timer():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "supervision").glob("*.py"))
        if ".schedule(" in path.read_text()
    ]
    assert not offenders, f"supervision/ schedules its own events: {offenders}"


def test_only_the_kernel_pumps():
    kernel = SRC / "simnet" / "kernel.py"
    offenders = [
        str(path.relative_to(SRC))
        for path in _sources()
        if path != kernel and "pump_until(" in path.read_text()
    ]
    assert not offenders, f"a blocking wait outside Kernel.wait: {offenders}"


def _self_scheduling(tree: ast.AST) -> list[str]:
    """Functions that hand themselves to a kernel timer call."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in TIMERS
            ):
                continue
            names = {
                arg.id if isinstance(arg, ast.Name) else getattr(arg, "attr", None)
                for arg in call.args
            }
            if fn.name in names:
                found.append(f"{fn.name} (line {call.lineno})")
    return found


def test_the_sweep_sees_a_self_scheduling_loop():
    loop = (
        "def start(kernel):\n"
        "    def tick():\n"
        "        kernel.schedule(1.0, tick)\n"
        "    kernel.schedule(1.0, tick)\n"
        "class Agent:\n"
        "    def _tick(self):\n"
        "        self.kernel.call_soon(self._tick)\n"
    )
    assert _self_scheduling(ast.parse(loop)) == ["tick (line 3)", "_tick (line 7)"]


def test_no_function_outside_simnet_schedules_itself():
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in _sources("simnet")
        for name in _self_scheduling(ast.parse(path.read_text()))
    ]
    assert not offenders, f"a hand-written periodic loop (use Kernel.every): {offenders}"
