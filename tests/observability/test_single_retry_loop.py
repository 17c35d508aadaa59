"""``ReliableCall`` is the only retry loop in the program.

A second loop needs the schedule: how long to back off, how many
attempts are allowed, how much deadline is left.  This sweep fails if
anything under ``src/repro`` outside ``reliability/`` reads one of them,
so a private resend loop cannot come back unnoticed.  (Passing
``max_attempts=`` to build a policy is configuration, not a loop; only
reads are swept.)
"""

import pathlib

import repro

#: reading the backoff, the attempt cap, or minting a deadline
SCHEDULE_READS = (".retry.delay(", ".max_attempts", "new_deadline(")


def test_retry_schedule_is_read_only_inside_reliability():
    src = pathlib.Path(repro.__file__).parent
    swept = [
        path for path in sorted(src.rglob("*.py"))
        if path.relative_to(src).parts[0] != "reliability"
    ]
    assert swept, "the sweep found no source files at all"
    offenders = [
        f"{path.relative_to(src)}: {needle}"
        for path in swept
        for needle in SCHEDULE_READS
        if needle in path.read_text()
    ]
    assert not offenders, f"retry schedule read outside reliability/: {offenders}"
