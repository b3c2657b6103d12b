"""Recorder for the parameters the constructions derive.

The construction stack calls ``note(op=..., ...)`` where it fixes a derived
value (boosting's eta' and bands, a small-set container's depth cap, a band's
eps', the heaviness parameters).  Outside ``recording()`` a note is dropped at
once; inside, it is appended to the innermost recording's list:

    with trace.recording() as log:
        build_bracket(system, eps, provider, provider)
    caps = [e["depth_cap"] for e in log if e["op"] == "small-set-container"]
"""

from contextlib import contextmanager

_active = None  # the innermost recording's list, or None when none is active


def note(**fields):
    """Append ``fields`` to the innermost active recording; without one, do nothing."""
    if _active is not None:
        _active.append(fields)


@contextmanager
def recording():
    """Collect the notes made inside the block in a fresh list, yielded.

    The recording that was active before (or none) is active again when the
    block exits, also when it raises.
    """
    global _active
    outer = _active
    _active = log = []
    try:
        yield log
    finally:
        _active = outer
