import pytest

from bracketkit import trace


def test_note_outside_recording_is_dropped():
    trace.note(op="dropped", value=1)
    with trace.recording() as log:
        pass
    assert log == []
    assert trace._active is None


def test_nested_recording_restores_the_outer_one():
    with trace.recording() as outer:
        trace.note(op="a")
        with trace.recording() as inner:
            trace.note(op="b", value=2)
        trace.note(op="c")
        with pytest.raises(RuntimeError):
            with trace.recording() as failed:
                trace.note(op="d")
                raise RuntimeError("inside the block")
        trace.note(op="e")
    assert outer == [{"op": "a"}, {"op": "c"}, {"op": "e"}]
    assert inner == [{"op": "b", "value": 2}]
    assert failed == [{"op": "d"}]
    with pytest.raises(RuntimeError):
        with trace.recording():
            raise RuntimeError("outermost block")
    assert trace._active is None
