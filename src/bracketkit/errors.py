"""Exception hierarchy shared across the package, and the guards that turn
malformed JSON input into ``InputError``."""

import json


class BracketkitError(Exception):
    """Base class for all package errors."""


class InputError(BracketkitError, ValueError):
    """A caller violated a documented precondition."""


class DegeneracyError(BracketkitError):
    """Point configuration is not in general position for the requested enumeration."""


class ResourceBudgetError(BracketkitError):
    """An enumeration exceeded its configured intermediate-size budget."""


class InternalInvariantError(BracketkitError):
    """An internal invariant (e.g. a recursion depth cap) was violated."""


class PreconditionFailure(BracketkitError):
    """A verified precondition failed; carries the failing verification report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NonRealizableError(BracketkitError):
    """A protocol run hit an input with no consistent hypothesis.

    ``certificate`` is the inconsistent labeled subset accumulated so far,
    ``transcript`` the messages exchanged up to the abort.
    """

    def __init__(self, message, certificate=(), transcript=None):
        super().__init__(message)
        self.certificate = tuple(certificate)
        self.transcript = transcript


def parse_json_object(text, what, parse):
    """``parse(data)`` for the JSON object in ``text``.  A non-object, a
    missing field or a field of the wrong type or form raises InputError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise InputError(f"{what}: expected a JSON object, got {type(data).__name__}")
    try:
        return parse(data)
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"{what}: missing field {exc}") from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{what}: malformed value ({exc})") from exc


def json_int(value, what, least=None):
    """``value`` if it is exactly an int (a bool is not) and at least
    ``least``; else InputError naming ``what`` and the value."""
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise InputError(f"{what} {value!r} is not an integer{bound}")
    return value


def json_index(i, what):
    """``i`` if it is a nonnegative integer; else InputError naming it."""
    return json_int(i, f"{what}: element index", 0)


def json_index_mask(indices, what):
    """The bitmask of a JSON list of element indices, each checked by
    ``json_index``."""
    mask = 0
    for i in indices:
        mask |= 1 << json_index(i, what)
    return mask
