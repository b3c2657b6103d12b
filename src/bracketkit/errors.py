"""Exception hierarchy shared across the package, and the guards that turn
malformed JSON and CLI input into ``InputError``."""

import json
import sys
from fractions import Fraction


class BracketkitError(Exception):
    """Base class for all package errors."""


class InputError(BracketkitError, ValueError):
    """A caller violated a documented precondition."""


class DegeneracyError(BracketkitError):
    """Point configuration is not in general position for the requested enumeration."""


class ResourceBudgetError(BracketkitError):
    """An input or an enumeration exceeds a size budget."""


# Input size limits, each checked before anything of that size is built.
# They lie far above every instance of the tests and perfbench (a 256-element
# ground set, 3-D points at n = 64, 41,664 spanning triples, 22³ candidate
# boxes, a 2,979 x 1,201 serving matrix, a 243-rung size ladder).
# MAX_BOX_CANDIDATES still admits planar boxes on 80 points in general
# position (3,241² candidates, about 2 s).  A serving-matrix cell costs
# 1.5-1.8 bytes at its peak on 1 to 2 million cells: 1 byte, plus 0.6 MiB
# of block temporaries in subset_matrix and the greedy loop's row gathers.
# A halfspace enumeration counts each spanning d-tuple
# 2^(d-4) times above d = 4 (its sides yield up to 2^(d+1) ranges, and its
# normal's minors cost more), so that the largest d = 5 input (n = 38) and
# d = 8 input (n = 18) cost less than the largest d = 4 one (n = 72).
# A size ladder's exact rungs grow in numerator with their count (27,636
# rungs at eps = 1/1000 took 22 s and 1.2 GB).  Decimal exponents and JSON
# integer literals are bounded by Python's own limit on integer-string digits.
# Writing a set-system or family JSON raised peak RSS by 16-17 bytes per
# element index below 256 and about 50 bytes per index above it (2-core
# machine, Python 3.11).  The largest output of the tests, the halfspaces of
# 256 random planar points, has 8,356,096 indices and rose 136 MB;
# MAX_JSON_INDICES is about twice that, and an output at it costs at most
# about 0.8 GB.
MAX_GROUND_SET = 1 << 16  # elements of a ground set, points of a generated set
MAX_DIM = 64  # coordinates of a point
MAX_SPANNING_TUPLES = 1 << 20  # weighted C(n, d) hyperplanes, or 2^n subsets of n <= d points
MAX_BOX_CANDIDATES = 1 << 24  # axis intervals, multiplied over the axes
MAX_POLYTOPE_RANGES = 100_000  # polytope ranges, checked as each new one is found
MAX_SERVING_CELLS = 1 << 25  # base_mnet candidates x heavy ranges
MAX_LADDER_RUNGS = 1 << 12  # rungs of a geometric size ladder, estimated in floats
MAX_JSON_INDICES = 1 << 24  # element indices in one set-system or family JSON


def within_budget(value, limit, what):
    """``value`` if it is at most ``limit``; else ResourceBudgetError naming
    ``what``."""
    if value > limit:
        raise ResourceBudgetError(f"{what} {value} exceeds the limit {limit}")
    return value


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
    """``parse(data)`` for the JSON object in ``text``.  Text that is not
    JSON or nests too deep to parse, a non-object, a missing field or a
    field of the wrong type or form raises InputError."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{what}: not parseable JSON ({exc})") from exc
    except ValueError as exc:  # the other error json.loads raises: int() refused a literal's digits
        raise ResourceBudgetError(
            f"{what}: an integer literal exceeds the limit of {sys.int_info.default_max_str_digits} digits"
        ) from exc
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


def json_int(value, what, least=None, most=None):
    """``value`` if it is exactly an int (a bool is not) and at least
    ``least``; else InputError naming ``what`` and the value.  A value
    above ``most`` raises ResourceBudgetError."""
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise InputError(f"{what} {value!r} is not an integer{bound}")
    return value if most is None else within_budget(value, most, what)


def json_index_mask(indices, what):
    """The bitmask of a JSON list of element indices.  The first index, in
    list order, that is not an int in [0, MAX_GROUND_SET) is refused as
    not a nonnegative integer or as past the largest ground set, before the
    mask grows to it."""
    mask = 0
    for i in indices:
        if type(i) is not int or not 0 <= i < MAX_GROUND_SET:
            json_int(i, f"{what}: element index", 0, MAX_GROUND_SET - 1)
        mask |= 1 << i
    return mask


def parse_fraction(value, *, name):
    """Parse a nonnegative rational given as a "p/q" or "p" string or an int.

    A bool is not taken as an int, so a JSON ``true`` is refused."""
    if type(value) is int:
        frac = Fraction(value)
    elif isinstance(value, str):
        try:
            frac = fraction_from_string(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{name}: cannot parse rational from {value!r}") from exc
    else:
        raise InputError(f"{name}: expected rational, got {value!r}")
    if frac < 0:
        raise InputError(f"{name}: must be nonnegative, got {frac}")
    return frac


def fraction_from_string(text):
    """``Fraction(text)``, except that a decimal exponent of magnitude above
    the digit limit Python puts on integer strings raises
    ResourceBudgetError before its power of ten is built.  Text that is not
    a rational raises ValueError (or ZeroDivisionError), as ``Fraction``
    does."""
    text = text.strip()
    _, marker, exponent = text.lower().partition("e")
    if marker:
        try:
            power = int(exponent)
        except ValueError:
            pass  # not an exponent: Fraction refuses the text
        else:
            within_budget(abs(power), sys.int_info.default_max_str_digits, "decimal exponent magnitude")
    return Fraction(text)


def exact_fraction(value, what):
    """``value`` as an exact Fraction: a string through
    ``fraction_from_string`` (so "p/q" and decimals), anything else through
    ``Fraction`` (an int, a Fraction, a finite float).  A value that is not
    a finite rational, such as a NaN, an infinity, None or a string that is
    not a rational, raises InputError naming ``what``; an exponent over the
    digit budget still raises ResourceBudgetError."""
    try:
        return fraction_from_string(value) if isinstance(value, str) else Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InputError(f"{what} {value!r} is not a finite rational") from exc
