"""Exact rational thresholds: parsing, formatting and integer rounding.

All parameter comparisons in the package (|R| >= eps*n and the like) are done
with ``fractions.Fraction``, i.e. exact integer cross-multiplication.  Floats
never enter a correctness decision; they appear only in reports.
"""

from fractions import Fraction

from .errors import InputError


def parse_fraction(value, *, name="value"):
    """Parse a nonnegative rational given as "p/q", "p", int or Fraction.

    A bool is not taken as an int, so a JSON ``true`` is refused."""
    if isinstance(value, Fraction):
        frac = value
    elif type(value) is int:
        frac = Fraction(value)
    elif isinstance(value, str):
        try:
            frac = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{name}: cannot parse rational from {value!r}") from exc
    else:
        raise InputError(f"{name}: expected rational, got {value!r}")
    if frac < 0:
        raise InputError(f"{name}: must be nonnegative, got {frac}")
    return frac


def format_fraction(frac):
    """Render an int or Fraction as "p/q" (or "p" when the denominator is 1)."""
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def floor_frac(frac):
    """Largest integer <= frac."""
    return frac.numerator // frac.denominator


def ceil_frac(frac):
    """Smallest integer >= frac."""
    return -((-frac.numerator) // frac.denominator)
