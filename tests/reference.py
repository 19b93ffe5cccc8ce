"""Reference implementations the tests compare the library against; the library itself does not use them."""

import math
from fractions import Fraction

from qclock import QClockError
from qclock.verification import _compatible_spectrum


class AllZero(QClockError):
    """Rational gcd of an all-zero collection is undefined."""


def rational_gcd(xs) -> Fraction:
    """Largest positive rational dividing every input into an integer.

    For fractions p_i/q_i in lowest terms this is gcd(p_i)/lcm(q_i); signs
    are ignored and zeros are transparent.  Raises AllZero when every input
    vanishes (every rational would divide).
    """
    num, den = 0, 1
    for x in xs:
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        if x:
            num = math.gcd(num, x.numerator)
            den = math.lcm(den, x.denominator)
    if not num:
        raise AllZero("rational gcd needs at least one nonzero value")
    return Fraction(num, den)


def random_compatible_spectrum(rng, dim: int):
    """Seeded spectrum of the clock-compatible form; returns (spectrum, k, f, omega)."""
    k = int(rng.integers(1, dim))
    f = rng.integers(-20, 21, size=dim).tolist()
    num, den = int(rng.integers(1, 13)), int(rng.integers(1, 13))
    return _compatible_spectrum(dim, k, f, num, den), k, f, Fraction(num, den)
