"""Decide whether a spectrum supports a stroboscopic clock.

A spectrum {E_m} at odd prime dimension N admits a time interval dtau with
propagator equal to a power of the clock operator iff it can be written

    E_m = omega * (k*m + N*f(m)),   k in 1..N-1,  f integer-valued,

with hbar = 1 throughout (energies are dimensionless multiples of a
reference frequency).  The decision procedure is exact rational arithmetic:

1. Over one common denominator D the energies are integers a_m = E_m*D,
   and omega = gcd(a_m)/D is their rational gcd, so every ratio
   r_m = E_m/omega = a_m/gcd(a_m) is an integer.  Scaling omega down by an
   integer t multiplies the residues r_m mod N by t, which preserves the
   linear form above iff it already held, so only the maximal omega needs
   testing.
2. The residues must be r_m = k*m (mod N) for a single nonzero k.  N prime
   makes m = 1 invertible, so k is read off at m = 1 and validated at every
   other index; the first index where no k fits goes into the certificate.
   The ground energy is *not* shifted away: r_0 != 0 is a legitimate failure.

On success the smallest admissible interval is dtau = 2*pi/(N*omega).
At t = j*dtau the phase exp(-i*N*omega*t) is a whole number of turns, so
the propagator sees each energy only mod N*omega: the tick phases are
formed from the energies reduced exactly, in integers, before any float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import DimensionNotOddPrime, IncompatibleSpectrum
from .numerics import _convergent, _is_array, _tolerance_ratio, is_odd_prime

NOT_COMMENSURABLE = "NotCommensurable"
DEGENERATE = "DegenerateSpectrum"
RESIDUES_NOT_LINEAR = "ResiduesNotLinear"

# the float front end's defaults: analyze's flags, and the values at which
# clock, wigner --step and the verify suite rationalize
DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_DENOMINATOR = 10**6


def _require_odd_prime(dim: int) -> None:
    if not is_odd_prime(dim):
        raise DimensionNotOddPrime(f"dimension must be an odd prime, got {dim}")


def _require_length(dim: int, energies: tuple) -> None:
    if len(energies) != dim:
        raise ValueError(f"expected {dim} energies, got {len(energies)}")


@dataclass(frozen=True)
class Spectrum:
    """Exactly N rational energies, indexed by the diagonal-basis label m."""

    dim: int
    energies: tuple
    # each energy as its coprime (p, q), q > 0, read once here for the gate and the float reads
    pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_odd_prime(self.dim)
        # a tuple of Fractions of Python ints, the common case, is kept without a copy
        energies, pairs = tuple(self.energies), []
        for e in energies:
            if type(e) is Fraction:
                p, q = e.as_integer_ratio()  # one call, where .numerator and .denominator make two
                if type(p) is int and type(q) is int:
                    pairs.append((p, q))
                    continue
            energies = tuple(map(_exact_fraction, energies))
            pairs = [e.as_integer_ratio() for e in energies]
            break
        _require_length(self.dim, energies)
        if energies is not self.energies:
            object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "pairs", tuple(pairs))

    def as_floats(self) -> np.ndarray:
        """The energies in float64; OverflowError names the first that does not fit."""
        out = np.empty(self.dim)
        for m, (p, q) in enumerate(self.pairs):
            try:
                out[m] = p / q  # float(e), without the ABC dispatch
            except OverflowError:
                raise OverflowError(f"energy {m} is beyond the float64 range") from None
        return out

    def phases(self, t: float) -> np.ndarray:
        """exp(-i*E_m*t) at any t: the diagonal of exp(-i*H*t) for H = diag(E).

        A numpy array of times gives one row per time, each the scalar call's bit for bit.
        """
        return _phase_vector(self.as_floats(), t)


def _exact_fraction(x) -> Fraction:
    """x as a Fraction of Python ints: numpy integer parts would wrap around in the gate."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    p, q = x.as_integer_ratio()
    if type(p) is not int or type(q) is not int:
        x = Fraction(int(p), int(q))
    return x


def _phase_vector(energies: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*E*t) for float64 energies; every diagonal propagator comes from here.

    A numpy array of times gives one row per time.  Each product E*(-i*t) has one exact
    zero term, so the outer product rounds as the scalar one does, bit for bit.
    """
    if _is_array(t):
        return np.exp(np.multiply.outer(t.astype(float) * -1j, energies))
    return np.exp(energies * (-1j * float(t)))


def reduce_mod_period(energies, omega: Fraction, dim: int) -> np.ndarray:
    """E_m mod N*omega for each rational energy, exact in integers, then float64.

    exp(-i*E*t) is unchanged by E -> E mod N*omega at every multiple t of the
    tick 2*pi/(N*omega), and so is exp(-i*T*E) for the time-interval operator
    T, whose eigenvalues are multiples of the tick.  The reduced values lie in
    [0, N*omega), so their float products with t are accurate however large
    the energies are.  Only omega enters, never k or f.
    """
    # over one common denominator D: E_m = a_m/D and N*omega = period/D, all integers
    den = math.lcm(omega.denominator, *(e.denominator for e in energies))
    period = dim * omega.numerator * (den // omega.denominator)
    return np.array([(e.numerator * (den // e.denominator) % period) / den for e in energies])


@dataclass(frozen=True)
class SpectrumDecomposition:
    """Solution (omega, k, f) of the clock condition, exact in rationals.

    omega is the spectral gcd (the lambda of the commensurability test),
    k the clock power per tick, f the integer offsets; E_m is recovered
    exactly as omega*(k*m + dim*f[m]).
    """

    dim: int
    omega: Fraction
    k: int
    f: tuple

    @property
    def delta_tau(self) -> float:
        """Smallest interval at which the propagator is a clock power.

        Raises IncompatibleSpectrum when it is not a finite positive float64.
        """
        try:
            dtau = 2.0 * math.pi / (self.dim * (self.omega.numerator / self.omega.denominator))
        except (OverflowError, ZeroDivisionError):
            dtau = 0.0
        if not 0.0 < dtau < math.inf:
            raise IncompatibleSpectrum("the tick 2*pi/(N*omega) is not a finite positive float64")
        return dtau

    @property
    def tick_energies(self) -> np.ndarray:
        """E_m mod N*omega = omega*((k*m) mod N) in float64: one read-only array, made on the first read.

        Kept without the lock functools.cached_property takes on a first read.  Equal bit
        for bit to reduce_mod_period(self.energies(), ...): int true division rounds the
        exact ratio correctly, as float(Fraction) does.
        """
        reduced = self.__dict__.get("_tick_energies")
        if reduced is None:
            (p, q), k, n = self.omega.as_integer_ratio(), self.k, self.dim
            reduced = np.array([p * (k * m % n) / q for m in range(n)])
            reduced.setflags(write=False)
            object.__setattr__(self, "_tick_energies", reduced)
        return reduced

    def tick_phases(self, j: int) -> np.ndarray:
        """exp(-i*E_m*j*dtau), the diagonal of the propagator over j ticks.

        N ticks are whole turns, so j enters mod N (a float j*dtau loses the
        phase at large j), and the tick is checked before the energies are formed.
        An integer numpy array j gives one row per entry, each the scalar call's
        bit for bit.
        """
        t = (j % self.dim) * self.delta_tau
        return _phase_vector(self.tick_energies, t)

    def energy(self, m: int) -> Fraction:
        return self.omega * (self.k * m + self.dim * self.f[m])

    def energies(self) -> tuple:
        return tuple(self.energy(m) for m in range(self.dim))

    def matches(self, spec: Spectrum) -> bool:
        """Whether spec's energies are exactly omega*(k*m + N*f[m]), in integers."""
        if self.dim != spec.dim:
            return False
        (p, q), k, n = self.omega.as_integer_ratio(), self.k, self.dim
        terms = enumerate(zip(spec.pairs, self.f))
        return all(a * q == p * (k * m + n * f_m) * b for m, ((a, b), f_m) in terms)


@dataclass(frozen=True)
class IncompatibilityCertificate:
    """Why a spectrum fails: the reason plus enough detail to audit it.

    For RESIDUES_NOT_LINEAR, ``residues`` holds E_m/omega mod N and
    ``first_bad_index`` the first m at which no single k can fit.  For
    NOT_COMMENSURABLE (float front-end only), ``first_bad_index`` is the
    energy that failed rationalization and ``residues`` is None.  For
    DEGENERATE (all energies equal) both are None.
    """

    reason: str
    residues: Optional[tuple] = None
    first_bad_index: Optional[int] = None
    detail: str = ""

    def __post_init__(self):
        if self.reason == RESIDUES_NOT_LINEAR:
            required, forbidden = ("residues", "first_bad_index"), ()
        elif self.reason == NOT_COMMENSURABLE:
            required, forbidden = (), ("residues",)
        elif self.reason == DEGENERATE:
            required, forbidden = (), ("residues", "first_bad_index")
        else:
            raise ValueError(f"unknown reason {self.reason!r}")
        for name in required:
            if getattr(self, name) is None:
                raise ValueError(f"a {self.reason} certificate needs {name}")
        for name in forbidden:
            if getattr(self, name) is not None:
                raise ValueError(f"a {self.reason} certificate has no {name}")


DecompositionResult = Union[SpectrumDecomposition, IncompatibilityCertificate]


def decompose_spectrum(spec: Spectrum) -> DecompositionResult:
    """Exact decision procedure described in the module docstring.

    Returns a SpectrumDecomposition or an IncompatibilityCertificate.  When
    all energies are equal the certificate's reason is DEGENERATE: only the
    trivial k = 0 would fit, and the residues then cannot cover all classes
    mod N.
    """
    return _decompose(spec.dim, *zip(*spec.pairs))


def _decompose(n: int, nums, dens) -> DecompositionResult:
    """The gate on the energies nums[m]/dens[m], in integers; builds only omega."""
    # over one denominator D, E_m = a_m/D and omega = g/D, so E_m/omega = a_m/g
    den = math.lcm(*dens)
    scaled = [a * (den // d) for a, d in zip(nums, dens)]
    if scaled.count(scaled[0]) == len(scaled):
        return IncompatibilityCertificate(
            reason=DEGENERATE, detail="all energies equal; no nonzero clock power fits"
        )

    g = math.gcd(*scaled)
    ratios = [a // g for a in scaled]
    if ratios[0] % n:
        return _not_linear(n, ratios, 0)
    k = ratios[1] % n
    if k == 0:
        return _not_linear(n, ratios, 1)
    # one pass: r_m = k*m + N*f(m) with remainder 0 exactly when residue m is k*m mod N
    f = []
    for m, r in enumerate(ratios):
        f_m, rem = divmod(r - k * m, n)
        if rem:
            return _not_linear(n, ratios, m)
        f.append(f_m)
    return SpectrumDecomposition(dim=n, omega=Fraction(g, den), k=k, f=tuple(f))


def _not_linear(n: int, ratios: list, first_bad: int) -> IncompatibilityCertificate:
    residues = tuple([r % n for r in ratios])
    return IncompatibilityCertificate(
        reason=RESIDUES_NOT_LINEAR,
        residues=residues,
        first_bad_index=first_bad,
        detail=f"residues {list(residues)} are not k*m (mod {n}) for any k; "
        f"first obstruction at m={first_bad}",
    )


def _rational_pairs(
    energies, tolerance: float, max_denominator: int
) -> Union[list, IncompatibilityCertificate]:
    """Each energy as (p, q) in Python ints, coprime with q > 0, or a NOT_COMMENSURABLE certificate.

    Ints, numpy integers, Fractions and "p/q" strings are exact: their own
    value.  Any other entry is float(x), rationalized as rationalize does.
    The certificate names the first float with no admissible approximation.
    A tolerance or max_denominator out of range is a ValueError, whatever the entries.
    """
    ratio = _tolerance_ratio(tolerance, max_denominator)
    pairs = []
    for i, x in enumerate(energies):
        # floats skip the ABC check
        if not isinstance(x, float) and isinstance(x, (int, Fraction, str, np.integer)):
            pairs.append(_exact_fraction(x).as_integer_ratio())
            continue
        found = _convergent(float(x), ratio, max_denominator)
        if found is None:
            return IncompatibilityCertificate(
                reason=NOT_COMMENSURABLE,
                first_bad_index=i,
                detail=f"energy {i} ({float(x)!r}) has no rational approximation "
                f"within {tolerance} at denominators <= {max_denominator}",
            )
        pairs.append(found)
    return pairs


def rationalize_energies(
    energies, tolerance: float, max_denominator: int
) -> Union[tuple, IncompatibilityCertificate]:
    """The spectrum front end: exact entries stay exact, floats are rationalized.

    Ints, numpy integers, Fractions and "p/q" strings become Fractions
    unchanged; any other entry goes through rationalize(float(x), ...).
    Returns the tuple of Fractions, or a NOT_COMMENSURABLE certificate at the
    first float with no admissible rational approximation.
    """
    pairs = _rational_pairs(energies, tolerance, max_denominator)
    if isinstance(pairs, IncompatibilityCertificate):
        return pairs
    return tuple(Fraction(p, q) for p, q in pairs)


def analyze_float_spectrum(
    energies, dim: int, tolerance: float, max_denominator: int
) -> DecompositionResult:
    """rationalize_energies, then the exact gate (decompose_spectrum).

    A NOT_COMMENSURABLE certificate comes first, then the checks a Spectrum
    would make: DimensionNotOddPrime, then ValueError for a wrong length.
    The convergents reach the gate as integer pairs; no Fraction is built
    per energy.
    """
    pairs = _rational_pairs(energies, tolerance, max_denominator)
    if isinstance(pairs, IncompatibilityCertificate):
        return pairs
    _require_odd_prime(dim)
    _require_length(dim, pairs)
    nums, dens = zip(*pairs)
    return _decompose(dim, nums, dens)
