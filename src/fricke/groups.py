"""Rational Fricke groups: generators, word evaluation, element classification.

The two-parameter family here is generated by a pair of hyperbolic matrices
determined by rationals (u2, 2t) with 0 < u2 < t - 1. All matrices are kept
as primitive integer 2x2 matrices with positive determinant, up to sign: the
projective action on P1(Q) never needs the irrational scalar normalizations.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import reduce as _reduce
from math import gcd, isqrt
from typing import NamedTuple

from .errors import DomainError, InternalCheckError, InvalidGroupError, ParameterError
from .exactnum import ProjPoint, Rational, ReadOnly, format_rational, prime_factors, reduce_point
from .words import Word, parse_word

# ---------------------------------------------------------------------------
# projective integer matrices
# ---------------------------------------------------------------------------

class ProjMatrix(NamedTuple):
    """Primitive integer matrix [[a, b], [c, d]] up to sign, det > 0.

    Canonical sign: the first nonzero entry in the order a, b, c, d is
    positive. Scale-invariant quantities (the sign of tr^2 - 4 det, the
    ratio tr^2 / det) are therefore well defined.
    """

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


IDENTITY = ProjMatrix(1, 0, 0, 1)


def normalize_matrix(a: int, b: int, c: int, d: int) -> ProjMatrix:
    """Divide out the content and fix the canonical sign."""
    g = gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d)))
    if g == 0:
        raise ParameterError("zero matrix is not projective")
    if g > 1:
        a, b, c, d = a // g, b // g, c // g, d // g
    for e in (a, b, c, d):
        if e:
            if e < 0:
                a, b, c, d = -a, -b, -c, -d
            break
    if a * d - b * c <= 0:
        raise ParameterError("matrix must have positive determinant")
    return ProjMatrix(a, b, c, d)


def matrix_from_rows(a: Rational, b: Rational, c: Rational, d: Rational) -> ProjMatrix:
    """Clear denominators of a rational matrix and normalize."""
    entries = [Fraction(x) for x in (a, b, c, d)]
    lcm = _reduce(lambda p, q: p * q // gcd(p, q), (x.denominator for x in entries), 1)
    return normalize_matrix(*(int(x * lcm) for x in entries))


def mat_mul(m: ProjMatrix, n: ProjMatrix) -> ProjMatrix:
    return normalize_matrix(
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def mat_inv(m: ProjMatrix) -> ProjMatrix:
    # adjugate; projectively the inverse, and det stays positive
    return normalize_matrix(m.d, -m.b, -m.c, m.a)


def apply(m: ProjMatrix, x: ProjPoint) -> ProjPoint:
    """Projective action (a : c) -> (m11 a + m12 c : m21 a + m22 c)."""
    return reduce_point(m.a * x.a + m.b * x.c, m.c * x.a + m.d * x.c)


# ---------------------------------------------------------------------------
# element classification and fixed points
# ---------------------------------------------------------------------------

class ElementClass(Enum):
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    IDENTITY = "identity"


def classify_element(m: ProjMatrix) -> ElementClass:
    """Classify by the sign of tr^2 - 4 det (scale invariant)."""
    if m.b == 0 and m.c == 0 and m.a == m.d:
        return ElementClass.IDENTITY
    disc = m.trace() ** 2 - 4 * m.det()
    if disc > 0:
        return ElementClass.HYPERBOLIC
    if disc == 0:
        return ElementClass.PARABOLIC
    return ElementClass.ELLIPTIC


class FixedPointResult(NamedTuple):
    """Fixed points of a non-identity matrix acting on P1.

    kind is 'rational_pair' (two points of P1(Q)), 'irrational_pair'
    (the fixed points are not rational: hyperbolic with non-square
    discriminant, or elliptic), or 'single' (parabolic).
    """

    kind: str
    points: tuple[ProjPoint, ...]


def fixed_points(m: ProjMatrix) -> FixedPointResult:
    """Solve c x^2 + (d - a) x - b = 0 over P1(Q)."""
    cls = classify_element(m)
    if cls is ElementClass.IDENTITY:
        raise DomainError("every point is fixed by the identity")
    if cls is ElementClass.PARABOLIC:
        if m.c == 0:
            return FixedPointResult("single", (ProjPoint(1, 0),))
        return FixedPointResult("single", (reduce_point(m.a - m.d, 2 * m.c),))
    disc = (m.a - m.d) ** 2 + 4 * m.b * m.c  # equals tr^2 - 4 det
    if disc < 0:
        return FixedPointResult("irrational_pair", ())
    s = isqrt(disc)
    if s * s != disc:
        return FixedPointResult("irrational_pair", ())
    if m.c == 0:
        return FixedPointResult(
            "rational_pair", (ProjPoint(1, 0), reduce_point(m.b, m.d - m.a))
        )
    p1 = reduce_point(m.a - m.d + s, 2 * m.c)
    p2 = reduce_point(m.a - m.d - s, 2 * m.c)
    return FixedPointResult("rational_pair", (p1, p2))


# ---------------------------------------------------------------------------
# the group
# ---------------------------------------------------------------------------

# Fixed parabolic word g2^-1 g1 g2 g1^-1: upper triangular, translation -2t.
PARABOLIC_WORD: Word = "bABa"
# Its inverse translates by +2t.
TRANSLATION_WORD: Word = "AbaB"
# The commutator g1 g2 g1^-1 g2^-1 is parabolic with fixed point u2.
COMMUTATOR_WORD: Word = "ABab"

# Schreier generators of the index-4 kernel of the parity map, with respect
# to the coset transversal {1, g1, g2, g1 g2}.
LAMBDA_WORDS: tuple[Word, ...] = ("AA", "BB", "BAba", "ABAb", "ABBa")


class FrickeGroup(ReadOnly):
    """Group of the family indexed by (u2, 2t), with cached generator data.

    Read-only. Equality and hash cover every field but letters, which gen1
    and gen2 determine; the orbit memo keys on them.
    """

    __slots__ = ("u2", "t", "two_t", "gen1", "gen2", "support_primes", "letters")

    def _key(self) -> tuple:
        return (self.u2, self.t, self.two_t, self.gen1, self.gen2, self.support_primes)

    @property
    def name(self) -> str:
        return f"({format_rational(self.u2)}, {format_rational(self.two_t)})"

    def letter_matrix(self, ch: str) -> ProjMatrix:
        try:
            return self.letters[ch]
        except KeyError:
            raise ParameterError(f"invalid generator letter {ch!r}") from None


def word_matrix(g: FrickeGroup, w: Word) -> ProjMatrix:
    """Evaluate a word of generator letters; the empty word is the identity."""
    m = IDENTITY
    for ch in w:
        m = mat_mul(m, g.letter_matrix(ch))
    return m


def make_group(u2: Rational, two_t: Rational) -> FrickeGroup:
    """Validate 0 < u2 < t - 1 and build generators, parabolic data, supports."""
    u2 = Fraction(u2)
    two_t = Fraction(two_t)
    t = two_t / 2
    if u2 <= 0:
        raise InvalidGroupError(f"need 0 < u2: got u2 = {format_rational(u2)}")
    if u2 >= t - 1:
        raise InvalidGroupError(
            f"need u2 < t - 1: got u2 = {format_rational(u2)}, "
            f"t - 1 = {format_rational(t - 1)}"
        )
    gen1 = matrix_from_rows(t - 1, u2, 1, 1)
    gen2 = matrix_from_rows(u2, u2, 1, t - u2)
    letters = {"A": gen1, "a": mat_inv(gen1), "B": gen2, "b": mat_inv(gen2)}
    # the support primes are computed once the guard has passed
    g = FrickeGroup(u2, t, two_t, gen1, gen2, frozenset(), letters)

    # construction-time guard: the fixed parabolic word must translate by -2t
    _, shift = parabolic_at_infinity(g)
    if shift != -two_t:
        raise InternalCheckError(
            f"word {PARABOLIC_WORD} translates by {shift}, expected {-two_t}"
        )

    return FrickeGroup(u2, t, two_t, gen1, gen2, _support_primes(g), letters)


def parabolic_at_infinity(g: FrickeGroup) -> tuple[Word, Fraction]:
    """The fixed word g2^-1 g1 g2 g1^-1 and its exact translation length."""
    m = word_matrix(g, PARABOLIC_WORD)
    if m.c != 0 or m.a != m.d:
        raise InternalCheckError(f"{PARABOLIC_WORD} evaluated to non-parabolic {m}")
    return PARABOLIC_WORD, Fraction(m.b, m.d)


def lambda_generators() -> list[Word]:
    """Free generators of the parity kernel (rank 5, independent of parameters)."""
    return [parse_word(w) for w in LAMBDA_WORDS]


def _support_primes(g: FrickeGroup) -> frozenset[int]:
    """Primes in the denominators of the det-1 normalized kernel generators:
    those of s = sqrt(det m), as m is primitive and some entry is prime to
    any given prime of s. Each distinct s is factored once."""
    roots: set[int] = set()
    for w in LAMBDA_WORDS:
        det = word_matrix(g, w).det()
        s = isqrt(det)
        if s * s != det:
            raise InternalCheckError(
                f"kernel generator {w} has non-square determinant {det}"
            )
        roots.add(s)
    return frozenset(p for s in roots for p in prime_factors(s))


# ---------------------------------------------------------------------------
# arithmeticity screen
# ---------------------------------------------------------------------------

class ScreenResult(NamedTuple):
    """Outcome of the trace screen: a non-integral trace square certifies
    non-arithmeticity; 'inconclusive' decides nothing."""

    status: str  # "not_arithmetic" | "inconclusive"
    witness: Word | None = None
    value: Fraction | None = None

    @property
    def is_negative_certificate(self) -> bool:
        return self.status == "not_arithmetic"


def arithmeticity_screen(g: FrickeGroup) -> ScreenResult:
    """The first parity-kernel word with a non-integral tr^2/det, if any.

    Elements of the kernel are rational matrices up to scale, so tr^2/det is
    the square of a rational trace; for a group commensurable with the
    modular group it would be a rational algebraic integer, hence in Z.

    Two generator traces decide it at every length. Let x^2, y^2, z^2 be
    tr^2/det of g1, g2 and g1 g2. By Fricke's trace polynomial, the trace of
    a kernel word is an integer polynomial in x^2, y^2, z^2 and xyz: the
    symmetries A -> -A and B -> -B force i = j = k (mod 2) in each monomial
    x^i y^j z^k. Now xyz = x^2 + y^2 + z^2 - 2 - tr[g1, g2], and
    tr[g1, g2] = +-2 as COMMUTATOR_WORD is parabolic, so xyz = z^2 + c with
    c an integer when x^2 and y^2 are. Then z^2 is a rational root of the
    monic integer quadratic (Z + c)^2 - x^2 y^2 Z, hence an integer, and every
    kernel trace is integral. Otherwise the first kernel word in length,
    then letter order with a non-integral value is AA, with value
    (x^2 - 2)^2, or, when x^2 is an integer, BB, with value (y^2 - 2)^2.
    """
    for w, m in (("AA", g.gen1), ("BB", g.gen2)):
        q = Fraction(m.trace() ** 2, m.det())
        if q.denominator != 1:
            return ScreenResult("not_arithmetic", witness=w, value=(q - 2) ** 2)
    return ScreenResult("inconclusive")
