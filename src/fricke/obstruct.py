"""Obstruction checks, invariant-set verification and mining, and the verdict.

The checks certify that the finite cusp set of a group avoids some open
region of a p-adic field or a product of two of them, and therefore cannot
be all of Q. Each returned Witness carries enough data to be rechecked from
scratch. verify_invariance samples, so its pass is evidence, not proof;
mine_invariants keeps only the sets that invariance.decide_set proves
invariant, nonempty and proper, so each set it returns holds no cusp.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

from .errors import EmptyPredicateError, ParameterError
from .exactnum import (
    ProjPoint,
    format_rational,
    is_prime,
    prime_factors,
    reduce_point,
    require_prime,
    residue_mod_pk,
    vp,
)
from .groups import (
    FrickeGroup,
    ScreenResult,
    apply,
    arithmeticity_screen,
    classify_element,
    ElementClass,
    word_matrix,
)
from .predicates import (
    And,
    Predicate,
    ResAtom,
    ValAtom,
    compile_predicate,
    exactly_one_negative,
)
from .words import LETTERS, Word

SAMPLE_BOUND = 10 ** 4      # numerators in [-B, B], denominators in [1, B]
_RETRY_LIMIT = 10 ** 5      # consecutive rejected draws before giving up

# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

SQUARE_OBSTRUCTION = "square_obstruction"
TWO_PRIME_OBSTRUCTION = "two_prime_obstruction"
INTEGER_T_VIOLATION = "integer_t_violation"
SPECIAL_POINT = "special_point"


class Witness(NamedTuple):
    """Machine-recheckable certificate produced by one of the checks."""

    kind: str
    primes: tuple[int, ...] = ()
    detail: str = ""
    predicate: Predicate | None = None
    word: Word | None = None
    point: ProjPoint | None = None
    clause: str | None = None   # integer-t checks: "a", "b" or "c"
    branch: int | None = None   # square check: 1 or 2

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "primes": list(self.primes), "detail": self.detail}
        if self.predicate is not None:
            out["predicate"] = str(self.predicate)
        if self.word is not None:
            out["word"] = self.word
        if self.point is not None:
            out["point"] = str(self.point)
        if self.clause is not None:
            out["clause"] = self.clause
        if self.branch is not None:
            out["branch"] = self.branch
        return out


def recheck_witness(g: FrickeGroup, w: Witness) -> bool:
    """Re-derive the certified facts of a witness from scratch.

    A criterion witness rechecks when the criteria over relevant_primes(g)
    derive one of the same kind, primes, clause and branch (detail and
    predicate are not compared), and a two-prime witness's set, or the
    clause's own, is proven invariant, nonempty and proper. A special point
    rechecks when its word is hyperbolic and fixes its point, which may be
    written out of lowest terms or with either sign. A witness
    without the primes, word or point of its kind raises ParameterError.
    """
    if w.kind == SPECIAL_POINT:
        if not isinstance(w.word, str) or not isinstance(w.point, ProjPoint) or w.point == (0, 0):
            raise ParameterError("a special point witness needs a word and a point of P1(Q)")
        m = word_matrix(g, w.word)
        point = reduce_point(*w.point)  # apply returns the point in lowest terms
        return classify_element(m) is ElementClass.HYPERBOLIC and apply(m, point) == point
    primes = tuple(w.primes)
    arity = {SQUARE_OBSTRUCTION: 1, TWO_PRIME_OBSTRUCTION: 2, INTEGER_T_VIOLATION: len(primes)}
    if arity.get(w.kind) != len(primes):
        raise ParameterError(f"malformed witness of kind {w.kind!r} with primes {primes}")
    derived = [(v.kind, v.primes, v.clause, v.branch) for v in _criterion_witnesses(g)]
    if (w.kind, primes, w.clause, w.branch) not in derived:
        return False
    if w.kind != TWO_PRIME_OBSTRUCTION:
        return True
    from .invariance import decide_set  # loaded only where a set is decided

    pred = exactly_one_negative(*primes) if w.predicate is None else w.predicate
    return all(decide_set(pred, g))


# ---------------------------------------------------------------------------
# the obstruction criteria
# ---------------------------------------------------------------------------

def check_square_obstruction(g: FrickeGroup, p: int) -> Witness | None:
    """Cusps avoid a p-adic region when v_p(u2) is low enough relative to v_p(t).

    Fires when v_p(t) >= 0 and v_p(u2) <= -2, or when v_p(t) < 0 and
    v_p(u2) <= 2(v_p(t) - 1); either way the finite cusps are not dense
    in Q_p.
    """
    require_prime(p)
    vt = vp(g.t, p)
    vu = vp(g.u2, p)
    if vt >= 0 and vu <= -2:
        return Witness(
            kind=SQUARE_OBSTRUCTION,
            primes=(p,),
            branch=1,
            detail=f"v_{p}(t) = {vt} >= 0 and v_{p}(u2) = {vu} <= -2",
        )
    if vt < 0 and vu <= 2 * (vt - 1):
        return Witness(
            kind=SQUARE_OBSTRUCTION,
            primes=(p,),
            branch=2,
            detail=f"v_{p}(t) = {vt} < 0 and v_{p}(u2) = {vu} <= 2(v_{p}(t)-1) = {2 * (vt - 1)}",
        )
    return None


def check_two_prime_obstruction(g: FrickeGroup, p: int, q: int) -> Witness | None:
    """Cusps avoid the set where exactly one of v_p, v_q is negative.

    Fires when v_p(u2) = v_q(u2) = -1 and t is integral at both primes;
    the witness carries that invariant set as a predicate.
    """
    require_prime(p)
    require_prime(q)
    if p == q:
        raise ParameterError("the two primes must be distinct")
    if vp(g.u2, p) != -1 or vp(g.u2, q) != -1:
        return None
    if vp(g.t, p) < 0 or vp(g.t, q) < 0:
        return None
    p, q = min(p, q), max(p, q)
    return Witness(
        kind=TWO_PRIME_OBSTRUCTION,
        primes=(p, q),
        predicate=exactly_one_negative(p, q),
        detail=(
            f"v_{p}(u2) = v_{q}(u2) = -1 and t is integral at {p} and {q}; "
            f"cusps avoid the set where exactly one of v_{p}, v_{q} is negative"
        ),
    )


class IntegerTReport(NamedTuple):
    """Result of the integer-t clause checks; applicable is False when t is not
    an integer, in which case no clause was evaluated."""

    applicable: bool
    witnesses: tuple[Witness, ...] = ()


def check_integer_t_conditions(g: FrickeGroup) -> IntegerTReport:
    """For integer t, check the three necessary conditions (a), (b), (c).

    (a) the denominator of u2 is 1 or prime; (b) if that denominator is an
    odd prime it does not divide t; (c) for every odd prime q dividing t
    with u2 integral at q, u2 is 0 or -1 mod q. Any violation certifies
    that the group is not pseudomodular.
    """
    if g.t.denominator != 1:
        return IntegerTReport(applicable=False)
    t = int(g.t)
    den = g.u2.denominator
    witnesses: list[Witness] = []
    if den != 1 and not is_prime(den):
        witnesses.append(
            Witness(
                kind=INTEGER_T_VIOLATION,
                clause="a",
                primes=tuple(sorted(prime_factors(den))),
                detail=f"denominator {den} of u2 is composite",
            )
        )
    elif den != 1 and den % 2 == 1 and t % den == 0:
        witnesses.append(
            Witness(
                kind=INTEGER_T_VIOLATION,
                clause="b",
                primes=(den,),
                detail=f"denominator {den} of u2 is an odd prime dividing t = {t}",
            )
        )
    for q in sorted(prime_factors(t)):
        if q == 2 or vp(g.u2, q) < 0:
            continue
        r = residue_mod_pk(g.u2, q, 1)
        if r not in (0, q - 1):
            witnesses.append(
                Witness(
                    kind=INTEGER_T_VIOLATION,
                    clause="c",
                    primes=(q,),
                    detail=f"u2 = {r} mod {q}, not 0 or -1, with {q} an odd prime dividing t = {t}",
                )
            )
    return IntegerTReport(applicable=True, witnesses=tuple(witnesses))


def check_density_criterion(g: FrickeGroup) -> bool:
    """Whether finite cusps are dense in every finite product of p-adic fields.

    True when t is a prime integer, u2 has prime denominator different from
    t, and u2 is 0 or -1 mod t.
    """
    if g.t.denominator != 1:
        return False
    t = int(g.t)
    if not is_prime(t):
        return False
    den = g.u2.denominator
    if not is_prime(den) or den == t:
        return False
    return residue_mod_pk(g.u2, t, 1) in (0, t - 1)


# ---------------------------------------------------------------------------
# invariance verification by seeded sampling
# ---------------------------------------------------------------------------

class InvarianceResult(NamedTuple):
    """Outcome of sampling-based invariance checking. A pass is evidence
    that the generators map the set into itself, not a proof."""

    passed: bool
    samples: int
    seed: int
    counterexample: tuple[Fraction, str] | None = None
    image: Fraction | None = None  # None also encodes an image of 0 or infinity

    def __bool__(self) -> bool:
        return self.passed


def verify_invariance(pred: Predicate, g: FrickeGroup, n: int, seed: int) -> InvarianceResult:
    """Sample n rationals in the set and check all four generator letters.

    A sample is a numerator in [-B, B] over a denominator in [1, B], with
    B = SAMPLE_BOUND, reduced, redrawn until it lies in the set. The draws
    are random.Random(seed).randint's: getrandbits(w.bit_length()) until it
    is below the width w. An image equal to 0 or infinity counts as a
    counterexample, since the sets under study live inside the nonzero
    rationals.
    """
    if n < 1:
        raise ParameterError(f"sample count must be >= 1, got {n}")
    test = compile_predicate(pred)
    mats = [(ch, *g.letter_matrix(ch)) for ch in LETTERS]
    getrandbits = random.Random(seed).getrandbits
    bound = SAMPLE_BOUND  # read at call time
    wn, wd = 2 * bound + 1, bound
    kn, kd = wn.bit_length(), wd.bit_length()
    for i in range(n):
        for _ in range(_RETRY_LIMIT):
            while (xn := getrandbits(kn)) >= wn:
                pass
            while (xd := getrandbits(kd)) >= wd:
                pass
            xn, xd = xn - bound, xd + 1
            if xn:
                h = gcd(xn, xd)
                xn, xd = xn // h, xd // h
                if test(xn, xd):
                    break
        else:
            raise EmptyPredicateError(
                f"no sample satisfied the predicate in {_RETRY_LIMIT} draws"
            )
        for ch, a, b, c, d in mats:
            yn, yd = a * xn + b * xd, c * xn + d * xd
            if yn and yd:
                h = gcd(yn, yd) if yd > 0 else -gcd(yn, yd)
                yn, yd = yn // h, yd // h
                if test(yn, yd):
                    continue
            return InvarianceResult(
                passed=False,
                samples=i + 1,
                seed=seed,
                counterexample=(Fraction(xn, xd), ch),
                image=Fraction(yn, yd) if yn and yd else None,
            )
    return InvarianceResult(passed=True, samples=n, seed=seed)


# ---------------------------------------------------------------------------
# invariant mining
# ---------------------------------------------------------------------------

# Most distinct primes mine_invariants accepts: the candidates grow with the
# square of the atom count, and on (1/15, 8) the 6 primes 2 to 13 take
# 0.3-0.6 s (best of 3 in one process, 2-core machine shared with other jobs).
MINER_MAX_PRIMES = 6
_RES_ATOM_PRIME_CAP = 7   # residue subsets are enumerated only for p <= 7


def _candidate_atoms(primes: Sequence[int]) -> list[Predicate]:
    atoms: list[Predicate] = []
    for p in primes:
        for b in range(-2, 3):
            atoms.append(ValAtom(p, "<=", b))
        for b in range(-2, 3):
            atoms.append(ValAtom(p, ">=", b))
        for b in range(-2, 3):
            atoms.append(ValAtom(p, "=", b))
        atoms.append(ValAtom(p, "odd"))
        atoms.append(ValAtom(p, "even"))
    for p in primes:
        if p <= _RES_ATOM_PRIME_CAP:
            residues = range(p)
            for size in range(1, p):
                for subset in itertools.combinations(residues, size):
                    atoms.append(ResAtom(p, 1, frozenset(subset)))
    return atoms


def candidate_predicates(primes: Sequence[int]) -> list[Predicate]:
    """The fixed hypothesis space searched by the miner, in canonical order.

    Grammar: single valuation atoms (relations <=, >=, = with bounds in
    [-2, 2], and valuation parity) per prime; the two-prime forms
    xor(neg(vp), neg(vq)); residue-set atoms at precision 1 for primes up
    to 7; and cross-prime conjunctions of two atoms.
    """
    primes = sorted(set(primes))
    for p in primes:
        require_prime(p)
    atoms = _candidate_atoms(primes)
    out: list[Predicate] = list(atoms)
    for p, q in itertools.combinations(primes, 2):
        out.append(exactly_one_negative(p, q))
    for i, a1 in enumerate(atoms):
        for a2 in atoms[i + 1:]:
            if a1.p < a2.p:  # both atom kinds carry .p
                out.append(And((a1, a2)))
    return out


def mine_invariants(
    g: FrickeGroup, seeds: Sequence[ProjPoint], primes: Sequence[int]
) -> list[Predicate]:
    """The candidates whose sets the letters provably map into themselves,
    exactly nonempty and proper, with the seeds all inside or all outside
    (0 and infinity count as outside), in the order of the hypothesis space.

    An invariant set is a union of orbits that avoids 0 and infinity, so a
    seed's orbit lies in it iff the seed does: no orbit needs walking.
    """
    from .invariance import SetDecider

    if not primes:
        raise ParameterError("at least one prime is required")
    primes = sorted(set(primes))
    if len(primes) > MINER_MAX_PRIMES:
        raise ParameterError(f"at most {MINER_MAX_PRIMES} distinct primes, got {len(primes)}")
    decider = SetDecider(g, _candidate_atoms(primes))
    found: list[Predicate] = []
    for cand in candidate_predicates(primes):
        if all(decider.decide(cand)):
            test = compile_predicate(cand)
            if len({bool(pt.a and pt.c and test(pt.a, pt.c)) for pt in seeds}) < 2:
                found.append(cand)
    return found


# ---------------------------------------------------------------------------
# aggregate verdict
# ---------------------------------------------------------------------------

NOT_PSEUDOMODULAR = "not_pseudomodular"
NO_KNOWN_OBSTRUCTION = "no_known_obstruction"

class Verdict(NamedTuple):
    """Aggregate classification outcome. The conclusion 'not_pseudomodular'
    is certified by the obstruction list; 'no_known_obstruction' makes no
    claim of pseudomodularity."""

    u2: Fraction
    two_t: Fraction
    arithmetic_screen: ScreenResult
    obstructions: tuple[Witness, ...]
    density_all_finite_products: bool
    special_budget: int

    @property
    def conclusion(self) -> str:
        return NOT_PSEUDOMODULAR if self.obstructions else NO_KNOWN_OBSTRUCTION

    def to_dict(self) -> dict:
        screen = {"status": self.arithmetic_screen.status}
        if self.arithmetic_screen.witness is not None:
            screen["witness"] = self.arithmetic_screen.witness
            screen["value"] = format_rational(self.arithmetic_screen.value)
        return {
            "u2": format_rational(self.u2),
            "twot": format_rational(self.two_t),
            "conclusion": self.conclusion,
            "obstructions": [w.to_dict() for w in self.obstructions],
            "density_all_finite_products": self.density_all_finite_products,
            "arithmetic_screen": screen,
            "special_budget": self.special_budget,
        }


def relevant_primes(g: FrickeGroup) -> list[int]:
    """Primes dividing den(u2) or den(t), plus odd primes dividing integer t.

    This finite set provably covers every prime at which one of the
    obstruction criteria can fire, so no scan bound is needed.
    """
    primes = set(prime_factors(g.u2.denominator))
    primes |= set(prime_factors(g.t.denominator))
    if g.t.denominator == 1:
        primes |= {p for p in prime_factors(int(g.t)) if p % 2 == 1}
    return sorted(primes)


def _criterion_witnesses(g: FrickeGroup) -> list[Witness]:
    """The square, two-prime and integer-t witnesses over relevant_primes(g)."""
    primes = relevant_primes(g)
    found = [check_square_obstruction(g, p) for p in primes]
    found += [check_two_prime_obstruction(g, p, q) for p, q in itertools.combinations(primes, 2)]
    return [w for w in found if w is not None] + list(check_integer_t_conditions(g).witnesses)


def classify(g: FrickeGroup, special_budget: int) -> Verdict:
    """Run every obstruction criterion, the density criterion, the trace
    screen on the generators AA and BB (which decides it for every kernel
    word; see arithmeticity_screen), and a special-point scan up to the
    given word length (0 skips the scan)."""
    from .orbitsearch import special_point_scan

    if special_budget < 0:
        raise ParameterError(f"special budget must be >= 0, got {special_budget}")
    obstructions = _criterion_witnesses(g)
    specials = special_point_scan(g, special_budget) if special_budget else []
    if specials:
        point, word = specials[0]
        obstructions.append(
            Witness(
                kind=SPECIAL_POINT,
                word=word,
                point=point,
                detail=(
                    f"{point} is fixed by the hyperbolic element {word}; "
                    f"scan up to length {special_budget} found "
                    f"{len(specials)} rational fixed points"
                ),
            )
        )

    return Verdict(
        u2=g.u2,
        two_t=g.two_t,
        arithmetic_screen=arithmeticity_screen(g),
        obstructions=tuple(obstructions),
        density_all_finite_products=check_density_criterion(g),
        special_budget=special_budget,
    )
