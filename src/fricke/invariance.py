"""Exact decision of invariant sets of predicates.

A predicate's atoms look at valuations and residues at finitely many
primes, so its set S is cut out by classes of Q_p^x at those primes. The
letters of a group map S into S exactly when no choice of one pair (class
of x, class of g.x) per prime puts x in S and g.x outside it, and no pole
of a letter lies in S. Every such choice is met by a rational: each pair is
met on an open subset of Q_p, and Q is dense in any finite product of the
Q_p (weak approximation). A nonempty, proper, invariant S holds no cusp,
since the cusps are the orbit of infinity and infinity is not in S.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Iterable

from .errors import ParameterError
from .exactnum import residue_mod_pk, vp_pair
from .groups import FrickeGroup, ProjMatrix
from .predicates import And, Not, Or, Predicate, ResAtom, ValAtom, Xor, compile_predicate
from .words import LETTERS

MAX_DECIDED_ATOMS = 8      # a decision builds a truth table of 2^atoms bits
# The ball walk at a prime visits about p^k balls per level down to a cut
# that grows with the largest |bound|. On (1/15, 8), res(2,10,{1}) took 1.1 s
# and vp(3)<=1000 2.3 s; at both caps, and(res(127,1,{1}), vp(127)<=-32) takes
# 1.2 s. The miner stays far inside (|bound| <= 2, p^k <= 7).
MAX_RESIDUE_MODULUS = 128  # p^k of a residue atom
MAX_VALUATION_BOUND = 32   # |bound| of a valuation atom
# the truth table of atom j: bit i is set iff i has bit j set
_VARS = [sum(1 << i for i in range(1 << MAX_DECIDED_ATOMS) if i >> j & 1)
         for j in range(MAX_DECIDED_ATOMS)]
_V0 = 1 << 62              # v(0): above every valuation and radius met here


def _class_pairs(m: ProjMatrix, p: int, top: int, k: int) -> list[list[tuple[int, int]]]:
    """A reduced (num, den) of x and of g.x, g = m, for each pair of classes
    (class of x, class of g.x) met as x runs over Q_p^x off the poles.

    The class of x is v = v_p(x) clamped to [-top, top], v mod 2, and x mod
    p^k when v >= 0. Write x = s on Z_p and x = 1/s on pZ_p; then x and g.x
    are ratios of linear forms as + b. On a ball c + p^r Z_p a form has
    constant valuation and unit part mod p^k iff v(ac + b) + max(k, 1) <=
    v(a) + r; once all four forms settle, both classes are read at s = c.
    Only the balls around a root z of a form never settle. The cut R is
    max(top, k) + max(k, 1) plus the absolute valuations of the leading
    coefficients and of the nonzero form values at z. It bounds v(z - z') +
    max(k, 1) for every other root z', so on v(s - z) >= R no other root is
    near and every other form has settled; and it bounds the n from which a
    vanishing form drives the class of x or of g.x past +-top and past k.
    So the annuli v(s - z) = n >= R repeat with period 2 in n, and the walk
    drops a ball around a root at radius R + 2. With k = 0 a class is a
    valuation alone, and the children of a ball that hold no root give one
    pair, so the walk takes one of them.
    """
    kk, a, b, c, d = max(k, 1), *m
    v = lambda x: vp_pair(x.numerator, x.denominator, p) if x else _V0  # noqa: E731
    out = {}
    for r0, forms in ((0, ((1, 0), (0, 1), (a, b), (c, d))),
                      (1, ((0, 1), (1, 0), (b, a), (d, c)))):
        va = [v(al) for al, _ in forms]
        roots = {z for al, be in forms if al if not (z := Fraction(-be, al)) or v(z) >= r0}
        cut = r0
        for z in roots:
            w = [v(al * z + be) for al, be in forms]
            cut = max(cut, max(top, k) + kk + sum(abs(x) for x in va + w if x < _V0))
        stack = [(0, r0)]
        while stack:
            s, r = stack.pop()
            vals = [al * s + be for al, be in forms]
            w = [v(x) for x in vals]
            if all(wj + kk <= vj + r for wj, vj in zip(w, va)):
                pair = [(n // h, e // h) for n, e in (vals[:2], vals[2:]) for h in [gcd(n, e)]]
                keys = [(max(-top, min(top, vx)), vx % 2,
                         n * pow(e, -1, p ** k) % p ** k if vx >= 0 else -1)
                        for n, e in pair for vx in [vp_pair(n, e, p)]]
                out.setdefault(tuple(keys), pair)
            elif r <= cut + 1 or not any(wj >= vj + r for wj, vj in zip(w, va)):
                digits = range(p)
                if not k:
                    held = {residue_mod_pk((z - s) / p ** r, p) for z in roots if v(z - s) >= r}
                    digits = [*held, *itertools.islice((j for j in digits if j not in held), 1)]
                stack.extend((s + j * p ** r, r + 1) for j in digits)
    return list(out.values())


def _fold(pred: Predicate, value, full: int) -> int:
    """The set of a predicate as a bitset, from value(atom), the bitset of
    each atom, and full, the bitset of everything."""
    if isinstance(pred, (ValAtom, ResAtom)):
        return value(pred)
    if isinstance(pred, Not):
        return full ^ _fold(pred.child, value, full)
    if isinstance(pred, Xor):
        return _fold(pred.left, value, full) ^ _fold(pred.right, value, full)
    if isinstance(pred, (And, Or)):  # or(P, Q) is not(and(not P, not Q))
        flip, out = (0 if isinstance(pred, And) else full), full
        for part in pred.parts:
            out &= flip ^ _fold(part, value, full)
        return flip ^ out
    raise ParameterError(f"cannot decide a predicate of type {type(pred).__name__}")


class SetDecider:
    """decide_set for many predicates on one group, whose atoms have bounds
    and precisions at each prime no larger than those of the given atoms.

    An atom is read on its prime's class representatives, and a predicate
    on its truth table, whose bit i is its value when atom j has bit j of i.
    """

    def __init__(self, g: FrickeGroup, atoms: Iterable[Predicate]):
        self.mats = [g.letter_matrix(ch) for ch in LETTERS]
        self.shape: dict[int, tuple[int, int]] = {}
        for atom in atoms:
            top, k = self.shape.get(atom.p, (1, 0))
            bound, precision = getattr(atom, "bound", 0), getattr(atom, "k", 0)
            if abs(bound) > MAX_VALUATION_BOUND:
                raise ParameterError(f"{atom}: |bound| above {MAX_VALUATION_BOUND}")
            if precision and atom.p ** precision > MAX_RESIDUE_MODULUS:
                raise ParameterError(f"{atom}: residue modulus above {MAX_RESIDUE_MODULUS}")
            self.shape[atom.p] = max(top, abs(bound) + 1), max(k, precision)
        self.poles = {(-y // gcd(x, y), x // gcd(x, y))
                      for a, b, c, d in self.mats for x, y in ((a, b), (c, d)) if x and y}
        # atom -> its number; by number, the atom and the bitset of the poles it holds
        self.numbers, self.atoms, self.pairs, self.types = {}, [], {}, {}

    def decide(self, pred: Predicate) -> tuple[bool, bool, bool]:
        """decide_set for pred."""
        bits: dict[int, int] = {}  # the number of each atom of pred -> its bit j
        shift = len(self.poles)

        def value(atom: Predicate) -> int:  # the poles in the atom's set, then its truth table
            n = self.numbers.setdefault(atom, len(self.numbers))
            if n == len(self.atoms):
                test = compile_predicate(atom)
                self.atoms.append((atom, sum(1 << i for i, x in enumerate(self.poles)
                                             if test(*x))))
            if bits.setdefault(n, len(bits)) == MAX_DECIDED_ATOMS:
                raise ParameterError(f"at most {MAX_DECIDED_ATOMS} distinct atoms")
            return self.atoms[n][1] | _VARS[bits[n]] << shift

        both = _fold(pred, value, (1 << shift + (1 << MAX_DECIDED_ATOMS)) - 1)
        table, runs = both >> shift, {}
        for n, j in bits.items():
            runs[self.atoms[n][0].p] = runs.get(self.atoms[n][0].p, ()) + ((n, j),)
        # the x sides of a letter's pairs are all the classes of Q_p^x
        held = {table >> x & 1 for x, _ in self.combos(0, runs)}
        # a pole in the set is mapped to 0 or infinity, outside it
        invariant = not both & (1 << shift) - 1 and not any(
            table >> x & 1 > table >> y & 1 for i in range(4) for x, y in self.combos(i, runs))
        return invariant, 1 in held, 0 in held

    def combos(self, i: int, runs: dict[int, tuple]) -> set[tuple[int, int]]:
        """The (x bits, g.x bits) of the atoms for every choice of one class
        pair per prime of the i-th letter; runs holds the (number, bit) of
        the atoms at each prime."""
        out = {(0, 0)}
        for p, run in runs.items():
            if (i, run) not in self.types:
                if (i, p) not in self.pairs:
                    self.pairs[i, p] = _class_pairs(self.mats[i], p, *self.shape[p])
                tests = [(compile_predicate(self.atoms[n][0]), 1 << j) for n, j in run]
                self.types[i, run] = {
                    (sum(b for t, b in tests if t(*x)), sum(b for t, b in tests if t(*y)))
                    for x, y in self.pairs[i, p]}
            out = {(x | u, y | w) for x, y in out for u, w in self.types[i, run]}
        return out


def decide_set(pred: Predicate, g: FrickeGroup) -> tuple[bool, bool, bool]:
    """(invariant, nonempty, proper) for the set S of pred: whether the
    letters of g map S into itself, whether S is nonempty, and whether it
    is not all of Q^x. S is nonempty (proper) iff some choice of classes,
    one per prime, puts x in S (outside S)."""
    atoms: list[Predicate] = []
    _fold(pred, lambda atom: atoms.append(atom) or 0, 0)
    return SetDecider(g, atoms).decide(pred)
