"""Linear codes over a finite ring alphabet and their duality theory.

A code is a left, right, or merely additive submodule of A^m, stored with
its full codeword set (these are small-alphabet, short-length objects by
design).  Words of A^m meet their coordinates only through the one layout
of znmod._word_layout: a LinearCode checks its words and generators with
znmod._flat_vectors before it hashes them, dual packs the flattened words
and pairs its flat generators, and the skew-cyclic routes read and write
words through SkewQuotient.flatten and unflatten, the same pair.  Duals are orthogonals under an ambient bilinear form; the dual
of a left code is the right orthogonal {y : <c, y> = 0} and lands on the
opposite module side, and conversely.

The MacWilliams transform of a Hamming weight enumerator is the exact
integer expansion of W(X + (q-1)Y, X - Y) / |C|, summed over cached rows of
the Krawtchouk matrix, with a hard error on non-integral coefficients.  The
transform equals the dual's enumerator precisely when the gram matrix is
monomial (one unit entry per row and column), and the package treats that
as a testable fact, not an assumption: see macwilliams_holds.

Two specialisations connect ring structure to code duality.  For a skew
polynomial quotient with modulus x^m - 1, codes that are left ideals are
closed under the twisted coordinate shift, and the Euclidean dual of such
a code V equals the left orthogonal of reversal(V) under the quotient's
Frobenius pairing.  For a group algebra Z_n[G], the Euclidean dual of a
left ideal is the support-inversion image of its right orthogonal under
the coefficient-of-identity pairing.  A ring counts as Z_n[G] by its
table alone: every basis product a basis element, every row holding 1,
as Z_n = Z_n[{1}] does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product
from math import comb
from typing import Iterable, Sequence

from .znmod import (Element, ZnLinearForm, _check_power_cap, _flat_vectors, _ints, _word_layout,
                    additive_closure, additive_generators, linear_kernel, packed_arithmetic)
from .finring import (
    FiniteRing,
    is_left_ideal,
    left_ideals,
    ring_generators,
    ring_orthogonal,
    submodule_lattice,
    submodule_violation,
)
from .frobenius import (
    AmbientForm,
    DegenerateFormError,
    Vector,
    _degeneracy,
    _flat_orthogonal,
    _linear_orthogonal,
    identity_form,
)
from .skewpoly import SkewQuotient

_SIDES = ("left", "right", "additive")
_ORTH_FOR_SIDE = {"left": "right", "right": "left", "additive": "right"}


class LinearCode:
    """A submodule (or additive subgroup) of A^m, m >= 1, with explicit
    codewords, verified on construction (_validate).  generate, dual and
    submodule_codes build submodules by construction through _built."""

    def __init__(self, alphabet: FiniteRing, m: int, side: str, codewords: Iterable[Vector]):
        _check_ambient(m, side)
        self.alphabet, self.m, self.side = alphabet, m, side
        self._validate(list(codewords))

    @classmethod
    def _built(cls, alphabet: FiniteRing, m: int, side: str, codewords) -> "LinearCode":
        """The code of words that are a submodule on the side by
        construction, without _validate."""
        code = cls.__new__(cls)
        code.alphabet, code.m, code.side = alphabet, m, side
        code.codewords = frozenset(codewords)
        return code

    @classmethod
    def generate(
        cls,
        alphabet: FiniteRing,
        m: int,
        generators: Sequence[Sequence[Iterable[int]]],
        side: str = "left",
    ) -> "LinearCode":
        """Close the generators under addition and the requested scalar
        action: the additive span of act(s, g) over the side's scalars
        (see _action) and generators g."""
        _check_ambient(m, side)
        _check_power_cap(alphabet.cardinality, m, "ambient module")
        gens = [tuple(alphabet.element(c) for c in g) for g in generators]
        _flat_vectors(alphabet.shape, m, gens)  # refuses a generator of another length
        scalars, act = _action(alphabet, side)
        seeds = [act(s, g) for g in gens for s in scalars]
        closed = additive_closure(seeds, partial(_vadd, alphabet), (alphabet.zero,) * m)
        return cls._built(alphabet, m, side, closed)

    def _validate(self, words: list):
        """ValueError unless every word is a vector of A^m and the words
        are a submodule on the side, naming the first witness.  The words
        are checked before they are hashed into the code's set."""
        A = self.alphabet
        _flat_vectors(A.shape, self.m, words)
        self.codewords = frozenset(words)
        bad = submodule_violation(self.codewords, partial(_vadd, A), (A.zero,) * self.m,
                                  *_action(A, self.side))
        if bad is None:
            return
        kind, witness = bad
        if kind == "zero":
            raise ValueError("code does not contain the zero word")
        if kind == "sum":
            v, w = witness
            raise ValueError(f"code not closed under addition at {v!r} + {w!r}")
        raise ValueError(f"code not closed under {self.side} scalar {witness[0]!r}")

    @property
    def cardinality(self) -> int:
        return len(self.codewords)

    def sorted_codewords(self) -> list[Vector]:
        return sorted(self.codewords)

    def __contains__(self, v) -> bool:
        return v in self.codewords

    def __iter__(self):
        return iter(self.sorted_codewords())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearCode)
            and self.alphabet == other.alphabet
            and self.m == other.m
            and self.side == other.side
            and self.codewords == other.codewords
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.m, self.side, self.codewords))

    def same_codewords(self, other: "LinearCode") -> bool:
        """Explicit side-blind comparison; == requires matching sides."""
        return (
            self.alphabet == other.alphabet
            and self.m == other.m
            and self.codewords == other.codewords
        )

    def __repr__(self) -> str:
        return f"<LinearCode side={self.side} |C|={self.cardinality} m={self.m}>"


def _check_ambient(m: int, side: str) -> None:
    if side not in _SIDES:
        raise ValueError(f"bad code side {side!r}")
    if _ints((m,), "code length")[0] < 1:
        raise ValueError("code length must be positive")


def _vadd(A: FiniteRing, v: Vector, w: Vector) -> Vector:
    return tuple(A.add(a, b) for a, b in zip(v, w))


def _scale_left(A: FiniteRing, a: Element, v: Vector) -> Vector:
    return tuple(A.mul(a, c) for c in v)


def _action(A: FiniteRing, side: str) -> tuple:
    """(scalars, act) of a code's module side: A, or its opposite for right
    codes, acting on the left.  scalars additively generate the acting
    ring: its basis, or for additive codes 1, which additively generates
    the prime subring Z_n * 1 acting on a bare subgroup."""
    S = A.opposite() if side == "right" else A
    return ((A.one,) if side == "additive" else S.basis_elements), partial(_scale_left, S)


# -- weight enumerators ----------------------------------------------------


@dataclass(frozen=True)
class WeightEnumerator:
    """Homogeneous bivariate enumerator sum_w counts[w] X^(m-w) Y^w."""

    m: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if type(self.m) is not int:  # the fast path of a hot constructor; _ints names a stray
            _ints((self.m,), "enumerator length")
        if self.m < 0:
            raise ValueError("enumerator length must be non-negative")
        if len(self.counts) != self.m + 1:
            raise ValueError("need m + 1 weight counts")

    @property
    def total(self) -> int:
        return sum(self.counts)

    def polynomial(self) -> str:
        terms = []
        for w, c in enumerate(self.counts):
            if c == 0:
                continue
            factors = []
            if c != 1 or w == self.m == 0:
                factors.append(str(c))
            dx = self.m - w
            if dx:
                factors.append("X" if dx == 1 else f"X^{dx}")
            if w:
                factors.append("Y" if w == 1 else f"Y^{w}")
            terms.append("*".join(factors) or "1")
        return " + ".join(terms) if terms else "0"


def hamming_weight(v: Vector, zero: Element) -> int:
    return len(v) - v.count(zero)


def weight_enumerator(code: LinearCode) -> WeightEnumerator:
    counts = [0] * (code.m + 1)
    zero = code.alphabet.zero
    for v in code.codewords:
        counts[hamming_weight(v, zero)] += 1
    return WeightEnumerator(code.m, tuple(counts))


# -- duals -----------------------------------------------------------------


def dual(code: LinearCode, form: AmbientForm, side: str | None = None) -> LinearCode:
    """Orthogonal of the code under the form, on the named slot side.

    Defaults to the side that pairs against the code's module structure:
    right orthogonal for a left code, left orthogonal for a right code.
    The form must be nondegenerate (first-slot kernel, cached).  The
    orthogonal is taken of the code's additive generating set, picked once
    per code on the packed codes of its words (znmod.packed_arithmetic),
    which sort as vectors do, and held by the code.
    """
    A, m = code.alphabet, code.m
    if form.ring != A or form.m != m:
        raise ValueError("form and code live in different ambients")
    bad = _degeneracy("both", (form.left_kernel, form.right_kernel), (A.zero,) * m)
    if bad is not None:
        raise DegenerateFormError(*bad)
    orth_side = side or _ORTH_FOR_SIDE[code.side]  # _linear_orthogonal refuses a bad side
    if "_generators" not in code.__dict__:
        encode, add = packed_arithmetic(A.shape.orders * m)
        decode = {encode(v): v for v in map(_word_layout(m, A.rank)[0], code.codewords)}
        code._generators = [decode[g] for g in additive_generators(decode, add, 0)]
    return LinearCode._built(A, m, orth_side, _linear_orthogonal(form, code._generators, orth_side))


def euclidean_dual(code: LinearCode, side: str | None = None) -> LinearCode:
    """Dual under the identity gram matrix <x, y> = sum x_i y_i."""
    return dual(code, identity_form(code.alphabet, code.m), side)


# -- MacWilliams -----------------------------------------------------------


class TransformError(ValueError):
    """MacWilliams transform produced non-integral coefficients."""


def is_monomial(A: FiniteRing, matrix: Sequence[Sequence[Element]]) -> bool:
    """One nonzero entry per row and per column, each entry a unit."""
    m = len(matrix)
    if any(len(row) != m for row in matrix):
        return False
    support = [[j for j, e in enumerate(row) if e != A.zero] for row in matrix]
    return (all(len(s) == 1 and A.is_unit(row[s[0]]) for s, row in zip(support, matrix))
            and sorted(s[0] for s in support) == list(range(m)))


@lru_cache(maxsize=1024)
def _krawtchouk_row(m: int, q: int, w: int) -> tuple[int, ...]:
    """Row w of the Krawtchouk matrix: K[w][u] is the coefficient of
    X^(m-u) Y^u in (X + (q-1)Y)^(m-w) (X - Y)^w (MacWilliams, Bell Syst.
    Tech. J. 42, 1963), by row so a sparse enumerator builds few."""
    return tuple(sum(comb(m - w, u - t) * (q - 1) ** (u - t) * comb(w, t) * (-1) ** t
                     for t in range(max(0, u - m + w), min(w, u) + 1)) for u in range(m + 1))


def macwilliams_transform(
    enum: WeightEnumerator, alphabet_size: int, code_size: int
) -> WeightEnumerator:
    """Exact integer expansion of W(X + (q-1)Y, X - Y) / code_size: the
    sum of a_w K[w] over the cached Krawtchouk rows of the nonzero a_w."""
    for what, size in (("alphabet size", alphabet_size), ("code size", code_size)):
        if _ints((size,), what)[0] < 1:
            raise ValueError(f"{what} must be positive")
    m = enum.m
    out = [0] * (m + 1)
    for w, a_w in enumerate(enum.counts):
        if a_w:
            out = [o + a_w * k for o, k in zip(out, _krawtchouk_row(m, alphabet_size, w))]
    bad = next((u for u, val in enumerate(out) if val % code_size), None)
    if bad is not None:
        raise TransformError(
            f"coefficient of Y^{bad} is {out[bad]}, not divisible by |C| = {code_size}")
    return WeightEnumerator(m, tuple(val // code_size for val in out))


@dataclass(frozen=True)
class MacWilliamsReport:
    identity_holds: bool
    gram_is_monomial: bool
    code_enumerator: WeightEnumerator
    dual_enumerator: WeightEnumerator
    transformed: WeightEnumerator
    dual: LinearCode


def macwilliams_holds(code: LinearCode, form: AmbientForm) -> MacWilliamsReport:
    """Compare the transform of W_C against the actual dual's enumerator.
    W_C and its transform are built once per code and held by it, as
    neither depends on the form."""
    d = dual(code, form)
    if "_enumerators" not in code.__dict__:
        w = weight_enumerator(code)
        code._enumerators = w, macwilliams_transform(w, code.alphabet.cardinality, code.cardinality)
    w_code, transformed = code._enumerators
    w_dual = weight_enumerator(d)
    if "_is_monomial" not in form.__dict__:  # decided once, and held by the form
        form._is_monomial = is_monomial(form.ring, form.matrix)
    return MacWilliamsReport(
        identity_holds=transformed == w_dual,
        gram_is_monomial=form._is_monomial,
        code_enumerator=w_code,
        dual_enumerator=w_dual,
        transformed=transformed,
        dual=d,
    )


# -- submodule sweeps ------------------------------------------------------


def submodule_codes(A: FiniteRing, m: int, side: str) -> list[LinearCode]:
    """Every submodule of A^m on the given side, smallest first.

    Exhaustive by the same argument as ideal enumeration: every submodule
    is a sum of the cyclic submodules of its members.
    """
    _check_ambient(m, side)
    _check_power_cap(A.cardinality, m, "ambient module")
    vectors = product(A.elements(), repeat=m)  # lexicographic in the m * rank coordinates
    # A^op has A's units; an additive code's acting ring is Z_n * 1
    units = () if side == "additive" else A.units()
    lattice = submodule_lattice(A.shape.orders * m, vectors, *_action(A, side), units)
    return [LinearCode._built(A, m, side, words) for words in lattice]


# -- skew-cyclic codes -----------------------------------------------------


def is_skew_cyclic(code, quotient: SkewQuotient) -> bool:
    """Is the codeword set a left ideal of the quotient?

    The quotient is generated as a ring by x and the basis scalars of A,
    so a subgroup closed under left multiplication by those generators is
    closed under every left multiple (the shift-closure of Boucher,
    Geiselmann and Ulmer, AAECC 18, 2007), tested on flattened words in
    the uncapped table ring of SkewQuotient.mul, whose basis opens with A's.
    Words are read through SkewQuotient.flatten, which refuses, naming it,
    a word that is not nested as a vector of A^m; a word whose coordinates
    are then not an element of the table ring is refused by
    submodule_violation, naming its coordinates.
    """
    words = code.codewords if isinstance(code, LinearCode) else code
    words = frozenset(map(quotient.flatten, words))
    return _shift_closed(quotient, words, quotient._table_ring.shape.contains)


def _shift_closed(quotient: SkewQuotient, words: frozenset[Element], member=None) -> bool:
    """Is the set of flat words a left ideal of the quotient's table ring?
    submodule_violation under x and A's basis scalars; given member, a
    word that is not an element is refused there, without it every word is
    taken to be one."""
    ring = quotient._table_ring
    generators = [quotient.flatten(quotient.shift_generator()),
                  *ring.basis_elements[:quotient.base.rank]]
    return submodule_violation(words, ring.add, ring.zero, generators, ring.mul, member) is None


def quotient_left_ideal_codes(quotient: SkewQuotient) -> list[frozenset[Vector]]:
    """All left ideals of the quotient ring, as coefficient-vector sets."""
    return [frozenset(map(quotient.unflatten, ideal.elements))
            for ideal in left_ideals(quotient.as_finite_ring())]


@dataclass(frozen=True)
class SkewCyclicDualReport:
    dual_matches_reversal_orthogonal: bool
    dual_is_skew_cyclic: bool
    cardinality_product_ok: bool
    euclidean_dual: frozenset[Vector]
    reversal_orthogonal: frozenset[Vector]


def skew_cyclic_dual_report(
    V: Iterable[Vector], quotient: SkewQuotient, base_functional
) -> SkewCyclicDualReport:
    """Check the duality bridge for one left ideal V of the quotient.

    The Euclidean dual here is {f : sum_i f_i g_i = 0 for all g in V},
    i.e. the first-slot orthogonal under the identity form; it must equal
    the first-slot orthogonal of reversal(V) under the pairing
    (g, t) |-> eps((g t)_0), and must itself be skew-cyclic.  V is read
    through SkewQuotient.flatten, which refuses a word that is not nested
    as a vector of A^m, and its additive generators are picked on the flat
    words by ring_generators, which refuses one whose coordinates are not
    an element of the table ring.  The flat generators pair in the
    Euclidean dual as they are; reversal is additive, so their reversals
    generate reversal(V), with no second pick.  The dual is tested
    skew-cyclic on the flat vectors its kernel lists, elements by
    construction, so they are neither flattened nor checked again.
    """
    ring = quotient.as_finite_ring()
    eps = quotient.lifted_form(base_functional)
    V = frozenset(map(quotient.flatten, V))
    gens = ring_generators(ring, V)
    flat_dual = frozenset(_flat_orthogonal(quotient.euclidean_form, gens, "left"))
    e_dual = frozenset(map(quotient.unflatten, flat_dual))
    reversed_gens = [quotient.flatten(quotient.reversal(quotient.unflatten(g))) for g in gens]
    r_orth = frozenset(map(quotient.unflatten, ring_orthogonal(ring, reversed_gens, eps)))
    return SkewCyclicDualReport(
        dual_matches_reversal_orthogonal=e_dual == r_orth,
        dual_is_skew_cyclic=_shift_closed(quotient, flat_dual),
        cardinality_product_ok=len(V) * len(e_dual) == quotient.cardinality,
        euclidean_dual=e_dual,
        reversal_orthogonal=r_orth,
    )


# -- group algebra duality -------------------------------------------------


@dataclass(frozen=True)
class GroupAlgebraDualReport:
    dual_matches_inverted_orthogonal: bool
    dual_is_left_ideal: bool
    euclidean_dual: frozenset[Element]
    inverted_right_orthogonal: frozenset[Element]


def group_inversion(R: FiniteRing, a: Element) -> Element:
    """Support inversion sum a_g g |-> sum a_g g^{-1} of a group algebra
    Z_n[G] on its basis G (_inversion_permutation); then an a that is not
    an element is refused with a ValueError."""
    inverse = _inversion_permutation(R)
    if not R.shape.contains(a):
        raise ValueError(f"{a!r} is not an element of {R!r}")
    return tuple(a[i] for i in inverse)


def _inversion_permutation(R: FiniteRing) -> list[int]:
    """The inverse of each basis element, read off the table.  R is a
    group algebra on its basis when every basis product is a basis element
    and every row holds 1: the basis is then a finite monoid with right
    inverses, a group.  The inverse of e_i is the e_j with e_i e_j = 1."""
    basis, table = set(R.basis_elements), R.mul_table
    if not all(e in basis for row in table for e in row) or any(R.one not in row for row in table):
        raise ValueError(f"{R!r} is not a group algebra on its basis")
    return [row.index(R.one) for row in table]


def group_algebra_dual_report(R: FiniteRing, S: Iterable[Element]) -> GroupAlgebraDualReport:
    """Check Euclidean-vs-form duality for one left ideal of Z_n[G].

    Both pairings are Z_n-valued on coefficient vectors: the Euclidean one
    is sum_g a_g b_g, the algebra one is eps(a b) = sum_g a_g b_{g^{-1}}
    for eps = coefficient of the group identity.  The Euclidean dual of a
    left ideal is the support-inversion image of its right orthogonal
    under the algebra pairing, and is again a left ideal.  The ideal's
    additive generators are picked once, by ring_generators, and pair in
    both orthogonals.
    """
    inv = _inversion_permutation(R)
    gens = ring_generators(R, S)
    images = [[s[i] for s in gens] for i in range(R.rank)]  # basis vector i pairs with s to s_i
    e_dual = frozenset(linear_kernel(R.shape.orders, images, (R.characteristic,) * len(gens)))
    eps = ZnLinearForm(R.shape, R.one)  # the coefficient of the identity, as 1 is its basis vector
    r_orth = ring_orthogonal(R.opposite(), gens, eps)  # eps(s b) = eps(b *op s)
    inverted = frozenset(tuple(b[i] for i in inv) for b in r_orth)
    return GroupAlgebraDualReport(
        dual_matches_inverted_orthogonal=e_dual == inverted,
        dual_is_left_ideal=is_left_ideal(R, e_dual),
        euclidean_dual=e_dual,
        inverted_right_orthogonal=inverted,
    )
