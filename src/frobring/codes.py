"""Linear codes over a finite ring alphabet and their duality theory.

A code is a left, right, or merely additive submodule of A^m, stored with
its full codeword set (these are small-alphabet, short-length objects by
design).  Duals are orthogonals under an ambient bilinear form; the dual
of a left code is the right orthogonal {y : <c, y> = 0} and lands on the
opposite module side, and conversely.

The MacWilliams transform of a Hamming weight enumerator is computed by
exact integer binomial expansion of W(X + (q-1)Y, X - Y) / |C|, with a
hard error on non-integral coefficients.  The transform equals the dual's
enumerator precisely when the gram matrix is monomial (one unit entry per
row and column), and the package treats that as a testable fact, not an
assumption: see macwilliams_holds.

Two specialisations connect ring structure to code duality.  For a skew
polynomial quotient with modulus x^m - 1, codes that are left ideals are
closed under the twisted coordinate shift, and the Euclidean dual of such
a code V equals the left orthogonal of reversal(V) under the quotient's
Frobenius pairing.  For a group algebra Z_n[G], the Euclidean dual of a
left ideal is the support-inversion image of its right orthogonal under
the coefficient-of-identity pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, product
from math import comb
from typing import Iterable, Sequence

from .znmod import (Element, ZnLinearForm, _check_power_cap, _ints, additive_closure,
                    additive_generators, packed_arithmetic)
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
    functional_right_orthogonal,
    identity_form,
    orthogonal,
    pairing_of_functional,
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
        self.codewords = frozenset(codewords)
        self._validate()

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
        for g in gens:
            if len(g) != m:
                raise ValueError(f"generator {g!r} does not have length {m}")
        scalars, act = _action(alphabet, side)
        seeds = [act(s, g) for g in gens for s in scalars]
        closed = additive_closure(seeds, partial(_vadd, alphabet), (alphabet.zero,) * m)
        return cls._built(alphabet, m, side, closed)

    def _validate(self):
        """ValueError unless every word is a vector of A^m and the words
        are a submodule on the side, naming the first witness."""
        A = self.alphabet
        for v in self.codewords:
            if not (isinstance(v, tuple) and len(v) == self.m
                    and all(A.shape.contains(c) for c in v)):
                raise ValueError(f"codeword {v!r} is not a vector of A^{self.m}")
        zero = (A.zero,) * self.m
        bad = submodule_violation(self.codewords, partial(_vadd, A), zero,
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
    orthogonal is taken of an additive generating set of the codewords,
    picked on their packed codes (znmod.packed_arithmetic), which sort as
    the vectors do; only the generators are decoded.
    """
    if form.ring != code.alphabet or form.m != code.m:
        raise ValueError("form and code live in different ambients")
    zero_vec = (code.alphabet.zero,) * code.m
    bad = _degeneracy("both", (form.left_kernel, form.right_kernel), zero_vec)
    if bad is not None:
        raise DegenerateFormError(*bad)
    orth_side = side or _ORTH_FOR_SIDE[code.side]
    if orth_side not in ("left", "right"):
        raise ValueError(f"bad orthogonal side {orth_side!r}")
    encode, add = packed_arithmetic(code.alphabet.shape.orders * code.m)
    decode = {encode(chain.from_iterable(v)): v for v in code.codewords}
    gens = [decode[g] for g in additive_generators(decode, add, 0)]
    return LinearCode._built(code.alphabet, code.m, orth_side, orthogonal(form, gens, orth_side))


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


def macwilliams_transform(
    enum: WeightEnumerator, alphabet_size: int, code_size: int
) -> WeightEnumerator:
    """Exact integer expansion of W(X + (q-1)Y, X - Y) / code_size."""
    m = enum.m
    q = alphabet_size
    out = [0] * (m + 1)
    for w, a_w in enumerate(enum.counts):
        if a_w == 0:
            continue
        for s in range(m - w + 1):
            left = comb(m - w, s) * (q - 1) ** s
            for t in range(w + 1):
                out[s + t] += a_w * left * comb(w, t) * (-1) ** t
    counts = []
    for u, val in enumerate(out):
        if val % code_size != 0:
            raise TransformError(
                f"coefficient of Y^{u} is {val}, not divisible by |C| = {code_size}"
            )
        counts.append(val // code_size)
    return WeightEnumerator(m, tuple(counts))


@dataclass(frozen=True)
class MacWilliamsReport:
    identity_holds: bool
    gram_is_monomial: bool
    code_enumerator: WeightEnumerator
    dual_enumerator: WeightEnumerator
    transformed: WeightEnumerator
    dual: LinearCode


def macwilliams_holds(code: LinearCode, form: AmbientForm) -> MacWilliamsReport:
    """Compare the transform of W_C against the actual dual's enumerator."""
    d = dual(code, form)
    w_code = weight_enumerator(code)
    w_dual = weight_enumerator(d)
    transformed = macwilliams_transform(
        w_code, code.alphabet.cardinality, code.cardinality
    )
    return MacWilliamsReport(
        identity_holds=transformed == w_dual,
        gram_is_monomial=is_monomial(code.alphabet, form.matrix),
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
    lattice = submodule_lattice(A.shape.orders * m, vectors, *_action(A, side))
    return [LinearCode._built(A, m, side, words) for words in lattice]


# -- skew-cyclic codes -----------------------------------------------------


def is_skew_cyclic(code, quotient: SkewQuotient) -> bool:
    """Is the codeword set a left ideal of the quotient?

    The quotient is generated as a ring by x and the basis scalars of A,
    so a subgroup closed under left multiplication by those generators is
    closed under every left multiple (the shift-closure of Boucher,
    Geiselmann and Ulmer, AAECC 18, 2007), tested on flattened words in
    the uncapped table ring of SkewQuotient.mul, whose basis opens with A's.
    """
    ring, flat = quotient._table_ring(), quotient.flatten
    words = frozenset(map(flat, code.codewords if isinstance(code, LinearCode) else code))
    generators = [flat(quotient.shift_generator()), *ring.basis_elements[:quotient.base.rank]]
    return submodule_violation(words, ring.add, ring.zero, generators, ring.mul) is None


def quotient_left_ideal_codes(quotient: SkewQuotient) -> list[frozenset[Vector]]:
    """All left ideals of the quotient ring, as coefficient-vector sets."""
    ring = quotient.as_finite_ring()
    out = []
    for ideal in left_ideals(ring):
        out.append(frozenset(quotient.unflatten(v) for v in ideal.elements))
    return out


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
    (g, t) |-> eps((g t)_0), and must itself be skew-cyclic.  V's additive
    generators are picked on its flattened words by ring_generators, which
    refuses a word that is not an element of the table ring; reversal is
    additive, so their reversals generate reversal(V), with no second pick.
    """
    ring = quotient.as_finite_ring()
    pairing = pairing_of_functional(ring, quotient.lifted_form(base_functional))
    V = frozenset(map(quotient.flatten, V))
    gens = list(map(quotient.unflatten, ring_generators(ring, V)))
    e_dual = orthogonal(identity_form(quotient.base, quotient.m), gens, "left")
    reversed_gens = [quotient.flatten(quotient.reversal(g)) for g in gens]
    r_orth = frozenset(map(quotient.unflatten, ring_orthogonal(
        ring, reversed_gens, lambda a, s: (pairing(a, s),), (ring.characteristic,))))
    return SkewCyclicDualReport(
        dual_matches_reversal_orthogonal=e_dual == r_orth,
        dual_is_skew_cyclic=is_skew_cyclic(e_dual, quotient),
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
    """Support inversion sum a_g g |-> sum a_g g^{-1} of a group algebra."""
    return tuple(a[i] for i in _inversion_permutation(R))


def _inversion_permutation(R: FiniteRing) -> list[int]:
    if R.cayley is None:
        raise ValueError("alphabet is not a group algebra (no Cayley table attached)")
    identity = next(e for e, row in enumerate(R.cayley) if row[e] == e)  # the one idempotent
    return [row.index(identity) for row in R.cayley]


def group_algebra_dual_report(R: FiniteRing, S: Iterable[Element]) -> GroupAlgebraDualReport:
    """Check Euclidean-vs-form duality for one left ideal of Z_n[G].

    Both pairings are Z_n-valued on coefficient vectors: the Euclidean one
    is sum_g a_g b_g, the algebra one is eps(a b) = sum_g a_g b_{g^{-1}}
    for eps = coefficient of the group identity.  The Euclidean dual of a
    left ideal is the support-inversion image of its right orthogonal
    under the algebra pairing, and is again a left ideal.
    """
    inv = _inversion_permutation(R)
    n = R.characteristic
    gens = ring_generators(R, S)
    e_dual = ring_orthogonal(R, gens, lambda b, s: (sum(x * y for x, y in zip(b, s)) % n,), (n,))
    eps = ZnLinearForm(R.shape, R.one)  # the coefficient of the identity, as 1 is its basis vector
    r_orth = functional_right_orthogonal(R, eps, gens)
    inverted = frozenset(tuple(b[i] for i in inv) for b in r_orth)
    return GroupAlgebraDualReport(
        dual_matches_inverted_orthogonal=e_dual == inverted,
        dual_is_left_ideal=is_left_ideal(R, e_dual),
        euclidean_dual=e_dual,
        inverted_right_orthogonal=inverted,
    )
