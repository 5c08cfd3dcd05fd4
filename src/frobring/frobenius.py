"""Frobenius functionals and bilinear pairings on finite rings.

A Frobenius functional on a ring R of characteristic n is a linear form
eps: R -> Z_n whose multiplication pairing (a, b) |-> eps(a*b) has trivial
kernel on both sides.  Such a form generates the whole dual module under
either translation action, which is what makes annihilator duality and the
MacWilliams identities work over R.

Side conventions, fixed once here and used everywhere:

* orthogonals are named by the slot they live in.  The left orthogonal of
  S is {x : <x, s> = 0 for all s in S} and the right orthogonal is
  {y : <s, y> = 0 for all s in S}.
* nondegeneracy is named by the injective translation map, matching the
  usual usage: right nondegenerate means the *first*-slot kernel
  {a : <a, -> = 0} is trivial, left nondegenerate means the second-slot
  kernel is trivial.
* every orthogonal, kernel and annihilator takes the pairing oriented so
  the candidate sits in its first slot; right-handed annihilators in a
  ring are the left-handed ones of the opposite ring.

A pairing is biadditive, so the orthogonal of a subset S is the kernel of
the Z-linear map x |-> (<x, s>)_s over an additive generating set of S.
Every orthogonal and kernel is one meet in the middle on packed images,
znmod._packed_kernel, which holds its domain to the enumeration cap.
Pairing kernels in the ring reach it through znmod.linear_kernel on their
gram's rows or columns; orthogonals through the one routine
znmod._packed_orthogonal, which writes the images of the basis vectors
straight from packed lines into packed codes: annihilators and functional
orthogonals in the ring off the ring's packed table
(finring.ring_orthogonal), with no ring product; orthogonals and kernels
of ambient forms on A^m off the rows or columns of the form's basis gram,
the pairing of the r*m basis vectors of A^m, built once per form in the
same packed layout (_flat_orthogonal): no route calls AmbientForm.pairing,
and none multiplies in the ring after a form's first orthogonal.
_flat_orthogonal takes flat vectors, the r*m coordinates of words of A^m
in the one layout (znmod._word_layout), and lists flat vectors;
_linear_orthogonal cuts them back into words by the layout's inverse.
orthogonal and functional_orthogonal flatten their subset on entry and
check that each entry is an element (znmod._flat_vectors); codes.dual,
the skew report and the form's kernels pass flat vectors the library
built, unchecked.  Pairing kernels in the ring are read off the
pairing's Z_n-valued gram (_gram_kernel).  An ambient form is A-linear
on the left in its first slot and on the right in its second, so its
kernels are orthogonals of the m unit vectors of A^m, the rows of
identity_form's gram.  The functional search holds the undecided forms
as a bitset of the form space, decides the lowest off its gram, and
clears with a rejected form every form whose first-slot kernel holds the
same witness; it reads no units, radical or socle, and on a table of two
or more blocks it searches each block instead (finring._blocks).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import cached_property, reduce
from itertools import islice, product
from typing import Callable, Iterable, Iterator, Sequence

from .znmod import (
    Element,
    ZnLinearForm,
    _ints,
    _flat_vectors,
    _form_at,
    _packed_orthogonal,
    _vanishing_forms,
    _word_layout,
    linear_kernel,
    packed_fields,
    _check_cap,
    _check_power_cap,
    _check_table_cap,
)
from .finring import FiniteRing, Ideal, _blocks, _on_blocks, ring_generators, ring_orthogonal

Vector = tuple[Element, ...]


class DegenerateFormError(ValueError):
    """A pairing required to be nondegenerate has a nontrivial kernel."""

    def __init__(self, side: str, witness=None):
        self.side = side
        self.witness = witness
        super().__init__(f"pairing is degenerate ({side} kernel contains {witness!r})")


def _as_form(ring: FiniteRing, functional) -> ZnLinearForm:
    form = functional.form if isinstance(functional, FrobeniusFunctional) else functional
    if form.shape != ring.shape:
        raise ValueError("form is not defined on the ring's module")
    return form


def pairing_of_functional(ring: FiniteRing, functional) -> Callable[[Element, Element], int]:
    """The multiplication pairing (a, b) |-> eps(a * b) as a callable."""
    form = _as_form(ring, functional)
    return lambda a, b: form.evaluate(ring.mul(a, b))


def pairing_from_gram(ring: FiniteRing, gram: Sequence[Sequence[int]]) -> Callable:
    """Z_n-bilinear pairing on the ring's module from a gram matrix, whose
    rows and columns must be ZnLinearForm weights: d_i g_ij = d_j g_ij = 0."""
    n = ring.characteristic
    g = [tuple(v % n for v in _ints(row, "gram entry")) for row in gram]
    if len(g) != ring.rank or any(len(row) != ring.rank for row in g):
        raise ValueError("gram matrix must be rank x rank")
    for weights in (*g, *zip(*g)):
        ZnLinearForm(ring.shape, weights)

    def pairing(a: Element, b: Element) -> int:
        return sum(ai * g[i][j] * bj for i, ai in enumerate(a) for j, bj in enumerate(b)) % n

    return pairing


def pairing_kernel(ring: FiniteRing, pairing: Callable, slot: str) -> frozenset[Element]:
    """Kernel of a Z_n-valued pairing on R x R in the named slot.  The
    pairing must be Z-bilinear: this is _gram_kernel of its basis gram."""
    if slot not in ("first", "second"):
        raise ValueError(f"bad slot {slot!r}")
    basis = ring.basis_elements
    return frozenset(_gram_kernel(ring, [[pairing(a, b) for b in basis] for a in basis], slot))


def _degeneracy(side: str, kernels: tuple[Callable, Callable], zero):
    """(side, smallest witness) of a nontrivial kernel, or None: the one
    side dispatch over (first-slot, second-slot) kernel computations.
    'right' reads the first, 'left' the second, and 'both' the first alone,
    as its triviality forces the second's: a Z-bilinear Z_n-valued pairing
    has kernels of one size (character duality), and if xQ = 0 only for
    x = 0 on A^m, Q has a left inverse P, so Qy = 0 gives y = PQy = 0.
    Any other side is a ValueError."""
    slot = {"right": 0, "both": 0, "left": 1}.get(side)
    if slot is None:
        raise ValueError(f"bad side {side!r}")
    witness = min((x for x in kernels[slot]() if x != zero), default=None)
    return (("right", "left")[slot], witness) if witness is not None else None


def _gram_kernel(ring: FiniteRing, gram: Sequence[Sequence[int]], slot: str) -> Iterator[Element]:
    """Kernel of the pairing (a, b) |-> a^T G b mod n in the named slot, in
    element order: {a : aG = 0} in the first slot and {b : Gb = 0} in the
    second, one linear_kernel call on the rows or the columns of G.

    For a functional's gram G_ij = eps(e_i e_j) this is the kernel of
    eps(a * b) without a ring product."""
    lines = gram if slot == "first" else list(zip(*gram))
    return linear_kernel(ring.shape.orders, lines, (ring.characteristic,) * ring.rank)


def _functional_gram(ring: FiniteRing, form: ZnLinearForm) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(form.evaluate(e) for e in row) for row in ring.mul_table)


def _gram_degeneracy(ring: FiniteRing, gram: Sequence[Sequence[int]], side: str):
    """_degeneracy of the gram's pairing; _gram_kernel lists zero, then the witness."""
    kernels = [lambda s=s: islice(_gram_kernel(ring, gram, s), 2) for s in ("first", "second")]
    return _degeneracy(side, kernels, ring.zero)


def is_nondegenerate(ring: FiniteRing, pairing: Callable, side: str = "both") -> bool:
    """side='right' reads the first-slot kernel, 'left' the second, 'both'
    the first (see _degeneracy).  The pairing must be Z-bilinear."""
    basis = ring.basis_elements
    return _gram_degeneracy(ring, [[pairing(a, b) for b in basis] for a in basis], side) is None


def associativity_violation(ring: FiniteRing, pairing: Callable):
    """First basis triple (i, j, l) with <e_i e_j, e_l> != <e_i, e_j e_l>.

    Only valid for Z_n-bilinear pairings, where checking basis triples
    suffices.  Returns None when the pairing is associative.
    """
    e = ring.basis_elements
    for i, j, l in product(range(ring.rank), repeat=3):
        if pairing(ring.mul(e[i], e[j]), e[l]) != pairing(e[i], ring.mul(e[j], e[l])):
            return (i, j, l)
    return None


def is_associative(ring: FiniteRing, pairing: Callable) -> bool:
    return associativity_violation(ring, pairing) is None


class FrobeniusFunctional:
    """A linear form whose multiplication pairing is nondegenerate both
    ways; construction raises DegenerateFormError otherwise (_degeneracy)."""

    def __init__(self, ring: FiniteRing, form: ZnLinearForm):
        self.ring = ring
        self.form = _as_form(ring, form)
        bad = _gram_degeneracy(ring, self.gram(), "both")
        if bad is not None:
            raise DegenerateFormError(*bad)

    @property
    def weights(self) -> tuple[int, ...]:
        return self.form.weights

    def evaluate(self, a: Element) -> int:
        return self.form.evaluate(a)

    __call__ = evaluate

    def pairing(self, a: Element, b: Element) -> int:
        return self.form.evaluate(self.ring.mul(a, b))

    def gram(self) -> tuple[tuple[int, ...], ...]:
        """Matrix of eps(e_i * e_j) over Z_n, read off the basis table."""
        return _functional_gram(self.ring, self.form)

    def __repr__(self) -> str:
        return f"FrobeniusFunctional(weights={self.weights})"


def find_frobenius_functional(ring: FiniteRing) -> FrobeniusFunctional | None:
    """First form, in weight-lexicographic order, that is Frobenius.

    A form is Frobenius iff its first-slot kernel {a : eps(a * b) = 0 for
    all b} is zero (see _degeneracy for the second slot), and x lies in
    that kernel iff eps(x * e_j) = 0 for every j, as b |-> eps(x * b) is
    additive.  The undecided forms are one int, a bitset of the form space
    with bit t for the t-th form (znmod._form_at), the zero form's bit
    clear unless R = 0: its first-slot kernel is R.  The lowest undecided
    form goes once to the verifying constructor, which decides it off its
    gram, and leaves the set: the first it accepts is returned.  A form it
    rejects leaves its witness x, the smallest nonzero member of its
    first-slot kernel, and every form that sends each of x * e_1, ...,
    x * e_k to 0 has x in its kernel too: that class is cleared at once
    (znmod._vanishing_forms), so no Python step is spent per form.  No
    units, radical or socle are read.  None when no form is Frobenius.

    A table of two or more blocks (finring._blocks) is searched block by
    block, after the cap check on its form space.  Its forms are the forms
    of the blocks, each on its block's coordinates with its weights scaled
    by n / char B, an order-keeping bijection (a coordinate of order 1 has
    weight 0); eps(a * b) adds the blocks' values, so a form's first-slot
    kernel is the product of the blocks' kernels.  The Frobenius forms are
    therefore a product set, empty iff some block has none, and as weight
    order compares the coordinates in index order, however the blocks
    interleave, the first has each block's first form on its coordinates.
    """
    _check_cap(ring.cardinality, "form space")
    n = ring.characteristic
    if blocks := _blocks(ring):
        weights = []
        for _, block in blocks:
            found = find_frobenius_functional(block)
            if found is None:
                return None
            weights.append([w * (n // block.characteristic) for w in found.weights])
        return FrobeniusFunctional(ring, ZnLinearForm(ring.shape, _on_blocks(ring, weights)))
    undecided = (1 << ring.cardinality) - (2 if ring.cardinality > 1 else 1)
    while undecided:
        lowest = undecided & -undecided
        undecided ^= lowest
        form = _form_at(ring.shape, lowest.bit_length() - 1)
        try:
            return FrobeniusFunctional(ring, form)
        except DegenerateFormError as error:
            images = [ring.mul(error.witness, e) for e in ring.basis_elements]
            undecided &= ~_vanishing_forms(ring.shape, images)
    return None


@dataclass(frozen=True)
class GeneratorEquivalenceReport:
    """The equivalent ways a functional generates the dual module.

    right_orbit_full: the translates b |-> eps(b * -) exhaust all forms.
    left_orbit_full: the translates b |-> eps(- * b) exhaust all forms.
    first_slot_bijective: a |-> eps(a * -) is injective (hence bijective).
    second_slot_bijective: b |-> eps(- * b) is injective.
    pairing_associative: <a, b> = eps(ab) satisfies <ab, c> = <a, bc>.
    """

    right_orbit_full: bool
    left_orbit_full: bool
    first_slot_bijective: bool
    second_slot_bijective: bool
    pairing_associative: bool

    @property
    def all_passed(self) -> bool:
        return all(astuple(self))


def verify_generator_equivalences(ring: FiniteRing, functional) -> GeneratorEquivalenceReport:
    """Check each dual-generation property of a candidate functional.

    Each slot's bijectivity is _gram_degeneracy of the functional's gram.
    Every translate is a form and R has as many forms as elements, so a
    translation map reaches every form iff it is injective: each orbit
    item is its slot's bijectivity.  The pairing is associative for every
    form, as the ring product is: every FiniteRing passed the associativity
    check on construction, so that item is read off the ring, not scanned
    (is_associative is the scan).
    """
    form = _as_form(ring, functional)
    gram = _functional_gram(ring, form)
    first, second = (_gram_degeneracy(ring, gram, side) is None for side in ("right", "left"))
    return GeneratorEquivalenceReport(
        right_orbit_full=first,
        left_orbit_full=second,
        first_slot_bijective=first,
        second_slot_bijective=second,
        pairing_associative=True,
    )


# -- annihilators in the ring ---------------------------------------------


def left_annihilator(ring: FiniteRing, subset: Iterable[Element]) -> Ideal:
    """{a : a * s = 0 for all s in the subset}; always a left ideal."""
    return Ideal("left", ring_orthogonal(ring, ring_generators(ring, subset)))


def right_annihilator(ring: FiniteRing, subset: Iterable[Element]) -> Ideal:
    """{a : s * a = 0 for all s in the subset}; always a right ideal."""
    return Ideal("right", left_annihilator(ring.opposite(), subset).elements)


def functional_left_orthogonal(
    ring: FiniteRing, functional, subset: Iterable[Element]
) -> frozenset[Element]:
    """{a : eps(a * s) = 0 for all s}.  For a Frobenius eps and a right
    ideal this coincides with the left annihilator."""
    form = _as_form(ring, functional)
    return ring_orthogonal(ring, ring_generators(ring, subset), form)


def functional_right_orthogonal(
    ring: FiniteRing, functional, subset: Iterable[Element]
) -> frozenset[Element]:
    """{b : eps(s * b) = 0 for all s}."""
    return functional_left_orthogonal(ring.opposite(), functional, subset)


# -- ambient forms on A^m --------------------------------------------------


class AmbientForm:
    """A-valued bilinear form <x, y> = sum x_i Q_ij y_j on A^m."""

    def __init__(self, ring: FiniteRing, m: int, matrix: Sequence[Sequence[Iterable[int]]]):
        if _ints((m,), "ambient length")[0] < 1:
            raise ValueError("ambient length must be positive")
        _check_table_cap(m, 2, "gram matrix")  # before any entry is read
        self.ring = ring
        self.m = m
        if len(matrix) != m or any(len(row) != m for row in matrix):
            raise ValueError(f"gram matrix must be {m}x{m}")
        self.matrix: tuple[tuple[Element, ...], ...] = tuple(
            tuple(ring.element(entry) for entry in row) for row in matrix
        )
        self._kernels: dict[str, frozenset[Vector]] = {}  # by side, as _unit_orthogonal

    @classmethod
    def _built(cls, ring: FiniteRing, m: int, matrix) -> "AmbientForm":
        """The form of a gram of reduced elements, without reading them again."""
        form = cls.__new__(cls)
        form.ring, form.m, form.matrix, form._kernels = ring, m, matrix, {}
        return form

    @property
    def cardinality(self) -> int:
        return self.ring.cardinality ** self.m

    def vectors(self) -> Iterator[Vector]:
        _check_power_cap(self.ring.cardinality, self.m, "ambient module")
        return product(self.ring.elements(), repeat=self.m)

    def pairing(self, x: Vector, y: Vector) -> Element:
        """sum x_i Q_ij y_j over the terms with x_i and y_j both nonzero."""
        R, zero = self.ring, self.ring.zero
        return reduce(R.add, (R.mul(R.mul(xi, q), yj)
                              for xi, row in zip(x, self.matrix, strict=True) if xi != zero
                              for q, yj in zip(row, y, strict=True) if yj != zero), zero)

    @cached_property
    def _basis_gram(self) -> tuple:
        """(rows, columns, fields, mask) of G[(p, k)][(j, l)] = <e_k at p,
        e_l at j> = e_k Q_pj e_l, in the packed layout (packed_fields):
        sum_i s_i G[i] sums r*m terms below n^2 per field, which r m n^2
        bounds.  r (1 + r) products per nonzero entry of Q, on the first
        orthogonal."""
        R, m, r = self.ring, self.m, self.ring.rank
        _check_table_cap(r * m, 2, "basis gram")
        pack, fields, mask = packed_fields(R.shape.orders, r * m * R.characteristic ** 2)
        rows = [[0] * (r * m) for _ in range(r * m)]
        for p, j in product(range(m), repeat=2):
            if any(self.matrix[p][j]):  # a reduced entry is nonzero
                for k, e in enumerate(R.basis_elements):
                    eq = R.mul(e, self.matrix[p][j])
                    rows[p * r + k][j * r:(j + 1) * r] = [pack(R.mul(eq, f))
                                                          for f in R.basis_elements]
        rows = tuple(map(tuple, rows))
        return rows, tuple(zip(*rows)), fields, mask

    def left_kernel(self) -> frozenset[Vector]:
        """First-slot kernel {x : <x, y> = 0 for all y}, which is {x : xQ = 0}
        as <x, y> = sum_q <x, 1_q> y_q: the left orthogonal of the unit vectors."""
        return self._unit_orthogonal("left")

    def right_kernel(self) -> frozenset[Vector]:
        """Second-slot kernel {y : <x, y> = 0 for all x}, which is {y : Qy = 0}
        as <x, y> = sum_p x_p <1_p, y>: the right orthogonal of the unit vectors."""
        return self._unit_orthogonal("right")

    def _unit_orthogonal(self, side: str) -> frozenset[Vector]:
        if side not in self._kernels:
            flatten = _word_layout(self.m, self.ring.rank)[0]
            units = list(map(flatten, identity_form(self.ring, self.m).matrix))
            self._kernels[side] = _linear_orthogonal(self, units, side)
        return self._kernels[side]

    def is_nondegenerate(self, side: str = "both") -> bool:
        """'right' checks the first-slot kernel, 'left' the second, 'both' the first."""
        kernels = (self.left_kernel, self.right_kernel)
        return _degeneracy(side, kernels, (self.ring.zero,) * self.m) is None


def identity_form(A: FiniteRing, m: int) -> AmbientForm:
    """<x, y> = sum x_i y_i, whose gram's rows are the unit vectors
    1_0, ..., 1_(m-1) of A^m, sliced from the reduced A.zero and A.one."""
    _check_table_cap(_ints((m,), "ambient length")[0], 2, "gram matrix")  # before building it
    if m < 1:
        raise ValueError("ambient length must be positive")
    zeros = (A.zero,) * m
    return AmbientForm._built(A, m, tuple(zeros[:i] + (A.one,) + zeros[i + 1:] for i in range(m)))


def _flat_orthogonal(form: AmbientForm, flats: list[Element], side: str,
                     functional: ZnLinearForm | None = None) -> Iterator[Element]:
    """{x : <x, s> = 0 for all s}, or {x : functional(<x, s>) = 0}, with x
    in the named slot, for flat vectors s, the r*m coordinates of words of
    A^m (znmod._word_layout), taken as they are: one _packed_orthogonal
    call over the r*m basis vectors of A^m, listing flat vectors in
    lexicographic order.

    By biadditivity the basis vector i of A^m pairs with s to
    sum_j s_j G[i][j] in the first slot and to sum_j s_j G[j][i] in the
    second, over the form's basis gram G (AmbientForm._basis_gram): the
    lines are G's rows or its columns, and no ring product is made once G
    is built."""
    if side not in ("left", "right"):
        raise ValueError(f"bad side {side!r}")
    _check_power_cap(form.ring.cardinality, form.m, "ambient module")
    rows, columns, fields, mask = form._basis_gram
    return _packed_orthogonal(form.ring.shape.orders * form.m, rows if side == "left" else columns,
                              fields, mask, form.ring.shape.orders, flats, functional)


def _linear_orthogonal(form: AmbientForm, flats: list[Element], side: str,
                       functional: ZnLinearForm | None = None) -> frozenset[Vector]:
    """_flat_orthogonal, each kernel vector cut back into a word by the
    layout's inverse."""
    flat = _flat_orthogonal(form, flats, side, functional)
    return frozenset(map(_word_layout(form.m, form.ring.rank)[1], flat))


def orthogonal(form: AmbientForm, subset: Iterable[Vector], side: str) -> frozenset[Vector]:
    """Ring-valued orthogonal of a subset, in the named slot.

    side='left' gives {x : <x, s> = 0 for all s}, side='right' gives
    {y : <s, y> = 0 for all s}.
    """
    return _linear_orthogonal(form, _flat_vectors(form.ring.shape, form.m, subset), side)


def functional_orthogonal(form: AmbientForm, functional, subset: Iterable[Vector],
                          side: str) -> frozenset[Vector]:
    """Z_n-valued orthogonal: composes the pairing with a functional.

    For a Frobenius functional on the alphabet this agrees with the
    ring-valued orthogonal on submodules of the matching side.
    """
    flats = _flat_vectors(form.ring.shape, form.m, subset)
    return _linear_orthogonal(form, flats, side, _as_form(form.ring, functional))
