"""Skew polynomials over a finite ring and their two-sided monic quotients.

In A[x; aut] the variable twists scalars as x * a = aut(a) * x, so the
product of coefficient lists is c_l = sum_{i+j=l} f_i * aut^i(g_j).  A
monic modulus f of degree m is two-sided when the left ideal A[x]f is
also a right ideal.  A[x] is generated as a ring by x and the basis
scalars a of A, so that holds iff f * a and f * x lie in A[x]f: iff
their left remainders by f are zero.  That remainder is the one test of
membership; it also builds the quotient's table and reduces polynomials.

When f is two-sided, left remainders of degree < m form a finite ring
with m * rank(A) additive generators.  If the constant coefficient of f
is a unit and A carries a Frobenius functional eps, then g |-> eps(g_0)
is a Frobenius functional on the quotient; construction re-verifies the
nondegeneracy instead of trusting it.

For f = x^m - 1 with aut^m = id the quotient also carries the involution
sum g_i x^i |-> sum aut^{-i}(g_i) x^{-i} (indices mod m), which reverses
products and links the Euclidean dual of a code to a form orthogonal.

Quotient elements are tuples of m coefficient elements of A, coefficient
index = degree, so they double directly as length-m codewords over A;
flatten and unflatten, the layout of A^m (znmod._word_layout), carry them
to the coordinates of the quotient's table ring and back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Sequence

from .znmod import (Element, ModuleShape, ZnLinearForm, _check_power_cap, _flat_vectors,
                    _word_layout, linear_kernel)
from .finring import FiniteRing, _derived_ring
from .frobenius import AmbientForm, FrobeniusFunctional, _as_form, identity_form

QElement = tuple[Element, ...]


class AutomorphismError(ValueError):
    """A candidate basis-image list does not define a ring automorphism."""


class NotTwoSidedError(ValueError):
    """The modulus does not generate a two-sided ideal."""

    def __init__(self, witness, message: str | None = None):
        self.witness = witness
        super().__init__(message or f"modulus is not two-sided, witness {witness!r}")


class UnsupportedModulusError(ValueError):
    """The operation is not defined, or not exact, for this modulus."""


class RingAutomorphism:
    """Ring automorphism of a FiniteRing, stored by basis images."""

    def __init__(self, ring: FiniteRing, images: Sequence[Iterable[int]]):
        self.ring = ring
        if len(images) != ring.rank:
            raise AutomorphismError(f"expected {ring.rank} images, got {len(images)}")
        self.images: tuple[Element, ...] = tuple(ring.element(im) for im in images)
        self._validate()

    def _validate(self):
        ring = self.ring
        orders = ring.shape.orders
        for i, im in enumerate(self.images):
            if ring.shape.element_order(im) > orders[i]:
                raise AutomorphismError(
                    f"image of basis {i} has additive order larger than {orders[i]}, "
                    "map is not well defined"
                )
        # image i of order o < d_i puts o * e_i in the kernel; else the map is additive
        if any(map(any, linear_kernel(orders, self.images, orders))):
            raise AutomorphismError("map is not a bijection")
        if self.apply(ring.one) != ring.one:
            raise AutomorphismError("map does not fix the identity")
        for i in range(ring.rank):
            for j in range(ring.rank):
                lhs = self.apply(ring.mul_table[i][j])
                rhs = ring.mul(self.images[i], self.images[j])
                if lhs != rhs:
                    raise AutomorphismError(
                        f"map is not multiplicative on basis pair ({i}, {j})"
                    )

    @classmethod
    def identity(cls, ring: FiniteRing) -> "RingAutomorphism":
        return cls(ring, ring.basis_elements)

    def _extend(self, images: tuple[Element, ...], a: Element) -> Element:
        out = self.ring.zero
        for i, c in enumerate(a):
            if c:
                out = self.ring.add(out, self.ring.scale(c, images[i]))
        return out

    def apply(self, a: Element) -> Element:
        return self._extend(self.images, a)

    @property
    def order(self) -> int:
        """Multiplicative order of the automorphism."""
        return len(self._tables)

    @cached_property
    def _tables(self) -> list[tuple[Element, ...]]:
        """Basis images of aut^0, ..., aut^(order-1); a bijection's walk ends."""
        ident = self.ring.basis_elements
        tables = [ident]
        current = self.images
        while current != ident:
            tables.append(current)
            current = tuple(self.apply(c) for c in current)
        return tables

    def apply_power(self, j: int, a: Element) -> Element:
        tables = self._tables
        return self._extend(tables[j % len(tables)], a)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingAutomorphism)
            and self.ring == other.ring
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.images))


# -- raw polynomial arithmetic (coefficient lists, index = degree) ---------


def poly_mul(ring: FiniteRing, aut: RingAutomorphism, f: Sequence[Element],
             g: Sequence[Element]) -> list[Element]:
    if not f or not g:
        return []
    out = [ring.zero] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi == ring.zero:
            continue
        for j, gj in enumerate(g):
            if gj == ring.zero:
                continue
            out[i + j] = ring.add(out[i + j], ring.mul(fi, aut.apply_power(i, gj)))
    return out


def poly_left_divmod(
    ring: FiniteRing, aut: RingAutomorphism, g: Sequence[Element], f: Sequence[Element]
) -> tuple[list[Element], list[Element]]:
    """Write g = q * f + r with deg r < deg f; requires f monic.

    Monicity makes the division exact without inverting lead terms: the
    quotient term killing degree D is lead(g) * x^(D - m).
    """
    m = len(f) - 1
    if m < 0 or f[m] != ring.one:
        raise ValueError("divisor must be monic")
    r = list(g)
    q = [ring.zero] * max(len(r) - m, 0)
    while len(r) > m:
        lead = r[-1]
        d = len(r) - 1 - m
        if lead != ring.zero:
            q[d] = ring.add(q[d], lead)
            for i, fi in enumerate(f):
                r[d + i] = ring.sub(r[d + i], ring.mul(lead, aut.apply_power(d, fi)))
        r.pop()
    return q, r


@dataclass(frozen=True)
class TwoSidedCheck:
    ok: bool
    reason: str | None = None
    witness: object = None


def check_two_sided(
    ring: FiniteRing, aut: RingAutomorphism, modulus: Sequence[Element]
) -> TwoSidedCheck:
    """Decide whether a monic modulus f is two-sided, by the definition:
    f * a for each basis scalar a, then f * x, leaves zero left remainder.

    A failure names its probe and the first nonzero degree of the
    remainder.  f * a leaves sum_{i<m} (f_i aut^i(a) - aut^m(a) f_i) x^i,
    zero iff f * a = aut^m(a) * f, hence "scalar-commutation"; f * x leaves
    what its one possible monic quotient x + c, c = f_{m-1} - aut(f_{m-1}),
    does not remove, hence "shift-quotient".  A modulus of degree 0, or
    one that is not monic, is refused with a ValueError; SkewQuotient
    relies on this refusal.
    """
    m = len(modulus) - 1
    if m < 1:
        raise ValueError("modulus must have degree at least 1")
    if modulus[m] != ring.one:
        raise ValueError("modulus must be monic")
    probes = [("scalar-commutation", [a], {"basis": idx})
              for idx, a in enumerate(ring.basis_elements)]
    probes.append(("shift-quotient", [ring.zero, ring.one], {}))
    for reason, g, witness in probes:
        _, r = poly_left_divmod(ring, aut, poly_mul(ring, aut, modulus, g), modulus)
        for i, c in enumerate(r):
            if c != ring.zero:
                return TwoSidedCheck(False, reason, {**witness, "degree": i})
    return TwoSidedCheck(True)


class SkewQuotient:
    """The finite ring A[x; aut] / (f) for a monic two-sided f.

    flatten and unflatten are the layout of A^m at (m, rank A), shared with
    every other route on words of A^m (znmod._word_layout): an element, a
    word of m coefficients, and its m * rank(A) coordinates in the table
    ring (as_finite_ring).  flatten refuses, with a ValueError naming it,
    a word that is not a tuple of m entries of rank(A) coordinates each;
    whether the coordinates are an element is read where elements are
    checked, in the table ring.  The arithmetic (add, neg, mul, reversal,
    constant_term_product) reads each argument through
    znmod._flat_vectors, which refuses a word that is not an element."""

    def __init__(self, base: FiniteRing, aut: RingAutomorphism,
                 modulus: Sequence[Iterable[int]], *, label: str | None = None):
        self.base = base
        self.aut = aut
        self.modulus: tuple[Element, ...] = tuple(base.element(c) for c in modulus)
        self.m = len(self.modulus) - 1
        self.flatten, self.unflatten = _word_layout(self.m, base.rank)
        self.label = label
        if aut.ring != base:
            raise ValueError("automorphism acts on a different ring")
        verdict = check_two_sided(base, aut, self.modulus)
        if not verdict.ok:
            raise NotTwoSidedError((verdict.reason, verdict.witness))
        if not base.is_unit(self.modulus[0]):
            raise ValueError("constant coefficient of the modulus must be a unit")

    # -- element plumbing --------------------------------------------------

    @property
    def cardinality(self) -> int:
        return self.base.cardinality ** self.m

    @property
    def zero(self) -> QElement:
        return (self.base.zero,) * self.m

    @property
    def one(self) -> QElement:
        return self.embed_scalar(self.base.one)

    def embed_scalar(self, a: Element) -> QElement:
        return (a,) + (self.base.zero,) * (self.m - 1)

    def shift_generator(self) -> QElement:
        """The class of x (reduced, so for m = 1 it is a scalar)."""
        return self.reduce_poly((self.base.zero, self.base.one))

    def elements(self) -> Iterator[QElement]:
        _check_power_cap(self.base.cardinality, self.m, "skew quotient")
        return product(self.base.elements(), repeat=self.m)

    def reduce_poly(self, coeffs: Sequence[Element]) -> QElement:
        _, r = poly_left_divmod(self.base, self.aut, list(coeffs), list(self.modulus))
        return tuple(r) + (self.base.zero,) * (self.m - len(r))

    # -- arithmetic --------------------------------------------------------

    def add(self, g: QElement, h: QElement) -> QElement:
        _flat_vectors(self.base.shape, self.m, (g, h))
        return tuple(self.base.add(a, b) for a, b in zip(g, h))

    def neg(self, g: QElement) -> QElement:
        _flat_vectors(self.base.shape, self.m, (g,))
        return tuple(self.base.neg(a) for a in g)

    def mul(self, g: QElement, h: QElement) -> QElement:
        """The ring product, read off the quotient's structure table."""
        return self.unflatten(self._table_ring.mul(*_flat_vectors(self.base.shape, self.m, (g, h))))

    def constant_term_product(self, g: QElement, h: QElement) -> Element:
        """Closed form for the constant coefficient of g * h:

            (gh)_0 = g_0 h_0 - sum_{i=1}^{m-1} g_{m-i} aut^{m-i}(h_i) f_0

        Reducing a term of degree D > m writes into degrees D - m + j for
        the nonzero f_j, and lands on degree m (whence on the constant
        term) exactly when j = 2m - D, so 2 <= j <= m - 1.  The formula is
        therefore exact when f_j = 0 for every 2 <= j <= m - 1 (always for
        m <= 2); other moduli raise UnsupportedModulusError.
        """
        base, aut = self.base, self.aut
        if any(c != base.zero for c in self.modulus[2:self.m]):
            raise UnsupportedModulusError(
                "constant-term closed form needs f_j = 0 for 2 <= j <= m - 1"
            )
        _flat_vectors(base.shape, self.m, (g, h))
        out = base.mul(g[0], h[0])
        f0 = self.modulus[0]
        for i in range(1, self.m):
            term = base.mul(base.mul(g[self.m - i], aut.apply_power(self.m - i, h[i])), f0)
            out = base.sub(out, term)
        return out

    # -- the quotient as a plain finite ring -------------------------------

    def as_finite_ring(self) -> FiniteRing:
        """Structure-constant presentation on the basis e_i x^j, within the cap.

        The additive orders of A repeat once per degree.  The table is not
        validated again: the quotient is a ring once aut is checked to be an
        automorphism and f to be two-sided (_table_ring).
        """
        _check_power_cap(self.base.cardinality, self.m, "skew quotient")  # before the table
        return self._table_ring

    @cached_property
    def _table_ring(self) -> FiniteRing:
        """The uncapped table ring behind mul, built on first use.

        Its basis products are left remainders of skew products, so the
        polynomial arithmetic only builds the table (and is its oracle).
        It is placed as one copy (finring._derived_ring) with no
        presentation check: the constructor has checked that aut is an
        automorphism and f two-sided, so A[x; aut]/(f) is a ring.
        """
        base = self.base
        shape = ModuleShape(base.characteristic, base.shape.orders * self.m)
        basis = [[e if d == j else base.zero for d in range(self.m)]
                 for j in range(self.m) for e in base.basis_elements]  # e_i x^j
        table = [[self.flatten(self.reduce_poly(poly_mul(base, self.aut, g, h)))
                  for h in basis] for g in basis]
        return _derived_ring(shape, [(0, 0, 0, table)], self.flatten(self.one),
                             self.label or "skew-quotient")

    @cached_property
    def euclidean_form(self) -> AmbientForm:
        """The identity form on A^m, built once, on first use: a code's
        first-slot orthogonal under it is the code's Euclidean dual."""
        return identity_form(self.base, self.m)

    # -- Frobenius structure ----------------------------------------------

    def frobenius_functional(self, base_functional) -> FrobeniusFunctional:
        """Lift eps on A to g |-> eps(g_0) on the quotient ring.

        The base functional must itself be Frobenius (validated here when
        a raw form is passed).  The lifted form is provably nondegenerate
        for a unit constant coefficient; the FrobeniusFunctional
        constructor still re-verifies it and raises DegenerateFormError
        rather than passing silently.
        """
        if not isinstance(base_functional, FrobeniusFunctional):
            FrobeniusFunctional(self.base, base_functional)  # validates, raises if degenerate
        return FrobeniusFunctional(self.as_finite_ring(), self.lifted_form(base_functional))

    def lifted_form(self, base_functional) -> ZnLinearForm:
        """The form g |-> eps(g_0) on the quotient ring, unchecked."""
        ring = self.as_finite_ring()
        weights = _as_form(self.base, base_functional).weights
        return ZnLinearForm(ring.shape, weights + (0,) * (ring.rank - len(weights)))

    # -- the reversal involution ------------------------------------------

    def has_cyclic_modulus(self) -> bool:
        """True when f = x^m - 1 and aut^m = id."""
        return self._cyclic_modulus

    @cached_property
    def _cyclic_modulus(self) -> bool:
        """has_cyclic_modulus, decided on first use: f and aut never
        change, and every reversal asks it."""
        base, f = self.base, self.modulus
        return (f[0] == base.neg(base.one) and all(c == base.zero for c in f[1:self.m])
                and self.m % self.aut.order == 0)

    def reversal(self, g: QElement) -> QElement:
        """The involution sum g_i x^i |-> sum aut^{-i}(g_i) x^{(m-i) mod m}.

        Defined only for f = x^m - 1 with aut^m = id, where x is a unit
        with inverse x^{m-1}.  Additive, fixes 1, and reverses products.
        """
        if not self._cyclic_modulus:
            raise UnsupportedModulusError(
                "reversal needs modulus x^m - 1 and automorphism order dividing m"
            )
        _flat_vectors(self.base.shape, self.m, (g,))
        out = [self.base.zero] * self.m
        for i, gi in enumerate(g):  # aut^-i is the identity where the order divides i
            out[(self.m - i) % self.m] = self.aut.apply_power(-i, gi) if i % self.aut.order else gi
        return tuple(out)

    def __repr__(self) -> str:
        return f"<SkewQuotient deg {self.m} over {self.base!r}>"
