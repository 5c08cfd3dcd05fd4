"""Finite unital rings presented by additive generators and structure constants.

A FiniteRing is a Z_n-algebra: an additive group Z_{d_1} x ... x Z_{d_k}
(each d_i dividing n) together with a multiplication table for the basis
vectors e_1, ..., e_k and a distinguished identity element.  Products of
arbitrary elements come from extending the table Z-bilinearly, which is
well defined exactly when d_i * (e_i e_j) = d_j * (e_i e_j) = 0 holds for
every table entry.  Construction validates well-definedness, associativity
and the unit laws on the basis, and that the additive order of 1 equals n,
so the characteristic really is n.

Products run on packed structure constants: each table entry is one int
with a field per coordinate, wide enough that a product's field sums never
carry, so a * b costs rank^2 int multiply-adds (FiniteRing.mul).  The
validation runs on the same packed table: associativity is compared on
basis triples, all (e_i e_j) e_l against all e_i (e_j e_l) for one pair
(i, j) at a time as two big-int contractions, so both table checks take
rank^2 Python steps and construction multiplies only for the unit laws
(table_validation_report).

Structural computations enumerate the element list, sized for rings of a
few thousand elements, but use the ring structure to avoid scanning all
pairs of elements:

* units and nilpotents come from one walk of powers a, a^2, ..., since
  a is a unit (nilpotent) iff any power a^i, i >= 1, is one;
* the Jacobson radical holds every nil one-sided ideal and is nil, so x
  is in it iff the left ideal R x is nil; only nilpotent candidates are
  tested, R x is spanned lazily from e_1 x, ..., e_k x until a member is
  not nilpotent, and candidates inside the additive span of the members
  found so far are skipped; that span's generators are kept;
* socles are the annihilators of those radical generators, which by
  bilinearity is the annihilator of the whole radical (ring_orthogonal);
* the Frobenius test looks for a single socle generator on each side,
  comparing the additive span of s*e_1, ..., s*e_k (which is s*R) with
  the socle by size;
* submodule lattices are built on znmod.packed_arithmetic codes, which
  sort like the tuples and add in five int operations.

Right-handed notions are the left-handed ones of the opposite ring: the
validated table transposed, whose checks carry over, built once on demand
(FiniteRing.opposite).  Rings cache all this, a ring and its opposite in
one shared record where the side does not matter; treat them as immutable.
"""

from __future__ import annotations

import copy
import operator
import weakref
from dataclasses import dataclass
from itertools import product
from math import gcd, lcm
from typing import Iterable, Sequence

from .znmod import (
    Element,
    EnumerationCapError,
    ModuleShape,
    _check_power_cap,
    _int_vectors,
    _ints,
    additive_closure,
    additive_generators,
    enumerate_module,
    extend_span,
    linear_kernel,
    packed_arithmetic,
)


class RingValidationError(ValueError):
    """A structure-constant presentation failed a ring axiom.

    Carries the failed check's name and a witness (indices or elements)."""

    def __init__(self, check: str, witness=None, message: str | None = None):
        self.check = check
        self.witness = witness
        super().__init__(message or f"{check} failed, witness {witness!r}")


@dataclass(frozen=True)
class Ideal:
    """A one- or two-sided ideal given by its element set."""

    side: str  # 'left', 'right' or 'two-sided'
    elements: frozenset[Element]

    def __post_init__(self):
        if self.side not in ("left", "right", "two-sided"):
            raise ValueError(f"bad ideal side {self.side!r}")

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __iter__(self):
        return iter(sorted(self.elements))

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class SocleCertificate:
    """Outcome of the socle-generator Frobenius test, with witnesses."""

    is_frobenius: bool
    radical_size: int
    right_socle_size: int
    left_socle_size: int
    right_witness: Element | None
    left_witness: Element | None

    def __bool__(self) -> bool:
        return self.is_frobenius


class FiniteRing:
    """Finite unital ring over Z_n given by structure constants.  Its additive
    basis, basis_elements, stands in for every scalar wherever a biadditive
    product is tested or spanned: R * v is the span of e_1 * v, ..., e_k * v."""

    def __init__(
        self,
        shape: ModuleShape,
        mul_table: Sequence[Sequence[Iterable[int]]],
        one: Iterable[int],
        *,
        label: str | None = None,
        cayley: Sequence[Sequence[int]] | None = None,
    ):
        self.shape = shape
        k = shape.rank
        if len(mul_table) != k or any(len(row) != k for row in mul_table):
            raise RingValidationError(
                "table-shape", (len(mul_table), k), f"multiplication table must be {k}x{k}"
            )
        self.mul_table: tuple[tuple[Element, ...], ...] = tuple(
            tuple(map(shape.reduce, _int_vectors(row, "table entry"))) for row in mul_table
        )
        self.one: Element = shape.reduce(_ints(one, "identity"))
        # reduce: a coordinate of order 1 has no generator besides 0
        self.basis_elements: tuple[Element, ...] = tuple(
            shape.reduce(1 if j == i else 0 for j in range(k)) for i in range(k))
        # each table entry as one int, coordinate l in bits [W l, W (l + 1)):
        # a field of a product sums k^2 terms a_i b_j e_ij[l] < n^3, so with
        # 2^W > k^2 n^3 it never carries into the next
        width = (k * k * shape.n ** 3).bit_length()
        shifts = [width * l for l in range(k)]
        self._packed_table = tuple(
            tuple(sum(map(operator.lshift, e, shifts)) for e in row) for row in self.mul_table)
        self._fields = tuple(zip(shifts, shape.orders))
        self._field_mask = (1 << width) - 1
        self.label = label
        self.cayley = tuple(tuple(row) for row in cayley) if cayley is not None else None
        self._side_free: dict[str, object] = {}  # by name, shared with the opposite
        self._socles: dict[str, Ideal] = {}
        # the opposite ring, held weakly by an opposite for its original
        self._opposite: FiniteRing | weakref.ref | None = None
        for check_name, ok, witness in table_validation_report(self):
            if not ok:
                raise RingValidationError(check_name, witness)

    # -- basic structure ---------------------------------------------------

    @property
    def rank(self) -> int:
        return self.shape.rank

    @property
    def characteristic(self) -> int:
        return self.shape.n

    @property
    def cardinality(self) -> int:
        return self.shape.cardinality

    @property
    def zero(self) -> Element:
        return self.shape.zero

    def basis(self, i: int) -> Element:
        return self.basis_elements[i]

    def element(self, coords: Iterable[int]) -> Element:
        return self.shape.reduce(_ints(coords, "coordinate"))

    def elements(self) -> tuple[Element, ...]:
        known = self._side_free
        if "elements" not in known:
            known["elements"] = tuple(enumerate_module(self.shape))
        return known["elements"]

    # -- arithmetic --------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        return self.shape.add(a, b)

    def sub(self, a: Element, b: Element) -> Element:
        return self.shape.sub(a, b)

    def neg(self, a: Element) -> Element:
        return self.shape.neg(a)

    def scale(self, c: int, a: Element) -> Element:
        return self.shape.scale(c, a)

    def mul(self, a: Element, b: Element) -> Element:
        """Product by Z-bilinear extension of the basis table, on packed
        entries: a * b = sum_i a_i (sum_j b_j e_i e_j), rank^2 int
        multiply-adds, then one shift, mask and reduction per coordinate."""
        acc = 0
        for ai, row in zip(a, self._packed_table):
            if ai:
                acc += ai * sum(map(operator.mul, b, row))
        mask = self._field_mask
        return tuple([((acc >> shift) & mask) % d for shift, d in self._fields])

    def units(self) -> frozenset[Element]:
        """Units by one walk of powers per undecided element.

        A walk a, a^2, ... stops at 1 (a unit), at 0 (nilpotent), at an
        earlier power (neither: a unit's powers reach 1 and a nilpotent's
        reach 0 before they repeat) or at an element already decided.  As
        a is a unit (nilpotent) iff a^i is, for any i >= 1, the walk
        decides every power it passed.  Each product yields a newly
        decided element, so the walks make fewer than |R| products.
        """
        known = self._side_free
        if "units" not in known and self.one == self.zero:  # the zero ring: 0 is both
            known["units"] = known["nilpotents"] = frozenset({self.zero})
        if "units" not in known:
            memo: dict[Element, str] = {self.zero: "nilpotent", self.one: "unit"}
            for a in self.elements():
                if a in memo:
                    continue
                powers = [a]
                seen = {a}
                x = self.mul(a, a)
                while x not in memo and x not in seen:
                    powers.append(x)
                    seen.add(x)
                    x = self.mul(x, a)
                kind = memo.get(x, "neither")
                for p in powers:
                    memo[p] = kind
            known["units"] = frozenset(x for x, kind in memo.items() if kind == "unit")
            known["nilpotents"] = frozenset(x for x, kind in memo.items() if kind == "nilpotent")
        return known["units"]

    def nilpotents(self) -> frozenset[Element]:
        """Nilpotent elements, found by the same power walk as the units."""
        self.units()
        return self._side_free["nilpotents"]

    def is_unit(self, a: Element) -> bool:
        return a in self.units()

    # -- radical and socle -------------------------------------------------

    def jacobson_radical(self) -> Ideal:
        """Radical as the x whose left ideal R x is nil.

        Every nil one-sided ideal lies in the radical, and the radical is
        nil, so x is in it iff each member of R x is nilpotent (Lam, A First
        Course in Noncommutative Rings, GTM 131).  R x is the additive span
        of e_1 x, ..., e_k x, grown lazily (extend_span) until a member is
        not nilpotent: rank products and at most |R x| additions.  Only
        nilpotents are candidates, in sorted order, and one already in the
        span of the members found is not tested again.  Those members are
        kept as the radical's additive generators (radical_generators)."""
        known = self._side_free
        if "radical" not in known:
            nil = self.nilpotents()
            gens: list[Element] = []
            rad = {self.zero}
            for x in sorted(nil):
                if x in rad:
                    continue
                rx = {self.zero}
                if all(y in nil for e in self.basis_elements
                       for y in extend_span(rx, self.mul(e, x), self.add)):
                    gens.append(x)
                    for _ in extend_span(rad, x, self.add):
                        pass
            known["radical"] = Ideal("two-sided", frozenset(rad)), tuple(gens)
        return known["radical"][0]

    def radical_generators(self) -> tuple[Element, ...]:
        """Additive generators of the Jacobson radical."""
        self.jacobson_radical()
        return self._side_free["radical"][1]

    def socle(self, side: str) -> Ideal:
        """Annihilator of the radical: right socle kills the radical from
        the left (x * J = 0), left socle from the right (J * x = 0).  By
        bilinearity it is enough to annihilate J's additive generators."""
        if side not in ("left", "right"):
            raise ValueError(f"bad socle side {side!r}")
        if side not in self._socles:
            ring = self if side == "right" else self.opposite()
            soc = ring_orthogonal(self, self.radical_generators(), ring.mul, self.shape.orders)
            self._socles[side] = Ideal(side, soc)
        return self._socles[side]

    def opposite(self) -> "FiniteRing":
        """The same module with a * b computed as b * a: this ring with the
        basis table transposed, built once and not validated again, as each
        check carries over (entry (i, j) tests both d_i and d_j, the
        opposite's associativity at (i, j, l) is this ring's at (l, j, i),
        the unit laws swap sides).  The two share one record of elements,
        units, nilpotents and the radical (J(R) = J(R^op)), whichever finds
        them, and keep their own socles.  It holds this ring weakly (no
        reference cycle) and rebuilds it, on the same record, if it is gone."""
        op = self._opposite
        if isinstance(op, weakref.ref):
            op = op()
        if op is None:
            op = copy.copy(self)
            op.mul_table = tuple(zip(*self.mul_table))
            op._packed_table = tuple(zip(*self._packed_table))
            op._socles = {}
            op.label = f"{self.label}^op" if self.label else None
            op.cayley = None if self.cayley is None else tuple(zip(*self.cayley))
            op._opposite = weakref.ref(self)
            self._opposite = op
        return op

    # -- conveniences ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteRing)
            and self.shape == other.shape
            and self.mul_table == other.mul_table
            and self.one == other.one
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.mul_table, self.one))

    def __repr__(self) -> str:
        name = self.label or "FiniteRing"
        return f"<{name}: char {self.characteristic}, orders {self.shape.orders}>"


# the presentation checks every ring passes on construction, in order
TABLE_CHECKS = ("bilinear-well-defined", "associativity", "unit-laws", "characteristic")


def table_validation_report(ring: FiniteRing) -> list[tuple[str, bool, object]]:
    """Run every presentation check, returning (name, ok, witness) rows.

    Checks run in dependency order; a bilinearity failure makes the later
    product-based checks meaningless, so they are skipped once it fails.
    A witness is the first failing index in lexicographic order: (i, j, l)
    for the table checks, a basis index for the unit laws.

    Both table checks take rank^2 Python steps.  The product is well
    defined iff every coordinate l of e_i e_j is divisible by d_l /
    gcd(d_i, d_l) and by d_l / gcd(d_j, d_l), which is 1 for every l when
    d_i = n.  Associativity is checked on the triples of basis elements of
    order above 1 (one of order 1 is 0), on the packed table of W-bit
    fields, all l at once, in blocks of B = W k bits (one packed entry),
    one block per l.  rows[p] holds e_p e_l in block l, and coeffs[q], for
    one j at a time, c_jlq, the q-th coordinate of e_j e_l.  Then sum_p
    c_ijp rows[p] holds (e_i e_j) e_l and sum_q (e_i e_q) coeffs[q] holds
    e_i (e_j e_l) in block l, unreduced.  A field sums at most k products
    below n^2, so it never carries.  Equal ints settle the pair.
    Otherwise the blocks are compared field by field mod d, and the first
    that differs is a witness; only a smaller i can give a lesser one.
    """
    bilinear, associative, unital, characteristic = TABLE_CHECKS
    shape = ring.shape
    k = shape.rank
    orders = shape.orders
    table = ring.mul_table
    report: list[tuple[str, bool, object]] = []

    witness = None
    # d_i e_ij[l] = 0 in Z_(d_l) iff d_l / gcd(d_i, d_l) divides e_ij[l]; a
    # divisor 1 checks nothing, so each list stops at its last one above 1
    divisors = {}
    for d in set(orders):
        m = [o // gcd(d, o) for o in orders]
        while m and m[-1] == 1:
            m.pop()
        divisors[d] = m
    for i, j in product(range(k), repeat=2):
        e, di, dj = table[i][j], divisors[orders[i]], divisors[orders[j]]
        if any(map(operator.mod, e, di)) or any(map(operator.mod, e, dj)):
            witness = (i, j, next(l for l, c in enumerate(e)
                                  if orders[i] * c % orders[l] or orders[j] * c % orders[l]))
            break
    report.append((bilinear, witness is None, witness))
    if witness is not None:
        return report

    witness = None
    live = [i for i in range(k) if orders[i] > 1]
    packed, fields, mask = ring._packed_table, ring._fields, ring._field_mask
    block = mask.bit_length() * k  # B, the bits of one packed entry
    rows = [0] * k  # 0 where e_p = 0
    for p in live:
        rows[p] = sum(packed[p][l] << block * t for t, l in enumerate(live))
    spread = sum(mask << block * t for t in range(len(live)))  # field 0 of every block

    def reduced(x, t):  # block t of x, reduced field by field
        x >>= block * t
        return [(x >> shift & mask) % d for shift, d in fields]

    for j in live:
        coeffs = [(rows[j] >> shift) & spread for shift, _ in fields]
        for i in live:
            if witness is not None and i >= witness[0]:
                break
            left = sum(map(operator.mul, table[i][j], rows))
            right = sum(map(operator.mul, packed[i], coeffs))
            if left != right:
                witness = next(((i, j, l) for t, l in enumerate(live)
                                if reduced(left, t) != reduced(right, t)), witness)
    report.append((associative, witness is None, witness))

    witness = next((i for i, e in enumerate(ring.basis_elements)
                    if ring.mul(ring.one, e) != e or ring.mul(e, ring.one) != e), None)
    report.append((unital, witness is None, witness))

    order_of_one = shape.element_order(ring.one)
    report.append((characteristic, order_of_one == shape.n, (order_of_one, shape.n)))
    return report


# -- constructors ----------------------------------------------------------


def ring_zn(n: int, *, label: str | None = None) -> FiniteRing:
    """The ring Z_n itself; n = 1 gives the zero ring."""
    shape = ModuleShape(n, (n,))
    return FiniteRing(shape, (((1,),),), (1,), label=label or f"Z{n}")


def ring_from_table(
    n: int,
    orders: Sequence[int],
    mul: Sequence[Sequence[Iterable[int]]],
    one: Iterable[int],
    *,
    label: str | None = None,
) -> FiniteRing:
    """Build and fully validate a ring from an explicit presentation."""
    return FiniteRing(ModuleShape(n, tuple(orders)), mul, one, label=label)


def ring_product(*rings: FiniteRing, label: str | None = None) -> FiniteRing:
    """Direct product; the characteristic is the lcm of the factors'."""
    if not rings:
        raise ValueError("product needs at least one factor")
    n = lcm(*(r.characteristic for r in rings))
    orders: list[int] = []
    for r in rings:
        orders.extend(r.shape.orders)
    shape = ModuleShape(n, tuple(orders))
    k = shape.rank
    table = [[shape.zero] * k for _ in range(k)]
    off = 0  # each factor's block of coordinates starts here
    for r in rings:
        pad = (0,) * off, (0,) * (k - off - r.rank)
        for i, j in product(range(r.rank), repeat=2):
            table[off + i][off + j] = pad[0] + r.mul_table[i][j] + pad[1]
        off += r.rank
    one = tuple(c for r in rings for c in r.one)
    return FiniteRing(shape, table, one, label=label)


def ring_matrix(base: FiniteRing, t: int, *, label: str | None = None) -> FiniteRing:
    """t x t matrices over base, basis E_pq e_i ordered by (p, q, i)."""
    if _ints((t,), "matrix size")[0] < 1:
        raise ValueError("matrix size must be positive")
    _check_power_cap(base.cardinality, t * t, "matrix ring")
    k0 = base.rank
    k = t * t * k0
    # The table holds k^3 ints, charged to the cap once 2^k exceeds it: a
    # base without coordinates of order 1 has |R| >= 2^k, which the check
    # above bounds, so only a base like the zero ring, of one element at
    # any k, reaches the charge.
    try:
        _check_power_cap(2, k, "matrix ring")
    except EnumerationCapError:
        _check_power_cap(k, 3, "matrix ring table")
    orders = tuple(base.shape.orders[i] for _ in range(t * t) for i in range(k0))
    shape = ModuleShape(base.characteristic, orders)

    def flat(p: int, q: int, i: int) -> int:
        return (p * t + q) * k0 + i

    table = [[shape.zero] * k for _ in range(k)]
    # E_pq E_rs vanishes unless r = q, where it is E_ps
    for p, q, s in product(range(t), repeat=3):
        pad = (0,) * flat(p, s, 0), (0,) * (k - flat(p, s, k0))
        for i, j in product(range(k0), repeat=2):
            table[flat(p, q, i)][flat(q, s, j)] = pad[0] + base.mul_table[i][j] + pad[1]
    one = tuple(c for p, q in product(range(t), repeat=2)
                for c in (base.one if p == q else base.zero))
    return FiniteRing(shape, table, one, label=label or f"M{t}({base.label})")


def ring_group_algebra(
    n: int, cayley: Sequence[Sequence[int]], *, label: str | None = None
) -> FiniteRing:
    """Group algebra Z_n[G] from a Cayley table (indices into the group).

    The table must be a finite group: a Latin square with a two-sided
    identity and associative composition.  The group basis is kept on the
    ring (attribute ``cayley``) so duality helpers can invert elements.
    """
    g = len(cayley)
    if g < 1 or any(len(row) != g for row in cayley):
        raise RingValidationError("group-table-shape", g, "Cayley table must be square")
    rows = _int_vectors(cayley, "Cayley entry")
    for kind, lines in (("row", rows), ("column", zip(*rows))):
        for idx, line in enumerate(lines):
            if sorted(line) != list(range(g)):
                raise RingValidationError("group-table-latin", (kind, idx))
    identity = next((e for e in range(g)
                     if all(rows[e][x] == x and rows[x][e] == x for x in range(g))), None)
    if identity is None:
        raise RingValidationError("group-identity", None, "no two-sided identity")
    for a, b, c in product(range(g), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            raise RingValidationError("group-associativity", (a, b, c))

    shape = ModuleShape(n, (n,) * g)
    table = [
        [tuple(1 if l == rows[i][j] else 0 for l in range(g)) for j in range(g)]
        for i in range(g)
    ]
    one = tuple(1 if l == identity else 0 for l in range(g))
    return FiniteRing(shape, table, one, label=label or f"Z{n}[G{g}]", cayley=rows)


# -- ideal machinery -------------------------------------------------------


def ring_generators(ring: FiniteRing, subset: Iterable) -> list[Element]:
    """additive_generators of the subset, refusing the first non-element:
    none is in the span of the elements kept before it, so each is kept."""
    gens = additive_generators(subset, ring.add, ring.zero)
    for g in gens:
        if not ring.shape.contains(g):
            raise ValueError(f"{g!r} is not an element of {ring!r}")
    return gens


def ring_orthogonal(ring: FiniteRing, gens, pairing, codomain) -> frozenset[Element]:
    """{a : pairing(a, g) = 0 for every g in gens}: one linear_kernel call on
    the pairing's values at the basis, rank * |gens| pairings.  pairing must
    be additive in its first slot, with values in the codomain's orders;
    for a biadditive pairing this is the orthogonal of everything gens span."""
    gens = list(gens)
    images = [tuple(c for g in gens for c in pairing(e, g)) for e in ring.basis_elements]
    return frozenset(linear_kernel(ring.shape.orders, images, tuple(codomain) * len(gens)))


def submodule_violation(elems, add, zero, scalars, act):
    """First witness that elems is not a submodule, or None when it is one.

    The one submodule test: ('zero', zero) when zero is missing, then
    ('sum', (a, b)) for a + b outside, then ('scalar', (r, a)) for
    act(r, a) outside, with r running over scalars (none for a bare
    additive subgroup).  As the action is biadditive, scalars may be any
    additive generating set of the acting ring; callers pass its basis.
    Sums are tested against generators only: in sorted order, each b
    outside the span of those before must keep elems + b inside elems, so
    elems is closed under its own span, at about |elems| log|elems| adds.
    """
    if zero not in elems:
        return ("zero", zero)
    ordered, spanned = sorted(elems), {zero}
    for b in ordered:
        if b not in spanned:
            for a in ordered:
                if add(a, b) not in elems:
                    return ("sum", (a, b))
            for _ in extend_span(spanned, b, add):
                pass
    for r, a in product(scalars, elems):
        if act(r, a) not in elems:
            return ("scalar", (r, a))
    return None


def is_left_ideal(ring: FiniteRing, elems: frozenset[Element]) -> bool:
    return submodule_violation(elems, ring.add, ring.zero, ring.basis_elements, ring.mul) is None


def is_right_ideal(ring: FiniteRing, elems: frozenset[Element]) -> bool:
    return is_left_ideal(ring.opposite(), elems)


def _cyclic_submodules(orders, vectors, scalars, act) -> tuple:
    """(cyclic submodules, add, decode) on the packed codes of vectors
    (see submodule_lattice), one per vector: the additive span of the
    act(g, v), g in scalars (an additive generating set)."""
    encode, add = packed_arithmetic(orders)
    code = {v: encode(c) for v, c in zip(vectors, product(*map(range, orders)), strict=True)}
    cyclic = {additive_closure([code[act(g, v)] for g in scalars], add, 0) for v in code}
    return cyclic, add, {c: v for v, c in code.items()}


def submodule_lattice(orders, vectors, scalars, act) -> list[frozenset]:
    """Every submodule spanned by vectors under the scalar action, sorted
    by size, then members: the one lattice closure.  As the action is
    biadditive, scalars may be any additive generating set of the acting
    ring; callers pass its basis.  vectors must list the module, flattened
    to coordinates of the given orders, in lexicographic coordinate order.
    It is built on their packed codes (znmod.packed_arithmetic), which
    sort the same way, and decoded once, at the end.

    Each submodule is the sum of the cyclic submodules of its members
    (cf. Wood, Amer. J. Math. 121, 1999), each the span of the act(g, v),
    so the lattice is their additive closure under I + C, from {0}.
    A sum is built one coset I + c at a time, skipping every c already in
    it: I is a subgroup, so if c = i + c' then I + c = I + c'.  That makes
    |I + C| packed additions, five int operations each, not |I| * |C|.
    """
    cyclic, add, decode = _cyclic_submodules(orders, vectors, scalars, act)

    def plus(I: frozenset, C: frozenset) -> frozenset:
        if C <= I:  # every member is a subgroup, so I + C = I
            return I
        out = set(I)
        for c in C:
            if c not in out:
                out.update(add(i, c) for i in I)
        return frozenset(out)

    lattice = additive_closure(cyclic, plus, frozenset({0}))
    return [frozenset(map(decode.__getitem__, s))
            for s in sorted(lattice, key=lambda s: (len(s), sorted(s)))]


def cyclic_left_ideals(ring: FiniteRing) -> set[frozenset[Element]]:
    """The principal left ideals R*a for every a (images of right mult)."""
    cyclic, _, decode = _cyclic_submodules(ring.shape.orders, ring.elements(),
                                           ring.basis_elements, ring.mul)
    return {frozenset(map(decode.__getitem__, s)) for s in cyclic}


def cyclic_right_ideals(ring: FiniteRing) -> set[frozenset[Element]]:
    """The principal right ideals a*R: principal left ideals of R^op."""
    return cyclic_left_ideals(ring.opposite())


def left_ideals(ring: FiniteRing) -> list[Ideal]:
    """Every left ideal, as sums of principal ones; sorted by size.

    Intended for rings up to a hundred or so elements.
    """
    return [Ideal("left", s) for s in submodule_lattice(
        ring.shape.orders, ring.elements(), ring.basis_elements, ring.mul)]


def right_ideals(ring: FiniteRing) -> list[Ideal]:
    """Every right ideal: the left ideals of the opposite ring."""
    return [Ideal("right", ideal.elements) for ideal in left_ideals(ring.opposite())]


# -- the socle Frobenius test ---------------------------------------------


def is_frobenius_socle(ring: FiniteRing) -> SocleCertificate:
    """Decide the Frobenius property through socle generators.

    The ring is Frobenius iff on each side the socle is generated by a
    single element as a module over the ring and has the same number of
    elements as R/J.  A generator s of the right socle with |s R| = |R/J|
    is exactly a module isomorphism R/J -> Soc(R) sending 1 + J to s, and
    symmetrically on the left.  Both one-sided conditions are verified.
    """
    rad = ring.jacobson_radical()
    quotient_size = ring.cardinality // len(rad)
    right_soc = ring.socle("right")
    left_soc = ring.socle("left")
    right_witness = left_witness = None
    if len(right_soc) == quotient_size:
        right_witness = _right_generator(ring, right_soc.elements)
    if len(left_soc) == quotient_size:
        left_witness = _right_generator(ring.opposite(), left_soc.elements)
    return SocleCertificate(
        is_frobenius=right_witness is not None and left_witness is not None,
        radical_size=len(rad),
        right_socle_size=len(right_soc),
        left_socle_size=len(left_soc),
        right_witness=right_witness,
        left_witness=left_witness,
    )


def _right_generator(ring: FiniteRing, socle: frozenset[Element]) -> Element | None:
    """First s, in sorted order, with s * R equal to the socle.

    s * R is the additive span of s * e_1, ..., s * e_k, and it lies in
    the socle (a right ideal) when s does, so comparing sizes suffices."""
    for s in sorted(socle):
        s_R = additive_closure((ring.mul(s, e) for e in ring.basis_elements), ring.add, ring.zero)
        if len(s_R) == len(socle):
            return s
    return None
