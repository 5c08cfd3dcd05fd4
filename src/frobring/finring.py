"""Finite unital rings presented by additive generators and structure constants.

A FiniteRing is a Z_n-algebra: an additive group Z_{d_1} x ... x Z_{d_k}
(each d_i dividing n) together with a multiplication table for the basis
vectors e_1, ..., e_k and a distinguished identity element.  Products of
arbitrary elements come from extending the table Z-bilinearly, which is
well defined exactly when d_i * (e_i e_j) = d_j * (e_i e_j) = 0 holds for
every table entry.  A table from outside (ring_from_table) is validated:
well-definedness, associativity and the unit laws on the basis, and that
the additive order of 1 equals n, so the characteristic really is n.

Products run on packed structure constants: each table entry is one int
with a field per coordinate, wide enough that a product's field sums never
carry (znmod.packed_fields, the one packed layout), so a * b costs rank^2
int multiply-adds (FiniteRing.mul).  The validation reads the same packed
entries: associativity compares
(e_i e_j) e_l with e_i (e_j e_l) on each basis triple, one packed entry
per nonzero coordinate of e_i e_j and of e_j e_l, so a sparse table costs
about rank^3 int multiply-adds and validation multiplies only for the
unit laws (table_validation_report).

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
* every orthogonal is one routine on packed lines
  (znmod._packed_orthogonal): the packed table is the basis gram of the
  product, as e_i * g = sum_j g_j (e_i e_j), so annihilators and
  functional orthogonals make no ring product, and ambient forms on A^m
  run the same routine on their packed basis grams (frobring.frobenius);
* the Frobenius test looks for a single socle generator on each side,
  comparing the additive span of s*e_1, ..., s*e_k (which is s*R) with
  the socle by size, and skipping the members of each s*R that falls
  short (_right_generator); a table whose coordinates fall into two or
  more blocks with no product across them is decided block by block, as
  the sizes multiply and the first generators sit on their blocks'
  coordinates (_table_blocks, is_frobenius_socle);
* a submodule lattice holds each submodule as one int, a bitset of the
  ambient with a bit per vector in lexicographic order, so C <= I is one
  int operation and a sum I + C a few masked shifts per generator of C
  (submodule_lattice); cyclic submodules are closed on
  znmod.packed_arithmetic codes, which sort like the tuples and add in
  five int operations.

A ring is its validated table.  One fill step (FiniteRing._fill) sets
every field from a reduced table: the constructor's, from outside, which
it then validates; the opposite's, the table and packed table transposed,
built once on demand (FiniteRing.opposite); and that of every ring the one
builder (_derived_ring) places from copies of checked tables: products,
matrix rings, group algebras, Z_n, block rings (_blocks) and the tables of
skew quotients.  No derived ring is checked, as the checks hold by
derivation.
Right-handed notions are the left-handed ones of the opposite ring, which
has the same blocks.  Rings cache all this, a ring and its opposite in
one shared record where the side does not matter; treat them as
immutable.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, product, repeat
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Sequence

from .znmod import (
    Element,
    ModuleShape,
    _check_cap,
    _check_power_cap,
    _check_table_cap,
    _int_vectors,
    _ints,
    _packed_orthogonal,
    additive_closure,
    additive_generators,
    enumerate_module,
    extend_span,
    packed_arithmetic,
    packed_fields,
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
    ):
        k = shape.rank
        if len(mul_table) != k or any(len(row) != k for row in mul_table):
            raise RingValidationError(
                "table-shape", (len(mul_table), k), f"multiplication table must be {k}x{k}"
            )
        table = tuple(
            tuple(map(shape.reduce, _int_vectors(row, "table entry"))) for row in mul_table)
        self._fill(shape, table, shape.reduce(_ints(one, "identity")), {}, label)
        for check_name, ok, witness in table_validation_report(self):
            if not ok:
                raise RingValidationError(check_name, witness)

    def _fill(self, shape: ModuleShape, table: tuple, one: Element, side_free: dict,
              label: str | None = None, packed: tuple | None = None) -> "FiniteRing":
        """Set every field of the ring from a reduced table, packing it
        unless its packed table is given, and return the ring: the one step
        that makes a ring.  The constructor fills from reduced outside
        input, then runs the presentation checks, which read these fields.
        The opposite (the table transposed) and the rings of _derived_ring
        (copies of checked tables) are filled from tables whose checks hold
        by derivation, and are not checked.  side_free is the record of the
        facts that do not depend on the side, which a ring shares with its
        opposite."""
        k = shape.rank
        self.shape, self.mul_table, self.one, self.label = shape, table, one, label
        # a coordinate of order 1 has no generator besides 0
        self.basis_elements: tuple[Element, ...] = tuple(
            tuple(1 % d if j == i else 0 for j, d in enumerate(shape.orders)) for i in range(k))
        # each table entry as one int: a field of a product sums k^2 terms
        # a_i b_j e_ij[l] < n^3, so it never carries into the next
        pack, self._fields, self._field_mask = packed_fields(shape.orders, k * k * shape.n ** 3)
        self._packed_table = packed or tuple(tuple(map(pack, row)) for row in table)
        self._side_free: dict[str, object] = side_free  # by name
        self._own: dict[str, object] = {}  # socles by side and the block rings, not shared
        # the opposite ring, held weakly by an opposite for its original
        self._opposite: FiniteRing | weakref.ref | None = None
        return self

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
        if side not in self._own:
            ring = self if side == "right" else self.opposite()
            self._own[side] = Ideal(side, ring_orthogonal(ring, self.radical_generators()))
        return self._own[side]

    def opposite(self) -> "FiniteRing":
        """The same module with a * b computed as b * a: this ring's table
        and packed table transposed, made once by the fill step and not
        validated again, as each check carries over (entry (i, j) tests
        both d_i and d_j, the opposite's associativity at (i, j, l) is this
        ring's at (l, j, i), the unit laws swap sides).  The two share one
        record of elements, units, nilpotents, the radical (J(R) = J(R^op))
        and the blocks of the table (the transpose has the same
        components), whichever finds them, and keep their own socles and
        block rings.  It holds this ring weakly (no reference cycle) and
        rebuilds it, on the same record, if it is gone."""
        op = self._opposite
        if isinstance(op, weakref.ref):
            op = op()
        if op is None:
            op = FiniteRing.__new__(FiniteRing)._fill(
                self.shape, tuple(zip(*self.mul_table)), self.one, self._side_free,
                f"{self.label}^op" if self.label else None, tuple(zip(*self._packed_table)))
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


# the presentation checks, in order: a table from outside is refused at the
# first that fails, and a derived ring passes them by derivation
TABLE_CHECKS = ("bilinear-well-defined", "associativity", "unit-laws", "characteristic")


def table_validation_report(ring: FiniteRing) -> list[tuple[str, bool, object]]:
    """Run every presentation check, returning (name, ok, witness) rows.

    Checks run in dependency order; a bilinearity failure makes the later
    product-based checks meaningless, so they are skipped once it fails.
    A witness is the first failing index in lexicographic order: (i, j, l)
    for the table checks, a basis index for the unit laws.

    The product is well defined iff every coordinate l of e_i e_j is
    divisible by d_l / gcd(d_i, d_l) and by d_l / gcd(d_j, d_l), which is 1
    for every l when d_i = n: rank^2 Python steps.  Associativity is
    checked on the triples of basis elements of order above 1 (one of
    order 1 is 0), in lexicographic order, on the packed entries P of
    W-bit fields: (e_i e_j) e_l is sum_a c_ija P[a][l] and e_i (e_j e_l)
    is sum_a c_jla P[i][a], each summed over the nonzero coordinates c of
    one table entry and left unreduced.  A field sums at most k products
    below n^2, so it never carries.  Equal ints settle the triple;
    otherwise the two are compared field by field mod d, and the first
    triple that differs is the witness.
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
    terms = [[[(a, c) for a, c in enumerate(e) if c] for e in row] for row in table]
    for i, j, l in product(live, repeat=3):
        left = right = 0
        for a, c in terms[i][j]:
            left += c * packed[a][l]
        for a, c in terms[j][l]:
            right += c * packed[i][a]
        if left != right and ([(left >> s & mask) % d for s, d in fields]
                              != [(right >> s & mask) % d for s, d in fields]):
            witness = (i, j, l)
            break
    report.append((associative, witness is None, witness))

    witness = next((i for i, e in enumerate(ring.basis_elements)
                    if ring.mul(ring.one, e) != e or ring.mul(e, ring.one) != e), None)
    report.append((unital, witness is None, witness))

    order_of_one = shape.element_order(ring.one)
    report.append((characteristic, order_of_one == shape.n, (order_of_one, shape.n)))
    return report


# -- constructors ----------------------------------------------------------


def _derived_ring(shape: ModuleShape, copies, one: Element,
                  label: str | None = None) -> FiniteRing:
    """The ring on shape whose table is zero but for copies of checked
    tables, filled with no presentation check: each copy (i, j, l, T) puts
    T[a][b] at entry (i + a, j + b), on coordinates l, l + 1, ....  The
    one builder of a ring derived from checked rings (products, matrix
    rings, group algebras, Z_n, block rings, skew-quotient tables), each a
    ring by its derivation; the entries and one come reduced."""
    k = shape.rank
    table = [[shape.zero] * k for _ in range(k)]
    for i, j, l, T in copies:
        pad = (0,) * l, (0,) * (k - l - len(T))
        for a, b in product(range(len(T)), repeat=2):
            table[i + a][j + b] = pad[0] + T[a][b] + pad[1]
    return FiniteRing.__new__(FiniteRing)._fill(shape, tuple(map(tuple, table)), one, {}, label)


def ring_zn(n: int, *, label: str | None = None) -> FiniteRing:
    """The ring Z_n itself; n = 1 gives the zero ring."""
    shape = ModuleShape(n, (n,))
    return _derived_ring(shape, [(0, 0, 0, (((1 % n,),),))], (1 % n,), label or f"Z{n}")


def ring_from_table(
    n: int,
    orders: Sequence[int],
    mul: Sequence[Sequence[Iterable[int]]],
    one: Iterable[int],
    *,
    label: str | None = None,
) -> FiniteRing:
    """Build and fully validate a ring from an explicit presentation: the
    one way in for a table from outside."""
    return FiniteRing(ModuleShape(n, tuple(orders)), mul, one, label=label)


def ring_product(*rings: FiniteRing, label: str | None = None) -> FiniteRing:
    """Direct product; the characteristic is the lcm of the factors'.  Each
    factor takes a contiguous run of coordinates, with no product across
    runs, so the Frobenius tests find the factors again as blocks of the
    table (_blocks)."""
    if not rings:
        raise ValueError("product needs at least one factor")
    shape = ModuleShape(lcm(*(r.characteristic for r in rings)),
                        tuple(d for r in rings for d in r.shape.orders))
    offsets = accumulate((r.rank for r in rings), initial=0)
    return _derived_ring(shape, [(off, off, off, r.mul_table) for off, r in zip(offsets, rings)],
                         tuple(c for r in rings for c in r.one), label)


def ring_matrix(base: FiniteRing, t: int, *, label: str | None = None) -> FiniteRing:
    """t x t matrices over base, basis E_pq e_i ordered by (p, q, i)."""
    if _ints((t,), "matrix size")[0] < 1:
        raise ValueError("matrix size must be positive")
    _check_power_cap(base.cardinality, t * t, "matrix ring")
    k0 = base.rank
    _check_table_cap(t * t * k0, 3, "matrix ring table")  # rank^3 ints, as for the zero ring
    shape = ModuleShape(base.characteristic, base.shape.orders * (t * t))
    # E_pq E_qs = E_ps, and E_pq E_rs vanishes for r != q
    copies = [((p * t + q) * k0, (q * t + s) * k0, (p * t + s) * k0, base.mul_table)
              for p, q, s in product(range(t), repeat=3)]
    one = tuple(c for p, q in product(range(t), repeat=2)
                for c in (base.one if p == q else base.zero))
    return _derived_ring(shape, copies, one,
                         label or (f"M{t}({base.label})" if base.label else None))


def ring_group_algebra(
    n: int, cayley: Sequence[Sequence[int]], *, label: str | None = None
) -> FiniteRing:
    """Group algebra Z_n[G] from a Cayley table (indices into the group).

    The table must be a finite group: a Latin square with a two-sided
    identity and associative composition.  The ring keeps no record of
    it: every basis product is a basis element, so duality helpers read
    the group off the ring's table (codes.group_inversion).
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
    # e_i e_j = e_ij: Z_n's table placed at (i, j) -> ij
    copies = [(i, j, rows[i][j], (((1 % n,),),)) for i, j in product(range(g), repeat=2)]
    one = tuple(1 % n if l == identity else 0 for l in range(g))
    return _derived_ring(shape, copies, one, label or f"Z{n}[G{g}]")


# -- ideal machinery -------------------------------------------------------


def _tuples_of_ints(members) -> list:
    """members as a list, each confirmed a tuple of ints by C-level
    builtins, so that they sort; a ValueError names the first that is not."""
    members = list(members)
    if not (set(map(type, members)) <= {tuple} and {int}.issuperset(map(type, chain(*members)))):
        bad = next(x for x in members if type(x) is not tuple or not {int}.issuperset(map(type, x)))
        raise ValueError(f"{bad!r} is not an element")
    return members


def ring_generators(ring: FiniteRing, subset: Iterable) -> list[Element]:
    """additive_generators of the subset, refusing the first non-element:
    a member that is not a tuple of ints before the sort (_tuples_of_ints),
    then a kept generator that is not an element; no non-element is in the
    span of the elements kept before it, so each is kept."""
    gens = additive_generators(_tuples_of_ints(subset), ring.add, ring.zero)
    for g in gens:
        if not ring.shape.contains(g):
            raise ValueError(f"{g!r} is not an element of {ring!r}")
    return gens


def ring_orthogonal(ring: FiniteRing, gens, form=None) -> frozenset[Element]:
    """{a : a * g = 0 for every g in gens}, or {a : form(a * g) = 0} for a
    Z_n-linear form on the ring's module: _packed_orthogonal on the packed
    table, as row i lists e_i e_j and e_i * g = sum_j g_j (e_i e_j).  By
    biadditivity it is the orthogonal of everything gens span.  Right-handed
    orthogonals {a : g * a = 0} are those of ring.opposite(), whose packed
    table is the transpose."""
    return frozenset(_packed_orthogonal(ring.shape.orders, ring._packed_table, ring._fields,
                                        ring._field_mask, ring.shape.orders, list(gens), form))


def submodule_violation(elems, add, zero, scalars, act, member=None):
    """First witness that elems is not a submodule, or None when it is one.

    The one submodule test: ('zero', zero) when zero is missing, then
    ('sum', (a, b)) for a + b outside, then ('scalar', (r, a)) for
    act(r, a) outside, with r running over scalars (none for a bare
    additive subgroup).  As the action is biadditive, scalars may be any
    additive generating set of the acting ring; callers pass its basis.
    Sums are tested on the span the generators build: in sorted order,
    each b outside the span of those before is kept, and the span grows by
    b (extend_span) until a new member falls outside elems.  Then some a
    in elems has a + b outside (with s + k b the first such member over
    the smallest k, a = s + (k - 1) b), and the first a in sorted order is
    the witness.  Otherwise every member is a generator or in the span of
    those before, and the span lies inside elems, so elems is that span,
    a subgroup, at fewer than 2 |elems| adds (one per member and one per
    coset, in extend_span).
    The scalars act on those generators only: elems is then a subgroup and
    act(r, -) is additive, so act(r, elems) lies in elems iff each
    act(r, g) does, and the first failing r is the same.  Given member, a
    b that fails it, a non-element, is refused with a ValueError when it
    would be kept: the span of the generators before it holds elements
    only, so every non-element is tested unless a witness comes first, at
    one test per generator.  Given member, every member of elems is first
    confirmed a tuple of ints (_tuples_of_ints), so the sort cannot fail on
    a stray.  Without it, every member of elems is taken to be an element
    (LinearCode checks its words first).
    """
    ordered, spanned, gens = sorted(_tuples_of_ints(elems) if member else elems), {zero}, []
    if zero not in elems:
        return ("zero", zero)
    for b in ordered:
        if b not in spanned:
            if member and not member(b):
                raise ValueError(f"{b!r} is not an element")
            if any(y not in elems for y in extend_span(spanned, b, add)):
                return ("sum", (next(a for a in ordered if add(a, b) not in elems), b))
            gens.append(b)
    for r, g in product(scalars, gens):
        if act(r, g) not in elems:
            return ("scalar", (r, g))
    return None


def is_left_ideal(ring: FiniteRing, elems: frozenset[Element]) -> bool:
    """Is elems a left ideal?  A non-element is refused (submodule_violation)."""
    return submodule_violation(elems, ring.add, ring.zero, ring.basis_elements, ring.mul,
                               ring.shape.contains) is None


def is_right_ideal(ring: FiniteRing, elems: frozenset[Element]) -> bool:
    return is_left_ideal(ring.opposite(), elems)


def _cyclic_submodules(orders, vectors, scalars, act, units) -> tuple:
    """(cyclic, vectors): the cyclic submodules, one per orbit of units,
    each a bitset of the module (see _shifts) mapped to the coordinate
    tuples of its nonzero generators, and the vectors as a list, in
    lexicographic coordinate order, so bit t stands for vectors[t].

    R v is the additive span of the act(e, v), e in scalars (the acting
    ring's basis), taken on the packed codes of vectors
    (znmod.packed_arithmetic).  As R (u v) = R v for a unit u, each u v is
    then skipped.  A unit is a coordinate tuple over scalars, so
    u v = sum_i u_i (e_i v) is a packed sum of multiples of the e_i v.
    With one unit nothing is marked."""
    encode, add = packed_arithmetic(orders)
    coords = list(product(*map(range, orders)))
    code = {v: encode(c) for v, c in zip(vectors, coords, strict=True)}
    index = {c: t for t, c in enumerate(code.values())}
    terms = [[(i, c) for i, c in enumerate(u) if c] for u in units] if len(units) > 1 else []
    top = max((c for t in terms for _, c in t), default=0)
    cyclic, done = {}, set()
    for v, packed in code.items():
        if packed not in done:
            images = [code[act(e, v)] for e in scalars]
            bits = sum(1 << index[c] for c in additive_closure(images, add, 0))
            cyclic[bits] = {coords[index[c]] for c in images if c}
            if terms:
                multiples = [list(accumulate(repeat(x, top), add, initial=0)) for x in images]
                done.update(reduce(add, [multiples[i][c] for i, c in t]) for t in terms)
    return cyclic, list(code)


def _shifts(orders: Sequence[int]):
    """shifts(g), the steps of _translate that add g, for bitsets of
    Z_{d_1} x ... x Z_{d_K}: bit t of a bitset stands for the t-th element
    in lexicographic order, t = sum_i x_i w_i with w_i = d_{i+1} ... d_K.

    Adding c = g_i != 0 to coordinate i moves bit t up by c w_i where
    x_i < d_i - c, and down by (d_i - c) w_i where it wraps.  The bits
    that move up form a run of (d_i - c) w_i ones at the foot of every
    block of d_i w_i bits, so each nonzero coordinate is one step
    (mask, up, down), its mask one int product with the block feet."""
    weights = [prod(orders[i + 1:]) for i in range(len(orders))]
    feet = [((1 << prod(orders)) - 1) // ((1 << d * w) - 1) for d, w in zip(orders, weights)]
    return lambda g: [(((1 << (d - c) * w) - 1) * foot, c * w, (d - c) * w)
                      for c, d, w, foot in zip(g, orders, weights, feet) if c]


def _translate(S: int, steps) -> int:
    """The bitset S + g, for the steps of g (_shifts): a few masked shifts."""
    for mask, up, down in steps:
        a = S & mask
        S = a << up | (S ^ a) >> down
    return S


def _bits(s: int) -> Iterator[int]:
    """The set bits of s, lowest first."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def submodule_lattice(orders, vectors, scalars, act, units) -> list[frozenset]:
    """Every submodule spanned by vectors under the scalar action, sorted
    by size, then members: the one lattice closure.  As the action is
    biadditive, scalars may be any additive generating set of the acting
    ring; callers pass its basis, and its units, or none (see
    _cyclic_submodules).  vectors must list the module, flattened to
    coordinates of the given orders, in lexicographic coordinate order.

    Each submodule is the sum of the cyclic submodules of its members
    (cf. Wood, Amer. J. Math. 121, 1999), each the span of the act(g, v),
    so the lattice is their closure under I + C, from {0}.  Every
    submodule is one int, a bitset of the module (_shifts), so C <= I is
    one int operation, and I + C is I closed under translation by each
    generator g of C, by doubling: I |= I + g, then I |= I + 2g,
    I |= I + 4g, ..., so that after the step by 2^j g, I holds I_0 + k g
    for 0 <= k < 2^(j+1).  It stops once 2^(j+1) reaches the order of g,
    or early when a step adds nothing, as a set holding I_0 + k g for
    k < 2^j and closed under 2^j g holds them all.  A translation is a
    few masked shifts of the whole bitset (_translate).  The bitsets are
    decoded once, at the end: ascending bits list the members in
    lexicographic order.
    """
    cyclic, vectors = _cyclic_submodules(orders, vectors, scalars, act, units)
    shifts = _shifts(orders)

    def doublings(g) -> list:  # the steps of g, 2g, 4g, ... below the order of g
        order = lcm(*(d // gcd(c, d) for c, d in zip(g, orders)))
        return [shifts([k * c % d for c, d in zip(g, orders)])
                for k in (1 << j for j in range((order - 1).bit_length()))]

    def plus(I: int, C: int, gens: list) -> int:
        if not C & ~I:  # every member is a subgroup, so I + C = I
            return I
        for multiples in gens:
            for steps in multiples:
                S = _translate(I, steps)
                if not S & ~I:
                    break
                I |= S
        return I

    lattice = {1}  # bit 0 is the zero vector
    for C, gens in cyclic.items():
        gens = [doublings(g) for g in gens]
        lattice.update([plus(I, C, gens) for I in lattice])
    return [frozenset(map(vectors.__getitem__, ts))
            for ts in sorted((list(_bits(s)) for s in lattice), key=lambda ts: (len(ts), ts))]


def cyclic_left_ideals(ring: FiniteRing) -> set[frozenset[Element]]:
    """The principal left ideals R*a for every a (images of right mult)."""
    cyclic, elements = _cyclic_submodules(ring.shape.orders, ring.elements(),
                                          ring.basis_elements, ring.mul, ring.units())
    return {frozenset(map(elements.__getitem__, _bits(s))) for s in cyclic}


def cyclic_right_ideals(ring: FiniteRing) -> set[frozenset[Element]]:
    """The principal right ideals a*R: principal left ideals of R^op."""
    return cyclic_left_ideals(ring.opposite())


def left_ideals(ring: FiniteRing) -> list[Ideal]:
    """Every left ideal, as sums of principal ones; sorted by size.

    Sized for rings of a few thousand elements: the 35 left ideals of the
    4096-element GF4[x;sq]/(x^6 - 1) take 0.15-0.3 s on a 2-core x86_64
    host.
    """
    return [Ideal("left", s) for s in submodule_lattice(
        ring.shape.orders, ring.elements(), ring.basis_elements, ring.mul, ring.units())]


def right_ideals(ring: FiniteRing) -> list[Ideal]:
    """Every right ideal: the left ideals of the opposite ring."""
    return [Ideal("right", ideal.elements) for ideal in left_ideals(ring.opposite())]


# -- blocks of the table and the socle Frobenius test ----------------------


def _table_blocks(ring: FiniteRing) -> list[list[int]]:
    """The connected components of the coordinates of order above 1, where
    i is joined to the support of every nonzero e_i e_j and e_j e_i: the
    nonzero fields of packed row i and column i, or-ed together.  Products
    across components vanish, so R is the product of the components'
    subrings, and their identities are the components of 1."""
    table, fields, mask = ring._packed_table, ring._fields, ring._field_mask
    blocks: list[set[int]] = []
    for i, (row, column) in enumerate(zip(table, zip(*table))):
        if ring.shape.orders[i] > 1:
            line = reduce(operator.or_, row + column)
            block = {i}.union(l for l, (shift, _) in enumerate(fields) if line >> shift & mask)
            joined = [b for b in blocks if b & block]
            blocks = [b for b in blocks if not b & block] + [block.union(*joined)]
    return sorted(map(sorted, blocks))


def _blocks(ring: FiniteRing) -> list[tuple[list[int], FiniteRing]]:
    """(coordinates, ring) of each block of the table, or [] when it has
    fewer than two.  The blocks are one record with the opposite; each
    block ring is filled from its sub-table with no check, as the ring's
    checks cover it: its entries stay in the block, and its identity 1_B,
    the block's part of 1, has order the lcm of the block's orders, its
    characteristic (d e_i = d 1_B e_i)."""
    if "blocks" not in ring._side_free:
        ring._side_free["blocks"] = _table_blocks(ring)
    blocks, orders, table = ring._side_free["blocks"], ring.shape.orders, ring.mul_table
    if len(blocks) > 1 and "blocks" not in ring._own:
        ring._own["blocks"] = [(b, _derived_ring(
            ModuleShape(lcm(*(orders[i] for i in b)), tuple(orders[i] for i in b)),
            [(0, 0, 0, [[tuple(table[i][j][l] for l in b) for j in b] for i in b])],
            tuple(ring.one[i] for i in b))) for b in blocks]
    return ring._own.get("blocks", [])


def _on_blocks(ring: FiniteRing, pieces: Sequence) -> Element | None:
    """The element with each block's piece on the block's coordinates and
    0 on the coordinates of order 1, or None if a piece is None."""
    if None in pieces:
        return None
    x = dict(zip(chain.from_iterable(b for b, _ in _blocks(ring)), chain.from_iterable(pieces)))
    return tuple(x.get(i, 0) for i in range(ring.rank))


def is_frobenius_socle(ring: FiniteRing) -> SocleCertificate:
    """Decide the Frobenius property through socle generators.

    The ring is Frobenius iff on each side the socle is generated by a
    single element as a module over the ring and has the same number of
    elements as R/J.  A generator s of the right socle with |s R| = |R/J|
    is exactly a module isomorphism R/J -> Soc(R) sending 1 + J to s, and
    symmetrically on the left.  Both one-sided conditions are verified.

    A table of two or more blocks (_blocks) is decided block by block,
    after the cap check the direct route's first listing makes on R.  The
    radical, R/J and the socles are products of the blocks', and s R is
    the product of the s_B B.  A cyclic socle s R has at most |R/J|
    elements, as s J = 0, so the sizes match on R iff they match on every
    block.  The generators therefore form a product set, empty iff some
    block has none, and its first member in sorted order has each block's
    first generator on the block's coordinates: sorted order compares the
    coordinates in index order, however the blocks interleave.
    """
    _check_cap(ring.cardinality, "module")
    if blocks := _blocks(ring):
        certs = [is_frobenius_socle(b) for _, b in blocks]
        right, left = (_on_blocks(ring, ws)
                       for ws in zip(*((c.right_witness, c.left_witness) for c in certs)))
        return SocleCertificate(
            is_frobenius=right is not None and left is not None,
            radical_size=prod(c.radical_size for c in certs),
            right_socle_size=prod(c.right_socle_size for c in certs),
            left_socle_size=prod(c.left_socle_size for c in certs),
            right_witness=right,
            left_witness=left,
        )
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
    the socle (a right ideal) when s does, so comparing sizes suffices.
    Once s * R falls short, each t in it has t * R inside s * R and is
    skipped, as is 0 unless the socle is {0}: the first generator is the
    same, at fewer closures."""
    covered = {ring.zero} if len(socle) > 1 else set()
    for s in sorted(socle):
        if s not in covered:
            s_R = additive_closure((ring.mul(s, e) for e in ring.basis_elements),
                                   ring.add, ring.zero)
            if len(s_R) == len(socle):
                return s
            covered |= s_R
    return None
