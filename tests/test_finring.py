"""Ring construction, table validation, radicals, socles and ideals."""

import gc
import re
import time
import weakref
from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from frobring.finring import (
    FiniteRing,
    Ideal,
    RingValidationError,
    cyclic_left_ideals,
    cyclic_right_ideals,
    is_frobenius_socle,
    is_left_ideal,
    is_right_ideal,
    left_ideals,
    right_ideals,
    ring_from_table,
    ring_group_algebra,
    ring_matrix,
    ring_product,
    ring_zn,
    table_validation_report,
)
from frobring.catalog import gf4, gf4_skew_quotient
from frobring.frobenius import right_annihilator
from frobring.znmod import EnumerationCapError, enumeration_cap, span

from conftest import table_product, upper_triangular


def mat(ring, a, b, c, d):
    """Element of a 2x2 matrix ring from its four entries."""
    return ring.element((a, b, c, d))


# -- constructors ----------------------------------------------------------


def test_ring_zn_basics():
    r = ring_zn(6)
    assert r.characteristic == 6
    assert r.cardinality == 6
    assert r.one == (1,)
    assert r.mul((4,), (5,)) == (2,)
    assert r.add((4,), (5,)) == (3,)
    assert r.units() == {(1,), (5,)}


@pytest.mark.parametrize("coords", [(1.5,), (True,), ("1",), (2.0,)])
def test_element_refuses_coordinates_that_are_not_ints(coords):
    """element reduces ints only: (1.5,) is refused, not kept to add up
    to (2.5,) with (1,)."""
    with pytest.raises(ValueError, match="coordinate .* is not an int"):
        ring_zn(4).element(coords)


@pytest.mark.parametrize("mul, one, what", [
    ([[(1.5,)]], (1,), "table entry"), ([[("1",)]], (1,), "table entry"),
    ([[(True,)]], (1,), "table entry"), ([[(1,)]], (1.0,), "identity"),
    ([[(1,)]], (True,), "identity")])
def test_table_and_identity_refuse_coordinates_that_are_not_ints(mul, one, what):
    """No table entry or identity is reduced through %: 1.5 is not kept as
    1.5, and True is not read as 1."""
    with pytest.raises(ValueError, match=f"{what} .* is not an int"):
        ring_from_table(2, (2,), mul, one)


@pytest.mark.parametrize("cayley", [[[0.0, 1.0], [1.0, 0.0]], [[False, True], [True, False]],
                                    [["0", "1"], ["1", "0"]]])
def test_cayley_entries_must_be_ints(cayley):
    with pytest.raises(ValueError, match="Cayley entry .* is not an int"):
        ring_group_algebra(2, cayley)


@pytest.mark.parametrize("size", [2.0, True, "2"])
def test_matrix_size_must_be_an_int(size):
    with pytest.raises(ValueError, match="matrix size .* is not an int"):
        ring_matrix(ring_zn(2), size)


def test_zero_ring():
    r = ring_zn(1)
    assert r.cardinality == 1
    assert r.one == r.zero
    # 0 * 0 = 0 = 1, so the only element is a unit
    assert r.is_unit(r.zero)
    assert len(r.jacobson_radical()) == 1
    assert bool(is_frobenius_socle(r))


def test_product_ring():
    r = ring_product(ring_zn(2), ring_zn(4))
    assert r.characteristic == 4
    assert r.shape.orders == (2, 4)
    assert r.one == (1, 1)
    assert r.mul((1, 3), (1, 2)) == (1, 2)
    assert r.units() == {(1, 1), (1, 3)}


def test_matrix_ring(m2f2):
    assert m2f2.cardinality == 16
    assert m2f2.characteristic == 2
    assert m2f2.one == (1, 0, 0, 1)
    # E01 * E10 = E00, E10 * E01 = E11
    assert m2f2.mul((0, 1, 0, 0), (0, 0, 1, 0)) == (1, 0, 0, 0)
    assert m2f2.mul((0, 0, 1, 0), (0, 1, 0, 0)) == (0, 0, 0, 1)


def test_matrix_ring_over_an_unlabelled_base_has_no_label():
    """M_t names its base's label, and keeps none when the base has none."""
    unlabelled = ring_from_table(2, (2,), [[(1,)]], (1,))
    for base in (unlabelled, ring_product(ring_zn(2), ring_zn(2))):
        ring = ring_matrix(base, 2)
        assert ring.label is None and repr(ring).startswith("<FiniteRing: "), repr(ring)
    assert repr(ring_matrix(ring_zn(2), 2)).startswith("<M2(Z2): ")
    assert ring_matrix(unlabelled, 2, label="M").label == "M"


def test_matrix_units_match_determinant_oracle(m2f2):
    invertible = {
        (a, b, c, d)
        for a in range(2)
        for b in range(2)
        for c in range(2)
        for d in range(2)
        if (a * d - b * c) % 2 == 1
    }
    assert m2f2.units() == invertible
    assert len(m2f2.units()) == 6


def test_group_algebra(z2c2):
    assert z2c2.cardinality == 4
    assert z2c2.mul_table == (((1, 0), (0, 1)), ((0, 1), (1, 0)))
    g = (0, 1)
    assert z2c2.mul(g, g) == z2c2.one
    assert z2c2.mul((1, 1), (1, 1)) == (0, 0)


def test_group_algebra_rejects_bad_tables():
    with pytest.raises(ValueError):
        ring_group_algebra(2, [[0, 0], [1, 1]])  # not Latin
    with pytest.raises(ValueError):
        # Latin, but no element is a two-sided identity
        ring_group_algebra(2, [[0, 2, 1], [2, 1, 0], [1, 0, 2]])
    # order-5 Latin square that is not a group table
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(ValueError):
        ring_group_algebra(3, loop)


@pytest.mark.parametrize("cayley, check, witness", [
    ([[0, 0], [1, 1]], "group-table-latin", ("row", 0)),
    ([[0, 1], [0, 1]], "group-table-latin", ("column", 0)),
    ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], "group-identity", None)])
def test_group_table_checks_name_their_witness(cayley, check, witness):
    with pytest.raises(RingValidationError) as exc:
        ring_group_algebra(2, cayley)
    assert (exc.value.check, exc.value.witness) == (check, witness)


# -- validation ------------------------------------------------------------


def test_validation_report_all_green(z4, m2f2, z2c2, dn8):
    for ring in (z4, m2f2, z2c2, dn8):
        report = table_validation_report(ring)
        assert [name for name, _, _ in report] == [
            "bilinear-well-defined",
            "associativity",
            "unit-laws",
            "characteristic",
        ]
        assert all(ok for _, ok, _ in report)


def test_rejects_nonassociative_table():
    # e1*e1 = e2, e1*e2 = 1 but e2*e1 = 0, so (e1 e1) e1 != e1 (e1 e1)
    table = [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 1, 0), (0, 0, 1), (1, 0, 0)],
        [(0, 0, 1), (0, 0, 0), (0, 0, 0)],
    ]
    with pytest.raises(RingValidationError) as exc:
        ring_from_table(2, (2, 2, 2), table, (1, 0, 0))
    assert exc.value.check == "associativity"
    assert exc.value.witness == (1, 1, 1)


def test_associativity_witness_matches_every_triple():
    """Bilinear but broken tables, a coordinate of order 1 among the basis:
    the first failing triple over the nonzero basis elements is the first
    over all of them."""
    z1 = ring_zn(1)
    seen = 0
    for base in (ring_product(z1, upper_triangular(2, 2), z1),
                 ring_product(gf4(), z1, ring_zn(2))):
        k, orders, e = base.rank, base.shape.orders, base.basis_elements
        live = [i for i in range(k) if orders[i] > 1]
        for i, j, l in product(live, repeat=3):
            table = [list(row) for row in base.mul_table]
            table[i][j] = base.add(table[i][j], e[l])
            broken = SimpleNamespace(rank=k, shape=base.shape, mul_table=table)
            expected = next(((a, b, c) for a, b, c in product(range(k), repeat=3)
                             if table_product(broken, table_product(broken, e[a], e[b]), e[c])
                             != table_product(broken, e[a], table_product(broken, e[b], e[c]))),
                            None)
            try:
                FiniteRing(base.shape, table, base.one)
                witness = None
            except RingValidationError as exc:
                witness = exc.witness if exc.check == "associativity" else None
            assert witness == expected, (base, i, j, l)
            seen += expected is not None
    assert seen


def test_rejects_ill_defined_bilinear_extension():
    # e0 has additive order 2 but e0*e0 has order 4: 2(e0*e0) != (2e0)*e0
    table = [[(0, 1), (0, 0)], [(0, 0), (0, 0)]]
    with pytest.raises(RingValidationError) as exc:
        ring_from_table(4, (2, 4), table, (1, 0))
    assert exc.value.check == "bilinear-well-defined"


def test_rejects_wrong_characteristic():
    # a perfectly good copy of Z_2 x Z_2, but claimed to live in char 4
    table = [[(1, 0), (0, 0)], [(0, 0), (0, 1)]]
    with pytest.raises(RingValidationError) as exc:
        ring_from_table(4, (2, 2), table, (1, 1))
    assert exc.value.check == "characteristic"


def test_rejects_broken_unit():
    with pytest.raises(RingValidationError) as exc:
        ring_from_table(2, (2,), [[(0,)]], (1,))
    assert exc.value.check == "unit-laws"


# -- radical and socle -----------------------------------------------------

# radical and socle of Z_n are the multiples of its radical resp. of
# n / radical, so small cases pin the quasi-regularity implementation
@pytest.mark.parametrize(
    "n,radical,socle",
    [
        (2, {0}, {0, 1}),
        (4, {0, 2}, {0, 2}),
        (8, {0, 2, 4, 6}, {0, 4}),
        (12, {0, 6}, {0, 2, 4, 6, 8, 10}),
    ],
)
def test_zn_radical_and_socle(n, radical, socle):
    r = ring_zn(n)
    assert {x[0] for x in r.jacobson_radical()} == radical
    assert {x[0] for x in r.socle("right")} == socle
    assert {x[0] for x in r.socle("left")} == socle


def test_matrix_ring_is_semisimple(m2f2):
    assert len(m2f2.jacobson_radical()) == 1
    assert len(m2f2.socle("right")) == 16
    assert len(m2f2.socle("left")) == 16


def test_double_nil_radical_and_socle(dn8):
    assert dn8.cardinality == 8
    rad = {(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)}
    assert set(dn8.jacobson_radical()) == rad
    # both socles equal the radical: 4 elements, but |R| / |J| = 2
    assert set(dn8.socle("right")) == rad
    assert set(dn8.socle("left")) == rad
    cert = is_frobenius_socle(dn8)
    assert not cert.is_frobenius
    assert cert.radical_size == 4
    assert cert.right_socle_size == 4
    assert cert.right_witness is None and cert.left_witness is None


def test_socle_certificate_for_z4(z4):
    cert = is_frobenius_socle(z4)
    assert cert.is_frobenius
    assert cert.radical_size == 2
    assert cert.right_socle_size == 2 and cert.left_socle_size == 2
    assert cert.right_witness == (2,) and cert.left_witness == (2,)


def test_group_algebra_socle(z3c3):
    # Z_3[C_3] is local with radical of index 3
    assert len(z3c3.jacobson_radical()) == 9
    assert len(z3c3.socle("right")) == 3
    assert bool(is_frobenius_socle(z3c3))


# -- ideals ----------------------------------------------------------------


def test_zn_ideals(z4):
    ids = left_ideals(z4)
    assert [sorted(i.elements) for i in ids] == [
        [(0,)],
        [(0,), (2,)],
        [(0,), (1,), (2,), (3,)],
    ]
    assert [i.elements for i in left_ideals(z4)] == [
        i.elements for i in right_ideals(z4)
    ]


def test_matrix_ring_ideal_census(m2f2):
    # right ideals of M_2(F_2) are the row spaces: 0, three lines, full
    rights = right_ideals(m2f2)
    assert sorted(len(i) for i in rights) == [1, 4, 4, 4, 16]
    lefts = left_ideals(m2f2)
    assert sorted(len(i) for i in lefts) == [1, 4, 4, 4, 16]
    # every one of them is principal
    assert len(cyclic_right_ideals(m2f2)) == 5
    assert len(cyclic_left_ideals(m2f2)) == 5


def test_matrix_ring_row_space_ideal(m2f2):
    # the right ideal generated by E00 is the span of the first row
    gen = mat(m2f2, 1, 0, 0, 0)
    target = {
        mat(m2f2, 0, 0, 0, 0),
        mat(m2f2, 1, 0, 0, 0),
        mat(m2f2, 0, 1, 0, 0),
        mat(m2f2, 1, 1, 0, 0),
    }
    principal = {m2f2.mul(gen, b) for b in m2f2.elements()}
    assert principal == target
    assert is_right_ideal(m2f2, frozenset(target))
    assert not is_left_ideal(m2f2, frozenset(target))


def test_ideal_predicates(z4):
    assert is_left_ideal(z4, frozenset({(0,), (2,)}))
    assert not is_left_ideal(z4, frozenset({(0,), (1,)}))
    assert not is_left_ideal(z4, frozenset({(2,)}))  # no zero


@pytest.mark.parametrize("elems, bad", [
    ({(0,), (2,), (4,)}, (4,)),  # unreduced: 4 + x and 4x reduce into the set
    ({(0,), (2,), (2, 0)}, (2, 0)),  # too long: sums and products zip it short
])
def test_ideal_predicates_refuse_non_elements(z4, elems, bad):
    """A set with a non-element is refused by name, never an ideal."""
    for predicate in (is_left_ideal, is_right_ideal):
        with pytest.raises(ValueError, match=rf"^{re.escape(repr(bad))} is not an element"):
            predicate(z4, frozenset(elems))


def test_double_nil_has_five_ideals(dn8):
    # 0, (u), (v), (u+v), J, R plus the diagonal-free sums: count them
    ids = left_ideals(dn8)
    assert len(ids) == 6
    assert sorted(len(i) for i in ids) == [1, 2, 2, 2, 4, 8]
    assert [i.elements for i in left_ideals(dn8)] == [
        i.elements for i in right_ideals(dn8)
    ]


# -- ring protocol ---------------------------------------------------------


def test_ring_equality():
    assert ring_zn(4) == ring_zn(4)
    assert ring_zn(4) != ring_zn(5)
    assert hash(ring_zn(4)) == hash(ring_zn(4))


def test_scale_matches_repeated_addition(z4):
    x = (3,)
    acc = z4.zero
    for _ in range(5):
        acc = z4.add(acc, x)
    assert z4.scale(5, x) == acc


@given(st.integers(1, 16), st.data())
def test_zn_ring_laws(n, data):
    r = ring_zn(n)
    pick = st.integers(0, n - 1)
    a = (data.draw(pick),)
    b = (data.draw(pick),)
    c = (data.draw(pick),)
    assert r.mul(a, b) == r.mul(b, a)
    assert r.mul(a, r.add(b, c)) == r.add(r.mul(a, b), r.mul(a, c))
    assert r.mul(r.one, a) == a


def test_huge_matrix_ring_hits_the_cap_without_forming_its_size():
    started = time.perf_counter()
    with pytest.raises(EnumerationCapError,
                       match="matrix ring has 2\\^2250000 entries, cap is 1048576"):
        ring_matrix(ring_zn(2), 1500)
    assert time.perf_counter() - started < 1.0


def test_matrix_ring_over_the_zero_ring_hits_the_table_cap():
    """Z1 has one element at any size, so its table of k^3 ints is charged."""
    started = time.perf_counter()
    with pytest.raises(EnumerationCapError,
                       match="matrix ring table has 1600\\^3 entries, cap is 1048576"):
        ring_matrix(ring_zn(1), 40)
    assert time.perf_counter() - started < 0.05
    assert ring_matrix(ring_zn(1), 3).cardinality == 1  # 9^3 ints fit
    with enumeration_cap(16):  # a nonzero base: the element count alone decides
        assert ring_matrix(ring_zn(2), 2).cardinality == 16


@given(st.data())
def test_matrix_ring_laws(data):
    r = ring_matrix(ring_zn(2), 2)
    els = r.elements()
    a = data.draw(st.sampled_from(els))
    b = data.draw(st.sampled_from(els))
    c = data.draw(st.sampled_from(els))
    assert r.mul(r.mul(a, b), c) == r.mul(a, r.mul(b, c))
    assert r.mul(r.add(a, b), c) == r.add(r.mul(a, c), r.mul(b, c))


def test_every_corpus_ring_validates(corpus):
    for name, ring in corpus.items():
        assert all(ok for _, ok, _ in table_validation_report(ring)), name


# -- the opposite ring -----------------------------------------------------

NONCOMMUTATIVE = ("M2(F2)", "GF4[x;sq]/(x^2-1)")


def test_opposite_reverses_products(corpus):
    for name, ring in corpus.items():
        op = ring.opposite()
        els = ring.elements()
        assert all(op.mul(a, b) == ring.mul(b, a) for a in els for b in els), name
        assert op.opposite() == ring, name
        assert op.one == ring.one and op.shape == ring.shape, name


def test_opposite_is_a_different_ring_exactly_when_noncommutative(corpus):
    for name, ring in corpus.items():
        if name in NONCOMMUTATIVE:
            assert ring.opposite() != ring, name
        else:
            assert ring.opposite() == ring, name


def test_opposite_is_built_once(m2f2):
    assert m2f2.opposite() is m2f2.opposite()
    assert m2f2.opposite().opposite() is m2f2


def test_a_ring_and_its_opposite_form_no_reference_cycle():
    """With the cyclic collector off, refcounting alone frees the ring;
    its opposite, kept alive, builds an equal ring again on demand."""
    ring = ring_matrix(ring_zn(2), 2)
    op = ring.opposite()
    gone = weakref.ref(ring)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del ring
        assert gone() is None
    finally:
        if enabled:
            gc.enable()
    again = op.opposite()
    assert again == ring_matrix(ring_zn(2), 2) and again.opposite() is op


def fresh(ring):
    """An equal ring with no cache filled and no opposite built."""
    return FiniteRing(ring.shape, ring.mul_table, ring.one)


def test_the_opposite_shares_what_does_not_depend_on_the_side(corpus):
    """Built after the ring's units, nilpotents and radical, the opposite
    returns the same objects; built before them, it finds equal ones."""
    def side_free(r):
        return r.units(), r.nilpotents(), r.jacobson_radical(), r.radical_generators()

    for name, ring in corpus.items():
        early = fresh(ring).opposite()
        ring = fresh(ring)
        found = side_free(ring)
        assert all(a is b for a, b in zip(side_free(ring.opposite()), found, strict=True)), name
        assert side_free(early) == found, name


def test_the_opposite_keeps_its_own_socles(corpus):
    """Its right socle is the ring's left one and conversely, also when the
    ring found both before the opposite's were asked for."""
    rings = {**corpus, "T2(Z2)": upper_triangular(2, 2)}
    differ = []
    for name, ring in rings.items():
        ring = fresh(ring)
        right, left = ring.socle("right"), ring.socle("left")
        op = ring.opposite()
        for side, other in (("right", left), ("left", right)):
            assert op.socle(side) == Ideal(side, other.elements), (name, side)
        assert ring.socle("right") is right and ring.socle("left") is left, name
        if right != Ideal("right", left.elements):
            differ.append(name)
    assert "T2(Z2)" in differ


# Brute-force right-hand scans, kept as the oracle for every right-handed
# function that is computed on the opposite ring.


def brute_right_closed(ring, elems):
    return all(ring.mul(a, r) in elems for a in elems for r in ring.elements())


def brute_right_ideals(ring):
    """Additive subgroups closed under right multiplication.  Every
    subgroup is spanned by at most rank(R) elements."""
    els = ring.elements()
    subgroups = {span(gens, ring.shape)
                 for k in range(ring.rank + 1) for gens in combinations(els, k)}
    return {S for S in subgroups if brute_right_closed(ring, S)}


@pytest.fixture(scope="module", params=NONCOMMUTATIVE, ids=["m2f2", "gf4_skew"])
def noncommutative(request):
    if request.param == "M2(F2)":
        return ring_matrix(ring_zn(2), 2)
    return gf4_skew_quotient().as_finite_ring()


def test_right_ideals_match_brute_force(noncommutative):
    ring = noncommutative
    oracle = brute_right_ideals(ring)
    found = right_ideals(ring)
    assert {I.elements for I in found} == oracle
    assert len(found) == len(oracle)
    assert all(I.side == "right" for I in found)
    cyclic = {frozenset(ring.mul(a, r) for r in ring.elements()) for a in ring.elements()}
    assert cyclic_right_ideals(ring) == cyclic
    for I in left_ideals(ring):
        assert is_right_ideal(ring, I.elements) == (I.elements in oracle)


def test_right_annihilator_matches_brute_force(noncommutative):
    ring = noncommutative
    els = ring.elements()
    subsets = [[a] for a in els] + [sorted(S) for S in brute_right_ideals(ring)]
    for S in subsets:
        oracle = {a for a in els if all(ring.mul(s, a) == ring.zero for s in S)}
        ann = right_annihilator(ring, S)
        assert ann.elements == oracle, S
        assert ann.side == "right"
