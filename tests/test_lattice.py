"""Submodule lattices and the submodule test against brute force.

Every lattice (ideals of a ring, codes in A^m on each side) comes from one
closure of cyclic submodules.  The oracle here filters all 2^|M| subsets
of an ambient M of at most 16 elements, acting directly on the left or on
the right, with no opposite ring and no closure involved.  The library
acts with the basis of the ring, the oracle with every element.

On larger ambients the library's lattice, built on bitsets of the ambient,
must equal member for member and in order the same closure built on tuple
vectors (tuple_lattice).  Closed-form counts, which share nothing with
either closure, check the lattices of ambients up to 729 vectors.
"""

import random
from itertools import product
from math import lcm

import pytest

from frobring import finring
from frobring.catalog import gf4, gf4_frobenius
from frobring.cli import build_quotient
from frobring.codes import LinearCode, dual, identity_form, submodule_codes
from frobring.finring import (
    cyclic_left_ideals,
    is_left_ideal,
    is_right_ideal,
    left_ideals,
    right_ideals,
    ring_from_table,
    ring_matrix,
    ring_product,
    ring_zn,
    submodule_violation,
)
from frobring.skewpoly import RingAutomorphism, SkewQuotient
from frobring.znmod import (DEFAULT_CAP, ModuleShape, additive_closure, additive_generators,
                            enumerate_module)

from conftest import LATTICE_AMBIENTS, chain_ring_submodules, left_lattice_size, upper_triangular


def all_subgroups(elements, add, zero):
    """Every subset containing zero and closed under add, by filtering all
    2^n subsets as bit masks."""
    els = list(elements)
    index = {e: i for i, e in enumerate(els)}
    plus = [[1 << index[add(a, b)] for b in els] for a in els]
    zero_bit = 1 << index[zero]
    found = []
    for mask in range(1 << len(els)):
        if not mask & zero_bit:
            continue
        members = [i for i in range(len(els)) if mask >> i & 1]
        if all(plus[i][j] & mask for i in members for j in members):
            found.append(frozenset(els[i] for i in members))
    return found


def closed_under(subsets, scalars, act):
    return {S for S in subsets if all(act(r, v) in S for r in scalars for v in S)}


def left_vector_action(A):
    return lambda a, v: tuple(A.mul(a, c) for c in v)


def right_vector_action(A):
    return lambda a, v: tuple(A.mul(c, a) for c in v)


def vadd(A):
    return lambda v, w: tuple(A.add(a, b) for a, b in zip(v, w))


AMBIENTS = {
    "Z2^3": (ring_zn(2), 3),
    "Z4^2": (ring_zn(4), 2),
    "GF4^2": (gf4(), 2),
    "M2(F2)^1": (ring_matrix(ring_zn(2), 2), 1),
    "Z2xZ4^1": (ring_product(ring_zn(2), ring_zn(4)), 1),  # basis orders 2 and 4
    "T2(Z2)^1": (upper_triangular(2, 2), 1),  # left and right lattices differ
}


@pytest.fixture(scope="module", params=sorted(AMBIENTS))
def ambient(request):
    A, m = AMBIENTS[request.param]
    vectors = list(product(A.elements(), repeat=m))
    assert len(vectors) <= 16
    return A, m, all_subgroups(vectors, vadd(A), (A.zero,) * m)


def codewords(A, m, side):
    return [code.codewords for code in submodule_codes(A, m, side)]


def test_submodule_codes_match_brute_force(ambient):
    A, m, subgroups = ambient
    els = A.elements()
    oracle = {
        "additive": set(subgroups),
        "left": closed_under(subgroups, els, left_vector_action(A)),
        "right": closed_under(subgroups, els, right_vector_action(A)),
    }
    for side, expected in oracle.items():
        found = codewords(A, m, side)
        assert set(found) == expected, side
        assert len(found) == len(expected), side
        assert [len(c) for c in found] == sorted(len(c) for c in found), side


def test_library_built_codes_pass_validation(ambient):
    """generate, dual and submodule_codes skip _validate, as their codes
    are submodules by construction: each one, rebuilt through the
    verifying constructor, is the same code."""
    A, m, _ = ambient
    form = identity_form(A, m)
    built = []
    for side in ("left", "right", "additive"):
        codes = submodule_codes(A, m, side)
        built += codes
        built += [LinearCode.generate(A, m, [v], side) for v in product(A.elements(), repeat=m)]
        built += [dual(code, form, orth) for code in codes for orth in ("left", "right")]
    for code in built:
        assert LinearCode(A, m, code.side, code.codewords) == code


def test_ideals_of_matrix_ring_match_brute_force():
    R = ring_matrix(ring_zn(2), 2)
    els = R.elements()
    subgroups = all_subgroups(els, R.add, R.zero)
    lefts = closed_under(subgroups, els, R.mul)
    rights = closed_under(subgroups, els, lambda a, x: R.mul(x, a))
    assert lefts != rights
    for found, expected, side in ((left_ideals(R), lefts, "left"),
                                  (right_ideals(R), rights, "right")):
        assert {I.elements for I in found} == expected
        assert len(found) == len(expected)
        assert all(I.side == side for I in found)


# -- the packed lattice against the tuple lattice ---------------------------


def tuple_lattice(vectors, add, zero, scalars, act):
    """The lattice closure on tuple vectors: every submodule, sorted by
    size and then by sorted members.  The cyclic submodules are the spans
    of the act(g, v); I + C is built one coset I + c at a time."""
    def plus(I, C):
        if C <= I:
            return I
        out = set(I)
        for c in C:
            if c not in out:
                out.update(add(i, c) for i in I)
        return frozenset(out)

    cyclic = {additive_closure([act(g, v) for g in scalars], add, zero) for v in vectors}
    lattice = additive_closure(cyclic, plus, frozenset({zero}))
    return sorted(lattice, key=lambda s: (len(s), sorted(s)))


ORACLE_AMBIENTS = {
    "Z4^3": (ring_zn(4), 3),
    "GF4^3": (gf4(), 3),
    "Z8^2": (ring_zn(8), 2),
    "Z9^2": (ring_zn(9), 2),
    "(Z2xZ4)^2": (ring_product(ring_zn(2), ring_zn(4)), 2),
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", sorted(ORACLE_AMBIENTS))
def test_packed_code_lattice_equals_the_tuple_lattice(name, side):
    A, m = ORACLE_AMBIENTS[name]
    act = (left_vector_action if side == "left" else right_vector_action)(A)
    expected = tuple_lattice(product(A.elements(), repeat=m), vadd(A), (A.zero,) * m,
                             A.basis_elements, act)
    assert [code.codewords for code in submodule_codes(A, m, side)] == expected


# -- closed-form counts and the translation primitive ------------------------

COUNTS = {"Z4^3": 129, "Z8^3": 802, "Z9^3": 445, "Z2^6": 2825, "GF4^3": 44, "Z2[C2]^3": 129,
          "M2(F2)^2": 67, "(Z2xZ4)^2": 75, "Z12^2": 90, "Z16^2": 83, "Z27^2": 76}


@pytest.mark.parametrize("name", sorted(LATTICE_AMBIENTS))
def test_left_lattice_sizes_match_the_closed_forms(name):
    """The build shared with the lattice budgets of tests/test_acceptance.py."""
    _, _, closed = LATTICE_AMBIENTS[name]
    assert left_lattice_size(name)[0] == closed == COUNTS[name]


def test_right_lattice_of_m2_f2_squared_matches_the_closed_form():
    build, m, closed = LATTICE_AMBIENTS["M2(F2)^2"]
    assert len(submodule_codes(build(), m, "right")) == closed


@pytest.mark.parametrize("orders", [(2, 4, 3), (1, 6), (3, 1, 9), ()])
def test_translation_moves_each_bit_to_the_sum(orders):
    """Bit t stands for the t-th element in lexicographic order; adding g
    moves the bit of x to the bit of x + g, and a set of bits moves as
    its members do."""
    elements = list(product(*map(range, orders)))
    index = {x: t for t, x in enumerate(elements)}
    shifts, rng = finring._shifts(orders), random.Random(0)
    for g in elements:
        steps = shifts(g)
        moved = [1 << index[tuple((a + b) % d for a, b, d in zip(x, g, orders))]
                 for x in elements]
        assert [finring._translate(1 << t, steps) for t in range(len(elements))] == moved
        subset = rng.getrandbits(len(elements))
        assert finring._translate(subset, steps) == sum(
            bit for t, bit in enumerate(moved) if subset >> t & 1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_one_element_ambient_has_one_submodule(m):
    zero = (ring_zn(1).zero,) * m
    for side in ("left", "right", "additive"):
        assert codewords(ring_zn(1), m, side) == [frozenset({zero})]


def test_an_order_one_coordinate_changes_no_lattice():
    """Z1 x Z4 is Z4 with a coordinate of order 1 in front."""
    A = ring_product(ring_zn(1), ring_zn(4))
    assert A.shape.orders == (1, 4)
    for side, act in (("left", left_vector_action(A)), ("right", right_vector_action(A)),
                      ("additive", lambda a, v: v)):
        scalars = [A.one] if side == "additive" else A.basis_elements
        found = codewords(A, 2, side)
        assert found == tuple_lattice(product(A.elements(), repeat=2), vadd(A), (A.zero,) * 2,
                                      scalars, act)
        assert len(found) == chain_ring_submodules(2, 2, 2)


def plain_quotient(n, *coefficients):
    """Z_n[x]/(f) for f = sum_i coefficients[i] x^i."""
    base = ring_zn(n)
    return SkewQuotient(base, RingAutomorphism.identity(base), [[c] for c in coefficients])


GF4 = gf4()
F9 = ring_from_table(3, [3, 3], [[[1, 0], [0, 1]], [[0, 1], [2, 0]]], [1, 0])  # i^2 = -1
Z2XZ2 = ring_product(ring_zn(2), ring_zn(2))
SKEW_QUOTIENTS = {  # the quotients A[x; aut]/(x^m - 1) of the skew benchmark sweep
    "Z2[x]/(x^6-1)": plain_quotient(2, 1, 0, 0, 0, 0, 0, 1),
    "Z3[x]/(x^4-1)": plain_quotient(3, 2, 0, 0, 0, 1),
    "Z4[x]/(x^3-1)": plain_quotient(4, 3, 0, 0, 1),
    "GF4[x]/(x^3-1)": SkewQuotient(GF4, RingAutomorphism.identity(GF4),
                                   [[1, 0], [0, 0], [0, 0], [1, 0]]),
    "GF4[x;sq]/(x^2-1)": SkewQuotient(GF4, gf4_frobenius(GF4), [[1, 0], [0, 0], [1, 0]]),
    "F9[x;conj]/(x^2-1)": SkewQuotient(F9, RingAutomorphism(F9, [[1, 0], [0, 2]]),
                                       [[2, 0], [0, 0], [1, 0]]),
    "(Z2xZ2)[x;swap]/(x^2-1)": SkewQuotient(Z2XZ2, RingAutomorphism(Z2XZ2, [[0, 1], [1, 0]]),
                                            [[1, 1], [0, 0], [1, 1]]),
}


@pytest.mark.parametrize("name", sorted(SKEW_QUOTIENTS))
def test_packed_ideal_lattices_equal_the_tuple_lattices(name):
    R = SKEW_QUOTIENTS[name].as_finite_ring()
    for found, act in ((left_ideals(R), R.mul), (right_ideals(R), lambda a, x: R.mul(x, a))):
        expected = tuple_lattice(R.elements(), R.add, R.zero, R.basis_elements, act)
        assert [ideal.elements for ideal in found] == expected


# -- the one submodule test ------------------------------------------------


@pytest.mark.parametrize("name", ["GF4", "M2(F2)", "T2(Z2)"])
def test_ideal_tests_match_brute_force(name):
    """The ideal tests act with the basis, the oracle with every element."""
    R = {"GF4": gf4(), "M2(F2)": ring_matrix(ring_zn(2), 2),
         "T2(Z2)": upper_triangular(2, 2)}[name]
    els = R.elements()
    for S in all_subgroups(els, R.add, R.zero):
        assert is_left_ideal(R, S) == all(R.mul(a, x) in S for a in els for x in S), S
        assert is_right_ideal(R, S) == all(R.mul(x, a) in S for a in els for x in S), S


@pytest.mark.parametrize("name", ["M2(F2)", "T2(Z2)", "Z2xZ4"])
def test_scalar_check_acts_on_generators_only(name):
    """Once the sum check keeps generators g_1..g_t of a subgroup S, r S
    lies in S iff every r g_i does.  So on every subgroup the first failing
    scalar is the first r, in the order given, with r S outside S, and a
    submodule costs |scalars| * t products."""
    R = {"M2(F2)": ring_matrix(ring_zn(2), 2), "T2(Z2)": upper_triangular(2, 2),
         "Z2xZ4": ring_product(ring_zn(2), ring_zn(4))}[name]
    els = R.elements()
    scalars = els[::-1]  # every element, the nonzero ones first
    for S in all_subgroups(els, R.add, R.zero):
        acted = []
        found = submodule_violation(S, R.add, R.zero, scalars,
                                    lambda r, v: acted.append(r) or R.mul(r, v))
        first = next((r for r in scalars if any(R.mul(r, v) not in S for v in S)), None)
        gens = additive_generators(S, R.add, R.zero)
        if first is None:
            assert found is None and len(acted) == len(scalars) * len(gens), S
        else:
            kind, (r, g) = found
            assert (kind, r) == ("scalar", first) and g in gens and R.mul(r, g) not in S, S


def test_submodule_violation_witnesses():
    z4 = ring_zn(4)
    els = z4.elements()

    def check(S):
        return submodule_violation(frozenset(S), z4.add, z4.zero, els, z4.mul)

    assert check({(0,), (2,)}) is None
    assert check({(2,)}) == ("zero", (0,))
    assert check({(0,), (1,)}) == ("sum", ((1,), (1,)))
    R = ring_matrix(ring_zn(2), 2)
    first_row = frozenset(R.element((a, b, 0, 0)) for a in (0, 1) for b in (0, 1))
    kind, (r, a) = submodule_violation(first_row, R.add, R.zero, R.elements(), R.mul)
    assert kind == "scalar" and R.mul(r, a) not in first_row
    assert submodule_violation(first_row, R.add, R.zero, (), None) is None


@pytest.mark.parametrize("orders", [(2, 2, 2), (4, 2)])
def test_sum_check_by_generators_matches_all_pairs(orders):
    """On every subset holding zero of an 8-element group, the sum check
    by generators fails exactly when some pair sums outside, with such a
    pair as its witness."""
    shape = ModuleShape(lcm(*orders), orders)
    els = list(enumerate_module(shape))
    for mask in range(1, 1 << len(els), 2):  # bit 0 is the zero element
        S = frozenset(e for i, e in enumerate(els) if mask >> i & 1)
        found = submodule_violation(S, shape.add, shape.zero, (), None)
        if all(shape.add(a, b) in S for a in S for b in S):
            assert found is None, S
        else:
            kind, (a, b) = found
            assert kind == "sum" and a in S and b in S and shape.add(a, b) not in S


@pytest.mark.parametrize("orders", [(2,) * 12, (9, 9, 9), (4, 2, 8, 3)])
def test_sum_check_of_a_whole_group_makes_fewer_than_two_adds_per_member(orders):
    """On a subgroup S the sum check only grows the span of the kept
    generators: one addition per member and one per coset, under 2 |S|."""
    shape = ModuleShape(lcm(*orders), orders)
    S = frozenset(enumerate_module(shape))
    calls = []

    def add(x, y):
        calls.append(None)
        return shape.add(x, y)

    assert submodule_violation(S, add, shape.zero, (), None) is None
    assert len(calls) < 2 * len(S), len(calls)


DIFFERENTIAL_GROUPS = [(2, 2, 2, 2), (4, 4), (2, 8), (3, 9), (5, 5), (6, 6), (2, 4, 4),
                       (4, 2, 8), (8, 8)]


def seeded_subsets(shape, rng):
    """Eight subgroups spanned by one to three random elements, each also
    with one member added and with one removed, and eight random subsets
    holding 0."""
    els = list(enumerate_module(shape))
    for _ in range(8):
        G = additive_closure(rng.sample(els, rng.randint(1, 3)), shape.add, shape.zero)
        yield G
        outside = [e for e in els if e not in G]
        if outside:
            yield G | {rng.choice(outside)}
        yield G - {rng.choice(sorted(G))}
        yield frozenset(e for e in els if e == shape.zero or rng.random() < 0.5)


@pytest.mark.parametrize("orders", DIFFERENTIAL_GROUPS)
def test_sum_check_matches_the_all_pairs_closure_on_seeded_sets(orders):
    """The verdict is the all-pairs oracle's, and a sum witness (a, b) has
    a and b in S, a + b outside, and b a generator additive_generators keeps."""
    shape = ModuleShape(lcm(*orders), orders)
    rng = random.Random(sum(orders) * 1000 + len(orders))
    for S in seeded_subsets(shape, rng):
        found = submodule_violation(S, shape.add, shape.zero, (), None)
        if shape.zero not in S:
            assert found == ("zero", shape.zero), S
        elif all(shape.add(a, b) in S for a in S for b in S):
            assert found is None, S
        else:
            kind, (a, b) = found
            assert kind == "sum" and a in S and b in S and shape.add(a, b) not in S, S
            assert b in additive_generators(S, shape.add, shape.zero), S


def test_code_validation_keeps_its_messages():
    z4 = ring_zn(4)
    with pytest.raises(ValueError, match="does not contain the zero word"):
        LinearCode(z4, 1, "left", [((1,),)])
    with pytest.raises(ValueError, match=r"not closed under addition at \(\(1,\),\) \+"):
        LinearCode(z4, 1, "additive", [((0,),), ((1,),)])
    R = ring_matrix(ring_zn(2), 2)
    first_row = [(R.element((a, b, 0, 0)),) for a in (0, 1) for b in (0, 1)]
    LinearCode(R, 1, "right", first_row)
    with pytest.raises(ValueError, match="not closed under left scalar"):
        LinearCode(R, 1, "left", first_row)


# -- one closure per unit orbit ---------------------------------------------------

GF4_SPEC = {"kind": "table", "n": 2, "orders": [2, 2],
            "mul": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], "one": [1, 0]}
F9_SPEC = {"kind": "table", "n": 3, "orders": [3, 3],
           "mul": [[[1, 0], [0, 1]], [[0, 1], [2, 0]]], "one": [1, 0]}  # i^2 = -1
# the quotients of the skew_sweep benchmark workload, by x^m - 1
SWEEP_QUOTIENTS = {
    "Z2[x]/(x^6-1)": ({"kind": "zn", "n": 2}, [1, 0, 0, 0, 0, 0, 1], None),
    "Z3[x]/(x^4-1)": ({"kind": "zn", "n": 3}, [2, 0, 0, 0, 1], None),
    "Z4[x]/(x^3-1)": ({"kind": "zn", "n": 4}, [3, 0, 0, 1], None),
    "GF4[x]/(x^3-1)": (GF4_SPEC, [[1, 0], [0, 0], [0, 0], [1, 0]], None),
    "GF4[x;sq]/(x^2-1)": (GF4_SPEC, [[1, 0], [0, 0], [1, 0]], [[1, 0], [1, 1]]),
    "F9[x;conj]/(x^2-1)": (F9_SPEC, [[2, 0], [0, 0], [1, 0]], [[1, 0], [0, 2]]),
    "(Z2xZ2)[x;swap]/(x^2-1)": ({"kind": "product", "factors": [{"kind": "zn", "n": 2}] * 2},
                                [[1, 1], [0, 0], [1, 1]], [[0, 1], [1, 0]]),
}


@pytest.mark.parametrize("name", SWEEP_QUOTIENTS)
def test_one_closure_per_distinct_cyclic_submodule(name, monkeypatch):
    """R (u v) = R v for a unit u, so the cyclic left ideals of a skew
    quotient take one additive closure apiece, and skipping the unit
    multiples loses none: they are the R a of every element a."""
    base, modulus, images = SWEEP_QUOTIENTS[name]
    spec = {"kind": "skew_quotient", "base": base, "modulus": modulus}
    if images is not None:
        spec["aut_images"] = images
    ring = build_quotient(spec, DEFAULT_CAP).as_finite_ring()
    assert len(ring.units()) > 1
    closures = [0]

    def counted(*args):
        closures[0] += 1
        return additive_closure(*args)

    monkeypatch.setattr(finring, "additive_closure", counted)
    cyclic = cyclic_left_ideals(ring)
    assert closures[0] == len(cyclic) < len(ring.elements())
    assert cyclic == {additive_closure([ring.mul(e, a) for e in ring.basis_elements],
                                       ring.add, ring.zero) for a in ring.elements()}
