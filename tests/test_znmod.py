"""Module shapes, linear forms, spans and brute-force kernels."""

from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from frobring.znmod import (
    EnumerationCapError,
    ModuleShape,
    ZnLinearForm,
    additive_closure,
    additive_generators,
    enumerate_forms,
    enumerate_module,
    enumeration_cap,
    extend_span,
    annihilated,
    kernel_elements,
    linear_kernel,
    packed_arithmetic,
    span,
    _check_power_cap,
)


def additive_weight_tuples(shape):
    """Oracle: weight tuples in Z_n^rank whose induced map is additive.

    Checks additivity on every pair of module elements using raw integer
    arithmetic, with no reference to the n/d divisibility shortcut the
    library uses.
    """
    n = shape.n
    elems = list(enumerate_module(shape))
    out = set()
    for ws in __import__("itertools").product(range(n), repeat=shape.rank):
        def f(x):
            return sum(w * c for w, c in zip(ws, x)) % n
        if all(
            f(shape.add(x, y)) == (f(x) + f(y)) % n for x in elems for y in elems
        ):
            out.add(ws)
    return out


# -- shapes ----------------------------------------------------------------


def test_shape_basics():
    s = ModuleShape(4, (2, 4))
    assert s.rank == 2
    assert s.cardinality == 8
    assert s.zero == (0, 0)
    assert s.reduce((5, 7)) == (1, 3)
    assert s.contains((1, 3))
    assert not s.contains((2, 0))
    assert not s.contains((0, 0, 0))
    assert not s.contains((True, 0))


def test_shape_arithmetic():
    s = ModuleShape(4, (2, 4))
    assert s.add((1, 3), (1, 2)) == (0, 1)
    assert s.neg((1, 1)) == (1, 3)
    assert s.sub((0, 0), (1, 1)) == (1, 3)
    assert s.scale(3, (1, 2)) == (1, 2)


def test_element_order():
    s = ModuleShape(12, (2, 12, 4))
    assert s.element_order((0, 0, 0)) == 1
    assert s.element_order((1, 0, 0)) == 2
    assert s.element_order((0, 1, 0)) == 12
    assert s.element_order((0, 4, 0)) == 3
    assert s.element_order((1, 0, 2)) == 2
    assert s.element_order((1, 6, 1)) == 4


def test_rank_zero_shape():
    s = ModuleShape(5, ())
    assert s.cardinality == 1
    assert s.zero == ()
    assert s.element_order(()) == 1


def test_shape_rejects_non_divisor_order():
    with pytest.raises(ValueError):
        ModuleShape(4, (3,))
    with pytest.raises(ValueError):
        ModuleShape(4, (2, 0))
    with pytest.raises(ValueError):
        ModuleShape(0, (1,))


@pytest.mark.parametrize("n, orders", [(4, (4.9,)), (4.0, (4,)), (4, ("4",)), (True, (1,)),
                                      (2, (2, True))])
def test_shape_refuses_values_that_are_not_ints(n, orders):
    """Nothing passes through int(): 4.9 is not read as 4, nor True as 1."""
    with pytest.raises(ValueError, match="is not an int"):
        ModuleShape(n, orders)


# -- forms -----------------------------------------------------------------


def test_form_weight_constraint():
    s = ModuleShape(4, (2, 4))
    # coordinate of order 2 inside Z_4 only carries weights 0 and 2
    ZnLinearForm(s, (2, 3))
    ZnLinearForm(s, (0, 1))
    with pytest.raises(ValueError):
        ZnLinearForm(s, (1, 0))
    with pytest.raises(ValueError):
        ZnLinearForm(s, (2, 4))  # not reduced mod n
    with pytest.raises(ValueError):
        ZnLinearForm(s, (2,))  # rank mismatch


@pytest.mark.parametrize("weights", [(2.9,), ("3",), (True,), (1.0,)])
def test_form_refuses_weights_that_are_not_ints(weights):
    with pytest.raises(ValueError, match="weight .* is not an int"):
        ZnLinearForm(ModuleShape(4, (4,)), weights)


def test_form_evaluation():
    s = ModuleShape(4, (2, 4))
    f = ZnLinearForm(s, (2, 1))
    assert f.evaluate((0, 0)) == 0
    assert f.evaluate((1, 0)) == 2
    assert f.evaluate((0, 3)) == 3
    assert f.evaluate((1, 3)) == 1
    assert f((1, 2)) == 0


@pytest.mark.parametrize(
    "n,orders",
    [(4, (2, 4)), (6, (2, 3)), (8, (2, 4)), (2, (2, 2)), (12, (12,))],
)
def test_enumerate_forms_against_additivity_oracle(n, orders):
    shape = ModuleShape(n, orders)
    got = {f.weights for f in enumerate_forms(shape)}
    assert got == additive_weight_tuples(shape)


@pytest.mark.parametrize(
    "n,orders",
    [(1, (1,)), (4, (2, 4)), (6, (6,)), (8, (2, 2, 2)), (9, (3, 9))],
)
def test_form_count_equals_cardinality(n, orders):
    shape = ModuleShape(n, orders)
    forms = list(enumerate_forms(shape))
    assert len(forms) == shape.cardinality
    assert len({f.weights for f in forms}) == len(forms)


def test_enumeration_is_lexicographic():
    shape = ModuleShape(4, (2, 4))
    els = list(enumerate_module(shape))
    assert els[:5] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]
    assert len(els) == 8
    weights = [f.weights for f in enumerate_forms(shape)]
    assert weights[:5] == [(0, 0), (0, 1), (0, 2), (0, 3), (2, 0)]


@pytest.mark.parametrize("orders", [(2, 4), (3, 9), (8,), (5, 5), (1, 2), (4, 1, 3)])
def test_packed_arithmetic_matches_the_tuples(orders):
    """Codes are distinct, sort as the tuples do, and add as the tuples do,
    for every pair.  Coordinates of order 1 come from the zero ring and
    from products with Z_1."""
    shape = ModuleShape(lcm(*orders), orders)
    encode, add = packed_arithmetic(orders)
    elements = list(enumerate_module(shape))  # lexicographic
    decode = {encode(x): x for x in elements}
    assert len(decode) == len(elements)
    assert [decode[c] for c in sorted(decode)] == elements
    for x in elements:
        for y in elements:
            assert decode.get(add(encode(x), encode(y))) == shape.add(x, y), (x, y)


# -- span ------------------------------------------------------------------


def test_span_examples():
    s = ModuleShape(4, (4, 4))
    assert span([], s) == {(0, 0)}
    assert span([(2, 1)], s) == {(0, 0), (2, 1), (0, 2), (2, 3)}
    assert span([(1, 0), (0, 1)], s) == frozenset(enumerate_module(s))
    assert span([(6, 1)], s) == span([(2, 1)], s)  # generators get reduced


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)),
        max_size=4,
    )
)
def test_span_is_additively_closed(gens):
    s = ModuleShape(4, (4, 4, 2))
    sub = span(gens, s)
    assert s.zero in sub
    for g in gens:
        assert s.reduce(g) in sub
    for x in sub:
        assert s.neg(x) in sub
        for y in sub:
            assert s.add(x, y) in sub
    assert s.cardinality % len(sub) == 0


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)),
        max_size=6,
    )
)
def test_additive_generators_span_the_same_subgroup(elements):
    s = ModuleShape(4, (4, 4, 2))
    elements = [s.reduce(x) for x in elements]
    gens = additive_generators(elements, s.add, s.zero)
    assert gens == sorted(gens) and set(gens) <= set(elements)
    assert span(gens, s) == span(elements, s)
    # each generator lies outside the span of those before it
    for i, g in enumerate(gens):
        assert g not in span(gens[:i], s)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)),
        max_size=4,
    ),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)),
)
def test_extend_span_adds_each_new_member_once_by_cosets(elements, x):
    s = ModuleShape(4, (4, 4, 2))
    before = set(span(elements, s))
    adds = [0]

    def add(a, b):
        adds[0] += 1
        return s.add(a, b)

    grown = set(before)
    new = list(extend_span(grown, x, add))
    assert grown == span([*elements, x], s)
    assert len(new) == len(set(new)) and set(new) == grown - before
    # one addition per new member and one per coset: the cosets split the
    # new members into |<x> + span : span| - 1 blocks of |span| each
    assert adds[0] == len(new) + len(new) // len(before)


def test_extend_span_stops_where_its_caller_stops():
    s = ModuleShape(8, (8, 8))
    grown = {s.zero}
    members = extend_span(grown, (1, 0), s.add)
    first = [next(members) for _ in range(3)]
    assert grown == {s.zero, *first} and len(grown) == 4


def test_additive_closure_under_an_idempotent_sum():
    """Sums of subgroups have no inverses: x + x = x ends each seed."""
    seeds = [frozenset({0, 2}), frozenset({0, 3}), frozenset({0, 2, 4})]
    closure = additive_closure(seeds, frozenset.union, frozenset({0}))
    unions = {frozenset({0}).union(*pick) for r in range(4)
              for pick in combinations(seeds, r)}
    assert closure == unions and len(closure) == 6


# -- kernels ---------------------------------------------------------------


def test_kernel_of_multiplication_pairing():
    s = ModuleShape(4, (4,))
    mul = lambda x, y: (x[0] * y[0]) % 4
    assert kernel_elements(mul, s, s) == {(0,)}
    doubled = lambda x, y: (2 * x[0] * y[0]) % 4
    assert kernel_elements(doubled, s, s) == {(0,), (2,)}


def test_kernel_with_distinct_shapes():
    left = ModuleShape(4, (2,))
    right = ModuleShape(4, (4,))
    pair = lambda x, y: (2 * x[0] * y[0]) % 4
    assert kernel_elements(pair, left, right) == {(0,)}
    assert kernel_elements(lambda x, y: 0, left, right) == {(0,), (1,)}


@st.composite
def linear_maps(draw):
    """(domain orders, images, codomain orders): domain orders dividing one
    n; up to 16 codomain orders, either divisors of n or anything up to
    256, so wide packed fields sit beside order-1 and 1-bit ones; image
    entries unreduced and negative.  Half the maps are well defined
    (d * g = 0 mod q), which keeps their kernels large even on wide
    codomains.  Order-1 coordinates, rank 0 on either side and zero
    images included."""
    n = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    domain = draw(st.lists(st.sampled_from(divisors), max_size=6))
    order = st.one_of(st.sampled_from(divisors), st.sampled_from([1, 2, 255, 256]),
                      st.integers(1, 256))
    codomain = draw(st.lists(order, max_size=16))
    well_defined = draw(st.booleans())

    def entry(d, q):
        if not well_defined:
            return st.integers(-2 * q, 2 * q)
        return st.builds(lambda c, w: c * (q // gcd(q, d)) + w * q,
                         st.integers(0, d), st.integers(-2, 1))

    images = [draw(st.tuples(*(entry(d, q) for q in codomain))) for d in domain]
    return domain, images, codomain


def kernel_oracle(domain, images, codomain):
    """The brute-force filter: every element of the domain, each codomain
    coordinate checked by annihilated, sorted into lexicographic order."""
    def coordinate(x, j):
        return sum(c * v[j] for c, v in zip(x, images)) % codomain[j]
    candidates = enumerate_module(ModuleShape(lcm(*domain), domain))
    return sorted(annihilated(candidates, range(len(codomain)), coordinate))


@given(linear_maps())
def test_linear_kernel_matches_the_scan(case):
    assert list(linear_kernel(*case)) == kernel_oracle(*case)


@pytest.mark.parametrize("case", [
    ((), [], ()),                               # rank 0: the zero element
    ((), [], (4,)),
    ((4, 2), [(), ()], ()),                     # zero codomain: everything
    ((4, 1, 2), [(0, 0), (0, 0), (0, 0)], (4, 2)),  # zero images
    ((4,), [(2,)], (4,)),                       # rank 1
    ((2, 2, 4), [(1, 1), (0, 1), (2, 2)], (2, 4)),
    ((4, 2), [(-1, 3), (2, -2)], (4, 2)),          # negative and unreduced images
    ((256, 2), [(1, 1), (128, 0)], (256, 2)),   # a wide field beside a 1-bit one
    ((2, 256), [(1, 0), (1, 128)], (2, 256)),
    ((4, 4, 2), [(64, 1, 1), (192, 0, 1), (128, 1, 0)], (256, 1, 2)),  # ... and order 1
    ((2, 2), [(255, 1), (-255, 255)], (1, 256)),
])
def test_linear_kernel_edge_cases(case):
    assert list(linear_kernel(*case)) == kernel_oracle(*case)


def test_linear_kernel_needs_an_image_per_coordinate():
    with pytest.raises(ValueError):
        list(linear_kernel((2, 2), [(1,)], (2,)))
    with pytest.raises(ValueError):
        list(linear_kernel((2,), [(1, 1)], (2,)))


# -- caps ------------------------------------------------------------------


def test_linear_kernel_meets_the_cap_on_the_call():
    """The kernel may be the whole domain, so the cap fires on the call,
    before any iteration."""
    with enumeration_cap(16):
        with pytest.raises(EnumerationCapError, match="module has 64 entries, cap is 16"):
            linear_kernel((64,), [(0,)], (1,))
        assert list(linear_kernel((16,), [(0,)], (1,))) == [(x,) for x in range(16)]


def test_enumeration_cap():
    big = ModuleShape(2, (2,) * 21)
    with pytest.raises(EnumerationCapError):
        list(enumerate_module(big))
    with pytest.raises(EnumerationCapError, match="form space has 2097152 entries"):
        enumerate_forms(big)  # on the call, before any form is drawn
    with enumeration_cap(1 << 21):
        assert len(list(enumerate_module(big))) == 1 << 21


def test_enumeration_cap_nests_and_restores():
    z8 = ModuleShape(8, (8,))
    with enumeration_cap(16):
        with pytest.raises(ZeroDivisionError):
            with enumeration_cap(4):
                with pytest.raises(EnumerationCapError, match="cap is 4"):
                    list(enumerate_module(z8))
                1 // 0
        assert len(list(enumerate_module(z8))) == 8  # the outer cap is back
        with enumeration_cap(4), pytest.raises(EnumerationCapError, match="cap is 4"):
            _check_power_cap(2, 3, "ambient module")
    with enumeration_cap(7), pytest.raises(EnumerationCapError, match="cap is 7"):
        list(enumerate_forms(z8))
    _check_power_cap(2, 20, "ambient module")  # DEFAULT_CAP outside every block
    with pytest.raises(EnumerationCapError, match="cap is 1048576"):
        _check_power_cap(2, 21, "ambient module")


def test_power_cap_never_forms_the_power():
    with enumeration_cap(16):
        _check_power_cap(4, 2, "ambient module")  # exactly at the cap
    with enumeration_cap(15), pytest.raises(EnumerationCapError,
                                            match="has 4\\^2 entries, cap is 15"):
        _check_power_cap(4, 2, "ambient module")
    with enumeration_cap(1 << 20), pytest.raises(EnumerationCapError,
                                                 match="has 2\\^1000000000 entries"):
        _check_power_cap(2, 10**9, "ambient module")
    with enumeration_cap(1):
        _check_power_cap(1, 10**12, "ambient module")  # the zero ring: one vector


# -- properties ------------------------------------------------------------


@given(st.integers(1, 24), st.data())
def test_element_order_annihilates(n, data):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    orders = tuple(data.draw(st.sampled_from(divisors)) for _ in range(2))
    shape = ModuleShape(n, orders)
    x = shape.reduce(data.draw(st.tuples(st.integers(0, n), st.integers(0, n))))
    k = shape.element_order(x)
    assert shape.scale(k, x) == shape.zero
    assert shape.cardinality % k == 0
    for smaller in range(1, k):
        assert shape.scale(smaller, x) != shape.zero


@given(st.data())
def test_forms_are_additive(data):
    shape = ModuleShape(12, (4, 6))
    forms = list(enumerate_forms(shape))
    f = data.draw(st.sampled_from(forms))
    x = shape.reduce(data.draw(st.tuples(st.integers(0, 11), st.integers(0, 11))))
    y = shape.reduce(data.draw(st.tuples(st.integers(0, 11), st.integers(0, 11))))
    assert f.evaluate(shape.add(x, y)) == (f.evaluate(x) + f.evaluate(y)) % 12
