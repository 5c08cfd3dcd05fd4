"""Structural routes of finring and frobenius against brute-force oracles.

The power walk for units and nilpotents, the radical as the nilpotent x
with R x nil, socles through the radical's generators, socle generators
by the size of span{s e_j}, and the functional search on the right socle
all replace scans over pairs of elements.  Annihilators, functional
orthogonals and the skew and group-algebra duality reports solve one
linear map over an additive generating set, and pairing kernels, the
generator-orbit equivalences of a functional and the bijectivity of
automorphisms are one linear map kernel each.  Each scan
is kept here as the oracle, and both must give the same sets, witnesses,
first form and error message.  The packed product is checked
against the tuple loop over the table (conftest.table_product), which the
radical and functional oracles use in its place.
"""

import random
from dataclasses import astuple
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from frobring import (
    DegenerateFormError,
    FrobeniusFunctional,
    enumerate_forms,
    find_frobenius_functional,
    functional_left_orthogonal,
    functional_right_orthogonal,
    group_algebra_dual_report,
    is_frobenius_socle,
    left_annihilator,
    pairing_from_gram,
    pairing_of_functional,
    right_annihilator,
    ring_from_table,
    ring_group_algebra,
    ring_matrix,
    ring_product,
    ring_zn,
    skew_cyclic_dual_report,
    span,
    verify_generator_equivalences,
)
from frobring.catalog import (
    corpus_rings,
    cyclic_cayley,
    gf4,
    gf4_skew_quotient,
    z2_quotient_x3_minus_1,
    z4_quotient_x2_minus_1,
)
from frobring.codes import LinearCode, is_skew_cyclic, quotient_left_ideal_codes
from frobring.finring import FiniteRing, cyclic_left_ideals, is_left_ideal, left_ideals
from frobring.skewpoly import AutomorphismError, RingAutomorphism, SkewQuotient
from frobring.frobenius import is_nondegenerate, pairing_kernel
from frobring import frobenius, skewpoly
from frobring.znmod import (EnumerationCapError, ZnLinearForm, additive_generators, annihilated,
                            enumeration_cap, linear_kernel)

from conftest import table_product, unit_vector, upper_triangular


# -- constructed rings from the benchmark's families ---------------------------


def truncated(n, k):
    """Z_n[x]/(x^k): Frobenius."""
    mul = [[unit_vector(k, i + j) if i + j < k else [0] * k for j in range(k)]
           for i in range(k)]
    return ring_from_table(n, [n] * k, mul, unit_vector(k, 0))


def square_zero(p, k):
    """Z_p[u_1..u_k]/(u)^2: not Frobenius for k >= 2."""
    r = k + 1
    mul = [[unit_vector(r, j) for j in range(r)]]
    mul += [[unit_vector(r, i)] + [[0] * r] * k for i in range(1, r)]
    return ring_from_table(p, [p] * r, mul, unit_vector(r, 0))


def dihedral_cayley(k):
    """D_k as pairs (s, r) meaning s-fold reflection after rotation r."""
    elems = list(product(range(2), range(k)))

    def compose(x, y):
        return ((x[0] + y[0]) % 2, ((-1) ** y[0] * x[1] + y[1]) % k)

    return [[elems.index(compose(x, y)) for y in elems] for x in elems]


def constructed_rings():
    z2, z3, z4 = ring_zn(2), ring_zn(3), ring_zn(4)
    return {
        "M2(Z4)": ring_matrix(z4, 2),
        "Z2[D4]": ring_group_algebra(2, dihedral_cayley(4)),
        "T2(Z6)": upper_triangular(6, 2),
        "T3(Z2)": upper_triangular(2, 3),
        "Z2[u1..u3]/(u)^2": square_zero(2, 3),
        "Z3[x]/(x^4)": truncated(3, 4),
        "Z3 x T2(Z2)": ring_product(z3, upper_triangular(2, 2)),
        "M2(Z2) x Z2[u1,u2]/(u)^2": ring_product(ring_matrix(z2, 2), square_zero(2, 2)),
        "Z2[D3]": ring_group_algebra(2, dihedral_cayley(3)),
    }


def all_rings():
    rings = dict(corpus_rings())  # Z1 (one = zero) .. Z12 and the catalog rings
    rings["GF4"] = gf4()
    rings["Z2[x]/(x^3-1)"] = z2_quotient_x3_minus_1().as_finite_ring()
    rings.update(constructed_rings())
    return rings


RINGS = all_rings()
NAMES = list(RINGS)
# the degeneracy witness of every form, on the rings small enough to try them all
SMALL = [name for name in NAMES if RINGS[name].cardinality <= 64]


def fresh(name: str) -> FiniteRing:
    """A ring with empty caches, so that each route runs from scratch."""
    ring = RINGS[name]
    return FiniteRing(ring.shape, ring.mul_table, ring.one, cayley=ring.cayley)


# -- the brute-force oracles -------------------------------------------------


def units_oracle(ring):
    elems = ring.elements()
    return frozenset(a for a in elems
                     if any(ring.mul(a, b) == ring.one == ring.mul(b, a) for b in elems))


def nilpotents_oracle(ring):
    def nilpotent(a):
        x = a
        for _ in range(ring.cardinality):
            if x == ring.zero:
                return True
            x = ring.mul(x, a)
        return x == ring.zero

    return frozenset(a for a in ring.elements() if nilpotent(a))


def radical_oracle(ring, units):
    """Quasi-regularity: x with 1 - a x a unit for every a."""
    elems = ring.elements()
    return frozenset(x for x in elems
                     if all(ring.sub(ring.one, table_product(ring, a, x)) in units
                            for a in elems))


def socle_oracle(ring, radical, side):
    if side == "right":
        return frozenset(x for x in ring.elements()
                         if all(ring.mul(x, j) == ring.zero for j in radical))
    return frozenset(x for x in ring.elements()
                     if all(ring.mul(j, x) == ring.zero for j in radical))


def right_generator_oracle(ring, socle):
    elems = ring.elements()
    for s in sorted(socle):
        if frozenset(ring.mul(s, r) for r in elems) == socle:
            return s
    return None


def kernels_oracle(ring, form):
    elems = ring.elements()

    def eps(a, b):
        return form.evaluate(ring.mul(a, b))

    first = frozenset(a for a in elems if all(eps(a, b) == 0 for b in elems))
    second = frozenset(b for b in elems if all(eps(a, b) == 0 for a in elems))
    return first, second


def degeneracy_oracle(ring, form):
    first, second = kernels_oracle(ring, form)
    for side, kernel in (("right", first), ("left", second)):
        if kernel - {ring.zero}:
            return side, min(kernel - {ring.zero})
    return None


def functional_oracle(ring):
    """The all-pairs search, with early exit on each kernel."""
    elems, zero = ring.elements(), ring.zero

    def eps(a, b):
        return form.evaluate(table_product(ring, a, b))

    for form in enumerate_forms(ring.shape):
        if any(a != zero and all(eps(a, b) == 0 for b in elems) for a in elems):
            continue
        if not any(b != zero and all(eps(a, b) == 0 for a in elems) for b in elems):
            return form.weights
    return None


def generator_equivalences_oracle(ring, form):
    """The orbit and bijectivity items by scans, in report order: the
    translates eps(b * -) and eps(- * b) of every element b, against the
    list of every form."""
    elems = ring.elements()
    all_weights = {f.weights for f in enumerate_forms(ring.shape)}
    first = {tuple(form.evaluate(ring.mul(b, e)) for e in ring.basis_elements) for b in elems}
    second = {tuple(form.evaluate(ring.mul(e, b)) for e in ring.basis_elements) for b in elems}
    return (first == all_weights, second == all_weights,
            len(first) == len(elems), len(second) == len(elems))


def automorphism_oracle(ring, images):
    """The AutomorphismError message for the basis images, or None, with
    bijectivity decided by the scan of the image of every element."""
    shape, orders = ring.shape, ring.shape.orders
    for i, im in enumerate(images):
        if shape.element_order(im) > orders[i]:
            return (f"image of basis {i} has additive order larger than {orders[i]}, "
                    "map is not well defined")

    def apply(a):
        return tuple(sum(c * im[l] for c, im in zip(a, images)) % d
                     for l, d in enumerate(orders))

    if len({apply(a) for a in ring.elements()}) != ring.cardinality:
        return "map is not a bijection"
    if apply(ring.one) != ring.one:
        return "map does not fix the identity"
    for i, j in product(range(ring.rank), repeat=2):
        if apply(ring.mul_table[i][j]) != table_product(ring, images[i], images[j]):
            return f"map is not multiplicative on basis pair ({i}, {j})"
    return None


# -- the structural routes agree ---------------------------------------------


LARGE = [name for name in NAMES if name not in SMALL]


@pytest.mark.parametrize("name", SMALL)
def test_packed_product_matches_the_table_on_all_pairs(name):
    ring = RINGS[name]  # Z1, the zero ring, and Z2xZ4 among them
    els = ring.elements()
    assert all(ring.mul(a, b) == table_product(ring, a, b) for a in els for b in els)


@pytest.mark.parametrize("ring", [RINGS[name] for name in LARGE] + [square_zero(2, 12)],
                         ids=LARGE + ["Z2[u1..u12]/(u)^2"])
def test_packed_product_matches_the_table_on_seeded_pairs(ring):
    els = ring.elements()
    rng = random.Random(ring.cardinality)
    for _ in range(2000):
        a, b = rng.choice(els), rng.choice(els)
        assert ring.mul(a, b) == table_product(ring, a, b), (a, b)
    # every basis product and the extreme coordinates, where fields fill up
    top = tuple(d - 1 for d in ring.shape.orders)
    for a, b in [(top, top), *product(ring.basis_elements, repeat=2)]:
        assert ring.mul(a, b) == table_product(ring, a, b), (a, b)


@pytest.mark.parametrize("name", NAMES)
def test_structure_matches_the_scans(name):
    ring = fresh(name)
    units = units_oracle(ring)
    assert ring.units() == units
    assert ring.nilpotents() == nilpotents_oracle(ring)
    radical = radical_oracle(ring, units)
    assert ring.jacobson_radical().elements == radical
    for side in ("right", "left"):
        assert ring.socle(side).elements == socle_oracle(ring, radical, side)
    assert span(ring.radical_generators(), ring.shape) == radical
    cert = is_frobenius_socle(ring)
    right_soc, left_soc = ring.socle("right").elements, ring.socle("left").elements
    size = ring.cardinality // len(radical)
    right = right_generator_oracle(ring, right_soc) if len(right_soc) == size else None
    left = (right_generator_oracle(ring.opposite(), left_soc)
            if len(left_soc) == size else None)
    assert (cert.right_witness, cert.left_witness) == (right, left)
    assert cert.is_frobenius == (right is not None and left is not None)


@pytest.mark.parametrize("name", NAMES)
def test_functional_search_matches_all_pairs(name):
    ring = fresh(name)
    found = find_frobenius_functional(ring)
    assert (found.weights if found else None) == functional_oracle(ring)
    assert (found is not None) == is_frobenius_socle(ring).is_frobenius


@pytest.mark.parametrize("name", SMALL)
def test_degenerate_form_error_matches_all_pairs(name):
    ring = fresh(name)
    for form in enumerate_forms(ring.shape):
        expected = degeneracy_oracle(ring, form)
        try:
            FrobeniusFunctional(ring, form)
        except DegenerateFormError as exc:
            assert (exc.side, exc.witness) == expected, form.weights
        else:
            assert expected is None, form.weights


@pytest.mark.parametrize("name", SMALL)
def test_generator_equivalences_match_the_scan(name):
    """Every form, so every degenerate one too: the zero form on every
    nonzero ring, and each ring's non-Frobenius forms."""
    ring = fresh(name)
    forms = list(enumerate_forms(ring.shape))
    reports = [verify_generator_equivalences(ring, form) for form in forms]
    assert [astuple(r)[:4] for r in reports] == [
        generator_equivalences_oracle(ring, form) for form in forms]
    assert all(r.pairing_associative for r in reports)  # the ring product is associative
    assert any(r.all_passed for r in reports) == is_frobenius_socle(ring).is_frobenius
    assert not reports[0].all_passed or ring.cardinality == 1


@pytest.mark.parametrize("seed", range(5))
def test_power_walk_in_any_visiting_order(seed):
    """The walk's memo must give the same sets whichever element comes first."""
    ring = fresh("M2(Z2) x Z2[u1,u2]/(u)^2")
    units = units_oracle(ring)
    order = list(ring.elements())
    random.Random(seed).shuffle(order)
    ring._side_free["elements"] = tuple(order)
    assert ring.units() == units
    assert ring.nilpotents() == nilpotents_oracle(ring)


def rotated(ring, r):
    """The same ring on its basis rotated by r places: e'_i = e_(i + r mod k)."""
    k = ring.rank
    old = [(i + r) % k for i in range(k)]

    def move(v):
        return [v[i] for i in old]

    table = [[move(ring.mul_table[i][j]) for j in old] for i in old]
    return ring_from_table(ring.characteristic, move(ring.shape.orders), table, move(ring.one))


@pytest.mark.parametrize("name", ["M2(F2)", "T3(Z2)", "Z2[D3]", "GF4[x;sq]/(x^2-1)",
                                  "Z3 x T2(Z2)"])
def test_radical_and_socles_on_every_rotation_of_the_basis(name):
    """R x must be spanned by every e_i x: on some rotation of M2(F2)'s
    basis the one e_i x that is not nilpotent comes last."""
    for r in range(RINGS[name].rank):
        ring = rotated(RINGS[name], r)
        radical = radical_oracle(ring, units_oracle(ring))
        assert ring.jacobson_radical().elements == radical, r
        for side in ("right", "left"):
            assert ring.socle(side).elements == socle_oracle(ring, radical, side), (r, side)


def full_fields(n):
    """Z_n on the basis -1, and Z_n x Z_n on (0, -1), (1, -1): each
    product of the largest elements sums to near k^2 (n - 1)^3 in one field."""
    minus_one = ring_from_table(n, [n], [[[n - 1]]], [n - 1])
    pair = ring_from_table(n, [n, n], [[[n - 1, 0], [n - 1, 0]], [[n - 1, 0], [n - 2, 1]]],
                           [n - 2, 1])
    return [minus_one, pair]


@pytest.mark.parametrize("n", [12, 20, 30])
def test_packed_product_fields_hold_the_largest_sums(n):
    for ring in full_fields(n):
        edge = [c for c in range(n) if c < 2 or c > n - 3]
        els = list(product(edge, repeat=ring.rank))
        assert all(ring.mul(a, b) == table_product(ring, a, b) for a in els for b in els)


# -- work regression ---------------------------------------------------------


@pytest.fixture
def mul_calls(monkeypatch):
    """Counts FiniteRing.mul calls; monkeypatch restores the method."""
    calls = [0]
    original = FiniteRing.mul

    def counting(self, a, b):
        calls[0] += 1
        return original(self, a, b)

    monkeypatch.setattr(FiniteRing, "mul", counting)
    return calls


def radical_candidates(ring):
    """The nilpotents the radical tests: in sorted order, skipping those in
    the span of the members found before (read off the radical oracle)."""
    radical = radical_oracle(ring, units_oracle(ring))
    tested, found = 0, []
    for x in sorted(nilpotents_oracle(ring)):
        if x not in span(found, ring.shape):
            tested += 1
            if x in radical:
                found.append(x)
    return tested


@pytest.mark.parametrize("name", ["M2(Z4)", "Z2[D4]", "T3(Z2)", "Z3 x T2(Z2)"])
def test_no_quadratic_product_scan(name, mul_calls):
    """Units take at most |R| products, the radical rank per candidate it
    tests, and the form search, with the right socle known, rank per
    socle element: none scans pairs of elements."""
    candidates = radical_candidates(fresh(name))
    ring = fresh(name)  # validation multiplies basis elements
    mul_calls[0] = 0
    ring.units()
    assert mul_calls[0] <= ring.cardinality
    mul_calls[0] = 0
    ring.jacobson_radical()
    assert mul_calls[0] <= ring.rank * candidates
    socle = ring.socle("right")
    mul_calls[0] = 0
    found = find_frobenius_functional(ring)
    assert mul_calls[0] <= ring.rank * len(socle)
    assert (found is not None) == (name in ("M2(Z4)", "Z2[D4]"))


@pytest.mark.parametrize("name", ["M2(Z4)", "Z2[D4]"])
def test_orthogonals_make_rank_products_per_generator(name, mul_calls):
    """Socles, annihilators and functional orthogonals pair the basis with
    additive generators only, never scanning the ring."""
    ring = fresh(name)
    ring.jacobson_radical()  # the radical and the opposite ring make their own products
    ring.opposite()
    eps = find_frobenius_functional(ring)
    for side in ("right", "left"):
        mul_calls[0] = 0
        ring.socle(side)
        assert mul_calls[0] <= ring.rank * len(ring.radical_generators())
    for ideal in (ring.jacobson_radical(), ring.socle("left")):
        gens = additive_generators(ideal.elements, ring.add, ring.zero)
        assert 2 ** len(gens) <= len(ideal)  # each generator at least doubles the span
        bound = ring.rank * len(gens)
        mul_calls[0] = 0
        left_annihilator(ring, ideal.elements)
        assert mul_calls[0] <= bound
        mul_calls[0] = 0
        functional_left_orthogonal(ring, eps, ideal.elements)
        assert mul_calls[0] <= bound


@pytest.mark.parametrize("name", ["M2(F2)", "T3(Z2)"])
def test_module_actions_make_rank_products_per_vector(name, mul_calls):
    """Cyclic ideals, the ideal test and code generation act with the
    basis, never with every scalar of the ring."""
    ring = fresh(name)
    elems = ring.elements()
    for build in (cyclic_left_ideals, left_ideals):
        mul_calls[0] = 0
        build(ring)
        assert mul_calls[0] <= ring.rank * len(elems)
    ideals = left_ideals(ring)
    assert len(ideals) > 2
    for ideal in ideals:
        mul_calls[0] = 0
        assert is_left_ideal(ring, ideal.elements)
        assert mul_calls[0] <= ring.rank * len(ideal)
    m = 2
    gens = list(zip(elems[1:4], elems[-3:]))
    mul_calls[0] = 0
    code = LinearCode.generate(ring, m, gens, "left")
    assert mul_calls[0] <= ring.rank * m * len(gens)
    assert code.cardinality > len(gens)


# -- orthogonals in the ring against the annihilated scan -----------------------


def ring_orthogonal_oracles(ring, form, subset):
    """(left and right annihilator, functional left and right orthogonal)
    by scanning every element against every member of the subset."""
    elems, mul, zero = ring.elements(), ring.mul, ring.zero
    return (
        annihilated(elems, subset, mul, zero),
        annihilated(elems, subset, lambda b, s: mul(s, b), zero),
        annihilated(elems, subset, lambda a, s: form.evaluate(mul(a, s))),
        annihilated(elems, subset, lambda b, s: form.evaluate(mul(s, b))),
    )


def ring_orthogonals(ring, form, subset):
    return (
        left_annihilator(ring, subset).elements,
        right_annihilator(ring, subset).elements,
        functional_left_orthogonal(ring, form, subset),
        functional_right_orthogonal(ring, form, subset),
    )


@pytest.mark.parametrize("name", NAMES)
def test_ring_orthogonals_of_fixed_subsets_match_the_scan(name):
    ring = RINGS[name]
    form = max(enumerate_forms(ring.shape), key=lambda f: f.weights)
    # the empty set, a non-ideal (it misses zero) and the whole ring
    for subset in ([], [ring.one], list(ring.elements())):
        assert ring_orthogonals(ring, form, subset) == ring_orthogonal_oracles(
            ring, form, subset), subset


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=6)
@given(data=st.data())
def test_ring_orthogonals_match_the_scan(name, data):
    ring = RINGS[name]
    form = data.draw(st.sampled_from(list(enumerate_forms(ring.shape))), label="form")
    subset = data.draw(st.lists(st.sampled_from(ring.elements()), max_size=4), label="subset")
    assert ring_orthogonals(ring, form, subset) == ring_orthogonal_oracles(ring, form, subset)


def well_defined_gram(ring, data):
    """A drawn gram whose entries satisfy d_i g_ij = d_j g_ij = 0 (mod n)."""
    n, orders = ring.characteristic, ring.shape.orders
    step = [[lcm(n // di, n // dj) for dj in orders] for di in orders]
    ks = data.draw(st.lists(st.integers(0, n - 1), min_size=ring.rank ** 2,
                            max_size=ring.rank ** 2), label="gram")
    return [[ks[i * ring.rank + j] * step[i][j] % n for j in range(ring.rank)]
            for i in range(ring.rank)]


@pytest.mark.parametrize("name", SMALL)
@settings(max_examples=6)
@given(data=st.data())
def test_pairing_kernels_match_the_scan(name, data):
    ring = RINGS[name]
    elems = ring.elements()
    form = data.draw(st.sampled_from(list(enumerate_forms(ring.shape))), label="form")
    for pairing in (pairing_of_functional(ring, form),
                    pairing_from_gram(ring, well_defined_gram(ring, data))):
        first = pairing_kernel(ring, pairing, "first")
        second = pairing_kernel(ring, pairing, "second")
        assert first == annihilated(elems, elems, pairing)
        assert second == annihilated(elems, elems, lambda b, a: pairing(a, b))
        # character duality: 'both' may read the first slot alone
        assert len(first) == len(second)


def test_automorphism_validation_matches_the_scan():
    """Every basis-image list of six rings, images whose additive order is
    below their basis element's among them: the same verdict and message."""
    z2, z4, z6 = ring_zn(2), ring_zn(4), ring_zn(6)
    rings = [ring_product(z2, z4), ring_product(z4, ring_zn(3)), gf4(),
             ring_product(z2, z2, z2), ring_product(z6, z2), ring_zn(12)]
    lists = below = 0
    for ring in rings:
        for images in product(ring.elements(), repeat=ring.rank):
            lists += 1
            below += any(ring.shape.element_order(im) < d
                         for im, d in zip(images, ring.shape.orders))
            try:
                RingAutomorphism(ring, images)
                message = None
            except AutomorphismError as exc:
                message = str(exc)
            assert message == automorphism_oracle(ring, images), (ring, images)
    assert (lists, below) == (892, 362)


def test_big_rings_decide_kernels_and_bijections_without_listing(monkeypatch):
    """On Z2[x]/(x^16) and GF4^8, 2^16 elements each, the verifying
    constructor, both pairing kernels, nondegeneracy on every side and
    automorphism validation never list the ring's elements."""
    poly, gf4s = truncated(2, 16), ring_product(*[gf4()] * 8)
    y = poly.add(poly.basis_elements[1], poly.basis_elements[2])  # x -> x + x^2
    powers = [poly.one]
    for _ in range(15):
        powers.append(poly.mul(powers[-1], y))
    squaring = [unit_vector(16, i) if i % 2 == 0 else [int(t in (i - 1, i)) for t in range(16)]
                for i in range(16)]  # 1 -> 1 and w -> 1 + w in every factor

    def listed(self):
        raise AssertionError("the ring's elements were listed")

    monkeypatch.setattr(FiniteRing, "elements", listed)
    for ring, weights, images in ((poly, unit_vector(16, 15), powers),
                                  (gf4s, (0, 1) * 8, squaring)):
        pairing = FrobeniusFunctional(ring, ZnLinearForm(ring.shape, weights)).pairing
        for slot in ("first", "second"):
            assert pairing_kernel(ring, pairing, slot) == {ring.zero}
        assert all(is_nondegenerate(ring, pairing, side) for side in ("right", "left", "both"))
        RingAutomorphism(ring, images)
    top = tuple(unit_vector(16, 15))
    with pytest.raises(DegenerateFormError) as exc:
        FrobeniusFunctional(poly, ZnLinearForm(poly.shape, unit_vector(16, 14)))
    assert (exc.value.side, exc.value.witness) == ("right", top)
    degenerate = pairing_of_functional(poly, ZnLinearForm(poly.shape, unit_vector(16, 14)))
    for slot in ("first", "second"):
        assert pairing_kernel(poly, degenerate, slot) == {poly.zero, top}
    with pytest.raises(AutomorphismError, match="map is not a bijection"):
        RingAutomorphism(poly, [poly.one] + [poly.zero] * 15)


def test_degenerate_kernels_stop_at_their_witness(monkeypatch):
    """The zero form on Z2[x]/(x^28) has all 2^28 elements in its kernel:
    the witness x^27, the kernel's second member, is read without listing
    the ring or the rest of the kernel.  Under the default cap every kernel
    route and automorphism validation meet the cap, as Z_(2^21) does, whose
    one coordinate makes a linear_kernel half the whole ring."""
    poly = truncated(2, 28)
    zero_form = ZnLinearForm(poly.shape, (0,) * 28)
    pairing = pairing_of_functional(poly, zero_form)
    shift = [unit_vector(28, 0)] + [[0] * 28] * 27  # 1 -> 1, x^i -> 0

    def listed(self):
        raise AssertionError("the ring's elements were listed")

    def two_members(*args):
        for count, x in enumerate(linear_kernel(*args)):
            assert count < 2, "the kernel was read past its witness"
            yield x

    with monkeypatch.context() as patched, enumeration_cap(1 << 28):
        patched.setattr(FiniteRing, "elements", listed)
        patched.setattr(frobenius, "linear_kernel", two_members)
        patched.setattr(skewpoly, "linear_kernel", two_members)
        with pytest.raises(DegenerateFormError) as exc:
            FrobeniusFunctional(poly, zero_form)
        assert (exc.value.side, exc.value.witness) == ("right", tuple(unit_vector(28, 27)))
        assert not any(is_nondegenerate(poly, pairing, side) for side in ("right", "left", "both"))
        with pytest.raises(AutomorphismError, match="map is not a bijection"):
            RingAutomorphism(poly, shift)
    cap = "module has 268435456 entries, cap is 1048576"
    with pytest.raises(EnumerationCapError, match=cap):
        FrobeniusFunctional(poly, zero_form)
    with pytest.raises(EnumerationCapError, match=cap):
        is_nondegenerate(poly, pairing)
    with pytest.raises(EnumerationCapError, match=cap):
        pairing_kernel(poly, pairing, "first")
    with pytest.raises(EnumerationCapError, match=cap):
        RingAutomorphism(poly, shift)
    with pytest.raises(EnumerationCapError, match="module has 2097152 entries"):
        FrobeniusFunctional(ring_zn(1 << 21), ZnLinearForm(ring_zn(1 << 21).shape, (1,)))


def test_every_kernel_route_meets_the_cap():
    """A kernel may be its whole domain, so linear_kernel holds the domain
    to the cap on the call: under a cap of 16, the orthogonals of the zero
    subset (all 64 elements) and the kernels of a pairing on Z64 and
    Z2[C6] raise instead of listing the ring."""
    z64, z2c6 = ring_zn(64), ring_group_algebra(2, cyclic_cayley(6))
    eps = ZnLinearForm(z64.shape, (1,))
    pairing = pairing_of_functional(z64, eps)
    routes = [lambda: left_annihilator(z64, [z64.zero]),
              lambda: right_annihilator(z64, [z64.zero]),
              lambda: functional_left_orthogonal(z64, eps, [z64.zero]),
              lambda: functional_right_orthogonal(z64, eps, [z64.zero]),
              lambda: group_algebra_dual_report(z2c6, [z2c6.zero]),
              lambda: pairing_kernel(z64, pairing, "first"),
              lambda: pairing_kernel(z64, pairing, "second")]
    with enumeration_cap(16):
        for route in routes:
            with pytest.raises(EnumerationCapError, match="module has 64 entries, cap is 16"):
                route()


# -- the duality reports against the annihilated scan ---------------------------


def t2_quotient_x2_minus_1():
    """T2(Z2)[x]/(x^2 - 1): a noncommutative base, so the Euclidean form's
    two slots differ.  The base is not Frobenius, which the report allows."""
    t2 = upper_triangular(2, 2)
    return SkewQuotient(t2, RingAutomorphism.identity(t2), [t2.one, t2.zero, t2.one])


SKEW_BUILDS = [gf4_skew_quotient, z4_quotient_x2_minus_1, z2_quotient_x3_minus_1,
               t2_quotient_x2_minus_1]


def report_functional(base):
    """A Frobenius functional of the base, or its last form if it has none."""
    return find_frobenius_functional(base) or max(enumerate_forms(base.shape),
                                                  key=lambda f: f.weights)


@pytest.mark.parametrize("build", SKEW_BUILDS)
def test_skew_report_orthogonals_match_the_scan(build):
    q = build()
    base = q.base
    eps = report_functional(base)
    vectors = list(q.elements())

    def euclid(f, g):
        out = base.zero
        for a, b in zip(f, g):
            out = base.add(out, base.mul(a, b))
        return out

    # every left ideal, then {x}, which is not one
    for V in quotient_left_ideal_codes(q) + [frozenset({q.shift_generator()})]:
        rep = skew_cyclic_dual_report(V, q, eps)
        assert rep.euclidean_dual == annihilated(vectors, V, euclid, base.zero)
        reversed_V = [q.reversal(v) for v in V]
        assert rep.reversal_orthogonal == annihilated(
            vectors, reversed_V, lambda g, t: eps.evaluate(q.mul(g, t)[0]))


@pytest.mark.parametrize("build", SKEW_BUILDS)
def test_skew_routes_run_without_quotient_arithmetic(build, monkeypatch):
    """The ideals, the skew-cyclic verdicts and the duality reports are
    decided in the quotient's table ring: with SkewQuotient.add, neg and
    mul made to raise, a fresh quotient gives what it gives without."""
    def run(q):
        eps = report_functional(q.base)
        ideals = quotient_left_ideal_codes(q)
        x = q.shift_generator()
        words = ideals + [V | {x} for V in ideals] + [frozenset({q.zero, x})]
        code = LinearCode.generate(q.base, q.m, [x], side="left")  # an A-module, not an ideal
        verdicts = [is_skew_cyclic(V, q) for V in words] + [is_skew_cyclic(code, q)]
        return ideals, verdicts, [skew_cyclic_dual_report(V, q, eps) for V in words]

    expected = run(build())
    assert True in expected[1] and False in expected[1]

    def refuse(*args):
        raise AssertionError("SkewQuotient arithmetic on a library route")

    for name in ("add", "neg", "mul"):
        monkeypatch.setattr(SkewQuotient, name, refuse)
    assert run(build()) == expected


@pytest.mark.parametrize("name", ["Z2C2", "Z3C3", "Z2[D3]"])
def test_group_report_orthogonals_match_the_scan(name):
    R = RINGS[name]  # Z2[D3] is Z2[S3]
    n = R.characteristic
    identity = R.one.index(1)
    inverse = [row.index(identity) for row in R.cayley]

    def euclid(b, s):
        return sum(x * y for x, y in zip(b, s)) % n

    def algebra(b, s):  # eps(s * b), eps the coefficient of the identity
        return sum(s[t] * b[inverse[t]] for t in range(R.rank)) % n

    for ideal in left_ideals(R):
        rep = group_algebra_dual_report(R, ideal.elements)
        assert rep.euclidean_dual == annihilated(R.elements(), ideal.elements, euclid)
        orth = annihilated(R.elements(), ideal.elements, algebra)
        assert rep.inverted_right_orthogonal == {
            tuple(b[inverse[t]] for t in range(R.rank)) for b in orth}
