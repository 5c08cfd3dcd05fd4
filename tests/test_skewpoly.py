"""Twisted polynomial arithmetic and two-sided quotient rings."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from frobring.finring import is_frobenius_socle, ring_product, ring_zn
from frobring.frobenius import find_frobenius_functional, is_nondegenerate
from frobring.znmod import EnumerationCapError, enumeration_cap
from frobring.skewpoly import (
    AutomorphismError,
    NotTwoSidedError,
    RingAutomorphism,
    SkewQuotient,
    UnsupportedModulusError,
    check_two_sided,
    poly_left_divmod,
    poly_mul,
)


# -- automorphisms ---------------------------------------------------------


def test_identity_automorphism(z4):
    aut = RingAutomorphism.identity(z4)
    assert aut.order == 1
    assert aut.apply((3,)) == (3,)
    assert aut.apply_power(7, (2,)) == (2,)


def test_frobenius_automorphism_on_gf4(f4, f4_frob):
    w = (0, 1)
    assert f4_frob.apply(w) == (1, 1)
    assert f4_frob.apply((1, 1)) == w
    assert f4_frob.order == 2
    assert f4_frob.apply_power(2, w) == w
    assert f4_frob.apply_power(-1, w) == (1, 1)
    sq = {a: f4_frob.apply(a) for a in f4.elements()}
    assert sq == {a: f4.mul(a, a) for a in f4.elements()}


def test_rejects_non_bijective_images(f4):
    with pytest.raises(AutomorphismError):
        RingAutomorphism(f4, [(1, 0), (1, 0)])


def test_rejects_image_of_larger_additive_order(z2xz4):
    # e0 has order 2; sending it to an order-4 element cannot be additive
    with pytest.raises(AutomorphismError):
        RingAutomorphism(z2xz4, [(0, 1), (1, 0)])


def test_rejects_moving_the_identity(z4):
    with pytest.raises(AutomorphismError):
        RingAutomorphism(z4, [(3,)])


def test_rejects_non_multiplicative_map():
    r = ring_product(ring_zn(3), ring_zn(3))
    # additive, bijective, fixes (1,1), but sigma(e0)^2 != sigma(e0)
    with pytest.raises(AutomorphismError):
        RingAutomorphism(r, [(2, 0), (2, 1)])


def test_factor_swap_is_an_automorphism():
    r = ring_product(ring_zn(3), ring_zn(3))
    swap = RingAutomorphism(r, [(0, 1), (1, 0)])
    assert swap.order == 2
    assert swap.apply((1, 2)) == (2, 1)


# -- raw polynomial arithmetic ---------------------------------------------


def test_poly_mul_twists_coefficients(f4, f4_frob):
    zero, one, w = (0, 0), (1, 0), (0, 1)
    # x * w = sigma(w) x
    assert poly_mul(f4, f4_frob, [zero, one], [w]) == [zero, (1, 1)]
    # (w x) * (w x) = w sigma(w) x^2 and w sigma(w) = w + w^2 = 1
    assert poly_mul(f4, f4_frob, [zero, w], [zero, w]) == [zero, zero, one]


def test_poly_mul_degree_add(z4):
    aut = RingAutomorphism.identity(z4)
    f = [(1,), (2,)]
    g = [(3,), (0,), (1,)]
    assert poly_mul(z4, aut, f, g) == [(3,), (2,), (1,), (2,)]


def test_poly_left_divmod_frozen(z4):
    aut = RingAutomorphism.identity(z4)
    f = [(3,), (0,), (1,)]  # x^2 - 1
    g = [(0,), (0,), (0,), (1,)]  # x^3
    q, r = poly_left_divmod(z4, aut, g, f)
    assert q == [(0,), (1,)]
    assert r == [(0,), (1,)]  # x^3 = x (x^2 - 1) + x


def test_poly_left_divmod_small_degree(z4):
    aut = RingAutomorphism.identity(z4)
    f = [(3,), (0,), (1,)]
    q, r = poly_left_divmod(z4, aut, [(2,)], f)
    assert q == []
    assert r == [(2,)]


@given(st.lists(st.integers(0, 3), min_size=0, max_size=5))
def test_poly_left_divmod_recombines(coeffs):
    z4 = ring_zn(4)
    aut = RingAutomorphism.identity(z4)
    f = [(3,), (1,), (1,)]
    g = [(c,) for c in coeffs]
    q, r = poly_left_divmod(z4, aut, g, f)
    assert len(r) < len(f)
    recombined = poly_mul(z4, aut, q, f)
    width = max(len(recombined), len(r), len(g), 1)
    def pad(p):
        return p + [(0,)] * (width - len(p))
    total = [z4.add(a, b) for a, b in zip(pad(recombined), pad(r))]
    assert total == pad([z4.element((c,)) for c in coeffs])


def test_divmod_requires_monic_divisor(z4):
    aut = RingAutomorphism.identity(z4)
    with pytest.raises(ValueError):
        poly_left_divmod(z4, aut, [(1,)], [(1,), (2,)])


# -- two-sidedness ---------------------------------------------------------


def test_two_sided_checks(f4, f4_frob):
    zero, one, w = (0, 0), (1, 0), (0, 1)
    assert check_two_sided(f4, f4_frob, (one, zero, one)).ok
    bad = check_two_sided(f4, f4_frob, (w, zero, one))
    assert not bad.ok
    assert bad.reason == "shift-quotient"
    assert bad.witness == {"degree": 1}
    # degree 1 with a non-identity automorphism cannot commute scalars
    linear = check_two_sided(f4, f4_frob, (one, one))
    assert not linear.ok
    assert linear.reason == "scalar-commutation"
    assert linear.witness == {"basis": 1, "degree": 0}


def test_two_sided_over_commutative_identity(z4):
    aut = RingAutomorphism.identity(z4)
    assert check_two_sided(z4, aut, ((3,), (2,), (1,))).ok


def two_sided_oracle(ring, aut, modulus):
    """The hand-derived conditions, as (ok, reason, witness):
    (i)  f * a = aut^m(a) * f coefficientwise, for each basis scalar a;
    (ii) f_{i-1} - aut(f_{i-1}) = c * f_i for every i < m, with
         c = f_{m-1} - aut(f_{m-1}) from the one monic quotient x + c of f * x."""
    m = len(modulus) - 1
    for idx, a in enumerate(ring.basis_elements):
        top = aut.apply_power(m, a)
        for i, fi in enumerate(modulus):
            if ring.mul(fi, aut.apply_power(i, a)) != ring.mul(top, fi):
                return False, "scalar-commutation", {"basis": idx, "degree": i}
    c = ring.sub(modulus[m - 1], aut.apply(modulus[m - 1]))
    for i in range(m):
        prev = modulus[i - 1] if i >= 1 else ring.zero
        if ring.sub(prev, aut.apply(prev)) != ring.mul(c, modulus[i]):
            return False, "shift-quotient", {"degree": i}
    return True, None, None


def two_sided_corpus(f4, f4_frob, z4, m2f2, dn8):
    """(ring, aut, modulus) for every monic modulus of degree 1..3 over
    GF4, Z4, Z2 x Z2 and Z2[u,v]/(u,v)^2, and over M2(F2) up to degree 2,
    then at degree 3 with coefficients in the upper triangular subring
    (which holds every two-sided one there)."""
    zz = ring_product(ring_zn(2), ring_zn(2))
    p = (1, 1, 0, 1)  # [[1, 1], [0, 1]], its own inverse
    conj = RingAutomorphism(m2f2, [m2f2.mul(m2f2.mul(p, e), p) for e in m2f2.basis_elements])
    upper = [a for a in m2f2.elements() if a[2] == 0]
    for ring, aut in ((f4, RingAutomorphism.identity(f4)), (f4, f4_frob),
                      (z4, RingAutomorphism.identity(z4)),
                      (zz, RingAutomorphism(zz, [(0, 1), (1, 0)])),
                      (dn8, RingAutomorphism.identity(dn8)),
                      (dn8, RingAutomorphism(dn8, [(1, 0, 0), (0, 0, 1), (0, 1, 0)])),
                      (m2f2, RingAutomorphism.identity(m2f2)), (m2f2, conj)):
        for m in (1, 2, 3):
            pool = upper if ring is m2f2 and m == 3 else list(ring.elements())
            for low in product(pool, repeat=m):
                yield ring, aut, low + (ring.one,)


def test_two_sided_check_matches_the_hand_derived_conditions(f4, f4_frob, z4, m2f2, dn8):
    seen = Counter()
    for ring, aut, modulus in two_sided_corpus(f4, f4_frob, z4, m2f2, dn8):
        verdict = check_two_sided(ring, aut, modulus)
        expected = two_sided_oracle(ring, aut, modulus)
        assert (verdict.ok, verdict.reason, verdict.witness) == expected, (ring, modulus)
        seen[verdict.reason] += 1
    assert seen == {"scalar-commutation": 2110, None: 838, "shift-quotient": 124}


def test_quotient_constructor_rejections(f4, f4_frob):
    zero, one, w = (0, 0), (1, 0), (0, 1)
    with pytest.raises(NotTwoSidedError) as exc:
        SkewQuotient(f4, f4_frob, (w, zero, one))
    assert exc.value.witness == ("shift-quotient", {"degree": 1})
    for modulus, message in [((one, zero, w), "modulus must be monic"),
                              ((one,), "modulus must have degree at least 1")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            SkewQuotient(f4, f4_frob, modulus)
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_two_sided(f4, f4_frob, modulus)
    z4 = ring_zn(4)
    with pytest.raises(ValueError, match="^automorphism acts on a different ring$"):
        SkewQuotient(f4, RingAutomorphism.identity(z4), (one,))  # refused before the degree
    with pytest.raises(ValueError):
        # constant coefficient 2 is a zero divisor
        SkewQuotient(z4, RingAutomorphism.identity(z4), ((2,), (0,), (1,)))


# -- quotient arithmetic ---------------------------------------------------


def test_gf4_quotient_products(q_gf4):
    zero, one, w = (0, 0), (1, 0), (0, 1)
    wx = (zero, w)
    assert q_gf4.mul(wx, wx) == (one, zero)
    x = q_gf4.shift_generator()
    # x * w = sigma(w) x
    assert q_gf4.mul(x, q_gf4.embed_scalar(w)) == (zero, (1, 1))
    assert q_gf4.mul(x, x) == q_gf4.one


def test_quotient_scalar_embedding(q_z4):
    a, b = (3,), (2,)
    ea = q_z4.embed_scalar(a)
    eb = q_z4.embed_scalar(b)
    assert q_z4.mul(ea, eb) == q_z4.embed_scalar((2,))
    assert q_z4.add(ea, eb) == q_z4.embed_scalar((1,))
    assert q_z4.neg(ea) == q_z4.embed_scalar((1,))


def test_degree_one_quotient_collapses_to_base():
    z6 = ring_zn(6)
    q = SkewQuotient(z6, RingAutomorphism.identity(z6), ((5,), (1,)))
    assert q.m == 1
    assert q.shift_generator() == ((1,),)
    assert q.as_finite_ring() == z6


def zn_quotient(n, modulus):
    """Z_n[x] / (f) for f given by integer coefficients, lowest first."""
    zn = ring_zn(n)
    return SkewQuotient(zn, RingAutomorphism.identity(zn), tuple((c,) for c in modulus))


# moduli whose only nonzero middle coefficient is f_1: no reduction step
# feeds back into the constant term, so the closed form is exact
ONLY_F1_MODULI = {
    "z2-x3+x+1": (2, (1, 1, 0, 1)),
    "z2-x4+x+1": (2, (1, 1, 0, 0, 1)),
    "z3-x3+x+2": (3, (2, 1, 0, 1)),
}


@pytest.mark.parametrize("which", ["gf4", "z4", "z2cubic", *ONLY_F1_MODULI])
def test_constant_term_formula_matches_product(which, q_gf4, q_z4, q_z2_cubic):
    if which in ONLY_F1_MODULI:
        q = zn_quotient(*ONLY_F1_MODULI[which])
    else:
        q = {"gf4": q_gf4, "z4": q_z4, "z2cubic": q_z2_cubic}[which]
    for g in q.elements():
        for h in q.elements():
            assert q.constant_term_product(g, h) == q.mul(g, h)[0]


@pytest.mark.parametrize("modulus", [(1, 0, 1, 1), (1, 0, 0, 1, 1)],
                         ids=["z2-x3+x2+1", "z2-x4+x3+1"])
def test_constant_term_formula_rejects_feedback_moduli(modulus):
    # a nonzero f_j with 2 <= j <= m - 1 feeds the reduction of higher
    # degrees back into the constant term; the closed form would be wrong
    q = zn_quotient(2, modulus)
    g = q.shift_generator()
    with pytest.raises(UnsupportedModulusError):
        q.constant_term_product(g, g)


@given(st.sampled_from([2, 3]), st.integers(3, 4), st.data())
def test_constant_term_formula_is_exact_or_refuses(n, m, data):
    coeff = st.integers(0, n - 1)
    middle = [data.draw(coeff) for _ in range(m - 1)]  # f_1 .. f_{m-1}
    q = zn_quotient(n, (data.draw(st.integers(1, n - 1)), *middle, 1))
    g = tuple((data.draw(coeff),) for _ in range(m))
    h = tuple((data.draw(coeff),) for _ in range(m))
    if any(middle[1:]):
        with pytest.raises(UnsupportedModulusError):
            q.constant_term_product(g, h)
    else:
        assert q.constant_term_product(g, h) == q.mul(g, h)[0]


def test_constant_term_formula_limit():
    # outside f_j = 0 for 2 <= j <= m - 1 the shortcut would disagree with
    # the true product: over Z_2 with f = x^3 + x^2 + 1, x^2 * x^2 has
    # constant term 1 but the formula sees no feedback from the x^3 step,
    # so it refuses instead of answering 0
    z2 = ring_zn(2)
    q = SkewQuotient(
        z2, RingAutomorphism.identity(z2), ((1,), (0,), (1,), (1,))
    )
    g = ((0,), (0,), (1,))
    assert q.mul(g, g)[0] == (1,)
    with pytest.raises(UnsupportedModulusError):
        q.constant_term_product(g, g)


def test_quotient_associativity_exhaustive(q_gf4):
    els = list(q_gf4.elements())
    for a in els[:6]:
        for b in els:
            for c in els[:6]:
                assert q_gf4.mul(q_gf4.mul(a, b), c) == q_gf4.mul(a, q_gf4.mul(b, c))


# The product goes through the structure table; the polynomial route that
# builds the table is the oracle for every pair.


def polynomial_product(q, g, h):
    return q.reduce_poly(poly_mul(q.base, q.aut, list(g), list(h)))


def cyclic_quotient(n, m):
    base = ring_zn(n)
    modulus = [(n - 1,)] + [(0,)] * (m - 1) + [(1,)]
    return SkewQuotient(base, RingAutomorphism.identity(base), modulus)


def swap_quotient():
    base = ring_product(ring_zn(2), ring_zn(2))
    swap = RingAutomorphism(base, [(0, 1), (1, 0)])
    return SkewQuotient(base, swap, [(1, 1), (0, 0), (1, 1)])


@pytest.mark.parametrize("which", ["gf4", "z4", "z2_cubic", "z2_x6", "z3_x4", "swap"])
def test_quotient_mul_matches_polynomial_route(which, q_gf4, q_z4, q_z2_cubic):
    q = {
        "gf4": q_gf4,
        "z4": q_z4,
        "z2_cubic": q_z2_cubic,
        "z2_x6": cyclic_quotient(2, 6),
        "z3_x4": cyclic_quotient(3, 4),
        "swap": swap_quotient(),
    }[which]
    els = list(q.elements())
    for g in els:
        for h in els:
            assert q.mul(g, h) == polynomial_product(q, g, h), (g, h)


def test_mul_answers_above_the_cap():
    with enumeration_cap(4):
        q = cyclic_quotient(2, 3)
        x = q.shift_generator()
        assert q.mul(x, q.mul(x, x)) == q.one
        with pytest.raises(EnumerationCapError):
            q.as_finite_ring()
        assert q.mul(x, x) == ((0,), (0,), (1,))


def test_huge_quotient_hits_the_cap_without_forming_its_size():
    q = cyclic_quotient(2, 20000)
    for call in (q.elements, q.as_finite_ring):
        with pytest.raises(EnumerationCapError, match="skew quotient has 2\\^20000 entries"):
            call()


# -- the quotient as a finite ring -----------------------------------------


def test_as_finite_ring_structure(q_gf4, q_z4):
    r1 = q_gf4.as_finite_ring()
    assert r1.cardinality == 16
    assert r1.characteristic == 2
    assert r1.shape.orders == (2, 2, 2, 2)
    r2 = q_z4.as_finite_ring()
    assert r2.cardinality == 16
    assert r2.characteristic == 4
    assert r2.shape.orders == (4, 4)


def test_flatten_unflatten_roundtrip(q_gf4):
    ring = q_gf4.as_finite_ring()
    for g in q_gf4.elements():
        assert q_gf4.unflatten(q_gf4.flatten(g)) == g
    for v in ring.elements():
        assert q_gf4.flatten(q_gf4.unflatten(v)) == v
    # products agree through the flattening
    g = ((1, 1), (0, 1))
    h = ((0, 0), (1, 0))
    assert q_gf4.flatten(q_gf4.mul(g, h)) == ring.mul(q_gf4.flatten(g), q_gf4.flatten(h))


def test_gf4_quotient_is_semisimple(q_gf4):
    ring = q_gf4.as_finite_ring()
    assert len(ring.jacobson_radical()) == 1
    assert len(ring.units()) == 6
    assert bool(is_frobenius_socle(ring))


def test_z4_quotient_is_local(q_z4):
    ring = q_z4.as_finite_ring()
    assert len(ring.jacobson_radical()) == 8
    cert = is_frobenius_socle(ring)
    assert cert.is_frobenius
    assert cert.right_socle_size == 2
    assert set(ring.socle("right")) == {(0, 0), (2, 2)}


# -- lifted functionals ----------------------------------------------------


def test_lifted_functional_weights(q_gf4, q_z4):
    for q, expected in ((q_gf4, (0, 1, 0, 0)), (q_z4, (1, 0))):
        eps = find_frobenius_functional(q.base)
        lifted = q.frobenius_functional(eps)
        assert lifted.weights == expected
        ring = q.as_finite_ring()
        assert is_nondegenerate(ring, lifted.pairing)


def test_lifted_functional_is_constant_coefficient(q_gf4):
    eps = find_frobenius_functional(q_gf4.base)
    lifted = q_gf4.frobenius_functional(eps)
    for g in q_gf4.elements():
        assert lifted.evaluate(q_gf4.flatten(g)) == eps.evaluate(g[0])


def test_lift_accepts_raw_form_and_validates(q_z4):
    from frobring.znmod import ZnLinearForm
    from frobring.frobenius import DegenerateFormError

    lifted = q_z4.frobenius_functional(ZnLinearForm(q_z4.base.shape, (1,)))
    assert lifted.weights == (1, 0)
    with pytest.raises(DegenerateFormError):
        q_z4.frobenius_functional(ZnLinearForm(q_z4.base.shape, (2,)))


# -- reversal --------------------------------------------------------------


def test_reversal_formula_m2(q_gf4):
    w = (0, 1)
    g = ((1, 0), w)  # 1 + w x
    # theta(a + b x) = a + sigma^{-1}(b) x and sigma^{-1} = sigma here
    assert q_gf4.reversal(g) == ((1, 0), (1, 1))
    assert q_gf4.reversal(q_gf4.one) == q_gf4.one


def test_reversal_formula_m3(q_z2_cubic):
    g = ((1,), (1,), (0,))  # 1 + x
    # x |-> x^2 when m = 3 and the automorphism is trivial
    assert q_z2_cubic.reversal(g) == ((1,), (0,), (1,))


@pytest.mark.parametrize("which", ["gf4", "z4", "z2cubic"])
def test_reversal_is_an_anti_involution(which, q_gf4, q_z4, q_z2_cubic):
    q = {"gf4": q_gf4, "z4": q_z4, "z2cubic": q_z2_cubic}[which]
    els = list(q.elements())
    for a in els:
        assert q.reversal(q.reversal(a)) == a
        for b in els:
            assert q.add(q.reversal(a), q.reversal(b)) == q.reversal(q.add(a, b))
            assert q.reversal(q.mul(a, b)) == q.mul(q.reversal(b), q.reversal(a))


def test_reversal_needs_cyclic_modulus():
    z2 = ring_zn(2)
    q = SkewQuotient(z2, RingAutomorphism.identity(z2), ((1,), (0,), (1,), (1,)))
    assert not q.has_cyclic_modulus()
    with pytest.raises(UnsupportedModulusError):
        q.reversal(q.one)


def test_has_cyclic_modulus(q_gf4, q_z4, q_z2_cubic):
    assert q_gf4.has_cyclic_modulus()
    assert q_z4.has_cyclic_modulus()
    assert q_z2_cubic.has_cyclic_modulus()
