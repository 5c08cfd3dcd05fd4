"""Functionals, pairings, annihilators and ambient orthogonals."""

import re

import pytest

from frobring.znmod import ZnLinearForm, kernel_elements
from frobring.finring import is_frobenius_socle, left_ideals, right_ideals
from frobring.frobenius import (
    AmbientForm,
    DegenerateFormError,
    FrobeniusFunctional,
    associativity_violation,
    find_frobenius_functional,
    functional_left_orthogonal,
    functional_orthogonal,
    functional_right_orthogonal,
    is_associative,
    is_nondegenerate,
    left_annihilator,
    orthogonal,
    pairing_from_gram,
    pairing_kernel,
    pairing_of_functional,
    right_annihilator,
    verify_generator_equivalences,
)


def vec(ring, *coords):
    return tuple(ring.element(c if isinstance(c, tuple) else (c,)) for c in coords)


# -- pairings --------------------------------------------------------------


def test_pairing_of_functional(z4):
    form = ZnLinearForm(z4.shape, (1,))
    pair = pairing_of_functional(z4, form)
    assert pair((2,), (3,)) == 2
    assert pair((2,), (2,)) == 0


def test_pairing_kernels(z4):
    doubled = ZnLinearForm(z4.shape, (2,))
    pair = pairing_of_functional(z4, doubled)
    assert pairing_kernel(z4, pair, "first") == {(0,), (2,)}
    assert pairing_kernel(z4, pair, "second") == {(0,), (2,)}
    assert not is_nondegenerate(z4, pair)
    good = pairing_of_functional(z4, ZnLinearForm(z4.shape, (3,)))
    assert is_nondegenerate(z4, good, "right")
    assert is_nondegenerate(z4, good, "left")
    with pytest.raises(ValueError):
        pairing_kernel(z4, good, "middle")
    with pytest.raises(ValueError):
        is_nondegenerate(z4, pair, "bogus")


@pytest.mark.parametrize("entry", [2.9, "3", True])
def test_pairing_from_gram_refuses_entries_that_are_not_ints(z4, entry):
    with pytest.raises(ValueError, match="gram entry .* is not an int"):
        pairing_from_gram(z4, [[entry]])


def test_pairing_from_gram_shape_check(z4):
    with pytest.raises(ValueError):
        pairing_from_gram(z4, [[1, 0]])
    # on Z4 x Z2 the identity gram is not well defined: x = (0, 1) would
    # pair to 1 with itself while x + x = 0 pairs to 0
    from frobring.finring import ring_product, ring_zn

    r = ring_product(ring_zn(4), ring_zn(2))
    with pytest.raises(ValueError, match="not well defined"):
        pairing_from_gram(r, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="not well defined"):
        pairing_from_gram(r, [[1, 1], [0, 2]])  # 2 * 1 != 0 (mod 4) in row 0
    with pytest.raises(ValueError, match="not well defined"):
        pairing_from_gram(r, [[1, 0], [1, 0]])  # and in column 0
    pair = pairing_from_gram(r, [[1, 2], [0, 2]])
    assert pair((0, 1), (0, 1)) == 2
    assert is_nondegenerate(r, pair)
    assert pairing_kernel(r, pair, "first") == kernel_elements(pair, r.shape, r.shape)


def test_multiplication_pairings_are_associative(z4, m2f2):
    for ring in (z4, m2f2):
        for w in ({f.weights for f in [find_frobenius_functional(ring).form]}):
            pair = pairing_of_functional(ring, ZnLinearForm(ring.shape, w))
            assert is_associative(ring, pair)


def test_gram_pairing_can_break_associativity():
    from frobring.finring import ring_product, ring_zn

    r = ring_product(ring_zn(2), ring_zn(2))
    pair = pairing_from_gram(r, [[0, 1], [0, 0]])  # <a, b> = a_0 b_1
    assert associativity_violation(r, pair) == (0, 0, 1)
    assert not is_associative(r, pair)


def test_trace_pairing_on_matrices(m2f2):
    trace = ZnLinearForm(m2f2.shape, (1, 0, 0, 1))
    pair = pairing_of_functional(m2f2, trace)
    assert is_associative(m2f2, pair)
    assert is_nondegenerate(m2f2, pair)


# -- functionals -----------------------------------------------------------


def test_functional_constructor_validates(z4):
    f = FrobeniusFunctional(z4, ZnLinearForm(z4.shape, (1,)))
    assert f.weights == (1,)
    assert f.evaluate((3,)) == 3
    assert f.pairing((2,), (3,)) == 2
    assert f.gram() == ((1,),)
    with pytest.raises(DegenerateFormError) as exc:
        FrobeniusFunctional(z4, ZnLinearForm(z4.shape, (2,)))
    assert exc.value.side == "right"
    assert exc.value.witness == (2,)


def test_functional_shape_mismatch(z4, z2):
    with pytest.raises(ValueError):
        FrobeniusFunctional(z4, ZnLinearForm(z2.shape, (1,)))


def test_find_functional_frozen_values(z4, z2xz4, m2f2, f4, dn8):
    assert find_frobenius_functional(z4).weights == (1,)
    assert find_frobenius_functional(z2xz4).weights == (2, 1)
    assert find_frobenius_functional(m2f2).weights == (0, 1, 1, 0)
    # first hit on F_4 is the absolute trace x + x^2
    assert find_frobenius_functional(f4).weights == (0, 1)
    assert find_frobenius_functional(dn8) is None


def test_functional_agrees_with_socle_route(corpus):
    for name, ring in corpus.items():
        assert (find_frobenius_functional(ring) is not None) == bool(
            is_frobenius_socle(ring)
        ), name


def test_generator_equivalences_all_pass(z4):
    rep = verify_generator_equivalences(z4, find_frobenius_functional(z4))
    assert rep.right_orbit_full
    assert rep.left_orbit_full
    assert rep.first_slot_bijective
    assert rep.second_slot_bijective
    assert rep.pairing_associative
    assert rep.all_passed


def test_generator_equivalences_degenerate_form(z4):
    # eps = 2 id on Z_4: every orbit and bijectivity item fails, but the
    # pairing eps(ab) is still associative because the product is
    rep = verify_generator_equivalences(z4, ZnLinearForm(z4.shape, (2,)))
    assert not rep.right_orbit_full
    assert not rep.left_orbit_full
    assert not rep.first_slot_bijective
    assert not rep.second_slot_bijective
    assert rep.pairing_associative
    assert not rep.all_passed


def test_generator_equivalences_on_matrices(m2f2):
    rep = verify_generator_equivalences(m2f2, find_frobenius_functional(m2f2))
    assert rep.all_passed


# -- annihilators ----------------------------------------------------------


def test_matrix_annihilators(m2f2):
    e00 = m2f2.element((1, 0, 0, 0))
    rann = right_annihilator(m2f2, [e00])
    # E00 * B = 0 forces the first row of B to vanish
    assert rann.elements == {
        (0, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 1),
    }
    assert rann.side == "right"
    lann = left_annihilator(m2f2, [e00])
    assert lann.elements == {
        (0, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1),
        (0, 1, 0, 1),
    }


def test_double_annihilator_on_z4(z4):
    s = {(0,), (2,)}
    assert left_annihilator(z4, s).elements == {(0,), (2,)}
    assert right_annihilator(z4, left_annihilator(z4, s)).elements == s


def test_annihilator_matches_functional_orthogonal(m2f2):
    eps = find_frobenius_functional(m2f2)
    for ideal in right_ideals(m2f2):
        assert (
            functional_left_orthogonal(m2f2, eps, ideal.elements)
            == left_annihilator(m2f2, ideal.elements).elements
        )
    for ideal in left_ideals(m2f2):
        assert (
            functional_right_orthogonal(m2f2, eps, ideal.elements)
            == right_annihilator(m2f2, ideal.elements).elements
        )


def test_forms_on_another_module_are_rejected(z4, z2xz4):
    alien = ZnLinearForm(z2xz4.shape, (2, 1))
    for call in (functional_left_orthogonal, functional_right_orthogonal):
        with pytest.raises(ValueError, match="form is not defined on the ring's module"):
            call(z4, alien, [(1,)])
    with pytest.raises(ValueError, match="form is not defined on the ring's module"):
        pairing_of_functional(z4, alien)
    with pytest.raises(ValueError, match="form is not defined on the ring's module"):
        functional_orthogonal(AmbientForm(z4, 1, [[(1,)]]), alien, [((1,),)], "left")


def test_functional_orthogonal_differs_on_non_ideals(z4):
    # for a bare subset the two orthogonals need not agree with the
    # annihilator: {1} annihilates nothing but eps(x * 1) = 0 has kernel
    eps = find_frobenius_functional(z4)
    assert left_annihilator(z4, [(1,)]).elements == {(0,)}
    assert functional_left_orthogonal(z4, eps, [(1,)]) == {(0,)}
    assert functional_left_orthogonal(z4, eps, [(2,)]) == {(0,), (2,)}
    assert left_annihilator(z4, [(2,)]).elements == {(0,), (2,)}


@pytest.mark.parametrize("call, subset, bad", [
    ("left annihilator", [(1, 1, 1)], (1, 1, 1)),
    ("right annihilator", [(1, 1, 1)], (1, 1, 1)),
    ("left annihilator", [(0, 0), (3, 3)], (3, 3)),
    ("left orthogonal", [(1, 1, 1)], (1, 1, 1)),
    ("right orthogonal", [(1, 0), (3, 1)], (3, 1)),
])
def test_subsets_holding_a_non_element_are_refused(z2c2, call, subset, bad):
    """A non-element is never in the span of the elements sorted before
    it, so it is always a picked generator, and each of those is checked."""
    eps = find_frobenius_functional(z2c2)
    run = {"left annihilator": lambda s: left_annihilator(z2c2, s),
           "right annihilator": lambda s: right_annihilator(z2c2, s),
           "left orthogonal": lambda s: functional_left_orthogonal(z2c2, eps, s),
           "right orthogonal": lambda s: functional_right_orthogonal(z2c2, eps, s)}[call]
    with pytest.raises(ValueError, match=re.escape(f"{bad} is not an element")):
        run(subset)


# -- ambient forms ---------------------------------------------------------


def test_ambient_identity_form(z2):
    form = AmbientForm(z2, 2, [[(1,), (0,)], [(0,), (1,)]])
    assert form.pairing(vec(z2, 1, 1), vec(z2, 1, 0)) == (1,)
    assert form.pairing(vec(z2, 1, 1), vec(z2, 1, 1)) == (0,)
    assert form.is_nondegenerate()
    assert form.cardinality == 4


def test_triangular_form_counterexample_orthogonals(z2):
    # the gram [[1,1],[0,1]] over F_2 separates left from right orthogonals
    form = AmbientForm(z2, 2, [[(1,), (1,)], [(0,), (1,)]])
    assert form.is_nondegenerate()
    code = [vec(z2, 0, 0), vec(z2, 1, 0)]
    assert orthogonal(form, code, "right") == {vec(z2, 0, 0), vec(z2, 1, 1)}
    assert orthogonal(form, code, "left") == {vec(z2, 0, 0), vec(z2, 0, 1)}
    with pytest.raises(ValueError):
        orthogonal(form, code, "sideways")


def test_degenerate_ambient_form(z2):
    form = AmbientForm(z2, 2, [[(1,), (1,)], [(1,), (1,)]])
    assert vec(z2, 1, 1) in form.left_kernel()
    assert not form.is_nondegenerate()
    assert form.is_nondegenerate("right") is False


def test_ambient_form_shape_checks(z2):
    with pytest.raises(ValueError):
        AmbientForm(z2, 0, [])
    with pytest.raises(ValueError):
        AmbientForm(z2, 2, [[(1,), (0,)]])


def test_double_orthogonal_recovers_submodules(z4):
    from frobring.codes import submodule_codes

    form = AmbientForm(z4, 2, [[(1,), (0,)], [(0,), (1,)]])
    for code in submodule_codes(z4, 2, "left"):
        right = orthogonal(form, code.codewords, "right")
        again = orthogonal(form, right, "left")
        assert again == code.codewords
        assert len(code.codewords) * len(right) == 16


def test_functional_orthogonal_matches_ring_orthogonal(z4):
    from frobring.codes import submodule_codes

    eps = find_frobenius_functional(z4)
    form = AmbientForm(z4, 2, [[(1,), (0,)], [(0,), (1,)]])
    for code in submodule_codes(z4, 2, "left"):
        words = code.codewords
        for side in ("left", "right"):
            assert functional_orthogonal(form, eps, words, side) == orthogonal(
                form, words, side
            )


def test_noncommutative_orthogonal_sides(m2f2):
    # in M_2(F_2)^1 with the identity form, orthogonals are annihilators
    form = AmbientForm(m2f2, 1, [[(1, 0, 0, 1)]])
    e00 = (m2f2.element((1, 0, 0, 0)),)
    right = orthogonal(form, [e00], "right")
    assert {v[0] for v in right} == right_annihilator(m2f2, [e00[0]]).elements
