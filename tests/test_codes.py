"""Ring-linear codes, duals, MacWilliams and the two duality bridges."""

import random
from functools import reduce
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, strategies as st

from frobring import codes as codes_module, finring
from frobring.catalog import corpus_rings, gf4, gf4_skew_quotient
from frobring.cli import build_ring
from frobring.finring import FiniteRing, left_ideals, ring_from_table, ring_group_algebra, ring_zn
from frobring.frobenius import AmbientForm, DegenerateFormError, find_frobenius_functional
from frobring.skewpoly import RingAutomorphism, SkewQuotient, poly_left_divmod
from frobring.znmod import DEFAULT_CAP, ZnLinearForm, annihilated, enumeration_cap
from frobring.codes import (
    LinearCode,
    TransformError,
    WeightEnumerator,
    dual,
    euclidean_dual,
    group_algebra_dual_report,
    group_inversion,
    hamming_weight,
    identity_form,
    is_monomial,
    is_skew_cyclic,
    macwilliams_holds,
    macwilliams_transform,
    quotient_left_ideal_codes,
    skew_cyclic_dual_report,
    submodule_codes,
    weight_enumerator,
)


def vecs(ring, *rows):
    return [tuple(ring.element((c,) if isinstance(c, int) else c) for c in row) for row in rows]


# -- code generation -------------------------------------------------------


def test_generate_left_code(z4):
    c = LinearCode.generate(z4, 2, [[(1,), (2,)]])
    assert c.side == "left"
    assert c.codewords == {((0,), (0,)), ((1,), (2,)), ((2,), (0,)), ((3,), (2,))}
    assert c.cardinality == 4


def test_generate_sides_differ(m2f2):
    e01 = (0, 1, 0, 0)
    left = LinearCode.generate(m2f2, 1, [[e01]], side="left")
    right = LinearCode.generate(m2f2, 1, [[e01]], side="right")
    additive = LinearCode.generate(m2f2, 1, [[e01]], side="additive")
    assert {v[0] for v in left.codewords} == {
        (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1)
    }
    assert {v[0] for v in right.codewords} == {
        (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)
    }
    assert additive.codewords == {((0, 0, 0, 0),), ((0, 1, 0, 0),)}


def test_generate_rejects_bad_input(z4):
    with pytest.raises(ValueError):
        LinearCode.generate(z4, 2, [[(1,)]], side="left")
    with pytest.raises(ValueError):
        LinearCode.generate(z4, 2, [[(1,), (0,)]], side="middle")
    for m in (0, -1):  # like AmbientForm, codes need a positive length
        with pytest.raises(ValueError, match="length must be positive"):
            LinearCode.generate(z4, m, [])
        with pytest.raises(ValueError, match="length must be positive"):
            submodule_codes(z4, m, "left")
        with pytest.raises(ValueError, match="length must be positive"):
            LinearCode(z4, m, "left", [()])


@pytest.mark.parametrize("m", [True, 2.0, 1.0])
def test_lengths_that_are_not_ints_are_refused(m):
    """Bools and floats are refused as lengths, not read as 1 or 2."""
    z2 = ring_zn(2)
    calls = [lambda: LinearCode.generate(z2, m, [[(1,)] * 2]),
             lambda: LinearCode(z2, m, "left", [((0,),) * 2]),
             lambda: submodule_codes(z2, m, "left")]
    for call in calls:
        with pytest.raises(ValueError, match="code length .* is not an int"):
            call()
    gram = [[(1,) if i == j else (0,) for j in range(2)] for i in range(2)]
    for call in (lambda: AmbientForm(z2, m, gram).left_kernel(),
                 lambda: identity_form(z2, m)):
        with pytest.raises(ValueError, match="ambient length .* is not an int"):
            call()
    with pytest.raises(ValueError, match="enumerator length .* is not an int"):
        WeightEnumerator(m, (1,) * 2)


def test_code_equality_and_side_blindness(z4):
    a = LinearCode.generate(z4, 1, [[(1,)]], side="left")
    b = LinearCode.generate(z4, 1, [[(1,)]], side="right")
    assert a != b
    assert a.same_codewords(b)


def test_validate_catches_non_codes(z4):
    with pytest.raises(ValueError):
        LinearCode(z4, 1, "left", [((1,),)])  # no zero
    with pytest.raises(ValueError):
        LinearCode(z4, 1, "left", [((0,),), ((1,),)])  # not closed
    with pytest.raises(ValueError):
        LinearCode(z4, 2, "left", [((0,), (0,)), ((0,),)])  # short word
    with pytest.raises(ValueError):
        LinearCode(z4, 1, "left", [((0,),), ((4,),)])  # unreduced entry
    with pytest.raises(ValueError, match="is not a vector"):
        LinearCode(z4, 1, "left", [((0,),), ((True,),), ((2,),), ((3,),)])  # bool entry


# -- weight enumerators ----------------------------------------------------


def test_hamming_weight(z4):
    assert hamming_weight(((0,), (2,), (3,)), z4.zero) == 2
    assert hamming_weight(((0,), (0,)), z4.zero) == 0


def test_weight_enumerator_strings(z2):
    c = LinearCode.generate(z2, 2, [[(1,), (0,)]])
    assert weight_enumerator(c).polynomial() == "X^2 + X*Y"
    rep = LinearCode.generate(z2, 3, [[(1,), (1,), (1,)]])
    assert weight_enumerator(rep).polynomial() == "X^3 + Y^3"
    zero = LinearCode.generate(z2, 2, [])
    assert weight_enumerator(zero).polynomial() == "X^2"
    assert WeightEnumerator(0, (1,)).polynomial() == "1"
    assert WeightEnumerator(1, (0, 0)).polynomial() == "0"


def test_weight_enumerator_total(z4):
    c = LinearCode.generate(z4, 2, [[(1,), (1,)], [(0,), (2,)]])
    enum = weight_enumerator(c)
    assert enum.total == c.cardinality


# -- duals -----------------------------------------------------------------


def test_triangular_gram_breaks_duality(z2):
    code = LinearCode.generate(z2, 2, [[(1,), (0,)]])
    form = AmbientForm(z2, 2, vecs(z2, (1, 1), (0, 1)))
    d = dual(code, form)
    assert d.side == "right"
    assert d.codewords == {((0,), (0,)), ((1,), (1,))}
    left = dual(code, form, side="left")
    assert left.codewords == {((0,), (0,)), ((0,), (1,))}


def test_euclidean_dual_over_z4(z4):
    code = LinearCode.generate(z4, 2, [[(2,), (0,)]])
    d = euclidean_dual(code)
    assert d.cardinality == 8
    assert all(z4.mul(v[0], (2,)) == z4.zero for v in d.codewords)
    assert code.cardinality * d.cardinality == 16


def test_dual_rejects_mismatched_ambient(z4, z2):
    code = LinearCode.generate(z4, 2, [[(1,), (0,)]])
    with pytest.raises(ValueError):
        dual(code, identity_form(z4, 3))
    with pytest.raises(ValueError):
        dual(code, identity_form(z2, 2))


def test_dual_rejects_degenerate_form(z2):
    code = LinearCode.generate(z2, 2, [[(1,), (0,)]])
    form = AmbientForm(z2, 2, vecs(z2, (1, 1), (1, 1)))
    with pytest.raises(DegenerateFormError) as exc:
        dual(code, form)
    assert exc.value.witness == (((1,), (1,)))


def test_double_dual_recovers_code(z4):
    for code in submodule_codes(z4, 2, "left"):
        d = euclidean_dual(code)
        assert euclidean_dual(d, side="left").codewords == code.codewords


# -- monomial matrices and MacWilliams -------------------------------------


def test_is_monomial(z4):
    assert is_monomial(z4, vecs(z4, (0, 1), (3, 0)))
    assert is_monomial(z4, vecs(z4, (1, 0), (0, 3)))
    assert not is_monomial(z4, vecs(z4, (1, 1), (0, 1)))
    assert not is_monomial(z4, vecs(z4, (2, 0), (0, 1)))  # 2 is not a unit
    assert not is_monomial(z4, vecs(z4, (1, 0), (1, 0)))
    assert not is_monomial(z4, [vecs(z4, (1, 0))[0]])  # ragged


def test_transform_of_full_code_is_point_mass():
    for n, m in ((2, 2), (3, 2), (4, 3), (5, 1)):
        A = ring_zn(n)
        full = LinearCode(A, m, "left", identity_form(A, m).vectors())
        enum = weight_enumerator(full)
        out = macwilliams_transform(enum, n, full.cardinality)
        assert out.counts == (1,) + (0,) * m


def test_transform_frozen_example(z2):
    code = LinearCode.generate(z2, 2, [[(1,), (0,)]])
    out = macwilliams_transform(weight_enumerator(code), 2, 2)
    assert out.counts == (1, 1, 0)  # X^2 + XY again


@pytest.mark.parametrize("sizes", [(True, 1), (0, 1), (-2, 1), (2.0, 2),
                                   (2, 0), (2, 2.0), (2, False)])
def test_transform_refuses_sizes_that_are_not_positive_ints(sizes):
    # (True, 1) read as q = 1 returned counts (2, -1), (0, 1) returned (2, -2)
    with pytest.raises(ValueError, match="(alphabet|code) size"):
        macwilliams_transform(WeightEnumerator(1, (1, 1)), *sizes)


def test_weight_enumerator_refuses_a_negative_length():
    with pytest.raises(ValueError, match="enumerator length must be non-negative"):
        WeightEnumerator(-1, ())
    assert WeightEnumerator(0, (1,)).total == 1


def test_transform_non_integral_raises():
    with pytest.raises(TransformError):
        macwilliams_transform(WeightEnumerator(1, (2, 1)), 2, 2)


def test_macwilliams_report_positive(z2):
    code = LinearCode.generate(z2, 2, [[(1,), (0,)]])
    rep = macwilliams_holds(code, identity_form(z2, 2))
    assert rep.identity_holds
    assert rep.gram_is_monomial
    assert rep.dual.codewords == {((0,), (0,)), ((0,), (1,))}


def test_macwilliams_report_negative(z2):
    code = LinearCode.generate(z2, 2, [[(1,), (0,)]])
    form = AmbientForm(z2, 2, vecs(z2, (1, 1), (0, 1)))
    rep = macwilliams_holds(code, form)
    assert not rep.identity_holds
    assert not rep.gram_is_monomial
    assert rep.code_enumerator.counts == (1, 1, 0)
    assert rep.dual_enumerator.counts == (1, 0, 1)
    assert rep.transformed.counts == (1, 1, 0)


def binomial_transform(counts, m, q):
    """W(X + (q-1)Y, X - Y) by inline binomial expansion, undivided."""
    out = [0] * (m + 1)
    for w, a_w in enumerate(counts):
        for s in range(m - w + 1):
            for t in range(w + 1):
                out[s + t] += a_w * comb(m - w, s) * (q - 1) ** s * comb(w, t) * (-1) ** t
    return out


def test_cached_krawtchouk_transform_matches_the_binomial_expansion():
    """Every point-mass enumerator, which spans the rest, and seeded random
    ones, for m <= 8 and q <= 9, divided by sizes that do and do not divide
    every coefficient: the same counts, or the same TransformError."""
    rng = random.Random(23)
    for m in range(9):
        for q in range(1, 10):
            enums = [tuple(int(u == w) for u in range(m + 1)) for w in range(m + 1)]
            enums += [tuple(rng.choice((0, 0, 1, 2, 5)) for _ in range(m + 1)) for _ in range(3)]
            for counts in enums:
                expanded = binomial_transform(counts, m, q)
                for size in (1, 2, 3, q):
                    bad = next((u for u, v in enumerate(expanded) if v % size), None)
                    if bad is None:
                        out = macwilliams_transform(WeightEnumerator(m, counts), q, size)
                        assert out.counts == tuple(v // size for v in expanded)
                        continue
                    message = (f"coefficient of Y^{bad} is {expanded[bad]}, "
                               f"not divisible by |C| = {size}")
                    with pytest.raises(TransformError) as err:
                        macwilliams_transform(WeightEnumerator(m, counts), q, size)
                    assert str(err.value) == message


def test_generators_and_the_monomial_flag_are_picked_once(z4, monkeypatch):
    """A code picks its additive generators once, whatever form it meets,
    and a form decides whether its gram is monomial once, whatever code."""
    calls = {"generators": 0, "monomial": 0}

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(codes_module, "additive_generators",
                        counting("generators", codes_module.additive_generators))
    monkeypatch.setattr(codes_module, "is_monomial", counting("monomial", is_monomial))
    forms = [identity_form(z4, 2), AmbientForm(z4, 2, vecs(z4, (1, 1), (0, 1)))]
    lattice = submodule_codes(z4, 2, "left")
    for code in lattice:
        reports = [macwilliams_holds(code, form) for form in forms for _ in range(2)]
        assert [r.gram_is_monomial for r in reports] == [True, True, False, False]
        assert reports[0].dual == dual(code, forms[0])
    assert calls == {"generators": len(lattice), "monomial": len(forms)}


def test_a_codes_enumerator_and_transform_are_built_once(z4, monkeypatch):
    """A code meeting two forms builds W_C and its transform once; each
    form's dual is a new code, so its enumerator is built per form."""
    enumerated, transformed = [], []

    def counted_enumerator(code):
        enumerated.append(code)
        return weight_enumerator(code)

    def counted_transform(*args):
        transformed.append(args)
        return macwilliams_transform(*args)

    monkeypatch.setattr(codes_module, "weight_enumerator", counted_enumerator)
    monkeypatch.setattr(codes_module, "macwilliams_transform", counted_transform)
    forms = [identity_form(z4, 2), AmbientForm(z4, 2, vecs(z4, (1, 1), (0, 1)))]
    for code in submodule_codes(z4, 2, "left"):
        enumerated.clear()
        transformed.clear()
        reports = [macwilliams_holds(code, form) for form in forms]
        assert sum(c is code for c in enumerated) == 1 and len(transformed) == 1
        assert [c is r.dual for c, r in zip(enumerated[1:], reports, strict=True)] == [True] * 2
        for report in reports:
            assert report.code_enumerator == weight_enumerator(code)
            assert report.transformed == macwilliams_transform(
                weight_enumerator(code), 4, code.cardinality)


# -- submodule sweeps ------------------------------------------------------


def test_submodule_counts():
    assert len(submodule_codes(ring_zn(2), 2, "left")) == 5
    assert len(submodule_codes(ring_zn(3), 2, "left")) == 6
    assert len(submodule_codes(ring_zn(4), 2, "left")) == 15
    assert len(submodule_codes(ring_zn(4), 2, "additive")) == 15


def test_submodule_counts_gf4(f4):
    assert len(submodule_codes(f4, 2, "left")) == 7
    assert len(submodule_codes(f4, 2, "right")) == 7
    # additively F_4 is Z_2 x Z_2, which has five subgroups
    assert len(submodule_codes(f4, 1, "additive")) == 5


def test_submodules_of_matrix_ring_are_ideals(m2f2):
    lefts = submodule_codes(m2f2, 1, "left")
    assert sorted(c.cardinality for c in lefts) == [1, 4, 4, 4, 16]
    ideal_sets = {i.elements for i in left_ideals(m2f2)}
    assert {frozenset(v[0] for v in c.codewords) for c in lefts} == ideal_sets


def test_submodules_sorted_and_bounded(z4):
    subs = submodule_codes(z4, 2, "left")
    sizes = [c.cardinality for c in subs]
    assert sizes == sorted(sizes)
    assert sizes[0] == 1 and sizes[-1] == 16


# -- skew-cyclic codes -----------------------------------------------------


def test_is_skew_cyclic(q_z2_cubic):
    q = q_z2_cubic
    gen = ((1,), (1,), (0,))
    ideal = frozenset(q.mul(r, gen) for r in q.elements())
    assert len(ideal) == 4
    assert is_skew_cyclic(ideal, q)
    subgroup = frozenset({q.zero, gen})
    assert not is_skew_cyclic(subgroup, q)
    # closed under every left multiple, but the union of the ideals of
    # 1 + x and of 1 + x + x^2 is not even a subgroup
    union = ideal | {q.mul(r, ((1,), (1,), (1,))) for r in q.elements()}
    assert len(union) == 5
    assert not is_skew_cyclic(union, q)


def test_is_skew_cyclic_refuses_a_word_that_is_not_a_vector(q_z2_cubic):
    """((2,), (2,), (2,)) is no word of Z2^3, though x and 1 map it into
    the set once reduced."""
    q = q_z2_cubic
    with pytest.raises(ValueError, match=r"^\(2, 2, 2\) is not an element"):
        is_skew_cyclic({q.zero, ((2,), (2,), (2,))}, q)


def left_ideal_oracle(words, q):
    """The full closure: a subgroup closed under left multiplication by
    every element of the quotient."""
    return (
        q.zero in words
        and all(q.add(a, b) in words for a in words for b in words)
        and all(q.mul(r, c) in words for r in q.elements() for c in words)
    )


def test_is_skew_cyclic_matches_full_closure(q_gf4, q_z4, q_z2_cubic):
    elems = list(q_z2_cubic.elements())
    for mask in range(1 << len(elems)):  # every subset of Z2[x]/(x^3 - 1)
        words = frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
        assert is_skew_cyclic(words, q_z2_cubic) == left_ideal_oracle(words, q_z2_cubic)
    for q in (q_gf4, q_z4):  # every additive subgroup
        for code in submodule_codes(q.base, q.m, "additive"):
            assert is_skew_cyclic(code, q) == left_ideal_oracle(code.codewords, q)


def test_is_skew_cyclic_answers_above_the_cap(q_gf4):
    """It reads the uncapped table ring behind SkewQuotient.mul, built here
    under the cap on a fresh quotient."""
    ideals = quotient_left_ideal_codes(q_gf4)
    q = gf4_skew_quotient()
    with enumeration_cap(4):  # the quotient has 16 elements
        assert [is_skew_cyclic(V, q) for V in ideals] == [True] * len(ideals)
        assert not is_skew_cyclic({q.zero, q.shift_generator()}, q)


def test_quotient_ideal_census(q_gf4, q_z4, q_z2_cubic):
    assert len(quotient_left_ideal_codes(q_gf4)) == 5
    assert len(quotient_left_ideal_codes(q_z4)) == 7
    assert len(quotient_left_ideal_codes(q_z2_cubic)) == 4


def classical_cyclic_dual_oracle(q, gen_poly):
    """Dual generator for a cyclic code over a commutative base.

    Divides x^m - 1 by the generator and reverses the quotient: the
    textbook reciprocal-polynomial description of the dual's generator.
    """
    base = q.base
    aut = RingAutomorphism.identity(base)
    modulus = list(q.modulus)
    quot, rem = poly_left_divmod(base, aut, modulus, list(gen_poly))
    assert all(c == base.zero for c in rem)
    reciprocal = list(reversed(quot))
    padded = tuple(reciprocal) + (base.zero,) * (q.m - len(reciprocal))
    return frozenset(q.mul(r, padded) for r in q.elements())


def test_cyclic_dual_matches_reciprocal_oracle(q_z2_cubic):
    q = q_z2_cubic
    eps = find_frobenius_functional(q.base)
    one_x = ((1,), (1,), (0,))
    ideal = frozenset(q.mul(r, one_x) for r in q.elements())
    rep = skew_cyclic_dual_report(ideal, q, eps)
    assert rep.euclidean_dual == classical_cyclic_dual_oracle(q, [(1,), (1,)])
    assert rep.euclidean_dual == {q.zero, ((1,), (1,), (1,))}
    # and the reverse pairing: the repetition code's dual is the parity code
    rep2 = skew_cyclic_dual_report(rep.euclidean_dual, q, eps)
    assert rep2.euclidean_dual == ideal


@pytest.mark.parametrize("which", ["gf4", "z4", "z2cubic"])
def test_skew_cyclic_duality_bridge(which, q_gf4, q_z4, q_z2_cubic):
    q = {"gf4": q_gf4, "z4": q_z4, "z2cubic": q_z2_cubic}[which]
    eps = find_frobenius_functional(q.base)
    for ideal in quotient_left_ideal_codes(q):
        rep = skew_cyclic_dual_report(ideal, q, eps)
        assert rep.dual_matches_reversal_orthogonal
        assert rep.dual_is_skew_cyclic
        assert rep.cardinality_product_ok


def z4_cubic():
    z4 = ring_zn(4)
    return SkewQuotient(z4, RingAutomorphism.identity(z4), ((3,), (0,), (0,), (1,)))


@pytest.mark.parametrize("which", ["gf4", "z4", "z2cubic", "z4cubic"])
def test_skew_report_orthogonals_match_the_scan(which, q_gf4, q_z4, q_z2_cubic):
    """Both orthogonals of the report, on every left ideal V, against
    annihilated over the quotient: the Euclidean dual under
    sum_i f_i g_i = 0 in A, and the reversal orthogonal against
    reversal(V) under (g, t) |-> eps((g t)_0), with SkewQuotient.mul."""
    q = {"gf4": q_gf4, "z4": q_z4, "z2cubic": q_z2_cubic, "z4cubic": z4_cubic()}[which]
    A, elements = q.base, list(q.elements())
    eps = find_frobenius_functional(q.base)

    def dot(f, g):
        return reduce(A.add, map(A.mul, f, g), A.zero)

    for V in quotient_left_ideal_codes(q):
        rep = skew_cyclic_dual_report(V, q, eps)
        assert rep.euclidean_dual == annihilated(elements, V, dot, A.zero)
        reversed_V = [q.reversal(t) for t in V]
        assert rep.reversal_orthogonal == annihilated(
            elements, reversed_V, lambda g, t: eps(q.mul(g, t)[0]))


# -- group algebra duality -------------------------------------------------


def test_group_inversion(z3c3):
    assert group_inversion(z3c3, (1, 2, 0)) == (1, 0, 2)
    assert group_inversion(z3c3, (2, 1, 1)) == (2, 1, 1)


def test_group_inversion_needs_a_group_algebra(z4):
    """The group is read off the table: Z_n is Z_n[{1}], and a ring with a
    basis product outside the basis is refused by both group routes."""
    assert group_inversion(z4, (1,)) == (1,)
    corpus = corpus_rings()
    f9 = ring_from_table(3, (3, 3), [[(1, 0), (0, 1)], [(0, 1), (2, 0)]], (1, 0))  # i^2 = -1
    # Z2 x Z2 on 1, e with e^2 = e: the algebra of the monoid {1, e}, whose row e lacks 1
    monoid = ring_from_table(2, (2, 2), [[(1, 0), (0, 1)], [(0, 1), (0, 1)]], (1, 0))
    # GF4 on w, w^2: each row holds 1 = w w^2 = w + w^2, which is no basis element
    units = ring_from_table(2, (2, 2), [[(0, 1), (1, 1)], [(1, 1), (1, 0)]], (1, 1))
    for ring in (gf4(), corpus["M2(F2)"], corpus["Z2xZ2"], corpus["Z2[u,v]/(u,v)^2"], f9, monoid,
                 units):
        for route in (group_inversion, group_algebra_dual_report):
            with pytest.raises(ValueError, match="is not a group algebra on its basis"):
                route(ring, [ring.zero])


def test_group_routes_read_the_group_off_a_shuffled_table():
    """Z2[S3] and a table spec of it with its coordinates permuted are the
    same ring, and the group routes agree on them coordinate by coordinate;
    the ring constructor takes no Cayley table."""
    perms = list(permutations(range(3)))  # g h is g after h
    s3 = [[perms.index(tuple(g[i] for i in h)) for h in perms] for g in perms]
    ring = ring_group_algebra(2, s3)
    perm = [4, 0, 5, 2, 1, 3]  # coordinate t of the copy is coordinate perm[t]
    spec = {"kind": "table", "n": 2, "orders": [2] * 6, "one": [ring.one[i] for i in perm],
            "mul": [[[ring.mul_table[i][j][l] for l in perm] for j in perm] for i in perm]}
    copy = build_ring(spec, DEFAULT_CAP)

    def moved(x):
        return tuple(x[i] for i in perm)

    for a in ring.elements():
        assert group_inversion(copy, moved(a)) == moved(group_inversion(ring, a))
    ideals = left_ideals(ring)
    assert len(ideals) > 2
    for ideal in ideals:
        rep = group_algebra_dual_report(ring, ideal.elements)
        shuffled = group_algebra_dual_report(copy, map(moved, ideal.elements))
        assert rep.dual_matches_inverted_orthogonal and shuffled.dual_matches_inverted_orthogonal
        assert shuffled.euclidean_dual == set(map(moved, rep.euclidean_dual))
        assert shuffled.inverted_right_orthogonal == set(map(moved, rep.inverted_right_orthogonal))
    with pytest.raises(TypeError):
        FiniteRing(ring.shape, ring.mul_table, ring.one, cayley=s3)


def test_z2c2_self_dual_ideal(z2c2):
    rep = group_algebra_dual_report(z2c2, {(0, 0), (1, 1)})
    assert rep.euclidean_dual == {(0, 0), (1, 1)}
    assert rep.dual_matches_inverted_orthogonal
    assert rep.dual_is_left_ideal


def test_dual_reports_refuse_words_that_are_not_elements(z2c2, q_z2_cubic):
    """Words of the wrong length are refused, not paired as they are: on
    Z2[C2], and on a degree-3 quotient after flattening."""
    with pytest.raises(ValueError, match=r"^\(0, 0, 0\) is not an element"):
        group_algebra_dual_report(z2c2, [(0, 0, 0), (1, 1, 1)])
    base_eps = ZnLinearForm(ring_zn(2).shape, (1,))
    with pytest.raises(ValueError, match=r"^\(\(0,\), \(0,\)\) is not a vector of length 3"):
        skew_cyclic_dual_report([((0,), (0,)), ((1,), (1,))], q_z2_cubic, base_eps)
    with pytest.raises(ValueError,
                       match=r"^\(\(1,\), \(1,\), \(0,\), \(0,\)\) is not a vector of length 3"):
        skew_cyclic_dual_report([((0,), (0,), (0,)), ((1,), (1,), (0,), (0,))],
                                q_z2_cubic, base_eps)


def test_group_algebra_dual_report_picks_its_generators_once(z3c3, monkeypatch):
    """One additive_generators pass per report: the right orthogonal pairs
    the generators already picked instead of picking them again."""
    ideals = left_ideals(z3c3)
    calls = [0]
    pick = finring.additive_generators

    def counted(*args):
        calls[0] += 1
        return pick(*args)

    monkeypatch.setattr(finring, "additive_generators", counted)
    for ideal in ideals:
        calls[0] = 0
        assert group_algebra_dual_report(z3c3, ideal.elements).dual_matches_inverted_orthogonal
        assert calls[0] == 1


def test_skew_cyclic_dual_reports_share_the_quotients_identity_form(monkeypatch):
    """The identity form on A^m is built once per quotient, not per report,
    by either constructor: __init__, or the trusted AmbientForm._built
    that identity_form takes."""
    built = [0]
    init, trusted = AmbientForm.__init__, AmbientForm._built.__func__

    def counted_init(self, *args):
        built[0] += 1
        init(self, *args)

    def counted_built(cls, *args):
        built[0] += 1
        return trusted(cls, *args)

    monkeypatch.setattr(AmbientForm, "__init__", counted_init)
    monkeypatch.setattr(AmbientForm, "_built", classmethod(counted_built))
    q = gf4_skew_quotient()
    eps = find_frobenius_functional(q.base)
    ideals = quotient_left_ideal_codes(q)
    assert all(skew_cyclic_dual_report(V, q, eps).dual_matches_reversal_orthogonal
               for V in ideals)
    assert len(ideals) > 1 and built[0] == 1


@pytest.mark.parametrize("fixture", ["z2c2", "z3c3"])
def test_group_algebra_duality_bridge(fixture, z2c2, z3c3):
    ring = {"z2c2": z2c2, "z3c3": z3c3}[fixture]
    for ideal in left_ideals(ring):
        rep = group_algebra_dual_report(ring, ideal.elements)
        assert rep.dual_matches_inverted_orthogonal
        assert rep.dual_is_left_ideal
        assert len(rep.euclidean_dual) * len(ideal) == ring.cardinality


# -- properties ------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=3
    )
)
def test_random_z4_codes_satisfy_macwilliams(gens):
    z4 = ring_zn(4)
    code = LinearCode.generate(z4, 2, [[(a,), (b,)] for a, b in gens])
    rep = macwilliams_holds(code, identity_form(z4, 2))
    assert rep.identity_holds
    assert code.cardinality * rep.dual.cardinality == 16


@given(st.data())
def test_random_gf4_codes_satisfy_macwilliams(data):
    from frobring.catalog import gf4

    f4 = gf4()
    els = f4.elements()
    gens = data.draw(
        st.lists(st.tuples(st.sampled_from(els), st.sampled_from(els)), max_size=2)
    )
    code = LinearCode.generate(f4, 2, gens)
    rep = macwilliams_holds(code, identity_form(f4, 2))
    assert rep.identity_holds
    assert code.cardinality * rep.dual.cardinality == 16
