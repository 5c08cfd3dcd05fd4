"""Ambient orthogonals, kernels and duals against the full-ambient scan.

orthogonal, functional_orthogonal, both AmbientForm kernels and dual solve
a linear map over the r*m basis vectors of A^m.  The scan they replace,
annihilated over every vector of A^m, is kept here as the oracle: each
route must give the same sets, and a degenerate form the same
DegenerateFormError side and smallest witness.

The kernels are the orthogonals of the m unit vectors of A^m, by
A-bilinearity.  The orthogonals of the r*m Z-basis vectors, which need
biadditivity alone, are the second oracle for them.
"""

import random
import time
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from frobring import FiniteRing, ring_from_table, ring_matrix, ring_zn
from frobring.catalog import gf4, gf4_skew_quotient
from frobring.codes import LinearCode, _vadd, dual, identity_form, submodule_codes
from frobring.frobenius import (
    AmbientForm,
    DegenerateFormError,
    _degeneracy,
    find_frobenius_functional,
    functional_orthogonal,
    orthogonal,
)
from frobring.znmod import (EnumerationCapError, additive_closure, annihilated, enumerate_forms,
                            enumeration_cap)

SIDES = ("left", "right")


def _oriented(pairing, side):
    """The pairing with the candidate in the named slot: 'left' keeps
    pairing(x, s), 'right' reads it as pairing(s, x)."""
    if side == "left":
        return pairing
    if side == "right":
        return lambda x, s: pairing(s, x)
    raise ValueError(f"bad side {side!r}")


def orthogonal_oracle(form, subset, side, value=lambda a: a):
    pairing = _oriented(form.pairing, side)
    zero = value(form.ring.zero)
    return annihilated(form.vectors(), subset, lambda x, s: value(pairing(x, s)), zero)


def z_basis(form):
    """The r*m additive basis vectors of A^m: e_k at position p, zero
    elsewhere."""
    zero = form.ring.zero
    return [tuple(e if q == p else zero for q in range(form.m))
            for p in range(form.m) for e in form.ring.basis_elements]


def assert_kernels_are_z_basis_orthogonals(form):
    assert form.left_kernel() == orthogonal(form, z_basis(form), "left")
    assert form.right_kernel() == orthogonal(form, z_basis(form), "right")


def degeneracy_oracle(form):
    kernels = tuple(partial(orthogonal_oracle, form, list(form.vectors()), side)
                    for side in SIDES)
    return _degeneracy("both", kernels, (form.ring.zero,) * form.m)


# -- ambients and grams --------------------------------------------------------


def m2f2_units():
    R = ring_matrix(ring_zn(2), 2)
    nonunits = [a for a in R.elements() if a != R.zero and not R.is_unit(a)]
    return R, min(R.units() - {R.one}), min(nonunits)


def t2z2():
    """T2(Z2) on the matrix units E11, E12, E22; not Frobenius."""
    e11, e12, e22, o = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    return ring_from_table(2, (2, 2, 2), [[e11, e12, o], [o, o, e12], [o, o, e22]], (1, 0, 1))


def ambients():
    """(label, ring, m, {gram label: matrix}) for each ambient."""
    z4, f3, z6, f4, t2 = ring_zn(4), ring_zn(3), ring_zn(6), gf4(), t2z2()
    w, w2 = (0, 1), (1, 1)  # w^2 = 1 + w in GF4
    one, zero = (1, 0), (0, 0)
    m2, unit, nonunit = m2f2_units()

    def zn_grams(n):
        return {
            "identity": [[(1,), (0,)], [(0,), (1,)]],
            "monomial": [[(0,), (n - 1,)], [(1,), (0,)]],
            "non-monomial": [[(1,), (1,)], [(0,), (1,)]],
            "zero row": [[(1,), (1,)], [(0,), (0,)]],
        }

    return [
        ("Z4^2", z4, 2, {**zn_grams(4), "2 on the diagonal": [[(2,), (0,)], [(0,), (1,)]]}),
        ("GF4^2", f4, 2, {
            "identity": [[one, zero], [zero, one]],
            "monomial": [[zero, w], [w2, zero]],
            "non-monomial": [[one, w], [zero, one]],
            "zero row": [[zero, zero], [w, one]],
            "rank-deficient": [[one, w], [w, w2]],
        }),
        ("F3^2", f3, 2, zn_grams(3)),
        ("Z6^2", z6, 2, zn_grams(6)),
        ("M2(F2)^1", m2, 1, {
            "identity": [[m2.one]],
            "monomial": [[unit]],
            "zero row": [[m2.zero]],
            "non-unit": [[nonunit]],
        }),
        # x E11 = 0 and E11 y = 0 have 4 and 2 solutions: an A-valued form's
        # two kernels share triviality, not size
        ("T2(Z2)^1", t2, 1, {"E11": [[(1, 0, 0)]]}),
    ]


CASES = [(label, gram_label) for label, _, _, grams in ambients() for gram_label in grams]
AMBIENTS = {label: (ring, m, grams) for label, ring, m, grams in ambients()}


def subsets(ring, m):
    """Every left, right and additive submodule of A^m as a code, plus
    seeded random subsets that are not subgroups."""
    codes = {}
    for side in ("left", "right", "additive"):
        for code in submodule_codes(ring, m, side):
            codes.setdefault(code.codewords, code)
    vectors = list(product(ring.elements(), repeat=m))
    rng = random.Random(6)
    add, zero = partial(_vadd, ring), (ring.zero,) * m
    loose = []
    while len(loose) < 4:
        subset = frozenset(rng.sample(vectors, rng.randint(1, 5)))
        if additive_closure(subset, add, zero) != subset:
            loose.append(subset)
    return list(codes.values()), loose


@pytest.mark.parametrize("label, gram_label", CASES)
def test_orthogonals_match_the_full_scan(label, gram_label):
    ring, m, grams = AMBIENTS[label]
    form = AmbientForm(ring, m, grams[gram_label])
    eps = find_frobenius_functional(ring) or max(enumerate_forms(ring.shape),
                                                 key=lambda f: f.weights)
    trivial = {(ring.zero,) * m}
    assert (form.left_kernel() == trivial) is (form.right_kernel() == trivial)
    codes, loose = subsets(ring, m)
    for subset in [code.codewords for code in codes] + loose:
        for side in SIDES:
            assert orthogonal(form, subset, side) == orthogonal_oracle(form, subset, side)
            assert functional_orthogonal(form, eps, subset, side) == orthogonal_oracle(
                form, subset, side, eps.evaluate)


@pytest.mark.parametrize("label, gram_label", CASES)
def test_kernels_and_duals_match_the_full_scan(label, gram_label):
    ring, m, grams = AMBIENTS[label]
    form = AmbientForm(ring, m, grams[gram_label])
    everything = list(form.vectors())
    assert form.left_kernel() == orthogonal_oracle(form, everything, "left")
    assert form.right_kernel() == orthogonal_oracle(form, everything, "right")
    assert_kernels_are_z_basis_orthogonals(form)
    bad = degeneracy_oracle(form)
    assert form.is_nondegenerate() is (bad is None)
    for code in subsets(ring, m)[0]:
        for side in (None, *SIDES):
            if bad is not None:
                with pytest.raises(DegenerateFormError) as err:
                    dual(code, form, side)
                assert (err.value.side, err.value.witness) == bad
                continue
            expected_side = side or ("left" if code.side == "right" else "right")
            words = orthogonal_oracle(form, sorted(code.codewords), expected_side)
            d = dual(code, form, side)
            assert (d.side, d.codewords) == (expected_side, words)
            if side is None and code.side != "additive":
                assert code.cardinality * d.cardinality == ring.cardinality ** m


def test_degenerate_grams_are_covered():
    degenerate = {(label, g) for label, g in CASES
                  if degeneracy_oracle(AmbientForm(AMBIENTS[label][0], AMBIENTS[label][1],
                                                   AMBIENTS[label][2][g])) is not None}
    assert degenerate == {("Z4^2", "zero row"), ("Z4^2", "2 on the diagonal"),
                          ("GF4^2", "zero row"), ("GF4^2", "rank-deficient"),
                          ("F3^2", "zero row"), ("Z6^2", "zero row"),
                          ("M2(F2)^1", "zero row"), ("M2(F2)^1", "non-unit"),
                          ("T2(Z2)^1", "E11")}
    ring, m, grams = AMBIENTS["T2(Z2)^1"]
    form = AmbientForm(ring, m, grams["E11"])
    assert (len(form.left_kernel()), len(form.right_kernel())) == (4, 2)
    assert_kernels_are_z_basis_orthogonals(form)


# -- random grams --------------------------------------------------------------


@st.composite
def forms_and_subsets(draw, label):
    """(form, subset, code side) over the named ambient: a gram of random
    alphabet entries (often degenerate) and up to four random vectors."""
    ring, m, _ = AMBIENTS[label]
    entry = st.sampled_from(ring.elements())
    row = st.lists(entry, min_size=m, max_size=m)
    gram = draw(st.lists(row, min_size=m, max_size=m))
    subset = draw(st.lists(st.tuples(*[entry] * m), max_size=4))
    return AmbientForm(ring, m, gram), subset, draw(st.sampled_from(("left", "right", "additive")))


@pytest.mark.parametrize("label", AMBIENTS)
@settings(max_examples=20)
@given(data=st.data())
def test_orthogonals_under_random_grams_match_the_full_scan(label, data):
    form, subset, code_side = data.draw(forms_and_subsets(label))
    ring, m = form.ring, form.m
    eps = find_frobenius_functional(ring) or max(enumerate_forms(ring.shape),
                                                 key=lambda f: f.weights)
    for side in SIDES:
        assert orthogonal(form, subset, side) == orthogonal_oracle(form, subset, side)
        assert functional_orthogonal(form, eps, subset, side) == orthogonal_oracle(
            form, subset, side, eps.evaluate)
    everything = list(form.vectors())
    assert form.left_kernel() == orthogonal_oracle(form, everything, "left")
    assert form.right_kernel() == orthogonal_oracle(form, everything, "right")
    assert_kernels_are_z_basis_orthogonals(form)
    bad = degeneracy_oracle(form)
    code = LinearCode.generate(ring, m, subset or [(ring.zero,) * m], code_side)
    for side in SIDES:
        if bad is not None:
            with pytest.raises(DegenerateFormError) as err:
                dual(code, form, side)
            assert (err.value.side, err.value.witness) == bad
        else:
            words = orthogonal_oracle(form, sorted(code.codewords), side)
            assert dual(code, form, side).codewords == words


# -- the basis gram against the scan --------------------------------------------


def gram_ambients():
    """(ring, m) over which orthogonals are read off the basis gram."""
    m2, skew = ring_matrix(ring_zn(2), 2), gf4_skew_quotient().as_finite_ring()
    return {"M2(F2)^1": (m2, 1), "M2(F2)^2": (m2, 2), "GF4^2": (gf4(), 2),
            "T2(Z2)^2": (t2z2(), 2), "GF4[x;sq]/(x^2-1)^1": (skew, 1), "Z6^2": (ring_zn(6), 2)}


GRAM_AMBIENTS = gram_ambients()


@pytest.mark.parametrize("label", GRAM_AMBIENTS)
def test_basis_gram_orthogonals_match_the_scan(label):
    """Both slots, ring-valued and functional, against annihilated over
    A^m, on seeded random grams with about 40% zero entries (so many are
    degenerate) after the identity.  The kernels are checked against the
    scan over the r*m Z-basis vectors, which suffices as the pairing is
    biadditive."""
    ring, m = GRAM_AMBIENTS[label]
    rng = random.Random(23)
    elements = ring.elements()
    vectors = list(product(elements, repeat=m))
    eps = find_frobenius_functional(ring) or max(enumerate_forms(ring.shape),
                                                 key=lambda f: f.weights)
    grams = [identity_form(ring, m).matrix] + [
        [[ring.zero if rng.random() < 0.4 else rng.choice(elements) for _ in range(m)]
         for _ in range(m)] for _ in range(8)]
    degenerate = 0
    for gram in grams:
        form = AmbientForm(ring, m, gram)
        subset = rng.sample(vectors, rng.randint(0, 3))
        for side in SIDES:
            assert orthogonal(form, subset, side) == orthogonal_oracle(form, subset, side)
            assert functional_orthogonal(form, eps, subset, side) == orthogonal_oracle(
                form, subset, side, eps.evaluate)
        assert form.left_kernel() == orthogonal_oracle(form, z_basis(form), "left")
        assert form.right_kernel() == orthogonal_oracle(form, z_basis(form), "right")
        degenerate += not form.is_nondegenerate()
    assert 0 < degenerate < len(grams)


@pytest.mark.parametrize("n, m", [(9, 1), (9, 2), (8, 2), (4, 3), (25, 1)])
def test_basis_gram_fields_hold_their_largest_sums(n, m):
    """Every gram entry and coordinate at n - 1: each field of an image sums
    r*m products (n - 1)^2, which reach 2^(W - 1) for Z9 and Z25, so a field
    one bit narrower than 2^W > r m n^2 would carry."""
    ring = ring_zn(n)
    top = (n - 1,)
    form = AmbientForm(ring, m, [[top] * m for _ in range(m)])
    eps = find_frobenius_functional(ring)
    subset = [(top,) * m]
    for side in SIDES:
        assert orthogonal(form, subset, side) == orthogonal_oracle(form, subset, side)
        assert functional_orthogonal(form, eps, subset, side) == orthogonal_oracle(
            form, subset, side, eps.evaluate)


@pytest.mark.parametrize("label", GRAM_AMBIENTS)
def test_no_ring_product_after_a_forms_first_orthogonal(label, work, monkeypatch):
    """Once a form has built its basis gram, its kernels, orthogonals of
    both kinds and duals make no ring product and build no opposite ring."""
    ring, m = GRAM_AMBIENTS[label]
    unit = max(ring.units())
    gram = [[unit if i == j else ring.zero for j in range(m)] for i in range(m)]
    if m > 1:
        gram[-1][0] = max(ring.elements())  # lower triangular with a unit diagonal
    opposites = [0]
    monkeypatch.setattr(FiniteRing, "opposite", lambda self: opposites.append(self))
    form = AmbientForm(ring, m, gram)
    eps = find_frobenius_functional(ring) or max(enumerate_forms(ring.shape),
                                                 key=lambda f: f.weights)
    codes = [LinearCode.generate(ring, m, [v], "left") for v in product(ring.elements()[1:3],
                                                                      repeat=m)]
    work["mul"] = 0
    orthogonal(form, [], "right")
    assert work["mul"] > 0
    work["mul"] = 0
    form.left_kernel(), form.right_kernel()
    for code in codes:
        for side in SIDES:
            functional_orthogonal(form, eps, code.codewords, side)
        assert dual(code, form).codewords == orthogonal(form, code.codewords, "right")
    assert work == {"pairing": 0, "mul": 0} and opposites == [0]


@pytest.mark.parametrize("ring", [ring_from_table(1, (), [], ()), ring_zn(1)],
                         ids=["rank 0", "Z1"])
def test_duals_over_one_element_alphabets(ring):
    """A^2 is {0} over the rank-0 ring and over Z1: every orthogonal,
    kernel and dual is that one vector."""
    zero = (ring.zero,) * 2
    form = AmbientForm(ring, 2, [[ring.one, ring.zero], [ring.zero, ring.one]])
    code = LinearCode.generate(ring, 2, [zero])
    assert form.left_kernel() == form.right_kernel() == {zero}
    assert_kernels_are_z_basis_orthogonals(form)
    assert form.is_nondegenerate()
    for side in SIDES:
        assert orthogonal(form, [], side) == orthogonal(form, [zero], side) == {zero}
        d = dual(code, form, side)
        assert (d.side, d.codewords) == (side, {zero})


def test_order_one_coordinates_read_no_gram_line():
    """Over Z1 every orthogonal of {0}^m is {0}^m.  Coordinates of order 1
    get zero images without summing their gram lines, which would take
    about m^3 int operations: a minute at m = 1000, inside the gram cap."""
    m = 1000
    start = time.perf_counter()
    form = identity_form(ring_zn(1), m)
    assert form.left_kernel() == form.right_kernel() == {((0,),) * m}
    assert time.perf_counter() - start < 2.0


def test_vectors_of_another_length_are_refused():
    """A vector shorter or longer than m is a ValueError on both sides,
    not a silently wrong orthogonal or pairing."""
    z4 = ring_zn(4)
    form = AmbientForm(z4, 2, [[(1,), (0,)], [(0,), (1,)]])
    eps = find_frobenius_functional(z4)
    for vector in [((1,),), ((1,), (1,), (1,))]:
        for side in SIDES:
            with pytest.raises(ValueError, match="length 2"):
                orthogonal(form, [vector], side)
            with pytest.raises(ValueError, match="length 2"):
                functional_orthogonal(form, eps, [vector], side)
        with pytest.raises(ValueError):
            form.pairing(vector, ((1,), (1,)))
        with pytest.raises(ValueError):
            form.pairing(((1,), (1,)), vector)


def test_entries_of_another_rank_are_refused():
    """A vector entry with the wrong number of coordinates is a ValueError
    on both sides and for both kinds, not misread as the coordinates of its
    neighbours in the flattened vector."""
    z4 = ring_zn(4)
    form = AmbientForm(z4, 2, [[(1,), (0,)], [(0,), (1,)]])
    eps = find_frobenius_functional(z4)
    for vector in [((1, 3), (0,)), ((1,), ())]:
        for side in SIDES:
            with pytest.raises(ValueError, match="1 coordinates"):
                orthogonal(form, [vector], side)
            with pytest.raises(ValueError, match="1 coordinates"):
                functional_orthogonal(form, eps, [vector], side)


# -- work regression -----------------------------------------------------------


@pytest.fixture
def work(monkeypatch):
    """Counts AmbientForm.pairing and FiniteRing.mul calls; monkeypatch
    restores both methods."""
    calls = {"pairing": 0, "mul": 0}

    def counting(name, original):
        def wrapper(self, x, y):
            calls[name] += 1
            return original(self, x, y)
        return wrapper

    monkeypatch.setattr(AmbientForm, "pairing", counting("pairing", AmbientForm.pairing))
    monkeypatch.setattr(FiniteRing, "mul", counting("mul", FiniteRing.mul))
    return calls


@pytest.mark.parametrize("n, m", [(4, 6), (2, 12)])
def test_dual_never_scans_the_ambient(n, m, work):
    ring = ring_zn(n)
    gens = [[(1,)] * m, [(0,), (1,)] * (m // 2)]
    code = LinearCode.generate(ring, m, gens, "left")
    identity = [[(1,) if i == j else (0,) for j in range(m)] for i in range(m)]
    form = AmbientForm(ring, m, identity)
    work["mul"] = 0
    d = dual(code, form)
    assert work["pairing"] < n ** m // 8
    assert d.cardinality == n ** m // code.cardinality
    # the form's first orthogonal (its left kernel) builds the basis gram,
    # r (1 + r) products per nonzero entry of Q; every later orthogonal,
    # kernel and dual on the form reads the gram alone
    assert 0 < work["mul"] <= ring.rank * (1 + ring.rank) * m
    work["mul"] = 0
    assert dual(code, form) == d
    assert work["mul"] == 0
    assert work["pairing"] <= 2 * m * m + m * (code.cardinality.bit_length() - 1)


def dense_gram(ring, m):
    """An m x m gram with every entry the ring's largest unit."""
    return [[max(ring.units())] * m for _ in range(m)]


@pytest.mark.parametrize("label, ring, m", [("GF4^4", gf4(), 4),
                                            ("M2(F2)^2", ring_matrix(ring_zn(2), 2), 2)])
@pytest.mark.parametrize("gram", ["identity", "dense"])
def test_kernels_pair_against_the_unit_vectors_only(label, ring, m, gram, work):
    """The kernels are orthogonals of the m unit vectors, read off the
    form's basis gram: building it is the only ring work, r (1 + r)
    products per nonzero entry of Q, and pairing the r*m Z-basis vectors
    afterwards takes none."""
    matrix = {"identity": identity_form(ring, m).matrix, "dense": dense_gram(ring, m)}[gram]
    form = AmbientForm(ring, m, matrix)
    work["mul"] = 0
    form.left_kernel(), form.right_kernel()
    r, nonzero = ring.rank, sum(q != ring.zero for row in form.matrix for q in row)
    assert 0 < work["mul"] <= r * (1 + r) * nonzero
    work["mul"] = 0
    assert_kernels_are_z_basis_orthogonals(form)
    assert work == {"pairing": 0, "mul": 0}


def test_cap_is_checked_before_any_pairing(work):
    z4 = ring_zn(4)
    form = AmbientForm(z4, 2, [[(1,), (0,)], [(0,), (1,)]])
    code = LinearCode.generate(z4, 2, [[(1,), (1,)]])
    eps = find_frobenius_functional(z4)
    calls = [form.left_kernel, form.right_kernel, lambda: dual(code, form),
             lambda: orthogonal(form, code.codewords, "left"),
             lambda: functional_orthogonal(form, eps, code.codewords, "right")]
    work["mul"] = 0
    with enumeration_cap(15):
        for call in calls:
            with pytest.raises(EnumerationCapError,
                               match="ambient module has 4\\^2 entries, cap is 15"):
                call()
    assert work == {"pairing": 0, "mul": 0}
