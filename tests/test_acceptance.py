"""Acceptance sweep: one test per numbered criterion, timed where promised.

The two big sweeps (monomial positive sweep, non-monomial converse search)
run once and are shared: criterion 6 consumes the cardinality records they
collect instead of recomputing duals.  The budget tests at the end pin
sizes that the packed submodule lattice and the subgroup test by
generators brought into reach.
"""

import json
import random
import time
from functools import lru_cache
from itertools import product

import pytest

from frobring.catalog import (
    corpus_rings,
    gf4,
    gf4_frobenius,
    gf4_skew_quotient,
    z2_quotient_x3_minus_1,
    z4_quotient_x2_minus_1,
)
from frobring import finring
from frobring.cli import build_ring, main
from frobring.codes import (
    LinearCode,
    identity_form,
    is_monomial,
    macwilliams_holds,
    quotient_left_ideal_codes,
    skew_cyclic_dual_report,
    group_algebra_dual_report,
    submodule_codes,
)
from frobring.finring import (
    cyclic_left_ideals,
    cyclic_right_ideals,
    is_frobenius_socle,
    left_ideals,
    right_ideals,
    ring_product,
    ring_zn,
)
from frobring.frobenius import (
    AmbientForm,
    find_frobenius_functional,
    functional_left_orthogonal,
    functional_right_orthogonal,
    is_nondegenerate,
    left_annihilator,
    pairing_of_functional,
    right_annihilator,
)
from frobring.skewpoly import SkewQuotient
from frobring.znmod import DEFAULT_CAP, ZnLinearForm, enumerate_forms

from conftest import gaussian_binomial_sum, left_lattice_size


@lru_cache(maxsize=None)
def corpus():
    return corpus_rings()


@lru_cache(maxsize=None)
def alphabets():
    return (
        ("F2", ring_zn(2)),
        ("F3", ring_zn(3)),
        ("Z4", ring_zn(4)),
        ("F4", gf4()),
        ("Z2xZ4", ring_product(ring_zn(2), ring_zn(4), label="Z2xZ4")),
    )


def monomial_matrices(A):
    """All 2x2 monomial matrices over A: permutation times unit diagonal."""
    zero = A.zero
    units = sorted(A.units())
    out = []
    for u in units:
        for v in units:
            out.append(((u, zero), (zero, v)))
            out.append(((zero, u), (v, zero)))
    return out


@lru_cache(maxsize=None)
def positive_sweep():
    """Every monomial gram against every one-sided submodule code, m = 2.

    Returns (elapsed_seconds, records); each record is
    (alphabet, identity_holds, cardinality_product_ok).
    """
    t0 = time.perf_counter()
    records = []
    for label, A in alphabets():
        ambient = A.cardinality ** 2
        codes = submodule_codes(A, 2, "left") + submodule_codes(A, 2, "right")
        for mat in monomial_matrices(A):
            form = AmbientForm(A, 2, mat)
            for code in codes:
                rep = macwilliams_holds(code, form)
                card_ok = len(code.codewords) * len(rep.dual.codewords) == ambient
                records.append((label, rep.identity_holds, card_ok))
    return time.perf_counter() - t0, records


@lru_cache(maxsize=None)
def converse_search():
    """For each nondegenerate non-monomial gram over F_2, m = 2, test all codes.

    Returns (elapsed, per-gram violation counts, cardinality records).
    """
    A = ring_zn(2)
    t0 = time.perf_counter()
    elems = A.elements()
    grams = [
        ((a, b), (c, d))
        for a in elems for b in elems for c in elems for d in elems
    ]
    targets = []
    for mat in grams:
        form = AmbientForm(A, 2, mat)
        zero_vec = ((0,), (0,))
        if form.left_kernel() == {zero_vec} and form.right_kernel() == {zero_vec}:
            if not is_monomial(A, mat):
                targets.append(form)
    codes = submodule_codes(A, 2, "left") + submodule_codes(A, 2, "right")
    violations = []
    card_records = []
    for form in targets:
        found = 0
        for code in codes:
            rep = macwilliams_holds(code, form)
            if not rep.identity_holds:
                found += 1
            card_records.append(
                len(code.codewords) * len(rep.dual.codewords) == 4
            )
        violations.append(found)
    return time.perf_counter() - t0, violations, card_records


def test_criterion_01_counterexample_exact_and_fast():
    A = ring_zn(2)
    code = LinearCode.generate(A, 2, [((1,), (0,))], side="left")
    form = AmbientForm(A, 2, (((1,), (1,)), ((0,), (1,))))

    rep = macwilliams_holds(code, form)
    assert rep.dual.codewords == frozenset({((0,), (0,)), ((1,), (1,))})
    assert rep.code_enumerator.counts == (1, 1, 0)
    assert rep.code_enumerator.polynomial() == "X^2 + X*Y"
    assert rep.dual_enumerator.counts == (1, 0, 1)
    assert rep.dual_enumerator.polynomial() == "X^2 + Y^2"
    assert rep.transformed.counts == (1, 1, 0)
    assert rep.transformed != rep.dual_enumerator
    assert rep.identity_holds is False
    assert rep.gram_is_monomial is False

    best = min(
        _timed(lambda: macwilliams_holds(code, form)) for _ in range(300)
    )
    assert best < 1e-3, f"counterexample took {best * 1e3:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_monomial_sweep_identity_always_holds():
    elapsed, records = positive_sweep()
    assert len(records) == 1808
    bad = [(label, card) for label, ok, card in records if not ok]
    assert bad == []
    assert elapsed < 60, f"sweep took {elapsed:.1f} s"


def test_criterion_03_every_nonmonomial_gram_has_a_witness():
    elapsed, violations, _ = converse_search()
    # GL_2(F_2) has 6 elements, 2 of them monomial
    assert len(violations) == 4
    assert all(count >= 1 for count in violations)
    assert elapsed < 1, f"search took {elapsed:.2f} s"


def test_criterion_04_functional_and_socle_routes_agree():
    t0 = time.perf_counter()
    negatives = []
    for name, ring in corpus().items():
        eps = find_frobenius_functional(ring)
        cert = is_frobenius_socle(ring)
        assert (eps is not None) == cert.is_frobenius, name
        if not cert.is_frobenius:
            negatives.append(name)
    assert negatives == ["Z2[u,v]/(u,v)^2"]
    assert time.perf_counter() - t0 < 30


def test_criterion_05_double_annihilators_close():
    for name, ring in corpus().items():
        eps = find_frobenius_functional(ring)
        if eps is None:
            continue
        if ring.cardinality <= 16:
            rights = [i.elements for i in right_ideals(ring)]
            lefts = [i.elements for i in left_ideals(ring)]
        else:
            rights = sorted(cyclic_right_ideals(ring), key=sorted)
            lefts = sorted(cyclic_left_ideals(ring), key=sorted)
        for S in rights:
            la = left_annihilator(ring, S)
            assert right_annihilator(ring, la.elements).elements == S, name
            assert la.elements == functional_left_orthogonal(ring, eps, S), name
        for S in lefts:
            ra = right_annihilator(ring, S)
            assert left_annihilator(ring, ra.elements).elements == S, name
            assert ra.elements == functional_right_orthogonal(ring, eps, S), name


def test_criterion_06_cardinality_identity_across_sweeps():
    _, records = positive_sweep()
    assert records and all(card for _, _, card in records)
    _, _, card_records = converse_search()
    assert card_records and all(card_records)


def test_criterion_07_skew_quotient_construction():
    t0 = time.perf_counter()
    cases = [
        (gf4_skew_quotient(), ZnLinearForm(gf4().shape, (0, 1))),
        (z4_quotient_x2_minus_1(), ZnLinearForm(ring_zn(4).shape, (1,))),
    ]
    for q, base_eps in cases:
        elems = list(q.elements())
        for g in elems:
            for h in elems:
                assert q.constant_term_product(g, h) == q.mul(g, h)[0]
        eps = q.frobenius_functional(base_eps)
        R = q.as_finite_ring()
        assert is_nondegenerate(R, pairing_of_functional(R, eps), side="both")
        assert is_frobenius_socle(R).is_frobenius
    assert time.perf_counter() - t0 < 5


def test_criterion_08_skew_cyclic_duality_bridge():
    cases = [
        (gf4_skew_quotient(), ZnLinearForm(gf4().shape, (0, 1))),
        (z2_quotient_x3_minus_1(), ZnLinearForm(ring_zn(2).shape, (1,))),
    ]
    for q, base_eps in cases:
        ideals = quotient_left_ideal_codes(q)
        assert len(ideals) >= 4
        for V in ideals:
            rep = skew_cyclic_dual_report(V, q, base_eps)
            assert rep.dual_matches_reversal_orthogonal
            assert rep.dual_is_skew_cyclic
            assert rep.cardinality_product_ok


def test_criterion_09_group_algebra_duality_bridge():
    for name in ("Z2C2", "Z3C3"):
        ring = corpus()[name]
        for ideal in left_ideals(ring):
            rep = group_algebra_dual_report(ring, ideal.elements)
            assert rep.dual_matches_inverted_orthogonal, name
            assert rep.dual_is_left_ideal, name


def test_criterion_10_form_count_equals_ring_size():
    for name, ring in corpus().items():
        count = sum(1 for _ in enumerate_forms(ring.shape))
        assert count == ring.cardinality, name


# -- budgets at sizes the packed lattice reaches ---------------------------


def test_budget_left_lattice_of_z2_to_the_6():
    t0 = time.perf_counter()
    codes = submodule_codes(ring_zn(2), 6, "left")
    elapsed = time.perf_counter() - t0
    assert len(codes) == gaussian_binomial_sum(6, 2) == 2825
    assert elapsed < 5, f"lattice took {elapsed:.1f} s"


@pytest.mark.parametrize("name, expected", [("Z8^3", 802), ("Z9^3", 445)])
def test_budget_left_lattices_of_z8_and_z9_cubed(name, expected):
    """512 and 729 vectors: the count oracle of tests/test_lattice.py
    shares this build."""
    count, elapsed = left_lattice_size(name)
    assert count == expected
    assert elapsed < 1, f"lattice took {elapsed:.1f} s"


def test_budget_checked_code_of_every_word_of_z4_to_the_5():
    z4 = ring_zn(4)
    words = [tuple((c,) for c in v) for v in product(range(4), repeat=5)]
    t0 = time.perf_counter()
    code = LinearCode(z4, 5, "left", words)
    elapsed = time.perf_counter() - t0
    assert code.cardinality == 1024
    assert elapsed < 2, f"submodule check took {elapsed:.1f} s"


def test_budget_checked_code_of_every_word_of_z2_to_the_14():
    """The sum check grows the span of the kept generators and stops there,
    so the 16384 words cost fewer than 2 * 16384 additions."""
    words = [tuple((c,) for c in v) for v in product(range(2), repeat=14)]
    t0 = time.perf_counter()
    code = LinearCode(ring_zn(2), 14, "left", words)
    elapsed = time.perf_counter() - t0
    assert code.cardinality == 16384
    assert elapsed < 1.5, f"submodule check took {elapsed:.1f} s"


def test_budget_skew_sweep_of_gf4_squaring_mod_x4_minus_1(tmp_path, capsys):
    spec = tmp_path / "quotient.json"
    spec.write_text(json.dumps({
        "kind": "skew_quotient",
        "base": {"kind": "table", "n": 2, "orders": [2, 2],
                 "mul": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], "one": [1, 0]},
        "aut_images": [[1, 0], [1, 1]],
        "modulus": [[1, 0], [0, 0], [0, 0], [0, 0], [1, 0]],
    }))
    t0 = time.perf_counter()
    assert main(["skew", "sweep", str(spec), "--json"]) == 0
    elapsed = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    assert report["left_ideals"] == 15 and report["all_ok"] is True
    assert elapsed < 4, f"sweep took {elapsed:.1f} s"


def test_budget_frobenius_verdict_on_z2_with_twelve_square_zero_variables(tmp_path, capsys):
    """Z2[u_1..u_12]/(u)^2, 8192 elements: its radical and right socle are
    4096 elements each, so both routes run at socle, not ring, size."""
    r = 13
    mul = [[[int(t == j) for t in range(r)] for j in range(r)]]
    mul += [[[int(t == i) for t in range(r)]] + [[0] * r] * (r - 1) for i in range(1, r)]
    spec = tmp_path / "square_zero.json"
    spec.write_text(json.dumps({"kind": "table", "n": 2, "orders": [2] * r, "mul": mul,
                                "one": [1] + [0] * (r - 1)}))
    t0 = time.perf_counter()
    assert main(["ring", "frobenius", str(spec), "--json"]) == 1
    elapsed = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    assert report["frobenius"] is False and report["routes_agree"] is True
    assert report["radical_size"] == report["right_socle_size"] == 4096
    assert elapsed < 4, f"verdict took {elapsed:.1f} s"


def test_budget_validate_of_one_hundred_zero_ring_factors(tmp_path, capsys):
    """Z1^100 has rank 100 but one element: every basis element is 0, so
    the associativity check has no triple to multiply."""
    spec = tmp_path / "z1_power.json"
    spec.write_text(json.dumps({"kind": "product", "factors": [{"kind": "zn", "n": 1}] * 100}))
    t0 = time.perf_counter()
    assert main(["ring", "validate", str(spec)]) == 0
    elapsed = time.perf_counter() - t0
    assert capsys.readouterr().out == (
        "command: ring validate\nvalid: true\n"
        f"ring: char 1, orders {[1] * 100}, 1 elements\n"
        "characteristic: 1\ncardinality: 1\n"
        'checks: {"associativity": true, "bilinear-well-defined": true, '
        '"characteristic": true, "unit-laws": true}\n')
    assert elapsed < 3, f"validation took {elapsed:.1f} s"


def test_budget_validate_of_the_group_algebra_of_c60_over_z2(tmp_path, capsys):
    """Z2[C_60] has rank 60 and one nonzero coordinate per table entry:
    216000 basis triples of one packed term per side."""
    cayley = [[(g + h) % 60 for h in range(60)] for g in range(60)]
    spec = tmp_path / "z2_c60.json"
    spec.write_text(json.dumps({"kind": "group_algebra", "n": 2, "cayley": cayley}))
    t0 = time.perf_counter()
    assert main(["ring", "validate", str(spec)]) == 0
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert out.startswith("command: ring validate\nvalid: true\n")
    assert f"cardinality: {2 ** 60}\n" in out and '"associativity": true' in out
    assert elapsed < 1, f"validation took {elapsed:.1f} s"


def test_budget_validate_of_the_group_algebra_of_c60_over_z2_as_a_table(tmp_path, capsys):
    """The same ring given as its table: a table from outside is the input
    that the presentation checks run on (a group algebra is placed from
    its checked Cayley table), so this budget times the validator."""
    unit = [[int(l == g) for l in range(60)] for g in range(60)]
    spec = tmp_path / "z2_c60_table.json"
    spec.write_text(json.dumps({"kind": "table", "n": 2, "orders": [2] * 60, "one": unit[0],
                                "mul": [[unit[(g + h) % 60] for h in range(60)]
                                        for g in range(60)]}))
    t0 = time.perf_counter()
    assert main(["ring", "validate", str(spec)]) == 0
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert out.startswith("command: ring validate\nvalid: true\n")
    assert f"cardinality: {2 ** 60}\n" in out and '"associativity": true' in out
    assert elapsed < 1, f"validation took {elapsed:.1f} s"


def test_budget_left_ideals_of_gf4_squaring_mod_x6_minus_1():
    """GF4[x;sq]/(x^6 - 1), 4096 elements and 1080 units: one additive
    closure per unit orbit, 35 in all, not one per element."""
    field = gf4()
    quotient = SkewQuotient(field, gf4_frobenius(field), ((1, 0),) + ((0, 0),) * 5 + ((1, 0),))
    t0 = time.perf_counter()
    ideals = quotient_left_ideal_codes(quotient)
    elapsed = time.perf_counter() - t0
    sizes = sorted(map(len, ideals))
    assert (len(ideals), sizes[0], sizes[-1]) == (35, 1, 4096)
    assert elapsed < 1, f"left ideals took {elapsed:.2f} s"


def test_budget_identity_form_of_length_1000():
    """10^6 gram entries, read from the reduced 1 and 0, never reduced again."""
    z2 = ring_zn(2)
    t0 = time.perf_counter()
    form = identity_form(z2, 1000)
    elapsed = time.perf_counter() - t0
    assert form.matrix[999] == (z2.zero,) * 999 + (z2.one,)
    assert sum(row.count(z2.one) for row in form.matrix) == 1000
    assert elapsed < 0.25, f"identity form took {elapsed:.2f} s"


# The semisimple rings of 4096 to 65536 elements that the direct route
# decides in 5 s to 5 min, given as products: each factor is decided once.
GF4_SPEC = {"kind": "table", "n": 2, "orders": [2, 2],
            "mul": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], "one": [1, 0]}
M2F2_SPEC = {"kind": "matrix", "base": {"kind": "zn", "n": 2}, "size": 2}
PRODUCT_BUDGETS = [
    ("Z2^12", [{"kind": "zn", "n": 2}] * 12, [1] * 12),
    ("GF4^6", [GF4_SPEC] * 6, [0, 1] * 6),
    ("M2(F2)^3", [M2F2_SPEC] * 3, [0, 1, 1, 0] * 3),
    ("Z3^8", [{"kind": "zn", "n": 3}] * 8, [1] * 8),
    ("Z2^16", [{"kind": "zn", "n": 2}] * 16, [1] * 16),
]


@pytest.mark.parametrize("name, factors, first", PRODUCT_BUDGETS,
                         ids=[b[0] for b in PRODUCT_BUDGETS])
def test_budget_frobenius_verdict_on_a_semisimple_product(name, factors, first, tmp_path, capsys):
    """Radical 1 and both socles the whole ring; the first functional and
    both first socle generators are the factors' concatenated, which for
    Z2^k and Z3^k is all ones."""
    spec = tmp_path / "product.json"
    spec.write_text(json.dumps({"kind": "product", "factors": factors}))
    t0 = time.perf_counter()
    assert main(["ring", "frobenius", str(spec), "--json"]) == 0
    elapsed = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    size = 3 ** 8 if name == "Z3^8" else 2 ** len(first)
    assert report["ring"].endswith(f", {size} elements")
    assert report["frobenius"] is True and report["routes_agree"] is True
    assert report["radical_size"] == 1
    assert report["right_socle_size"] == report["left_socle_size"] == size
    assert report["functional_weights"] == first
    assert report["right_socle_generator"] == report["left_socle_generator"] == first
    assert elapsed < 1, f"{name} took {elapsed:.2f} s"


@pytest.mark.parametrize("name, factors, first", PRODUCT_BUDGETS,
                         ids=[b[0] for b in PRODUCT_BUDGETS])
def test_budget_frobenius_verdict_on_a_shuffled_semisimple_product(name, factors, first, tmp_path,
                                                                   capsys, monkeypatch):
    """The product's table with its coordinates shuffled by a seed, as a
    table spec: its blocks interleave, and it is decided block by block.
    With one coordinate per factor its report is the product spec's;
    otherwise the shuffle moves the first form, and the oracle is the
    direct route on the same table, its block record set to one block."""
    ring = build_ring({"kind": "product", "factors": factors}, DEFAULT_CAP)
    perm = list(range(ring.rank))
    random.Random(name).shuffle(perm)
    assert perm != sorted(perm)
    spec = tmp_path / "shuffled.json"
    spec.write_text(json.dumps({
        "kind": "table", "n": ring.characteristic, "orders": [ring.shape.orders[i] for i in perm],
        "mul": [[[ring.mul_table[i][j][l] for l in perm] for j in perm] for i in perm],
        "one": [ring.one[i] for i in perm]}))
    t0 = time.perf_counter()
    assert main(["ring", "frobenius", str(spec), "--json"]) == 0
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    if ring.rank == len(factors):
        spec = tmp_path / "product.json"
        spec.write_text(json.dumps({"kind": "product", "factors": factors}))
    else:
        monkeypatch.setattr(finring, "_table_blocks", lambda r: [list(range(r.rank))])
    assert main(["ring", "frobenius", str(spec), "--json"]) == 0
    assert out == capsys.readouterr().out
    assert elapsed < 1, f"shuffled {name} took {elapsed:.2f} s"
