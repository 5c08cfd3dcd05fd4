"""Table validation against the basis-triple scan it replaced.

table_validation_report checks bilinearity entry by entry and
associativity in one loop over the basis triples, summing packed table
entries at the nonzero coordinates of each entry; the oracle here
multiplies basis elements with FiniteRing.mul, 2 * rank^3 products for
associativity, and checks bilinearity coordinate by coordinate.  Both
must give the same (check, ok, witness) rows on every ring, on its
opposite, on every table with one entry planted wrong and on seeded
faults in larger, denser tables.
"""

import json
import random
import tracemalloc
import weakref
from itertools import product
from pathlib import Path
from unittest import mock

import pytest

from frobring import finring
from frobring.catalog import corpus_rings, gf4
from frobring.cli import build_ring, main
from frobring.finring import (
    TABLE_CHECKS,
    FiniteRing,
    RingValidationError,
    ring_from_table,
    ring_group_algebra,
    ring_matrix,
    ring_product,
    ring_zn,
    table_validation_report,
)
from frobring.frobenius import (
    is_associative,
    pairing_of_functional,
    verify_generator_equivalences,
)
from frobring.znmod import DEFAULT_CAP, ModuleShape, enumerate_forms

from conftest import unit_vector, upper_triangular
from ring_families import FAMILY_SPECS, cyclic, quaternion_algebra

GOLDEN = Path(__file__).resolve().parent / "ring_validate_stdout.json"


def validation_oracle(ring):
    """The presentation checks by basis-triple scans, in TABLE_CHECKS order."""
    bilinear, associative, unital, characteristic = TABLE_CHECKS
    shape, table = ring.shape, ring.mul_table
    k, orders = shape.rank, shape.orders
    witness = next(((i, j, l) for i, j, l in product(range(k), repeat=3)
                    if (orders[i] * table[i][j][l]) % orders[l]
                    or (orders[j] * table[i][j][l]) % orders[l]), None)
    report = [(bilinear, witness is None, witness)]
    if witness is not None:
        return report
    basis = ring.basis_elements
    live = [i for i in range(k) if orders[i] > 1]
    witness = next(((i, j, l) for i, j, l in product(live, repeat=3)
                    if ring.mul(table[i][j], basis[l]) != ring.mul(basis[i], table[j][l])), None)
    report.append((associative, witness is None, witness))
    witness = next((i for i, e in enumerate(basis)
                    if ring.mul(ring.one, e) != e or ring.mul(e, ring.one) != e), None)
    report.append((unital, witness is None, witness))
    order_of_one = shape.element_order(ring.one)
    report.append((characteristic, order_of_one == shape.n, (order_of_one, shape.n)))
    return report


def unvalidated(shape, table, one):
    """A FiniteRing built without the presentation checks."""
    with mock.patch.object(finring, "table_validation_report", lambda ring: []):
        return FiniteRing(shape, table, one)


def with_order_one_coordinates():
    z1 = ring_zn(1)
    return {"Z1 x T2(Z2) x Z1": ring_product(z1, upper_triangular(2, 2), z1),
            "GF4 x Z1 x Z2": ring_product(gf4(), z1, ring_zn(2)),
            "Z1 x Z4 x Z1 x Z2": ring_product(z1, ring_zn(4), z1, ring_zn(2))}


def planted_faults(ring):
    """Tables of ring with one coordinate of one entry moved, or of the
    identity (every change that stays in range), and the ring claimed in
    twice its characteristic."""
    shape, table = ring.shape, ring.mul_table
    for i, j in product(range(ring.rank), repeat=2):
        for l, d in enumerate(shape.orders):
            for delta in range(1, d):
                broken = [list(row) for row in table]
                broken[i][j] = shape.add(table[i][j], shape.scale(delta, ring.basis(l)))
                yield (i, j, l, delta), unvalidated(shape, broken, ring.one)
    for l, d in enumerate(shape.orders):
        for delta in range(1, d):
            one = shape.add(ring.one, shape.scale(delta, ring.basis(l)))
            yield ("one", l, delta), unvalidated(shape, table, one)
    yield "2n", unvalidated(ModuleShape(2 * shape.n, shape.orders), table, ring.one)


def assert_matches_oracle(ring, label):
    assert table_validation_report(ring) == validation_oracle(ring), label


# -- valid presentations ------------------------------------------------------


def test_corpus_rings_and_opposites_match_the_oracle(corpus):
    for name, ring in corpus.items():
        assert_matches_oracle(ring, name)
        assert_matches_oracle(ring.opposite(), name)


@pytest.mark.parametrize("name, spec", FAMILY_SPECS, ids=[name for name, _ in FAMILY_SPECS])
def test_family_rings_and_opposites_match_the_oracle(name, spec):
    ring = build_ring(spec, DEFAULT_CAP)
    assert_matches_oracle(ring, name)
    assert_matches_oracle(ring.opposite(), name)
    assert all(ok for _, ok, _ in table_validation_report(ring))


def unreduced_mismatches(ring):
    """Triples whose products (e_i e_j) e_l and e_i (e_j e_l), summed over
    the integer table entries without reducing, differ as integer vectors."""
    t, k = ring.mul_table, ring.rank
    live = [i for i in range(k) if ring.shape.orders[i] > 1]
    return [(i, j, l) for i, j, l in product(live, repeat=3)
            if [sum(t[i][j][p] * t[p][l][q] for p in range(k)) for q in range(k)]
            != [sum(t[i][p][q] * t[j][l][p] for p in range(k)) for q in range(k)]]


@pytest.mark.parametrize("name", ["Z4<i,j>", "GF4[x;sq]/(x^2-1)"])
def test_sums_that_agree_only_mod_d_pass(name):
    """Z4<i,j> has -1 = 3 in its table, and the GF4 skew quotient the
    entries of GF4's products: some triples agree only after reduction,
    on the ring and on its opposite."""
    ring = build_ring(dict(FAMILY_SPECS)[name], DEFAULT_CAP)
    for r in (ring, ring.opposite()):
        assert unreduced_mismatches(r)
        assert table_validation_report(r) == validation_oracle(r)
        assert table_validation_report(r)[1] == ("associativity", True, None)


def test_order_one_coordinates_match_the_oracle():
    for name, ring in with_order_one_coordinates().items():
        assert_matches_oracle(ring, name)
        assert_matches_oracle(ring.opposite(), name)
    z1_power = ring_product(*[ring_zn(1)] * 12)
    assert table_validation_report(z1_power) == validation_oracle(z1_power)


# -- planted faults -----------------------------------------------------------


PLANTED = ["Z4", "Z6", "GF4", "F9", "Z4[x]/(x^3)", "Z10[x]/(x^2)", "Z5[u1,u2]/(u)^2",
           "T2(Z6)", "M2(Z2)", "Z3[C2xC2]", "Z4 x T2(Z2)", "Z4<i,j>", "GF4[x;sq]/(x^2-1)",
           "F9[x;conj]/(x^2-1)", "(Z2xZ2)[x;swap]/(x^2-1)", "Z1 x T2(Z2) x Z1",
           "GF4 x Z1 x Z2", "Z1 x Z4 x Z1 x Z2", "Z1", "Z2[u,v]/(u,v)^2"]


def planted_ring(name):
    specs = dict(FAMILY_SPECS)
    if name in specs:
        return build_ring(specs[name], DEFAULT_CAP)
    return {**with_order_one_coordinates(), **corpus_rings()}[name]


@pytest.mark.parametrize("name", PLANTED)
def test_planted_faults_match_the_oracle(name):
    """Every planted fault, on the ring and on its opposite."""
    ring = planted_ring(name)
    for r in (ring, ring.opposite()):
        for fault, broken in planted_faults(r):
            assert table_validation_report(broken) == validation_oracle(broken), (name, fault)


def test_planted_faults_reach_every_check():
    failed = {}
    for name in PLANTED:
        for _, broken in planted_faults(planted_ring(name)):
            for check, ok, _ in table_validation_report(broken):
                if not ok:
                    failed[check] = failed.get(check, 0) + 1
    assert set(failed) == set(TABLE_CHECKS), failed


def test_constructor_raises_the_first_failed_row():
    for name in PLANTED:
        for fault, broken in planted_faults(planted_ring(name)):
            failed = [(check, witness) for check, ok, witness in validation_oracle(broken) if not ok]
            try:
                FiniteRing(broken.shape, broken.mul_table, broken.one)
            except RingValidationError as exc:
                assert failed and (exc.check, exc.witness) == failed[0], fault
            else:
                assert not failed, fault


def test_bilinearity_witness_on_an_order_one_row():
    """e_0 = 0 in Z1 x Z2, so e_0 e_1 must be 0: the witness is its first
    nonzero coordinate."""
    shape = ModuleShape(2, (1, 2))
    broken = unvalidated(shape, [[(0, 0), (0, 1)], [(0, 0), (0, 1)]], (0, 1))
    assert table_validation_report(broken) == [("bilinear-well-defined", False, (0, 1, 1))]
    assert validation_oracle(broken) == table_validation_report(broken)


def z2_polynomial_quotient(f):
    """Z2[x]/(f) on the basis 1, x, ..., x^(m-1), for f of degree m given by
    its bits (bit d is the coefficient of x^d)."""
    m = f.bit_length() - 1

    def reduced(p):
        for d in range(p.bit_length() - 1, m - 1, -1):
            if p >> d & 1:
                p ^= f << d - m
        return p

    table = [[[reduced(1 << i + j) >> l & 1 for l in range(m)] for j in range(m)]
             for i in range(m)]
    return ring_from_table(2, [2] * m, table, unit_vector(m, 0))


LARGER = {
    # f = x^12 + x^10 + x^9 + ... + x^2 + 1: 4.25 nonzero coordinates per entry
    "Z2[x]/(f), deg 12": lambda: z2_polynomial_quotient(0b1011111111101),
    "Z2[C16]": lambda: ring_group_algebra(2, cyclic(16)),
}


@pytest.mark.parametrize("name", LARGER)
def test_faults_planted_in_larger_tables_match_the_oracle(name):
    """One coordinate moved at the last live triple (entry (k-1, k-1),
    coordinate k-1) and at seeded triples, in tables past the fixed lists'
    ranks: every broken table fails a check, as the oracle says, row for row."""
    ring = LARGER[name]()
    assert_matches_oracle(ring, name)
    k, rng = ring.rank, random.Random(7)
    faults = [(k - 1, k - 1, k - 1)] + [tuple(rng.randrange(k) for _ in range(3)) for _ in range(7)]
    for i, j, l in faults:
        broken = [list(row) for row in ring.mul_table]
        broken[i][j] = ring.shape.add(broken[i][j], ring.basis(l))
        broken = unvalidated(ring.shape, broken, ring.one)
        report = validation_oracle(broken)
        assert not all(ok for _, ok, _ in report), (name, (i, j, l))
        assert table_validation_report(broken) == report, (name, (i, j, l))


# -- work done while building -------------------------------------------------


BUILDS = {
    "table": lambda b: ring_from_table(4, (4, 4), [[(1, 0), (0, 1)], [(0, 1), (3, 0)]], (1, 0)),
    "product": lambda b: ring_product(b["Z2"], b["GF4"], b["Z1"], b["Z4"]),
    "matrix": lambda b: ring_matrix(b["GF4"], 2),
    "group algebra": lambda b: ring_group_algebra(3, cyclic(4)),
    "quaternions": lambda b: build_ring(quaternion_algebra(4), DEFAULT_CAP),
}


@pytest.mark.parametrize("kind", BUILDS)
def test_building_multiplies_only_for_the_unit_laws(kind, monkeypatch):
    """Two products per basis element, 1 e_i and e_i 1, and no more, for
    a table from outside; none, and no presentation check, for a ring
    derived from checked rings (a product, a matrix ring, a group
    algebra); none for the opposite.  The bases are built beforehand."""
    bases = {"Z1": ring_zn(1), "Z2": ring_zn(2), "Z4": ring_zn(4), "GF4": gf4()}
    calls = [0]
    mul = FiniteRing.mul

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    def refused(ring):
        raise AssertionError("a derived ring was validated again")

    monkeypatch.setattr(FiniteRing, "mul", counted)
    if kind in ("table", "quaternions"):
        ring = BUILDS[kind](bases)
        assert 0 < calls[0] <= 2 * ring.rank
    else:
        with monkeypatch.context() as patched:
            patched.setattr(finring, "table_validation_report", refused)
            ring = BUILDS[kind](bases)
        assert calls[0] == 0
    calls[0] = 0
    ring.opposite()
    assert calls[0] == 0


@pytest.mark.parametrize("kind", [*BUILDS, "Z1^200"])
def test_the_opposite_reduces_multiplies_and_validates_nothing(kind, monkeypatch):
    """The opposite is the validated table transposed: building it makes no
    product, reduces no vector and runs no presentation check."""
    bases = {"Z1": ring_zn(1), "Z2": ring_zn(2), "Z4": ring_zn(4), "GF4": gf4()}
    ring = ring_product(*[bases["Z1"]] * 200) if kind == "Z1^200" else BUILDS[kind](bases)
    calls = {"mul": 0, "reduce": 0}

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    def refused(ring):
        raise AssertionError("the opposite was validated again")

    monkeypatch.setattr(FiniteRing, "mul", counted("mul", FiniteRing.mul))
    monkeypatch.setattr(ModuleShape, "reduce", counted("reduce", ModuleShape.reduce))
    monkeypatch.setattr(finring, "table_validation_report", refused)
    op = ring.opposite()
    assert calls == {"mul": 0, "reduce": 0}
    assert op.mul_table == tuple(zip(*ring.mul_table)) and op.one == ring.one


SHARED = {**BUILDS, "M2(F2)": lambda b: ring_matrix(ring_zn(2), 2)}
SIDE_FREE = ("units", "nilpotents", "jacobson_radical", "radical_generators", "elements")


def counted_products(monkeypatch):
    """A list whose one entry counts FiniteRing.mul calls from now on."""
    calls = [0]
    mul = FiniteRing.mul

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(FiniteRing, "mul", counted)
    return calls


@pytest.mark.parametrize("first", ["opposite", "ring"])
@pytest.mark.parametrize("kind", SHARED)
def test_a_ring_and_its_opposite_share_what_either_finds(kind, first, monkeypatch):
    """With the opposite taken before anything is found, whichever of the
    two finds a side-free structure, the other returns the same object
    and makes no product."""
    bases = {"Z1": ring_zn(1), "Z2": ring_zn(2), "Z4": ring_zn(4), "GF4": gf4()}
    for name in SIDE_FREE:
        ring = SHARED[kind](bases)
        op = ring.opposite()
        asker, other = (op, ring) if first == "opposite" else (ring, op)
        found = getattr(asker, name)()
        with monkeypatch.context() as patch:
            calls = counted_products(patch)
            assert getattr(other, name)() is found, name
            assert calls[0] == 0, name


@pytest.mark.parametrize("kind", SHARED)
def test_a_rebuilt_original_shares_the_opposites_record(kind, monkeypatch):
    """Freed and rebuilt through the opposite, the original shares what the
    opposite found before and what either finds after."""
    bases = {"Z1": ring_zn(1), "Z2": ring_zn(2), "Z4": ring_zn(4), "GF4": gf4()}
    ring = SHARED[kind](bases)
    op = ring.opposite()
    gone = weakref.ref(ring)
    del ring
    assert gone() is None
    units = op.units()
    again = op.opposite()
    radical = again.jacobson_radical()
    calls = counted_products(monkeypatch)
    assert again.units() is units and again.nilpotents() is op.nilpotents()
    assert op.jacobson_radical() is radical
    assert op.radical_generators() is again.radical_generators()
    assert op.elements() is again.elements()
    assert calls[0] == 0


def test_associativity_check_holds_one_j_at_a_time():
    """The loop holds the table entries' nonzero (coordinate, coefficient)
    pairs and two ints at a time, no packed layout of its own (big-int
    contraction coefficients for all j at once peaked at 1.85 MiB)."""
    ring = ring_group_algebra(2, cyclic(32))
    tracemalloc.start()
    try:
        table_validation_report(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2 ** 20


# -- the pairing's associativity in generator reports ---------------------------


def test_generator_reports_read_associativity_like_the_scan(corpus):
    small = {"Z4", "Z6", "M2(F2)", "Z2C2", "GF4[x;sq]/(x^2-1)", "Z2[u,v]/(u,v)^2"}
    for name, ring in corpus.items():
        forms = list(enumerate_forms(ring.shape))
        for form in forms if name in small else forms[:3] + forms[-1:]:
            scan = is_associative(ring, pairing_of_functional(ring, form))
            assert verify_generator_equivalences(ring, form).pairing_associative == scan, name


# -- ring validate ---------------------------------------------------------------


def cli_specs():
    """The family specs, their opposites' tables and tables that fail each
    check, as ring validate reads them."""
    specs = {name: spec for name, spec in FAMILY_SPECS}
    for name, spec in FAMILY_SPECS:
        ring = build_ring(spec, DEFAULT_CAP)
        for label, r in (("planted", ring), ("planted op", ring.opposite())):
            k = r.rank
            i, j, l = k // 2, (k - 1) // 2, k - 1
            broken = [[list(e) for e in row] for row in r.mul_table]
            broken[i][j][l] += 1
            specs[f"{name} {label}"] = {"kind": "table", "n": r.characteristic,
                                        "orders": list(r.shape.orders), "mul": broken,
                                        "one": list(r.one)}
    specs["bilinear"] = {"kind": "table", "n": 4, "orders": [2, 4],
                         "mul": [[[0, 1], [0, 0]], [[0, 0], [0, 0]]], "one": [1, 0]}
    specs["associativity"] = {"kind": "table", "n": 2, "orders": [2, 2, 2], "mul": [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]]], "one": [1, 0, 0]}
    specs["unit-laws"] = {"kind": "table", "n": 2, "orders": [2], "mul": [[[0]]], "one": [1]}
    specs["characteristic"] = {"kind": "table", "n": 4, "orders": [2, 2],
                               "mul": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "one": [1, 1]}
    specs["Z1 x GF4 x Z1"] = {"kind": "product", "factors": [
        {"kind": "zn", "n": 1}, dict(FAMILY_SPECS)["GF4"], {"kind": "zn", "n": 1}]}
    return specs


def test_ring_validate_stdout_is_pinned(tmp_path, capsys):
    """Byte for byte the output and exit code the basis-triple scan gave."""
    golden = json.loads(GOLDEN.read_text())
    specs = cli_specs()
    assert sorted(golden) == sorted(specs)
    for name, spec in specs.items():
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        for flags in ([], ["--json"]):
            rc = main(["ring", "validate", str(path), *flags])
            assert [rc, capsys.readouterr().out] == golden[name][" ".join(flags)], (name, flags)
