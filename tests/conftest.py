import pytest
from hypothesis import settings

from frobring import ring_from_table, ring_matrix, ring_product, ring_zn
from frobring.catalog import (
    corpus_rings,
    cyclic_cayley,
    double_nil_ring,
    gf4,
    gf4_frobenius,
    gf4_skew_quotient,
    z2_quotient_x3_minus_1,
    z4_quotient_x2_minus_1,
)
from frobring.finring import ring_group_algebra

settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("suite")


def unit_vector(length, at):
    return [1 if t == at else 0 for t in range(length)]


def table_product(ring, a, b):
    """a * b by the tuple loop over the basis table: the oracle for the
    packed FiniteRing.mul, sharing nothing with it but mul_table."""
    k = ring.rank
    acc = [0] * k
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        row = ring.mul_table[i]
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            c = ai * bj
            e = row[j]
            for l in range(k):
                acc[l] += c * e[l]
    return tuple(acc[l] % ring.shape.orders[l] for l in range(k))


def upper_triangular(n, t):
    """T_t(Z_n) on the matrix units E_ab, a <= b: not Frobenius for t >= 2."""
    units = [(a, b) for a in range(t) for b in range(a, t)]
    r = len(units)
    mul = [[unit_vector(r, units.index((a, d))) if b == c else [0] * r for (c, d) in units]
           for (a, b) in units]
    return ring_from_table(n, [n] * r, mul, [1 if a == b else 0 for (a, b) in units])


@pytest.fixture(scope="session")
def z2():
    return ring_zn(2)


@pytest.fixture(scope="session")
def z3():
    return ring_zn(3)


@pytest.fixture(scope="session")
def z4():
    return ring_zn(4)


@pytest.fixture(scope="session")
def z2xz4():
    return ring_product(ring_zn(2), ring_zn(4))


@pytest.fixture(scope="session")
def f4():
    return gf4()


@pytest.fixture(scope="session")
def f4_frob(f4):
    return gf4_frobenius(f4)


@pytest.fixture(scope="session")
def m2f2():
    return ring_matrix(ring_zn(2), 2)


@pytest.fixture(scope="session")
def dn8():
    return double_nil_ring()


@pytest.fixture(scope="session")
def z2c2():
    return ring_group_algebra(2, cyclic_cayley(2), label="Z2C2")


@pytest.fixture(scope="session")
def z3c3():
    return ring_group_algebra(3, cyclic_cayley(3), label="Z3C3")


@pytest.fixture(scope="session")
def q_gf4():
    return gf4_skew_quotient()


@pytest.fixture(scope="session")
def q_z4():
    return z4_quotient_x2_minus_1()


@pytest.fixture(scope="session")
def q_z2_cubic():
    return z2_quotient_x3_minus_1()


@pytest.fixture(scope="session")
def corpus():
    return corpus_rings()
