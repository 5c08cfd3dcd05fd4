import time
from functools import cache
from itertools import combinations_with_replacement

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
from frobring.codes import submodule_codes
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


# -- closed-form submodule counts -------------------------------------------


def gaussian_binomial(n, k, q):
    """[n choose k]_q, the number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def gaussian_binomial_sum(n, q):
    """Number of subspaces of F_q^n: the sum over k of [n choose k]_q."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def chain_ring_submodules(q, s, m):
    """Number of submodules of R^m, R a chain ring of depth s with residue
    field F_q (Z_{p^s}, GF4, Z2[u]/(u^2), ...), counted as subgroups of an
    abelian p-group of type (s^m) are (Butler, Mem. AMS 539, 1994; Honold
    and Landjev, Electron. J. Combin. 7, 2000, R11): a submodule of shape
    lambda in the m x s box, with conjugate c_1 >= ... >= c_s and
    c_{s+1} = 0, is one of prod_i q^(c_{i+1} (m - c_i))
    [m - c_{i+1} choose c_i - c_{i+1}]_q."""
    total = 0
    for conjugate in combinations_with_replacement(range(m, -1, -1), s):
        c, term = conjugate + (0,), 1
        for i in range(s):
            term *= q ** (c[i + 1] * (m - c[i])) * gaussian_binomial(m - c[i + 1], c[i] - c[i + 1], q)
        total += term
    return total


# name: (alphabet builder, m, closed-form count of the submodules of A^m);
# M_t(F_q)^m has the subspaces of F_q^(tm) (Morita equivalence), Z2[C2] is
# Z2[u]/(u^2) with u = 1 + g, and a product multiplies its factors' counts
LATTICE_AMBIENTS = {
    "Z4^3": (lambda: ring_zn(4), 3, chain_ring_submodules(2, 2, 3)),
    "Z8^3": (lambda: ring_zn(8), 3, chain_ring_submodules(2, 3, 3)),
    "Z9^3": (lambda: ring_zn(9), 3, chain_ring_submodules(3, 2, 3)),
    "Z2^6": (lambda: ring_zn(2), 6, gaussian_binomial_sum(6, 2)),
    "GF4^3": (gf4, 3, gaussian_binomial_sum(3, 4)),
    "Z2[C2]^3": (lambda: ring_group_algebra(2, cyclic_cayley(2)), 3, chain_ring_submodules(2, 2, 3)),
    "M2(F2)^2": (lambda: ring_matrix(ring_zn(2), 2), 2, gaussian_binomial_sum(4, 2)),
    "(Z2xZ4)^2": (lambda: ring_product(ring_zn(2), ring_zn(4)), 2,
                  gaussian_binomial_sum(2, 2) * chain_ring_submodules(2, 2, 2)),
    "Z12^2": (lambda: ring_zn(12), 2, chain_ring_submodules(2, 2, 2) * gaussian_binomial_sum(2, 3)),
    "Z16^2": (lambda: ring_zn(16), 2, chain_ring_submodules(2, 4, 2)),
    "Z27^2": (lambda: ring_zn(27), 2, chain_ring_submodules(3, 3, 2)),
}


@cache
def left_lattice_size(name):
    """(number of left submodules, seconds to build them) of an ambient of
    LATTICE_AMBIENTS, built once per session: the count oracle and the
    lattice budgets share the build."""
    build, m, _ = LATTICE_AMBIENTS[name]
    alphabet = build()
    t0 = time.perf_counter()
    count = len(submodule_codes(alphabet, m, "left"))
    return count, time.perf_counter() - t0


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
