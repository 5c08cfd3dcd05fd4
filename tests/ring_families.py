"""Ring specs of every family the benchmark draws from, in the CLI's JSON
format, for differential tests of ring construction.

A copy of the spec builders of bench/inputs.py, kept separate so that the
tests do not depend on the benchmark's files.  FAMILY_SPECS holds one or
more rings of each family, of 4 to 256 elements.
"""

import itertools


def zn(n):
    return {"kind": "zn", "n": n}


def table(n, orders, mul, one):
    return {"kind": "table", "n": n, "orders": orders, "mul": mul, "one": one}


def unit_vector(length, at):
    return [1 if t == at else 0 for t in range(length)]


def truncated(n, k):
    """Z_n[x]/(x^k) on the basis 1, x, ..., x^(k-1)."""
    return table(n, [n] * k, [[unit_vector(k, i + j) for j in range(k)] for i in range(k)],
                 unit_vector(k, 0))


def square_zero(p, k):
    """Z_p[u_1..u_k]/(u)^2."""
    r = k + 1
    mul = [[unit_vector(r, j) for j in range(r)]]
    mul += [[unit_vector(r, i)] + [[0] * r] * k for i in range(1, r)]
    return table(p, [p] * r, mul, unit_vector(r, 0))


def upper_triangular(n, t):
    """T_t(Z_n) on the matrix units E_ab, a <= b."""
    units = [(a, b) for a in range(t) for b in range(a, t)]
    r = len(units)
    mul = [[unit_vector(r, units.index((a, d))) if b == c else [0] * r for (c, d) in units]
           for (a, b) in units]
    return table(n, [n] * r, mul, [1 if a == b else 0 for (a, b) in units])


def matrix(base, size=2):
    return {"kind": "matrix", "base": base, "size": size}


def group_algebra(n, cayley):
    return {"kind": "group_algebra", "n": n, "cayley": cayley}


def product(*factors):
    return {"kind": "product", "factors": list(factors)}


def skew_quotient(base, modulus, aut_images=None):
    spec = {"kind": "skew_quotient", "base": base, "modulus": modulus}
    if aut_images is not None:
        spec["aut_images"] = aut_images
    return spec


def cyclic(k):
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def direct(*groups):
    """Cayley table of a direct product of groups."""
    elems = list(itertools.product(*(range(len(g)) for g in groups)))
    index = {e: i for i, e in enumerate(elems)}
    return [[index[tuple(g[x[q]][y[q]] for q, g in enumerate(groups))] for y in elems]
            for x in elems]


def dihedral(n):
    """The dihedral group of order 2n on the elements r^a s^b."""
    elems = [(a, b) for b in range(2) for a in range(n)]
    index = {e: i for i, e in enumerate(elems)}
    return [[index[((a + (c if b == 0 else -c)) % n, (b + d) % 2)] for (c, d) in elems]
            for (a, b) in elems]


# products of distinct units among i, j, k, as (sign, unit)
CROSS = {"ij": (1, "k"), "jk": (1, "i"), "ki": (1, "j"),
         "ji": (-1, "k"), "kj": (-1, "i"), "ik": (-1, "j")}


def unit_product(u, v):
    """(sign, unit) of u v for units u, v of {1, i, j, k}."""
    if u == "1" or v == "1":
        return 1, v if u == "1" else u
    return (-1, "1") if u == v else CROSS[u + v]


def quaternion_group():
    """Q8 on the elements +-1, +-i, +-j, +-k."""
    elems = [(s, u) for s in (1, -1) for u in "1ijk"]
    index = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        sign, unit = unit_product(x[1], y[1])
        return x[0] * y[0] * sign, unit

    return [[index[mul(x, y)] for y in elems] for x in elems]


def quaternion_algebra(n):
    """Z_n<i, j> with i^2 = j^2 = -1 and ij = -ji = k, on the basis 1, i,
    j, k: every sign -1 in its table is the entry n - 1."""
    units = "1ijk"
    mul = [[[sign % n if z == w else 0 for z in units]
            for sign, w in (unit_product(u, v) for v in units)] for u in units]
    return table(n, [n] * 4, mul, unit_vector(4, 0))


GF4 = table(2, [2, 2], [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], [1, 0])
F9 = table(3, [3, 3], [[[1, 0], [0, 1]], [[0, 1], [2, 0]]], [1, 0])  # i^2 = -1
GF4_SQUARING = [[1, 0], [1, 1]]
F9_CONJUGATION = [[1, 0], [0, 2]]
Z2C2xC2 = direct(cyclic(2), cyclic(2))

FAMILY_SPECS = [
    ("Z4", zn(4)),
    ("Z6", zn(6)),
    ("GF4", GF4),
    ("F9", F9),
    ("Z2[x]/(x^7)", truncated(2, 7)),
    ("Z4[x]/(x^3)", truncated(4, 3)),
    ("Z10[x]/(x^2)", truncated(10, 2)),
    ("Z2[u1..u5]/(u)^2", square_zero(2, 5)),
    ("Z5[u1,u2]/(u)^2", square_zero(5, 2)),
    ("T3(Z2)", upper_triangular(2, 3)),
    ("T2(Z6)", upper_triangular(6, 2)),
    ("M2(Z2)", matrix(zn(2))),
    ("M2(Z4)", matrix(zn(4))),
    ("M2(GF4)", matrix(GF4)),
    ("Z2[D4]", group_algebra(2, dihedral(4))),
    ("Z2[Q8]", group_algebra(2, quaternion_group())),
    ("Z3[C2xC2]", group_algebra(3, Z2C2xC2)),
    ("Z6[C2]", group_algebra(6, cyclic(2))),
    ("Z4 x T2(Z2)", product(zn(4), upper_triangular(2, 2))),
    ("Z2[C4] x Z2[u1,u2]/(u)^2", product(group_algebra(2, cyclic(4)), square_zero(2, 2))),
    ("Z3 x M2(Z2)", product(zn(3), matrix(zn(2)))),
    ("Z4<i,j>", quaternion_algebra(4)),
    ("Z2[x]/(x^6-1)", skew_quotient(zn(2), [1, 0, 0, 0, 0, 0, 1])),
    ("GF4[x;sq]/(x^2-1)", skew_quotient(GF4, [[1, 0], [0, 0], [1, 0]], GF4_SQUARING)),
    ("F9[x;conj]/(x^2-1)", skew_quotient(F9, [[2, 0], [0, 0], [1, 0]], F9_CONJUGATION)),
    ("(Z2xZ2)[x;swap]/(x^2-1)",
     skew_quotient(product(zn(2), zn(2)), [[1, 1], [0, 0], [1, 1]], [[0, 1], [1, 0]])),
]
