"""Seeded input generators for the three benchmark workloads.

Every generator returns plain JSON-ready data (lists, dicts, ints, strings),
so the same seed gives byte-identical inputs and the library only ever sees
what the generator produced.  Each input carries the verdict the oracle
expects, or the invariant its result must satisfy.

Inputs are drawn by stratified sampling: every workload has a fixed list of
slots, and the seed picks one candidate per slot.  Candidates in a slot are
matched in size and measured cost, so that changing the seed changes the
inputs without changing how much work a pass does.
"""

from __future__ import annotations

import itertools
import random

# -- ring specs in the CLI's JSON format -------------------------------------


def zn(n: int) -> dict:
    return {"kind": "zn", "n": n}


def table(n: int, orders: list[int], mul: list, one: list[int]) -> dict:
    return {"kind": "table", "n": n, "orders": orders, "mul": mul, "one": one}


def unit_vector(length: int, at: int) -> list[int]:
    return [1 if t == at else 0 for t in range(length)]


def truncated(n: int, k: int) -> dict:
    """Z_n[x]/(x^k) on the basis 1, x, ..., x^(k-1): Frobenius."""
    mul = [[unit_vector(k, i + j) for j in range(k)] for i in range(k)]
    return table(n, [n] * k, mul, unit_vector(k, 0))


def square_zero(p: int, k: int) -> dict:
    """Z_p[u_1..u_k]/(u)^2: the socle is the whole radical, so for k >= 2
    it is larger than R/J and the ring is not Frobenius."""
    r = k + 1
    zero = [0] * r
    mul = [[unit_vector(r, j) for j in range(r)]]
    mul += [[unit_vector(r, i)] + [zero] * k for i in range(1, r)]
    return table(p, [p] * r, mul, unit_vector(r, 0))


def upper_triangular(n: int, t: int) -> dict:
    """T_t(Z_n) on the matrix units E_ab, a <= b: not Frobenius for t >= 2."""
    units = [(a, b) for a in range(t) for b in range(a, t)]
    r = len(units)
    mul = [
        [unit_vector(r, units.index((a, d))) if b == c else [0] * r for (c, d) in units]
        for (a, b) in units
    ]
    return table(n, [n] * r, mul, [1 if a == b else 0 for (a, b) in units])


def matrix(n: int, size: int = 2) -> dict:
    return {"kind": "matrix", "base": zn(n), "size": size}


def group_algebra(n: int, cayley: list[list[int]]) -> dict:
    return {"kind": "group_algebra", "n": n, "cayley": cayley}


def product(*factors: dict) -> dict:
    return {"kind": "product", "factors": list(factors)}


def cyclic(k: int) -> list[list[int]]:
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def direct(*groups: list[list[int]]) -> list[list[int]]:
    """Cayley table of a direct product of groups."""
    elems = list(itertools.product(*(range(len(g)) for g in groups)))
    index = {e: i for i, e in enumerate(elems)}
    return [
        [index[tuple(g[x[q]][y[q]] for q, g in enumerate(groups))] for y in elems]
        for x in elems
    ]


def dihedral(n: int) -> list[list[int]]:
    """Dihedral group of order 2n on elements r^a s^b."""
    elems = [(a, b) for b in range(2) for a in range(n)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        (a, b), (c, d) = x, y
        return ((a + (c if b == 0 else -c)) % n, (b + d) % 2)

    return [[index[mul(x, y)] for y in elems] for x in elems]


def quaternion() -> list[list[int]]:
    """The quaternion group Q8 on elements +-1, +-i, +-j, +-k."""
    units = "1ijk"
    # unit products as (sign, unit): i*j = k, j*i = -k, i*i = -1, ...
    cross = {"ij": (1, "k"), "jk": (1, "i"), "ki": (1, "j"),
             "ji": (-1, "k"), "kj": (-1, "i"), "ik": (-1, "j")}

    def unit_mul(u, v):
        if u == "1":
            return 1, v
        if v == "1":
            return 1, u
        if u == v:
            return -1, "1"
        return cross[u + v]

    elems = [(s, u) for s in (1, -1) for u in units]
    index = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        sign, unit = unit_mul(x[1], y[1])
        return (x[0] * y[0] * sign, unit)

    return [[index[mul(x, y)] for y in elems] for x in elems]


GF4 = table(2, [2, 2], [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], [1, 0])
F9 = table(3, [3, 3], [[[1, 0], [0, 1]], [[0, 1], [2, 0]]], [1, 0])  # i^2 = -1
GF4_SQUARING = [[1, 0], [1, 1]]
F9_CONJUGATION = [[1, 0], [0, 2]]


def skew_quotient(base: dict, modulus: list, aut_images: list | None = None) -> dict:
    spec = {"kind": "skew_quotient", "base": base, "modulus": modulus}
    if aut_images is not None:
        spec["aut_images"] = aut_images
    return spec


GF4_SKEW_16 = skew_quotient(GF4, [[1, 0], [0, 0], [1, 0]], GF4_SQUARING)

# -- ring_decide ---------------------------------------------------------------

F, NOT_F = True, False
Z2C2xC2 = direct(cyclic(2), cyclic(2))

# One entry per slot: (name, spec, is Frobenius).  Candidates in a slot have
# the same size and, timed side by side through `ring frobenius`, run within
# about 30% of each other (the slots costing over 0.3 s within about 15%).
# The expected verdict follows from the family: matrix rings, group
# algebras and truncated polynomial rings over Z_n are Frobenius, and so are
# their products; square-zero rings with two or more generators and
# upper-triangular rings are not, nor is any product with such a factor.
RING_SLOTS: list[list[tuple[str, dict, bool]]] = [
    # 256 elements
    [("M2(Z4)", matrix(4), F)],
    [("Z2[D4]", group_algebra(2, dihedral(4)), F),
     ("Z2[Q8]", group_algebra(2, quaternion()), F)],
    [("Z2[C2xC2] x Z2[u1..u3]/(u)^2",
      product(group_algebra(2, Z2C2xC2), square_zero(2, 3)), NOT_F),
     ("Z2[C4] x Z2[u1..u3]/(u)^2",
      product(group_algebra(2, cyclic(4)), square_zero(2, 3)), NOT_F)],
    # 216 to 100 elements
    [("T2(Z6)", upper_triangular(6, 2), NOT_F)],
    [("Z2[x]/(x^7)", truncated(2, 7), F),
     ("M2(Z2) x Z2[x]/(x^3)", product(matrix(2), truncated(2, 3)), F)],
    [("M2(Z2) x Z2[u1,u2]/(u)^2", product(matrix(2), square_zero(2, 2)), NOT_F),
     ("Z2[C4] x Z2[u1,u2]/(u)^2",
      product(group_algebra(2, cyclic(4)), square_zero(2, 2)), NOT_F)],
    [("Z5[u1,u2]/(u)^2", square_zero(5, 2), NOT_F)],
    [("Z10[C2]", group_algebra(10, cyclic(2)), F), ("Z10[x]/(x^2)", truncated(10, 2), F)],
    # 81 elements
    [("Z3[C4]", group_algebra(3, cyclic(4)), F), ("Z3[C2xC2]", group_algebra(3, Z2C2xC2), F)],
    [("Z3[x]/(x^4)", truncated(3, 4), F)],
    [("Z3[u1..u3]/(u)^2", square_zero(3, 3), NOT_F),
     ("T2(Z3) x Z3", product(upper_triangular(3, 2), zn(3)), NOT_F)],
    # 64 elements
    [("Z2[C6]", group_algebra(2, cyclic(6)), F),
     ("Z2[S3]", group_algebra(2, dihedral(3)), F)],
    [("Z4[C3]", group_algebra(4, cyclic(3)), F), ("Z4[x]/(x^3)", truncated(4, 3), F)],
    [("Z2[u1..u5]/(u)^2", square_zero(2, 5), NOT_F)],
    [("T3(Z2)", upper_triangular(2, 3), NOT_F)],
    [("T2(Z4)", upper_triangular(4, 2), NOT_F)],
    # 48 to 24 elements
    [("Z3 x M2(Z2)", product(zn(3), matrix(2)), F),
     ("Z3 x Z2[C4]", product(zn(3), group_algebra(2, cyclic(4))), F)],
    [("Z5 x Z2[u1,u2]/(u)^2", product(zn(5), square_zero(2, 2)), NOT_F)],
    [("Z6[C2]", group_algebra(6, cyclic(2)), F), ("Z6[x]/(x^2)", truncated(6, 2), F)],
    [("Z2[C5]", group_algebra(2, cyclic(5)), F), ("Z2[x]/(x^5)", truncated(2, 5), F),
     ("Z2 x M2(Z2)", product(zn(2), matrix(2)), F)],
    [("Z2[u1..u4]/(u)^2", square_zero(2, 4), NOT_F),
     ("Z4 x T2(Z2)", product(zn(4), upper_triangular(2, 2)), NOT_F)],
    [("Z3[C3]", group_algebra(3, cyclic(3)), F), ("Z3[x]/(x^3)", truncated(3, 3), F)],
    [("Z3[u1,u2]/(u)^2", square_zero(3, 2), NOT_F), ("T2(Z3)", upper_triangular(3, 2), NOT_F)],
    [("Z3 x T2(Z2)", product(zn(3), upper_triangular(2, 2)), NOT_F)],
    # 16 elements
    [("M2(Z2)", matrix(2), F), ("Z2[C4]", group_algebra(2, cyclic(4)), F),
     ("Z2[C2xC2]", group_algebra(2, Z2C2xC2), F), ("Z2[x]/(x^4)", truncated(2, 4), F)],
    [("Z4[C2]", group_algebra(4, cyclic(2)), F), ("Z4[x]/(x^2)", truncated(4, 2), F)],
    [("Z2[u1..u3]/(u)^2", square_zero(2, 3), NOT_F),
     ("Z2 x T2(Z2)", product(zn(2), upper_triangular(2, 2)), NOT_F)],
]


def ring_decide_inputs(seed: int) -> list[dict]:
    """One ring per slot, in seeded order, each with its expected verdict."""
    rng = random.Random(seed)
    picks = [rng.choice(slot) for slot in RING_SLOTS]
    rng.shuffle(picks)
    return [
        {"name": name, "spec": spec, "frobenius": frob, "exit_code": 0 if frob else 1}
        for name, spec, frob in picks
    ]


# -- code_sweep ----------------------------------------------------------------

# (name, alphabet spec, length m).  Ambients of 16 to 81 vectors; Z4^3,
# Z2 x Z4^2 and M2(F2)^2 are left out because one lattice takes 3 to 14 s.
COMMUTATIVE_ALPHABETS = [
    ("Z4", zn(4), 2), ("GF4", GF4, 3), ("F3", zn(3), 3), ("Z8", zn(8), 2),
    ("Z9", zn(9), 2), ("F5", zn(5), 2), ("Z6", zn(6), 2),
]
# One noncommutative alphabet keeps the left and right lattices different.
NONCOMMUTATIVE_ALPHABETS = [
    ("M2(F2)", matrix(2), 1), ("GF4[x;sq]/(x^2-1)", GF4_SKEW_16, 1),
]


def _gram(rng: random.Random, m: int, zero: list[int], elements: list, units: list,
          monomial: bool) -> list:
    """A nondegenerate gram matrix: a row permutation of D + b E_ij.

    D is diagonal with unit entries, so D + b E_ij (i != j) is invertible
    and the form is nondegenerate on both sides.  With b = 0 the matrix is
    monomial; with b != 0 row i holds two nonzero entries, so it is not.
    """
    q = [[units[rng.randrange(len(units))] if i == j else zero for j in range(m)]
         for i in range(m)]
    if not monomial:
        i, j = rng.sample(range(m), 2)
        nonzero = [e for e in elements if e != zero]
        q[i][j] = nonzero[rng.randrange(len(nonzero))]
    rng.shuffle(q)
    return q


def code_sweep_inputs(seed: int, frobring) -> list[dict]:
    """Alphabets with seeded gram matrices, each tagged monomial or not.

    The library is used here only to list each alphabet's elements and
    units; the matrices and their expected flags come from the generator.
    """
    rng = random.Random(seed)
    alphabets = COMMUTATIVE_ALPHABETS + [rng.choice(NONCOMMUTATIVE_ALPHABETS)]
    out = []
    for name, spec, m in alphabets:
        ring = frobring.cli.build_ring(spec, frobring.DEFAULT_CAP)
        elements = [list(e) for e in ring.elements()]
        units = [list(u) for u in sorted(ring.units())]
        zero = list(ring.zero)
        flags = [True] if m == 1 else [True, False]
        grams = [{"matrix": _gram(rng, m, zero, elements, units, mono), "monomial": mono}
                 for mono in flags]
        out.append({"name": name, "spec": spec, "m": m, "grams": grams})
    return out


# -- skew_sweep ----------------------------------------------------------------

# (name, quotient spec).  Every modulus is x^m - 1 with the automorphism
# order dividing m, so the duality report applies; GF4[x;sq]/(x^4-1) is
# left out because one sweep of its 256 elements takes about 21 s.
SKEW_QUOTIENTS = [
    ("Z2[x]/(x^6-1)", skew_quotient(zn(2), [1, 0, 0, 0, 0, 0, 1])),
    ("Z3[x]/(x^4-1)", skew_quotient(zn(3), [2, 0, 0, 0, 1])),
    ("Z4[x]/(x^3-1)", skew_quotient(zn(4), [3, 0, 0, 1])),
    ("GF4[x]/(x^3-1)", skew_quotient(GF4, [[1, 0], [0, 0], [0, 0], [1, 0]])),
    ("GF4[x;sq]/(x^2-1)", GF4_SKEW_16),
    ("F9[x;conj]/(x^2-1)", skew_quotient(F9, [[2, 0], [0, 0], [1, 0]], F9_CONJUGATION)),
    ("(Z2xZ2)[x;swap]/(x^2-1)",
     skew_quotient(product(zn(2), zn(2)), [[1, 1], [0, 0], [1, 1]], [[0, 1], [1, 0]])),
]


def frobenius_forms(frobring, spec: dict) -> list[list[int]]:
    """Weights of every Frobenius form on the ring, in enumeration order."""
    ring = frobring.cli.build_ring(spec, frobring.DEFAULT_CAP)
    found = []
    for form in frobring.enumerate_forms(ring.shape):
        try:
            frobring.FrobeniusFunctional(ring, form)
        except frobring.DegenerateFormError:
            continue
        found.append(list(form.weights))
    return found


def skew_sweep_inputs(seed: int, frobring) -> list[dict]:
    """Quotients with a seeded base Frobenius functional; every report
    must have all three flags true."""
    rng = random.Random(seed)
    out = []
    for name, spec in SKEW_QUOTIENTS:
        weights = rng.choice(frobenius_forms(frobring, spec["base"]))
        out.append({"name": name, "spec": spec, "base_weights": weights,
                    "expect": {"dual_matches_reversal_orthogonal": True,
                               "dual_is_skew_cyclic": True,
                               "cardinality_product_ok": True}})
    return out
