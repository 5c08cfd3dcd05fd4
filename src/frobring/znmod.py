"""Exact arithmetic in finite modules Z_{d_1} x ... x Z_{d_k} inside Z_n.

A ModuleShape fixes the ambient characteristic n together with the additive
orders d_1 | n, ..., d_k | n of a distinguished coordinate system.  Elements
are plain integer tuples, coordinate i reduced mod d_i, so they are hashable
and can live in sets.  Linear forms into Z_n are weight tuples; the weight
on a coordinate of order d must be a multiple of n/d, which is exactly the
condition weight * d = 0 (mod n) needed for the map to be well defined.
Counting those choices gives d forms per coordinate, hence as many forms as
elements in total.

A word of A^m, for a module A of rank r, is a tuple of m elements; its
coordinates are the r*m ints of its entries in order.  _word_layout is
the one place that turns words into coordinates and back: every route
that pairs, packs or tests words of A^m (the ambient orthogonals and
duals of frobenius and codes, and the skew quotient's table ring) reads
them through it, and _flat_vectors adds the check that each entry is an
element.

Every orthogonal and kernel in the package lists its members by one meet
in the middle on packed images, _packed_kernel.  linear_kernel checks
and encodes tuple images for it; _packed_orthogonal, the one orthogonal
routine, writes each basis vector's image straight from packed lines
into its packed_arithmetic code and hands the codes over with no tuple
in between.

Everything is immutable and all operations are pure, apart from the one
setting they read: enumerations run in lexicographic coordinate order and
are guarded by the size cap of the enclosing enumeration_cap block
(DEFAULT_CAP outside any); exceeding the cap raises EnumerationCapError,
never silently truncates.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain, product, repeat
from math import gcd, lcm, prod
from typing import Callable, Iterable, Iterator, Sequence

Element = tuple[int, ...]

DEFAULT_CAP = 1 << 20
_CAP: ContextVar[int] = ContextVar("enumeration_cap", default=DEFAULT_CAP)


class EnumerationCapError(ValueError):
    """An enumeration would exceed the configured size cap."""


def _is_int(c) -> bool:
    return isinstance(c, int) and not isinstance(c, bool)  # True is not 1


def _ints(values: Iterable, what: str) -> tuple[int, ...]:
    values = tuple(values)  # never through int(), which reads 2.9 as 2
    for v in values:
        if not _is_int(v):
            raise ValueError(f"{what} {v!r} is not an int")
    return values


def _int_vectors(vectors: Iterable[Iterable], what: str) -> list[tuple]:
    """vectors as tuples of ints, typed in one C-level pass (tables come
    through here); _ints names a stray."""
    vectors = [tuple(v) for v in vectors]
    if not set(map(type, chain.from_iterable(vectors))) <= {int}:
        _ints(chain.from_iterable(vectors), what)
    return vectors


@lru_cache
def _word_layout(m: int, r: int) -> tuple[Callable, Callable]:
    """(flatten, unflatten): the one layout of A^m, A of rank r, built
    once per (m, r).

    flatten is faithful: it turns a word, a tuple of m entries of r
    coordinates each, into its r*m coordinates, in order, and refuses any
    other nesting with a ValueError naming the word as given, so a word of
    another length, an entry of another rank, or ((1, 1), (0,), ()) at
    m = 3, r = 1, is never read as the coordinates it would chain to.  It
    reads the word's type and its entries' lengths only: whether each
    coordinate is an int in range is left to the caller, which checks it
    where it checks elements (_flat_vectors, or the kept generators of
    finring.ring_generators and finring.submodule_violation).  unflatten
    is its inverse, m slices of r coordinates each, so at r = 0 it gives m
    empty entries.  Both run on C-level builtins, at about the cost of an
    unchecked chain per word."""
    # m slices of r coordinates, and an empty one that keeps the result a
    # tuple at m = 1 and that unflatten drops
    cut = operator.itemgetter(*(slice(i * r, i * r + r) for i in range(m)), slice(0))
    lengths = (r,) * m

    def flatten(word) -> Element:
        try:  # an entry without a length raises TypeError
            if type(word) is tuple and tuple(map(len, word)) == lengths:
                return tuple(chain(*word))
        except TypeError:
            pass
        raise ValueError(f"{word!r} is not a vector of length {m} of tuples of {r} coordinates")

    return flatten, lambda flat: cut(flat)[:-1]


def _flat_vectors(shape: ModuleShape, m: int, words: Iterable) -> list[Element]:
    """The words, flattened by _word_layout, as a list: the checked way
    into the coordinates of A^m, A the shape's module.  A word whose
    nesting is not that of A^m, or with an entry that is not an element,
    is refused with a ValueError naming it.  An element's entries are
    tuples and its coordinates ints in range, read by type, as flatten
    reads the word, on C-level builtins, at about the cost of the
    flattening.  LinearCode checks its words and generators here, the
    ambient orthogonals their subsets and SkewQuotient its arguments."""
    words = list(words)
    flats = list(map(_word_layout(m, shape.rank)[0], words))
    bounds = shape.orders * m
    for word, flat in zip(words, flats):
        if not ({tuple}.issuperset(map(type, word)) and {int}.issuperset(map(type, flat))
                and min(flat, default=0) >= 0 and all(map(operator.lt, flat, bounds))):
            raise ValueError(f"{word!r} is not a vector of A^{m}")
    return flats


@dataclass(frozen=True)
class ModuleShape:
    """Coordinate description of a finite abelian group inside char n."""

    n: int
    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", _ints(self.orders, "order"))
        _ints((self.n,), "characteristic")
        if self.n < 1:
            raise ValueError(f"characteristic must be positive, got {self.n}")
        for i, d in enumerate(self.orders):
            if d < 1:
                raise ValueError(f"order of coordinate {i} must be positive, got {d}")
            if self.n % d != 0:
                raise ValueError(
                    f"order {d} of coordinate {i} does not divide the characteristic {self.n}"
                )

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def cardinality(self) -> int:
        return prod(self.orders)

    @property
    def zero(self) -> Element:
        return (0,) * self.rank

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == self.rank
            and all(_is_int(c) and 0 <= c < d for c, d in zip(x, self.orders))
        )

    def reduce(self, coords: Iterable[int]) -> Element:
        """Reduce an integer coordinate vector into canonical range."""
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        return tuple(map(operator.mod, coords, self.orders))

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % d for a, d in zip(x, self.orders))

    def sub(self, x: Element, y: Element) -> Element:
        return tuple((a - b) % d for a, b, d in zip(x, y, self.orders))

    def scale(self, c: int, x: Element) -> Element:
        return tuple((c * a) % d for a, d in zip(x, self.orders))

    def element_order(self, x: Element) -> int:
        """Additive order of x: lcm of the per-coordinate orders."""
        return lcm(*(d // gcd(d, a) for a, d in zip(x, self.orders))) if self.rank else 1


@dataclass(frozen=True)
class ZnLinearForm:
    """Additive map into Z_n given by a weight per coordinate."""

    shape: ModuleShape
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", _ints(self.weights, "weight"))
        n = self.shape.n
        if len(self.weights) != self.shape.rank:
            raise ValueError(
                f"expected {self.shape.rank} weights, got {len(self.weights)}"
            )
        for i, (w, d) in enumerate(zip(self.weights, self.shape.orders)):
            if not 0 <= w < n:
                raise ValueError(f"weight {w} at coordinate {i} not reduced mod {n}")
            if (w * d) % n != 0:
                raise ValueError(
                    f"weight {w} at coordinate {i} is not a multiple of {n // d}, "
                    "so the map is not well defined on a coordinate of order "
                    f"{d}"
                )

    @classmethod
    def _built(cls, shape: ModuleShape, weights: tuple[int, ...]) -> "ZnLinearForm":
        """The form of weights valid by construction, without checking them."""
        form = object.__new__(cls)
        object.__setattr__(form, "shape", shape)
        object.__setattr__(form, "weights", weights)
        return form

    def evaluate(self, x: Element) -> int:
        return sum(w * c for w, c in zip(self.weights, x)) % self.shape.n

    __call__ = evaluate


@contextmanager
def enumeration_cap(n: int) -> Iterator[None]:
    """Within the block every enumeration is capped at n entries; the
    enclosing cap comes back when it ends, on an exception too."""
    token = _CAP.set(n)
    try:
        yield
    finally:
        _CAP.reset(token)


def _check_cap(size: int, what: str) -> None:
    cap = _CAP.get()
    if size > cap:
        raise EnumerationCapError(f"{what} has {size} entries, cap is {cap}")


def _check_power_cap(base: int, exponent: int, what: str) -> None:
    """_check_cap for base**exponent entries, multiplying with an early
    stop so that a huge exponent never forms a huge integer."""
    cap = _CAP.get()
    size = 1
    for _ in range(exponent if base > 1 else 0):
        size *= base
        if size > cap:
            raise EnumerationCapError(f"{what} has {base}^{exponent} entries, cap is {cap}")


def _check_table_cap(k: int, exponent: int, what: str) -> None:
    """Charge a table of k^exponent entries to the cap once 2^k exceeds it.
    A module of k coordinates, or A^k, has 2^k elements or more unless a
    coordinate has order 1 (|A| = 1), so the charge refuses nothing that
    fits the cap otherwise, yet bounds the table of the zero ring."""
    try:
        _check_power_cap(2, k, what)
    except EnumerationCapError:
        _check_power_cap(k, exponent, what)


def enumerate_module(shape: ModuleShape) -> Iterator[Element]:
    """Yield every element of the module in lexicographic coordinate order."""
    _check_cap(shape.cardinality, "module")
    return product(*(range(d) for d in shape.orders))


def enumerate_forms(shape: ModuleShape) -> Iterator[ZnLinearForm]:
    """Every linear form into Z_n, ordered by weight tuples, after the cap
    check (made on the call, as enumerate_module makes it).

    Coordinate i of order d contributes the d weights 0, n/d, 2n/d, ...,
    so exactly as many forms are produced as the module has elements.
    Those weights are valid by construction, so each form is built without
    the constructor's checks.
    """
    _check_cap(shape.cardinality, "form space")
    n = shape.n
    weights = product(*(range(0, n, n // d) for d in shape.orders))
    return map(partial(ZnLinearForm._built, shape), weights)


def extend_span(span: set, x, add) -> Iterator:
    """Grow span, a set closed under add, to its closure with x, in place:
    the one additive closure.  Adds the cosets span + x, span + 2x, ...
    until a multiple of x is already in span, and yields each new member
    as it is added, so a caller may stop early (span then holds part of
    the closure).

    In a group a coset is new until the first multiple that falls in span,
    so a full run costs one addition per new member and one per coset:
    |new span| in all, not |new span| * |generators| for a closure taken
    again from scratch.  add must be commutative and associative; it need
    not have inverses (sums of submodules repeat, and x + x = x stops it).
    """
    base = tuple(span)
    kx = x
    while kx not in span:
        for s in base:
            y = add(s, kx)
            if y not in span:
                span.add(y)
                yield y
        kx = add(kx, x)


def additive_closure(seeds: Iterable, add: Callable, zero) -> frozenset:
    """Every finite sum of seeds (zero included), one seed at a time by
    extend_span; it serves elements of a module, their packed codes and
    vectors of A^m alike."""
    span = {zero}
    for x in seeds:
        for _ in extend_span(span, x, add):
            pass
    return frozenset(span)


@lru_cache
def packed_arithmetic(orders: tuple[int, ...]) -> tuple[Callable, Callable]:
    """(encode, add) for Z_{d_1} x ... x Z_{d_K}, each element one int,
    built once per orders tuple.

    encode packs the coordinates most significant first into fields of
    B + 1 bits, 2^B > max d_j, so codes sort as the tuples do.  A field
    sum x_j + y_j < 2^(B+1) never carries; adding 2^B - d_j sets its top
    bit exactly when x_j + y_j >= d_j, and those guard bits, spread into
    masks, pick the d_j to subtract: five int operations, no table.
    """
    low = max(orders, default=1).bit_length()

    def encode(coords: Iterable[int]) -> int:
        code = 0
        for c in coords:
            code = code << (low + 1) | c
        return code

    moduli, bias = encode(orders), encode((1 << low) - d for d in orders)
    guards = encode((1 << low,) * len(orders))

    def add(x: int, y: int) -> int:
        s = x + y
        u = (s + bias) & guards
        return s - ((u - (u >> low)) & moduli)

    return encode, add


def linear_kernel(domain: Sequence[int], images: Sequence[Element],
                  codomain: Sequence[int]) -> Iterator[Element]:
    """Every x in Z_{d_1} x ... x Z_{d_k}, in lexicographic order, with
    sum_i x_i * images[i] = 0 in the codomain Z_{q_1} x ... x Z_{q_l}.

    domain lists the orders d_i, codomain the orders q_j.  Images are
    reduced on entry and encoded as packed codomain codes
    (packed_arithmetic) for _packed_kernel, which lists the kernel by
    meet in the middle in about 2 * sqrt(|domain|) + |kernel| int
    operations and holds the domain to the cap on the call.
    """
    domain, codomain = tuple(domain), tuple(codomain)
    images = [tuple(v) for v in images]
    if len(images) != len(domain) or any(len(v) != len(codomain) for v in images):
        raise ValueError("need one image in the codomain per domain coordinate")
    encode = packed_arithmetic(codomain)[0]
    return _packed_kernel(domain, [encode(map(operator.mod, v, codomain)) for v in images],
                          codomain)


def _packed_kernel(domain: tuple[int, ...], packed: list[int],
                   codomain: tuple[int, ...]) -> Iterator[Element]:
    """linear_kernel on images given as reduced packed codomain codes.

    Meet in the middle: the coordinates are split where the two halves
    have about equal size, the second half's elements are indexed by their
    image, and each first-half prefix, in order, is joined to the
    second-half entries with the negated image.  Each element's image is
    one int, its predecessor's plus one packed add, so the cost is about
    2 * sqrt(|domain|) + |kernel| int operations, against |domain| for a
    scan.  A half may list the whole domain, so its size is held to the
    cap on the call, as enumerate_module holds a module's.
    """
    cut, size, cardinality = 0, 1, prod(domain)
    _check_cap(cardinality, "module")
    while cut < len(domain) and size * size < cardinality:
        size *= domain[cut]
        cut += 1
    encode, add = packed_arithmetic(codomain)
    moduli = encode(codomain)

    def half(orders, gens) -> Iterator[tuple[Element, int]]:
        # (x, packed image of x) for every x over the orders, lexicographically
        totals = [0]
        for d, g in zip(orders, gens):
            totals = [t for s in totals for t in accumulate(repeat(g, d - 1), add, initial=s)]
        return zip(product(*map(range, orders)), totals)

    by_image: dict[int, list[Element]] = {}
    for y, t in half(domain[cut:], packed[cut:]):
        by_image.setdefault(t, []).append(y)
    # moduli - t has fields q_j - t_j in [1, q_j]: adding 0 reduces q_j to 0
    return (x + y for x, t in half(domain[:cut], packed[:cut])
            for y in by_image.get(add(moduli - t, 0), ()))


def packed_fields(orders: Sequence[int], bound: int) -> tuple[Callable, tuple, int]:
    """(pack, fields, mask) of the packed layout for vectors over the orders:
    pack puts coordinate l in bits [W l, W (l + 1)) of one int, with
    2^W > bound, so a sum of packed ints whose fields stay at or below the
    bound never carries.  fields lists (W l, d_l) and mask is 2^W - 1:
    coordinate l reads back as (x >> W l) & mask, reduced mod d_l.  It is
    the layout of a ring's packed table and of an ambient form's basis
    gram, each with the bound on its own sums."""
    width = bound.bit_length()
    shifts = [width * l for l in range(len(orders))]

    def pack(e: Iterable[int]) -> int:
        return sum(map(operator.lshift, e, shifts))

    return pack, tuple(zip(shifts, orders)), (1 << width) - 1


def _packed_orthogonal(domain: Sequence[int], lines, fields, mask: int, orders: tuple[int, ...],
                       gens: list, form: ZnLinearForm | None = None) -> Iterator[Element]:
    """Every x over the domain orders, in lexicographic order, with
    sum_i x_i v_i(g) = 0 for every g in gens, or form(sum_i x_i v_i(g)) = 0
    for a Z_n-linear form: one _packed_kernel call.  Basis vector i pairs
    with g as v_i(g) = sum_j g_j lines[i][j], one int sum over a line of
    values packed by packed_fields over the given orders.  This is the
    orthogonal of gens, x in the first slot, under every biadditive
    pairing whose basis gram the lines hold: the one orthogonal routine,
    run by finring.ring_orthogonal on a ring's packed table and by the
    ambient orthogonals on a form's basis gram.

    Each image goes straight into its packed_arithmetic code over the
    codomain, generator by generator, most significant first: each field
    read back, reduced mod its order, or for a form the weighted sum of
    the fields mod n (exact unreduced, as a form's weights have
    w_l d_l = 0 mod n), shifted in.  A domain coordinate of order 1 holds
    only 0: its image is zero and its line is not read."""
    codomain = orders if form is None else (form.shape.n,)
    width = max(codomain, default=1).bit_length() + 1  # packed_arithmetic's field
    packed = []
    for d, line in zip(domain, lines, strict=True):
        code = 0
        for g in gens if d > 1 else ():
            acc = sum(map(operator.mul, g, line))
            if form is None:
                for s, q in fields:
                    code = code << width | ((acc >> s) & mask) % q
            else:
                x = [(acc >> s) & mask for s, _ in fields]
                code = code << width | sum(map(operator.mul, form.weights, x)) % form.shape.n
        packed.append(code)
    return _packed_kernel(tuple(domain), packed, codomain * len(gens))


def additive_generators(elements: Iterable, add: Callable, zero) -> list:
    """The elements, in sorted order, each kept when outside the additive
    closure of those kept before: an additive generating set of their span."""
    gens, spanned = [], {zero}
    for x in sorted(elements):
        if x not in spanned:
            gens.append(x)
            for _ in extend_span(spanned, x, add):
                pass
    return gens


def annihilated(candidates: Iterable, against: Iterable, pairing: Callable,
                zero=0) -> frozenset:
    """Every candidate x with pairing(x, s) == zero for every s in against.

    The brute-force orthogonality scan over an explicit candidate list,
    kept as the oracle (kernel_elements and the tests) for every
    linear_kernel route.
    """
    against = list(against)
    return frozenset(x for x in candidates if all(pairing(x, s) == zero for s in against))


def span(gens: Iterable[Element], shape: ModuleShape) -> frozenset[Element]:
    """Additive subgroup generated by gens, as a frozenset."""
    return additive_closure(map(shape.reduce, _int_vectors(gens, "generator")),
                            shape.add, shape.zero)


def kernel_elements(pairing: Callable[[Element, Element], int], left_shape: ModuleShape,
                    right_shape: ModuleShape) -> frozenset[Element]:
    """All x in the left module with pairing(x, y) = 0 for every y.

    The pairing must return values already reduced mod n.  This is the
    brute-force ground truth, kept as an oracle: no library route calls it.
    """
    right = enumerate_module(right_shape)
    return annihilated(enumerate_module(left_shape), right, pairing)
