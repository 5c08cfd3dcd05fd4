"""Exact arithmetic in finite modules Z_{d_1} x ... x Z_{d_k} inside Z_n.

A ModuleShape fixes the ambient characteristic n together with the additive
orders d_1 | n, ..., d_k | n of a distinguished coordinate system.  Elements
are plain integer tuples, coordinate i reduced mod d_i, so they are hashable
and can live in sets.  Linear forms into Z_n are weight tuples; the weight
on a coordinate of order d must be a multiple of n/d, which is exactly the
condition weight * d = 0 (mod n) needed for the map to be well defined.
Counting those choices gives d forms per coordinate, hence as many forms as
elements in total.

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


def enumerate_module(shape: ModuleShape) -> Iterator[Element]:
    """Yield every element of the module in lexicographic coordinate order."""
    _check_cap(shape.cardinality, "module")
    return product(*(range(d) for d in shape.orders))


def enumerate_forms(shape: ModuleShape) -> Iterator[ZnLinearForm]:
    """Every linear form into Z_n, ordered by weight tuples, after the cap
    check (made on the call, as enumerate_module makes it).

    Coordinate i of order d contributes the d weights 0, n/d, 2n/d, ...,
    so exactly as many forms are produced as the module has elements.
    """
    _check_cap(shape.cardinality, "form space")
    steps = [shape.n // d for d in shape.orders]
    return (ZnLinearForm(shape, tuple(j * s for j, s in zip(js, steps)))
            for js in product(*(range(d) for d in shape.orders)))


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
    extend_span; it serves elements of a module, vectors of A^m and sums
    of submodules alike."""
    span = {zero}
    for x in seeds:
        for _ in extend_span(span, x, add):
            pass
    return frozenset(span)


def packed_arithmetic(orders: Sequence[int]) -> tuple[Callable, Callable]:
    """(encode, add) for Z_{d_1} x ... x Z_{d_K}, each element one int.

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

    domain lists the orders d_i, codomain the orders q_j.  Meet in the
    middle: the coordinates are split where the two halves have about
    equal size, the second half's elements are indexed by their image,
    and each first-half prefix, in order, is joined to the second-half
    entries with the negated image.  Images are reduced on entry and held
    as packed codomain codes (packed_arithmetic): each element's image is
    one int, its predecessor's plus one packed add, so the cost is about
    2 * sqrt(|domain|) + |kernel| int operations, against |domain| for a
    scan.  A half may list the whole domain, so its size is held to the
    cap on the call, as enumerate_module holds a module's.
    """
    domain, codomain = tuple(domain), tuple(codomain)
    images = [tuple(v) for v in images]
    if len(images) != len(domain) or any(len(v) != len(codomain) for v in images):
        raise ValueError("need one image in the codomain per domain coordinate")
    cut, size, cardinality = 0, 1, prod(domain)
    _check_cap(cardinality, "module")
    while cut < len(domain) and size * size < cardinality:
        size *= domain[cut]
        cut += 1
    encode, add = packed_arithmetic(codomain)
    moduli = encode(codomain)
    packed = [encode(g % q for g, q in zip(v, codomain)) for v in images]

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
