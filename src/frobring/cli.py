"""Command line front end.

Rings, codes and forms come in as small JSON files; every command prints a
deterministic report (stable key order, no timestamps) so runs on the same
inputs are byte-identical.  Wall-clock timing goes to stderr only.

Ring spec files are one JSON object with a "kind":

  {"kind": "zn", "n": 4}
  {"kind": "table", "n": 2, "orders": [2,2], "mul": [[[1,0],[0,1]],[[0,1],[1,1]]],
   "one": [1,0]}
  {"kind": "product", "factors": [ <spec>, <spec> ]}
  {"kind": "matrix", "base": <spec>, "size": 2}
  {"kind": "group_algebra", "n": 2, "cayley": [[0,1],[1,0]]}
  {"kind": "skew_quotient", "base": <spec>, "aut_images": [[1,0],[1,1]],
   "modulus": [[1,0],[0,0],[1,0]]}

Elements are coordinate lists (a bare integer is accepted for rank-1
alphabets).  A code file is {"m": 2, "side": "left", "generators": [[...]]}
and a form file is {"matrix": [[...], ...]} of elements.

Exit codes: 0 when every verdict is positive and the input valid, 1 when a
mathematical verdict is negative or the input fails validation, 2 for
unreadable or unparsable input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from .znmod import DEFAULT_CAP
from .finring import (
    FiniteRing,
    RingValidationError,
    is_frobenius_socle,
    ring_from_table,
    ring_group_algebra,
    ring_matrix,
    ring_product,
    ring_zn,
    table_validation_report,
)
from .frobenius import AmbientForm, DegenerateFormError, find_frobenius_functional
from .skewpoly import NotTwoSidedError, RingAutomorphism, SkewQuotient
from .codes import (
    LinearCode,
    TransformError,
    dual,
    identity_form,
    macwilliams_holds,
    quotient_left_ideal_codes,
    skew_cyclic_dual_report,
    weight_enumerator,
)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(2, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(2, f"{path} is not valid JSON: {exc}")


def _is_int(c) -> bool:
    return isinstance(c, int) and not isinstance(c, bool)  # JSON true is not 1


def _int(v, field: str) -> int:
    if not _is_int(v):
        raise CliError(2, f"bad {field} {v!r}: expected an int")
    return v


def _element(e) -> tuple:
    if _is_int(e):
        return (e,)
    if isinstance(e, list) and all(_is_int(c) for c in e):
        return tuple(e)
    raise CliError(2, f"bad element {e!r}: expected an int or a list of ints")


def build_ring(spec: Any, cap: int) -> FiniteRing:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise CliError(2, "ring spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "zn":
            return ring_zn(_int(spec["n"], "n"))
        if kind == "table":
            return ring_from_table(
                _int(spec["n"], "n"),
                [_int(d, "order") for d in spec["orders"]],
                [[_element(e) for e in row] for row in spec["mul"]],
                _element(spec["one"]),
                cap=cap,
            )
        if kind == "product":
            factors = [build_ring(f, cap) for f in spec["factors"]]
            return ring_product(*factors)
        if kind == "matrix":
            size = _int(spec["size"], "size")
            return ring_matrix(build_ring(spec["base"], cap), size, cap=cap)
        if kind == "group_algebra":
            return ring_group_algebra(
                _int(spec["n"], "n"),
                [[_int(v, "cayley entry") for v in row] for row in spec["cayley"]],
            )
        if kind == "skew_quotient":
            return build_quotient(spec, cap).as_finite_ring()
    except KeyError as exc:
        raise CliError(2, f"ring spec of kind {kind!r} is missing field {exc}")
    except (TypeError, ValueError) as exc:
        if isinstance(exc, (RingValidationError, NotTwoSidedError)):
            raise
        raise CliError(2, f"malformed ring spec of kind {kind!r}: {exc}")
    raise CliError(2, f"unknown ring spec kind {kind!r}")


def build_quotient(spec: Any, cap: int) -> SkewQuotient:
    if not isinstance(spec, dict) or spec.get("kind") != "skew_quotient":
        raise CliError(2, "expected a ring spec of kind 'skew_quotient'")
    try:
        base = build_ring(spec["base"], cap)
        modulus = [_element(c) for c in spec["modulus"]]
        images = spec.get("aut_images")
    except KeyError as exc:
        raise CliError(2, f"skew_quotient spec is missing field {exc}")
    if images is None:
        aut = RingAutomorphism.identity(base)
    else:
        aut = RingAutomorphism(base, [_element(im) for im in images])
    return SkewQuotient(base, aut, modulus, cap=cap)


def build_code(spec: Any, ring: FiniteRing, cap: int) -> LinearCode:
    if not isinstance(spec, dict):
        raise CliError(2, "code spec must be a JSON object")
    try:
        m = _int(spec["m"], "m")
        gens = [[_element(e) for e in g] for g in spec["generators"]]
    except KeyError as exc:
        raise CliError(2, f"code spec is missing field {exc}")
    side = spec.get("side", "left")
    try:
        return LinearCode.generate(ring, m, gens, side, cap=cap)
    except (TypeError, ValueError) as exc:
        raise CliError(1, f"invalid code spec: {exc}")


def build_form(spec: Any, ring: FiniteRing, m: int, cap: int) -> AmbientForm:
    if not isinstance(spec, dict) or "matrix" not in spec:
        raise CliError(2, "form spec must be an object with a 'matrix' field")
    try:
        return AmbientForm(ring, m, [[_element(e) for e in row] for row in spec["matrix"]],
                           cap=cap)
    except (TypeError, ValueError) as exc:
        raise CliError(1, f"invalid form spec: {exc}")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return [_jsonable(v) for v in sorted(value)]
    return value


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_jsonable(report), sort_keys=True, indent=2))
        return
    for key, value in report.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (list, tuple, frozenset, set, dict)):
            value = json.dumps(_jsonable(value), sort_keys=True)
        print(f"{key}: {value}")


def _ring_summary(ring: FiniteRing) -> str:
    return (
        f"char {ring.characteristic}, orders {list(ring.shape.orders)}, "
        f"{ring.cardinality} elements"
    )


# -- commands --------------------------------------------------------------


def cmd_ring_validate(args) -> int:
    spec = _load_json(args.spec)
    try:
        ring = build_ring(spec, args.cap)
    except (RingValidationError, NotTwoSidedError) as exc:
        _emit(
            {
                "command": "ring validate",
                "valid": False,
                "failed_check": getattr(exc, "check", "two-sided-modulus"),
                "witness": _jsonable(exc.witness),
            },
            args.json,
        )
        return 1
    checks = {name: ok for name, ok, _ in table_validation_report(ring)}
    _emit(
        {
            "command": "ring validate",
            "valid": True,
            "ring": _ring_summary(ring),
            "characteristic": ring.characteristic,
            "cardinality": ring.cardinality,
            "checks": checks,
        },
        args.json,
    )
    return 0


def cmd_ring_frobenius(args) -> int:
    ring = build_ring(_load_json(args.spec), args.cap)
    functional = find_frobenius_functional(ring, args.cap)
    cert = is_frobenius_socle(ring)
    agreement = (functional is not None) == cert.is_frobenius
    _emit(
        {
            "command": "ring frobenius",
            "ring": _ring_summary(ring),
            "frobenius": cert.is_frobenius,
            "functional_weights": list(functional.weights) if functional else None,
            "radical_size": cert.radical_size,
            "right_socle_size": cert.right_socle_size,
            "left_socle_size": cert.left_socle_size,
            "right_socle_generator": _jsonable(cert.right_witness),
            "left_socle_generator": _jsonable(cert.left_witness),
            "routes_agree": agreement,
        },
        args.json,
    )
    return 0 if (cert.is_frobenius and agreement) else 1


def _code_setup(args):
    ring = build_ring(_load_json(args.ring), args.cap)
    code = build_code(_load_json(args.code), ring, args.cap)
    if getattr(args, "form", None):
        form = build_form(_load_json(args.form), ring, code.m, args.cap)
    else:
        form = identity_form(ring, code.m, args.cap)
    return ring, code, form


def cmd_code_dual(args) -> int:
    ring, code, form = _code_setup(args)
    try:
        d = dual(code, form, args.side)
    except DegenerateFormError as exc:
        _emit({"command": "code dual", "error": str(exc)}, args.json)
        return 1
    product_ok = code.cardinality * d.cardinality == ring.cardinality**code.m
    _emit(
        {
            "command": "code dual",
            "ring": _ring_summary(ring),
            "code_side": code.side,
            "code_size": code.cardinality,
            "dual_side": d.side,
            "dual_size": d.cardinality,
            "cardinality_product_ok": product_ok,
            "dual_codewords": [_jsonable(v) for v in d.sorted_codewords()],
        },
        args.json,
    )
    return 0 if product_ok else 1


def cmd_code_wenum(args) -> int:
    ring, code, _ = _code_setup(args)
    enum = weight_enumerator(code)
    _emit(
        {
            "command": "code wenum",
            "ring": _ring_summary(ring),
            "code_size": code.cardinality,
            "counts": list(enum.counts),
            "polynomial": enum.polynomial(),
        },
        args.json,
    )
    return 0


def cmd_code_macwilliams(args) -> int:
    ring, code, form = _code_setup(args)
    try:
        rep = macwilliams_holds(code, form)
    except (DegenerateFormError, TransformError) as exc:
        _emit({"command": "code macwilliams", "error": str(exc)}, args.json)
        return 1
    _emit(
        {
            "command": "code macwilliams",
            "ring": _ring_summary(ring),
            "identity_holds": rep.identity_holds,
            "gram_is_monomial": rep.gram_is_monomial,
            "code_enumerator": rep.code_enumerator.polynomial(),
            "dual_enumerator": rep.dual_enumerator.polynomial(),
            "transformed_enumerator": rep.transformed.polynomial(),
        },
        args.json,
    )
    return 0 if rep.identity_holds else 1


def cmd_skew_build(args) -> int:
    spec = _load_json(args.spec)
    try:
        quotient = build_quotient(spec, args.cap)
    except NotTwoSidedError as exc:
        _emit(
            {"command": "skew build", "two_sided": False, "witness": _jsonable(exc.witness)},
            args.json,
        )
        return 1
    except ValueError as exc:
        _emit({"command": "skew build", "error": str(exc)}, args.json)
        return 1
    ring = quotient.as_finite_ring()
    _emit(
        {
            "command": "skew build",
            "two_sided": True,
            "degree": quotient.m,
            "automorphism_order": quotient.aut.order,
            "ring": _ring_summary(ring),
            "table_spec": {
                "kind": "table",
                "n": ring.characteristic,
                "orders": list(ring.shape.orders),
                "mul": _jsonable(ring.mul_table),
                "one": _jsonable(ring.one),
            },
        },
        args.json,
    )
    return 0


def cmd_skew_frobenius(args) -> int:
    quotient = build_quotient(_load_json(args.spec), args.cap)
    base_functional = find_frobenius_functional(quotient.base, args.cap)
    if base_functional is None:
        _emit(
            {"command": "skew frobenius", "error": "base ring has no Frobenius functional"},
            args.json,
        )
        return 1
    functional = quotient.frobenius_functional(base_functional)
    _emit(
        {
            "command": "skew frobenius",
            "base_weights": list(base_functional.weights),
            "quotient_weights": list(functional.weights),
            "nondegenerate": True,
        },
        args.json,
    )
    return 0


def cmd_skew_sweep(args) -> int:
    quotient = build_quotient(_load_json(args.spec), args.cap)
    if not quotient.has_cyclic_modulus():
        _emit(
            {
                "command": "skew sweep",
                "error": "sweep needs modulus x^m - 1 with automorphism order dividing m",
            },
            args.json,
        )
        return 1
    base_functional = find_frobenius_functional(quotient.base, args.cap)
    if base_functional is None:
        _emit(
            {"command": "skew sweep", "error": "base ring has no Frobenius functional"},
            args.json,
        )
        return 1
    rows = []
    all_ok = True
    for ideal_words in quotient_left_ideal_codes(quotient):
        rep = skew_cyclic_dual_report(ideal_words, quotient, base_functional)
        ok = (
            rep.dual_matches_reversal_orthogonal
            and rep.dual_is_skew_cyclic
            and rep.cardinality_product_ok
        )
        all_ok = all_ok and ok
        rows.append(
            {
                "ideal_size": len(ideal_words),
                "dual_size": len(rep.euclidean_dual),
                "dual_matches_reversal_orthogonal": rep.dual_matches_reversal_orthogonal,
                "dual_is_skew_cyclic": rep.dual_is_skew_cyclic,
                "cardinality_product_ok": rep.cardinality_product_ok,
            }
        )
    _emit(
        {
            "command": "skew sweep",
            "left_ideals": len(rows),
            "all_ok": all_ok,
            "rows": rows,
        },
        args.json,
    )
    return 0 if all_ok else 1


# -- parser ----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="enumeration size cap (default 2^20)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobring",
        description="finite rings over Z_n, Frobenius structure, ring-linear codes",
    )
    top = parser.add_subparsers(dest="group", required=True)

    ring = top.add_parser("ring", help="ring spec commands").add_subparsers(
        dest="cmd", required=True
    )
    p = ring.add_parser("validate", help="check a ring presentation")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=cmd_ring_validate)
    p = ring.add_parser("frobenius", help="run both Frobenius tests")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=cmd_ring_frobenius)

    code = top.add_parser("code", help="linear code commands").add_subparsers(
        dest="cmd", required=True
    )
    p = code.add_parser("dual", help="orthogonal of a code under a form")
    p.add_argument("ring")
    p.add_argument("code")
    p.add_argument("--form", help="gram matrix file (default: identity)")
    p.add_argument("--side", choices=("left", "right"), default=None)
    _add_common(p)
    p.set_defaults(func=cmd_code_dual)
    p = code.add_parser("wenum", help="Hamming weight enumerator")
    p.add_argument("ring")
    p.add_argument("code")
    _add_common(p)
    p.set_defaults(func=cmd_code_wenum)
    p = code.add_parser("macwilliams", help="transform vs dual enumerator")
    p.add_argument("ring")
    p.add_argument("code")
    p.add_argument("--form", help="gram matrix file (default: identity)")
    _add_common(p)
    p.set_defaults(func=cmd_code_macwilliams)

    skew = top.add_parser("skew", help="skew quotient commands").add_subparsers(
        dest="cmd", required=True
    )
    p = skew.add_parser("build", help="construct a quotient, export its table")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=cmd_skew_build)
    p = skew.add_parser("frobenius", help="lift a functional to the quotient")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=cmd_skew_frobenius)
    p = skew.add_parser("sweep", help="duality check over every left ideal")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=cmd_skew_sweep)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        rc = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # every library error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
