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

Exit codes: 0 when every verdict is positive and the input valid.  2 when a
file is unreadable or not of the documented JSON shape: not UTF-8, invalid
JSON (an integer past Python's digit limit included), nested too deeply, a
missing field, a wrong JSON type or an unknown "kind".  1 when the library
rejects the values (a cap overrun included) or a verdict is negative.  The
spec readers raise CliError(2) before any library call sees a field, and
main is the only place that maps errors to exit codes: a CliError exits
with its own code, every library ValueError with 1.

main runs each command inside enumeration_cap(--cap): whatever kind of
spec a ring, code, form or quotient comes from, it meets the same cap.

A reader that closes stdout early (frobring ... | head) ends the report
quietly: main points stdout at os.devnull and returns the command's own
exit code, with no traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Any

from .znmod import DEFAULT_CAP, _is_int, enumeration_cap
from .finring import (
    TABLE_CHECKS,
    FiniteRing,
    RingValidationError,
    is_frobenius_socle,
    ring_from_table,
    ring_group_algebra,
    ring_matrix,
    ring_product,
    ring_zn,
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
    """Input that is not of the documented shape; main exits with code."""

    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(2, f"cannot read {path}: {exc}")
    except ValueError as exc:  # bad JSON, not UTF-8, or an int over Python's digit limit
        raise CliError(2, f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise CliError(2, f"{path}: spec nested too deeply") from None


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


def _field(spec, key: str, what: str):
    if not isinstance(spec, dict) or key not in spec:
        raise CliError(2, f"{what} must be an object with a {key!r} field")
    return spec[key]


def _list(v, field: str) -> list:
    if not isinstance(v, list):
        raise CliError(2, f"bad {field} {v!r}: expected a list")
    return v


def _unnested(build, spec: Any):
    try:
        return build(spec)
    except RecursionError:  # specs nest through product, matrix and skew_quotient
        raise CliError(2, "spec nested too deeply") from None


def build_ring(spec: Any, cap: int) -> FiniteRing:
    """The ring a spec describes, built under enumeration_cap(cap).  The
    commands build under the cap main sets; the argument stays because the
    benchmark (bench/) builds its rings here with one."""
    with enumeration_cap(cap):
        return _unnested(_build_ring, spec)


def build_quotient(spec: Any, cap: int) -> SkewQuotient:
    """As build_ring, for a skew_quotient spec."""
    with enumeration_cap(cap):
        return _unnested(_build_quotient, spec)


def _build_ring(spec: Any) -> FiniteRing:
    kind = _field(spec, "kind", "ring spec")
    what = f"ring spec of kind {kind!r}"
    if kind == "zn":
        return ring_zn(_int(_field(spec, "n", what), "n"))
    if kind == "table":
        return ring_from_table(
            _int(_field(spec, "n", what), "n"),
            [_int(d, "order") for d in _list(_field(spec, "orders", what), "orders")],
            [[_element(e) for e in _list(row, "mul row")]
             for row in _list(_field(spec, "mul", what), "mul")],
            _element(_field(spec, "one", what)),
        )
    if kind == "product":
        factors = _list(_field(spec, "factors", what), "factors")
        return ring_product(*[_build_ring(f) for f in factors])
    if kind == "matrix":
        size = _int(_field(spec, "size", what), "size")
        return ring_matrix(_build_ring(_field(spec, "base", what)), size)
    if kind == "group_algebra":
        return ring_group_algebra(
            _int(_field(spec, "n", what), "n"),
            [[_int(v, "cayley entry") for v in _list(row, "cayley row")]
             for row in _list(_field(spec, "cayley", what), "cayley")],
        )
    if kind == "skew_quotient":
        return _build_quotient(spec).as_finite_ring()
    raise CliError(2, f"unknown ring spec kind {kind!r}")


def _build_quotient(spec: Any) -> SkewQuotient:
    if _field(spec, "kind", "ring spec") != "skew_quotient":
        raise CliError(2, "expected a ring spec of kind 'skew_quotient'")
    what = "skew_quotient spec"
    modulus = [_element(c) for c in _list(_field(spec, "modulus", what), "modulus")]
    images = spec.get("aut_images")
    if images is not None:
        images = [_element(im) for im in _list(images, "aut_images")]
    base = _build_ring(_field(spec, "base", what))
    aut = RingAutomorphism.identity(base) if images is None else RingAutomorphism(base, images)
    return SkewQuotient(base, aut, modulus)


def build_code(spec: Any, ring: FiniteRing) -> LinearCode:
    m = _int(_field(spec, "m", "code spec"), "m")
    gens = [[_element(e) for e in _list(g, "generator")]
            for g in _list(_field(spec, "generators", "code spec"), "generators")]
    side = spec.get("side", "left")
    if not isinstance(side, str):
        raise CliError(2, f"bad side {side!r}: expected a string")
    return LinearCode.generate(ring, m, gens, side)


def build_form(spec: Any, ring: FiniteRing, m: int) -> AmbientForm:
    rows = _list(_field(spec, "matrix", "form spec"), "matrix")
    return AmbientForm(ring, m, [[_element(e) for e in _list(row, "matrix row")] for row in rows])


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


# -- commands: each returns (report, exit code) ------------------------------


def cmd_ring_validate(args):
    try:
        ring = _unnested(_build_ring, _load_json(args.spec))
    except (RingValidationError, NotTwoSidedError) as exc:
        return {
            "valid": False,
            "failed_check": getattr(exc, "check", "two-sided-modulus"),
            "witness": _jsonable(exc.witness),
        }, 1
    return {
        "valid": True,
        "ring": _ring_summary(ring),
        "characteristic": ring.characteristic,
        "cardinality": ring.cardinality,
        # a table passed them when it was built; a derived ring holds them by derivation
        "checks": dict.fromkeys(TABLE_CHECKS, True),
    }, 0


def cmd_ring_frobenius(args):
    ring = _unnested(_build_ring, _load_json(args.spec))
    functional = find_frobenius_functional(ring)
    cert = is_frobenius_socle(ring)
    agreement = (functional is not None) == cert.is_frobenius
    return {
        "ring": _ring_summary(ring),
        "frobenius": cert.is_frobenius,
        "functional_weights": list(functional.weights) if functional else None,
        "radical_size": cert.radical_size,
        "right_socle_size": cert.right_socle_size,
        "left_socle_size": cert.left_socle_size,
        "right_socle_generator": _jsonable(cert.right_witness),
        "left_socle_generator": _jsonable(cert.left_witness),
        "routes_agree": agreement,
    }, 0 if (cert.is_frobenius and agreement) else 1


def _code_setup(args):
    ring = _unnested(_build_ring, _load_json(args.ring))
    code = build_code(_load_json(args.code), ring)
    if getattr(args, "form", None):
        form = build_form(_load_json(args.form), ring, code.m)
    else:
        form = identity_form(ring, code.m)
    return ring, code, form


def cmd_code_dual(args):
    ring, code, form = _code_setup(args)
    try:
        d = dual(code, form, args.side)
    except DegenerateFormError as exc:
        return {"error": str(exc)}, 1
    product_ok = code.cardinality * d.cardinality == ring.cardinality**code.m
    return {
        "ring": _ring_summary(ring),
        "code_side": code.side,
        "code_size": code.cardinality,
        "dual_side": d.side,
        "dual_size": d.cardinality,
        "cardinality_product_ok": product_ok,
        "dual_codewords": [_jsonable(v) for v in d.sorted_codewords()],
    }, 0 if product_ok else 1


def cmd_code_wenum(args):
    ring, code, _ = _code_setup(args)
    enum = weight_enumerator(code)
    return {
        "ring": _ring_summary(ring),
        "code_size": code.cardinality,
        "counts": list(enum.counts),
        "polynomial": enum.polynomial(),
    }, 0


def cmd_code_macwilliams(args):
    ring, code, form = _code_setup(args)
    try:
        rep = macwilliams_holds(code, form)
    except (DegenerateFormError, TransformError) as exc:
        return {"error": str(exc)}, 1
    return {
        "ring": _ring_summary(ring),
        "identity_holds": rep.identity_holds,
        "gram_is_monomial": rep.gram_is_monomial,
        "code_enumerator": rep.code_enumerator.polynomial(),
        "dual_enumerator": rep.dual_enumerator.polynomial(),
        "transformed_enumerator": rep.transformed.polynomial(),
    }, 0 if rep.identity_holds else 1


def cmd_skew_build(args):
    try:
        quotient = _unnested(_build_quotient, _load_json(args.spec))
    except NotTwoSidedError as exc:
        return {"two_sided": False, "witness": _jsonable(exc.witness)}, 1
    except ValueError as exc:
        return {"error": str(exc)}, 1
    ring = quotient.as_finite_ring()
    return {
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
    }, 0


def cmd_skew_frobenius(args):
    quotient = _unnested(_build_quotient, _load_json(args.spec))
    base_functional = find_frobenius_functional(quotient.base)
    if base_functional is None:
        return {"error": "base ring has no Frobenius functional"}, 1
    functional = quotient.frobenius_functional(base_functional)
    return {
        "base_weights": list(base_functional.weights),
        "quotient_weights": list(functional.weights),
        "nondegenerate": True,
    }, 0


def cmd_skew_sweep(args):
    quotient = _unnested(_build_quotient, _load_json(args.spec))
    if not quotient.has_cyclic_modulus():
        return {"error": "sweep needs modulus x^m - 1 with automorphism order dividing m"}, 1
    base_functional = find_frobenius_functional(quotient.base)
    if base_functional is None:
        return {"error": "base ring has no Frobenius functional"}, 1
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
    return {"left_ideals": len(rows), "all_ok": all_ok, "rows": rows}, 0 if all_ok else 1


# -- the command table and the one error-to-exit mapping ---------------------

_FORM = ("--form", {"help": "gram matrix file (default: identity)"})
_SIDE = ("--side", {"choices": ("left", "right"), "default": None})

GROUPS = {
    "ring": "ring spec commands",
    "code": "linear code commands",
    "skew": "skew quotient commands",
}

# (group, command, handler, help, positional files, extra options)
COMMANDS = (
    ("ring", "validate", cmd_ring_validate, "check a ring presentation", ("spec",), ()),
    ("ring", "frobenius", cmd_ring_frobenius, "run both Frobenius tests", ("spec",), ()),
    ("code", "dual", cmd_code_dual, "orthogonal of a code under a form",
     ("ring", "code"), (_FORM, _SIDE)),
    ("code", "wenum", cmd_code_wenum, "Hamming weight enumerator", ("ring", "code"), ()),
    ("code", "macwilliams", cmd_code_macwilliams, "transform vs dual enumerator",
     ("ring", "code"), (_FORM,)),
    ("skew", "build", cmd_skew_build, "construct a quotient, export its table", ("spec",), ()),
    ("skew", "frobenius", cmd_skew_frobenius, "lift a functional to the quotient", ("spec",), ()),
    ("skew", "sweep", cmd_skew_sweep, "duality check over every left ideal", ("spec",), ()),
)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process: parse_args keeps no state
    between calls, each returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="frobring",
        description="finite rings over Z_n, Frobenius structure, ring-linear codes",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {group: top.add_parser(group, help=text).add_subparsers(dest="cmd", required=True)
              for group, text in GROUPS.items()}
    for group, name, func, text, files, options in COMMANDS:
        p = groups[group].add_parser(name, help=text)
        for f in files:
            p.add_argument(f)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="enumeration size cap (default 2^20)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        with enumeration_cap(args.cap):
            report, rc = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # every library error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit({"command": f"{args.group} {args.cmd}", **report}, args.json)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone; the flush at shutdown must find a sink
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
