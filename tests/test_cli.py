"""Command line behavior: exit codes, reports, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from frobring.catalog import double_nil_ring
from frobring.cli import COMMANDS, CliError, build_quotient, build_ring, main, make_parser
from frobring.finring import TABLE_CHECKS, FiniteRing
from frobring.skewpoly import SkewQuotient
from frobring.znmod import DEFAULT_CAP, EnumerationCapError, ZnLinearForm, enumeration_cap

from ring_families import FAMILY_SPECS

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def z4_spec(tmp_path):
    return write(tmp_path, "z4.json", {"kind": "zn", "n": 4})


@pytest.fixture
def z2_spec(tmp_path):
    return write(tmp_path, "z2.json", {"kind": "zn", "n": 2})


@pytest.fixture
def gf4_quotient_spec(tmp_path):
    return write(
        tmp_path,
        "q.json",
        {
            "kind": "skew_quotient",
            "base": {
                "kind": "table",
                "n": 2,
                "orders": [2, 2],
                "mul": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]],
                "one": [1, 0],
            },
            "aut_images": [[1, 0], [1, 1]],
            "modulus": [[1, 0], [0, 0], [1, 0]],
        },
    )


def test_ring_validate_ok(z4_spec, capsys):
    assert main(["ring", "validate", z4_spec]) == 0
    out = capsys.readouterr().out
    assert out.startswith("command: ring validate\nvalid: true\n")
    assert "cardinality: 4" in out


def test_ring_validate_json(z4_spec, capsys):
    assert main(["ring", "validate", z4_spec, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True
    assert report["checks"] == {
        "bilinear-well-defined": True,
        "associativity": True,
        "unit-laws": True,
        "characteristic": True,
    }


def test_ring_validate_catches_broken_table(tmp_path, capsys):
    spec = write(
        tmp_path,
        "bad.json",
        {
            "kind": "table",
            "n": 2,
            "orders": [2, 2, 2],
            "mul": [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
            ],
            "one": [1, 0, 0],
        },
    )
    assert main(["ring", "validate", spec, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False
    assert report["failed_check"] == "associativity"
    assert report["witness"] == [1, 1, 1]


def test_ring_frobenius_positive(z4_spec, capsys):
    assert main(["ring", "frobenius", z4_spec, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["frobenius"] is True
    assert report["functional_weights"] == [1]
    assert report["radical_size"] == 2
    assert report["right_socle_generator"] == [2]
    assert report["routes_agree"] is True


def test_ring_frobenius_negative(tmp_path, capsys):
    spec = dn_spec(tmp_path)
    assert main(["ring", "frobenius", spec, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["frobenius"] is False
    assert report["functional_weights"] is None
    assert report["routes_agree"] is True


def dn_spec(tmp_path):
    dn = double_nil_ring()
    return write(tmp_path, "dn.json", {"kind": "table", "n": 2, "orders": list(dn.shape.orders),
                                       "mul": [[list(e) for e in row] for row in dn.mul_table],
                                       "one": list(dn.one)})


@pytest.mark.parametrize("spec, rc, buffered", [("z4", 0, True), ("z4", 0, False),
                                               ("dn", 1, True)])
def test_closed_stdout_ends_quietly_with_the_verdict(tmp_path, spec, rc, buffered):
    """frobring ... | head: the reader is gone before the report is
    written.  Its read end is closed before the start, so the write meets
    EPIPE every time: in print when stdout is unbuffered, else in the
    flush at the end."""
    path = write(tmp_path, "z4.json", {"kind": "zn", "n": 4}) if spec == "z4" else dn_spec(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "frobring.cli", "ring", "frobenius", path],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    stderr = proc.stderr.decode()
    assert proc.returncode == rc, stderr
    for marker in ("Traceback", "BrokenPipeError", "Exception ignored"):
        assert marker not in stderr


def test_code_dual_counterexample(z2_spec, tmp_path, capsys):
    code = write(tmp_path, "c.json", {"m": 2, "generators": [[1, 0]]})
    form = write(tmp_path, "f.json", {"matrix": [[1, 1], [0, 1]]})
    rc = main(["code", "dual", z2_spec, code, "--form", form, "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dual_codewords"] == [[[0], [0]], [[1], [1]]]
    assert report["cardinality_product_ok"] is True
    assert report["dual_side"] == "right"


def test_code_wenum(z2_spec, tmp_path, capsys):
    code = write(tmp_path, "c.json", {"m": 2, "generators": [[1, 0]]})
    assert main(["code", "wenum", z2_spec, code, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["polynomial"] == "X^2 + X*Y"
    assert report["counts"] == [1, 1, 0]


def test_code_macwilliams_rc_tracks_identity(z2_spec, tmp_path, capsys):
    code = write(tmp_path, "c.json", {"m": 2, "generators": [[1, 0]]})
    form = write(tmp_path, "f.json", {"matrix": [[1, 1], [0, 1]]})
    assert main(["code", "macwilliams", z2_spec, code, "--form", form]) == 1
    out = capsys.readouterr().out
    assert "identity_holds: false" in out
    assert "gram_is_monomial: false" in out
    assert main(["code", "macwilliams", z2_spec, code]) == 0
    out = capsys.readouterr().out
    assert "identity_holds: true" in out


def test_skew_build_exports_reusable_table(gf4_quotient_spec, tmp_path, capsys):
    assert main(["skew", "build", gf4_quotient_spec, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["two_sided"] is True
    assert report["degree"] == 2
    assert report["automorphism_order"] == 2
    exported = write(tmp_path, "exported.json", report["table_spec"])
    assert main(["ring", "validate", exported]) == 0


def test_skew_build_rejects_one_sided(tmp_path, capsys):
    spec = write(
        tmp_path,
        "bad_q.json",
        {
            "kind": "skew_quotient",
            "base": {
                "kind": "table",
                "n": 2,
                "orders": [2, 2],
                "mul": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]],
                "one": [1, 0],
            },
            "aut_images": [[1, 0], [1, 1]],
            "modulus": [[0, 1], [0, 0], [1, 0]],
        },
    )
    assert main(["skew", "build", spec, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["two_sided"] is False
    assert report["witness"] == ["shift-quotient", {"degree": 1}]


def test_skew_frobenius(gf4_quotient_spec, capsys):
    assert main(["skew", "frobenius", gf4_quotient_spec, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["base_weights"] == [0, 1]
    assert report["quotient_weights"] == [0, 1, 0, 0]


def test_skew_sweep(tmp_path, capsys):
    spec = write(
        tmp_path,
        "cubic.json",
        {"kind": "skew_quotient", "base": {"kind": "zn", "n": 2},
         "modulus": [1, 0, 0, 1]},
    )
    assert main(["skew", "sweep", spec, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_ok"] is True
    assert report["left_ideals"] == 4
    assert {row["ideal_size"] for row in report["rows"]} == {1, 2, 4, 8}


def test_skew_sweep_needs_cyclic_modulus(tmp_path, capsys):
    spec = write(
        tmp_path,
        "noncyclic.json",
        {"kind": "skew_quotient", "base": {"kind": "zn", "n": 2},
         "modulus": [1, 0, 1, 1]},
    )
    assert main(["skew", "sweep", spec, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert "error" in report


@pytest.mark.parametrize("modulus, message", [
    ([[1]], "modulus must have degree at least 1"),
    ([[1], [2]], "modulus must be monic"),
])
def test_bad_modulus_refusals(tmp_path, capsys, modulus, message):
    """skew build reports the refusal on stdout, ring validate on stderr;
    both exit 1 with the same text."""
    spec = write(tmp_path, "bad.json",
                 {"kind": "skew_quotient", "base": {"kind": "zn", "n": 4}, "modulus": modulus})
    assert main(["skew", "build", spec]) == 1
    assert capsys.readouterr().out == f"command: skew build\nerror: {message}\n"
    assert main(["ring", "validate", spec]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err.splitlines()) == ("", [f"error: {message}"])


def test_parse_error_exit_codes(tmp_path, capsys):
    assert main(["ring", "validate", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["ring", "validate", str(bad)]) == 2
    missing = write(tmp_path, "missing.json", {"kind": "zn"})
    assert main(["ring", "validate", missing]) == 2
    unknown = write(tmp_path, "unknown.json", {"kind": "field"})
    assert main(["ring", "validate", unknown]) == 2
    capsys.readouterr()
    z2 = write(tmp_path, "z2.json", {"kind": "zn", "n": 2})
    boolean = write(tmp_path, "bool.json", {"m": 1, "generators": [[True]]})
    assert main(["code", "wenum", z2, boolean]) == 2
    assert capsys.readouterr().err.startswith("error: bad element True")
    # integer spec fields take no booleans and no floats
    bool_n = write(tmp_path, "bool_n.json", {"kind": "zn", "n": True})
    float_n = write(tmp_path, "float_n.json", {"kind": "zn", "n": 4.7})
    bool_m = write(tmp_path, "bool_m.json", {"m": True, "generators": [[1]]})
    for argv in (["ring", "validate", bool_n], ["ring", "validate", float_n],
                 ["code", "wenum", z2, bool_m]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: bad "), argv
    # library errors exit 1 with an error line instead of a traceback
    empty = write(tmp_path, "m0.json", {"m": 0, "generators": []})
    nonunit = write(tmp_path, "nonunit.json", {
        "kind": "skew_quotient", "base": {"kind": "zn", "n": 4}, "modulus": [[2], [1]]})
    not_bijective = write(tmp_path, "not_bijective.json", {
        "kind": "skew_quotient",
        "base": {"kind": "table", "n": 2, "orders": [2, 2],
                 "mul": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], "one": [1, 0]},
        "aut_images": [[1, 0], [1, 0]],
        "modulus": [[1, 0], [0, 0], [1, 0]],
    })
    for argv in (
        ["code", "dual", z2, empty],
        ["code", "wenum", z2, empty],
        ["code", "macwilliams", z2, empty],
        ["skew", "frobenius", nonunit],
        ["skew", "sweep", nonunit],
        ["skew", "frobenius", not_bijective],
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    # so do values the library rejects inside a well-shaped ring spec,
    # a cap overrun included
    z2_spec = {"kind": "zn", "n": 2}
    over_cap = ["--cap", "4"]
    for name, spec, extra in (
        ("matrix", {"kind": "matrix", "base": z2_spec, "size": 2}, over_cap),
        ("skew", {"kind": "skew_quotient", "base": z2_spec, "modulus": [1, 0, 0, 1]}, over_cap),
        ("n0", {"kind": "zn", "n": 0}, []),
        ("nofactors", {"kind": "product", "factors": []}, []),
        ("short_entry", {"kind": "table", "n": 2, "orders": [2, 2],
                         "mul": [[[1, 0], [0, 1]], [[0, 1], [1]]], "one": [1, 0]}, []),
    ):
        path = write(tmp_path, f"{name}.json", spec)
        for cmd in ("validate", "frobenius"):
            assert main(["ring", cmd, path] + extra) == 1, (name, cmd)
            assert capsys.readouterr().err.startswith("error: "), (name, cmd)
    # a field of the wrong JSON type exits 2, wherever it sits
    for name, argv_head, spec in (
        ("gens_int", ["code", "wenum", z2], {"m": 1, "generators": 3}),
        ("gens_row", ["code", "dual", z2], {"m": 1, "generators": [3]}),
        ("modulus", ["skew", "build"], {"kind": "skew_quotient", "base": z2_spec, "modulus": 3}),
        ("images", ["skew", "sweep"], {"kind": "skew_quotient", "base": z2_spec,
                                       "modulus": [1, 1], "aut_images": 5}),
        ("images0", ["skew", "build"], {"kind": "skew_quotient", "base": z2_spec,
                                        "modulus": [1, 1], "aut_images": 0}),
        ("side", ["code", "dual", z2], {"m": 2, "side": 3, "generators": [[1, 0]]}),
    ):
        argv = argv_head + [write(tmp_path, f"{name}.json", spec)]
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: bad "), argv
    code = write(tmp_path, "c1.json", {"m": 1, "generators": [[1]]})
    form = write(tmp_path, "form3.json", {"matrix": 3})
    assert main(["code", "dual", z2, code, "--form", form]) == 2
    assert capsys.readouterr().err.startswith("error: bad matrix 3")
    # a file that is not UTF-8 is unreadable
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"kind": "zn", "n": 2}'.encode("utf-16-le"))
    assert main(["ring", "validate", str(utf16)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err
    # so is an integer past Python's digit limit for int conversion
    huge = tmp_path / "huge.json"
    huge.write_text('{"kind": "zn", "n": ' + "9" * 5000 + "}")
    assert main(["ring", "validate", str(huge)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err
    # nesting too deep for the parser or for the spec builder exits 2
    brackets = tmp_path / "brackets.json"
    brackets.write_text("[" * 100000)
    deep = tmp_path / "deep.json"
    deep.write_text('{"kind": "matrix", "size": 1, "base": ' * 990
                    + json.dumps(z2_spec) + "}" * 990)
    for path in (str(brackets), str(deep)):
        assert main(["ring", "validate", path]) == 2, path
        assert "spec nested too deeply" in capsys.readouterr().err, path


def test_build_ring_rejects_deep_nesting():
    spec = {"kind": "zn", "n": 2}
    for _ in range(5000):
        spec = {"kind": "product", "factors": [spec]}
    with pytest.raises(CliError, match="spec nested too deeply") as caught:
        build_ring(spec, 64)
    assert caught.value.code == 2


def test_builders_build_under_their_cap():
    m2 = {"kind": "matrix", "base": {"kind": "zn", "n": 2}, "size": 2}
    with pytest.raises(EnumerationCapError, match="matrix ring has 2\\^4 entries, cap is 8"):
        build_ring(m2, 8)
    z8_quotient = {"kind": "skew_quotient", "base": {"kind": "zn", "n": 8}, "modulus": [1, 1]}
    with pytest.raises(EnumerationCapError, match="module has 8 entries, cap is 4"):
        build_quotient(z8_quotient, 4)
    with enumeration_cap(4):  # the argument, not the enclosing setting, applies
        assert build_ring(m2, 16).cardinality == 16
        assert build_quotient(z8_quotient, 8).cardinality == 8


def test_huge_ambient_exits_1_with_the_cap_message(tmp_path, capsys):
    z2 = write(tmp_path, "z2.json", {"kind": "zn", "n": 2})
    code = write(tmp_path, "huge.json", {"m": 1000000, "generators": [[1]]})
    assert main(["code", "wenum", z2, code]) == 1
    assert capsys.readouterr().err.startswith(
        "error: ambient module has 2^1000000 entries, cap is 1048576")


def test_zero_ring_matrix_over_the_table_cap_exits_1(tmp_path, capsys):
    spec = write(tmp_path, "m40.json", {"kind": "matrix", "base": {"kind": "zn", "n": 1},
                                        "size": 40})
    for cmd in ("validate", "frobenius"):
        assert main(["ring", cmd, spec]) == 1
        assert capsys.readouterr().err.startswith(
            "error: matrix ring table has 1600^3 entries, cap is 1048576"), cmd


def test_parser_is_built_once():
    assert make_parser() is make_parser()


def test_skew_build_over_the_cap_exits_1(tmp_path, capsys):
    spec = write(tmp_path, "z2c3.json", {
        "kind": "skew_quotient", "base": {"kind": "zn", "n": 2},
        "modulus": [[1], [0], [0], [1]]})
    assert main(["skew", "build", spec, "--cap", "4"]) == 1
    assert capsys.readouterr().err.startswith("error: skew quotient has 2^3 entries")
    assert main(["skew", "build", spec, "--cap", "8"]) == 0


def test_degenerate_map_on_a_big_base_exits_1_quickly(tmp_path, capsys):
    """Z2[x]/(x^24) with 1 -> 1, x^i -> 0: the base is over the default cap,
    and under a cap of 2^24 the bijection check stops at the first nonzero
    member of a 2^23-element kernel."""
    unit = [[int(t == i) for t in range(24)] for i in range(24)]
    base = {"kind": "table", "n": 2, "orders": [2] * 24, "one": unit[0],
            "mul": [[unit[i + j] if i + j < 24 else [0] * 24 for j in range(24)]
                    for i in range(24)]}
    spec = write(tmp_path, "shift.json", {
        "kind": "skew_quotient", "base": base, "modulus": [unit[0], unit[0]],
        "aut_images": [unit[0]] + [[0] * 24] * 23})
    t0 = time.perf_counter()
    assert main(["skew", "build", spec]) == 1
    assert capsys.readouterr().out == (
        "command: skew build\nerror: module has 16777216 entries, cap is 1048576\n")
    assert main(["skew", "build", spec, "--cap", str(1 << 24)]) == 1
    assert capsys.readouterr().out == "command: skew build\nerror: map is not a bijection\n"
    assert time.perf_counter() - t0 < 10


def test_huge_skew_quotient_exits_1_with_the_cap_message(tmp_path, capsys):
    spec = write(tmp_path, "z2c20000.json", {
        "kind": "skew_quotient", "base": {"kind": "zn", "n": 2},
        "modulus": [[1]] + [[0]] * 19999 + [[1]]})
    for command in (["skew", "build"], ["ring", "validate"]):
        assert main([*command, spec]) == 1
        assert capsys.readouterr().err.startswith(
            "error: skew quotient has 2^20000 entries, cap is 1048576")


def test_cap_flag_limits_enumeration(tmp_path, capsys):
    spec = write(tmp_path, "z64.json", {"kind": "zn", "n": 64})
    assert main(["ring", "frobenius", spec, "--cap", "32"]) == 1
    capsys.readouterr()


def test_product_meets_the_cap_as_its_table_does(tmp_path, capsys):
    """A product spec is decided block by block, after the same cap check
    on its form space as the table spec of the same ring."""
    product_spec = {"kind": "product", "factors": [
        {"kind": "zn", "n": 4}, {"kind": "matrix", "base": {"kind": "zn", "n": 2}, "size": 2}]}
    ring = build_ring(product_spec, DEFAULT_CAP)
    table_spec = {"kind": "table", "n": 4, "orders": list(ring.shape.orders),
                  "mul": [[list(e) for e in row] for row in ring.mul_table], "one": list(ring.one)}
    outs = []
    for index, spec in enumerate((product_spec, table_spec)):
        path = write(tmp_path, f"r{index}.json", spec)
        assert main(["ring", "frobenius", path, "--cap", "63"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: form space has 64 entries, cap is 63\n")
        assert main(["ring", "frobenius", path, "--cap", "64", "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["functional_weights"] == [1, 0, 2, 2, 0]  # Z4's (1), M2(F2)'s (0, 1, 1, 0) doubled


@pytest.mark.parametrize("name, spec", FAMILY_SPECS, ids=[name for name, _ in FAMILY_SPECS])
def test_frobenius_report_does_not_depend_on_the_spec_kind(name, spec, tmp_path, capsys):
    """A family ring and the table spec of its own table print the same
    report, with and without --json: the route is chosen by the table."""
    ring = build_ring(spec, DEFAULT_CAP)
    table_spec = {"kind": "table", "n": ring.characteristic, "orders": list(ring.shape.orders),
                  "mul": [[list(e) for e in row] for row in ring.mul_table], "one": list(ring.one)}
    for flags in ([], ["--json"]):
        outs = set()
        for index, s in enumerate((spec, table_spec)):
            exit_code = main(["ring", "frobenius", write(tmp_path, f"r{index}.json", s), *flags])
            outs.add((exit_code, capsys.readouterr().out))
        assert len(outs) == 1, outs


def test_cap_does_not_depend_on_the_spec_kind(tmp_path, capsys):
    # Z8 written as a zn spec and as a table spec meets the same --cap
    bases = [{"kind": "zn", "n": 8},
             {"kind": "table", "n": 8, "orders": [8], "mul": [[[1]]], "one": [1]}]
    outs = []
    for index, base in enumerate(bases):
        spec = write(tmp_path, f"q{index}.json",
                     {"kind": "skew_quotient", "base": base, "modulus": [1, 1]})
        assert main(["skew", "build", spec, "--cap", "4"]) == 1
        outs.append(capsys.readouterr().out)
    assert outs == ["command: skew build\nerror: module has 8 entries, cap is 4\n"] * 2


def test_ring_validate_does_not_rerun_the_checks(tmp_path, monkeypatch, capsys):
    spec = {"kind": "matrix", "base": {"kind": "zn", "n": 2}, "size": 2}
    path = write(tmp_path, "m2z2.json", spec)
    calls = [0]
    mul = FiniteRing.mul

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(FiniteRing, "mul", counted)
    build_ring(spec, DEFAULT_CAP)
    building, calls[0] = calls[0], 0
    assert main(["ring", "validate", path, "--json"]) == 0
    assert calls[0] == building
    assert json.loads(capsys.readouterr().out)["checks"] == dict.fromkeys(TABLE_CHECKS, True)


def test_degenerate_lift_exits_1(gf4_quotient_spec, monkeypatch, capsys):
    # a lifted form that fails the constructor's check is a library error
    def zero_form(self, base_functional):
        ring = self.as_finite_ring()
        return ZnLinearForm(ring.shape, (0,) * ring.rank)

    monkeypatch.setattr(SkewQuotient, "lifted_form", zero_form)
    assert main(["skew", "frobenius", gf4_quotient_spec]) == 1
    assert capsys.readouterr().err.startswith("error: pairing is degenerate")


def test_bad_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_json_reports_are_deterministic(gf4_quotient_spec, capsys):
    main(["skew", "build", gf4_quotient_spec, "--json"])
    first = capsys.readouterr().out
    main(["skew", "build", gf4_quotient_spec, "--json"])
    second = capsys.readouterr().out
    assert first == second
    main(["ring", "frobenius", gf4_quotient_spec, "--json"])
    third = capsys.readouterr().out
    main(["ring", "frobenius", gf4_quotient_spec, "--json"])
    assert capsys.readouterr().out == third


def test_readme_lists_the_command_table():
    block = README.read_text().split("Commands:\n\n```\n", 1)[1].split("```", 1)[0]
    listed = []
    for line in block.splitlines():
        prog, group, name, *rest = line.split()
        assert prog == "frobring", line
        files = next((i for i, w in enumerate(rest) if w.startswith(("-", "["))), len(rest))
        flags = [w.lstrip("[") for w in rest[files:] if w.lstrip("[").startswith("--")]
        listed.append((group, name, files, flags))
    assert listed == [(group, name, len(files), [flag for flag, _ in options])
                      for group, name, _, _, files, options in COMMANDS]


# -- fuzzing: malformed specs of every shape exit 0, 1 or 2, never raise ------

small = st.integers(-1, 4)
junk = st.one_of(st.none(), st.booleans(), small, st.floats(-2, 2), st.text(max_size=2),
                 st.just({}), st.just([[]]))


def maybe(valid):
    """Mostly valid values, about one time in eight a wrong JSON type."""
    return st.integers(0, 7).flatmap(lambda i: junk if i == 7 else valid)


def short(elems, n=3):
    return st.lists(elems, max_size=n)


@st.composite
def obj(draw, fields, optional=()):
    """An object of the fields: each one goes missing about one time in
    sixteen, an optional one about every other time."""
    return {k: draw(v) for k, v in fields.items()
            if draw(st.integers(0, 15)) < (8 if k in optional else 15)}


GF4 = {"kind": "table", "n": 2, "orders": [2, 2],
       "mul": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], "one": [1, 0]}
element = maybe(st.one_of(small, short(small, 2)))
valid_rings = st.sampled_from([{"kind": "zn", "n": n} for n in (2, 3, 4)] + [GF4])
leaves = st.one_of(
    valid_rings,
    obj({"kind": st.just("zn"), "n": maybe(small)}),
    obj({"kind": st.just("table"), "n": maybe(small), "orders": maybe(short(maybe(small), 2)),
         "mul": maybe(short(maybe(short(element, 2)), 2)), "one": element}),
    obj({"kind": st.just("group_algebra"), "n": maybe(small),
         "cayley": maybe(short(maybe(short(maybe(small)))))}),
    obj({"kind": st.sampled_from(["field", 3])}),
    junk,
)


def skew_specs(base):
    return obj({"kind": st.just("skew_quotient"), "base": base,
                "modulus": maybe(short(element, 3).map(lambda f: f + [1])),
                "aut_images": maybe(short(element, 2))}, optional=("aut_images",))


ring_specs = st.recursive(leaves, lambda inner: st.one_of(
    obj({"kind": st.just("product"), "factors": maybe(short(inner, 2))}),
    obj({"kind": st.just("matrix"), "base": inner, "size": maybe(st.integers(-1, 2))}),
    skew_specs(inner),
), max_leaves=3)
valid_skew = st.sampled_from([
    {"kind": "skew_quotient", "base": {"kind": "zn", "n": 2}, "modulus": [1, 0, 0, 1]},
    {"kind": "skew_quotient", "base": GF4, "aut_images": [[1, 0], [1, 1]],
     "modulus": [[1, 0], [0, 0], [1, 0]]},
])
# code commands get flat rings, so that codes over them often fit
SPECS = {"ring": ring_specs, "code": leaves, "skew": st.one_of(valid_skew, skew_specs(leaves))}
code_specs = obj({"m": maybe(st.integers(-1, 3)),
                  "side": maybe(st.sampled_from(["left", "right", "additive", "up"])),
                  "generators": maybe(short(maybe(short(element)), 2))}, optional=("side",))
form_specs = obj({"matrix": maybe(short(maybe(short(element))))})


# Derandomized: every run checks the same 500 cases, so a failure repeats.
@settings(max_examples=500, derandomize=True)
@given(st.data(), st.sampled_from(COMMANDS), code_specs, st.none() | form_specs, st.booleans())
def test_malformed_specs_never_raise(tmp_path_factory, data, command, code, form, as_json):
    tmp = tmp_path_factory.mktemp("fuzz")
    group, name = command[:2]
    argv = [group, name, write(tmp, "ring.json", data.draw(SPECS[group], label="ring"))]
    if group == "code":
        argv.append(write(tmp, "code.json", code))
        if form is not None and name != "wenum":
            argv += ["--form", write(tmp, "form.json", form)]
    argv += ["--cap", "64"] + ["--json"] * as_json
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)
