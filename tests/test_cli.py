"""Command line behavior: exit codes, reports, determinism."""

import json

import pytest

from frobring.catalog import double_nil_ring
from frobring.cli import main


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
    assert "valid: true" in out
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
    dn = double_nil_ring()
    spec = write(
        tmp_path,
        "dn.json",
        {
            "kind": "table",
            "n": 2,
            "orders": list(dn.shape.orders),
            "mul": [[list(e) for e in row] for row in dn.mul_table],
            "one": list(dn.one),
        },
    )
    assert main(["ring", "frobenius", spec, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["frobenius"] is False
    assert report["functional_weights"] is None
    assert report["routes_agree"] is True


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


def test_skew_build_over_the_cap_exits_1(tmp_path, capsys):
    spec = write(tmp_path, "z2c3.json", {
        "kind": "skew_quotient", "base": {"kind": "zn", "n": 2},
        "modulus": [[1], [0], [0], [1]]})
    assert main(["skew", "build", spec, "--cap", "4"]) == 1
    assert capsys.readouterr().err.startswith("error: skew quotient has 8 entries")
    assert main(["skew", "build", spec, "--cap", "8"]) == 0


def test_cap_flag_limits_enumeration(tmp_path, capsys):
    spec = write(tmp_path, "z64.json", {"kind": "zn", "n": 64})
    assert main(["ring", "frobenius", spec, "--cap", "32"]) == 1
    capsys.readouterr()


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
