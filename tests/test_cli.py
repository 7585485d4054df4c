import io
import json
import math
import warnings

import numpy as np
import pytest

from trimirror import (
    Plane,
    Rotation,
    Tolerance,
    classify,
    iso_equal,
    plane_reflection,
    reconstruct,
    rotation_about_axis,
    translation,
)
from trimirror.cli import SpecError, class_to_json, main, motion_from_spec, parse_angle
from trimirror.motion import apply

import oracle

P_EX = np.array([0.7134339075145071, 0.7134339075145069, 1.5124720131911649])

H_SPEC = {
    "kind": "sequence",
    "steps": [
        {"kind": "rotation", "point": [0, 0, 0], "dir": [0, 0, -1], "angle": "pi/4"},
        {"kind": "translation", "v": [0, 0, 1]},
        {"kind": "rotation", "point": [1, 0, 0], "dir": [1, -1, 0], "angle": "pi/6"},
        {"kind": "translation", "v": [1, 1, 1]},
    ],
}

G_SPEC = {
    "kind": "sequence",
    "steps": [
        {"kind": "rotation", "point": [0, 0, 0], "dir": [0, 0, -1], "angle": "pi/4"},
        {"kind": "translation", "v": [0, 0, 1]},
    ],
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == 0
    return json.loads(out)


def test_parse_angle_tokens():
    assert parse_angle("pi") == pytest.approx(np.pi)
    assert parse_angle("-pi") == pytest.approx(-np.pi)
    assert parse_angle("pi/6") == pytest.approx(np.pi / 6)
    assert parse_angle(" pi/4 ") == pytest.approx(np.pi / 4)
    assert parse_angle(1.25) == 1.25
    assert parse_angle(-3) == -3.0
    for bad in ("2pi", "pi/0", "tau", "", None, True, float("nan")):
        with pytest.raises(SpecError):
            parse_angle(bad)


def test_parse_angle_refuses_numbers_past_the_float_range():
    # an int past the largest double, and a pi token whose denominator is one
    # (or is too long for int() where int() limits its digits), are bad angles
    # like any other: SpecError, not a bare OverflowError or ValueError
    message = "^int too large to convert to float$"
    for bad in (10**400, -(10**400), "pi/1" + "0" * 400, "-pi/1" + "0" * 400):
        with pytest.raises(SpecError, match=message):
            parse_angle(bad)
    with pytest.raises(SpecError):
        parse_angle("pi/1" + "0" * 5000)
    # the largest finite denominator still divides
    assert parse_angle(f"pi/{int(np.finfo(float).max)}") == np.pi / np.finfo(float).max


def test_motion_from_spec_kinds():
    rot = motion_from_spec(
        {"kind": "rotation", "point": [0, 0, 0], "dir": [0, 0, 1], "angle": "pi/2"}
    )
    assert np.allclose(apply(rot, (1, 0, 0)), (0, 1, 0), atol=1e-15)

    tr = motion_from_spec({"kind": "translation", "v": [1, 2, 3]})
    assert np.allclose(tr.translation, (1, 2, 3))

    refl = motion_from_spec({"kind": "reflection", "normal": [0, 0, 1], "offset": 1.0})
    assert iso_equal(refl, plane_reflection(Plane((0, 0, 1), 1.0)))

    inv = motion_from_spec({"kind": "inversion", "center": [1, 1, 1]})
    assert np.allclose(apply(inv, (0, 0, 0)), (2, 2, 2), atol=1e-15)

    seq = motion_from_spec(
        {
            "kind": "sequence",
            "steps": [
                {"kind": "translation", "v": [1, 0, 0]},
                {"kind": "rotation", "point": [0, 0, 0], "dir": [0, 0, 1], "angle": "pi/2"},
            ],
        }
    )
    # the translation acts first
    assert np.allclose(apply(seq, (0, 0, 0)), (0, 1, 0), atol=1e-15)


def test_motion_from_spec_rejects_malformed():
    bad_docs = [
        "not a dict",
        {"kind": "spiral"},
        {"kind": "rotation", "point": [0, 0, 0], "dir": [0, 0, 0], "angle": 1.0},
        {"kind": "rotation", "point": [0, 0], "dir": [0, 0, 1], "angle": 1.0},
        {"kind": "translation"},
        {"kind": "translation", "v": ["1", "2", "3"]},
        {"kind": "translation", "v": [True, False, True]},
        {"kind": "translation", "v": [1, 2, {}]},
        {"kind": "translation", "v": [1, 2, None]},
        {"kind": "reflection", "normal": [0, 0, 1], "offset": "one"},
        {"kind": "sequence", "steps": []},
        {"kind": "sequence", "steps": "nope"},
    ]
    for doc in bad_docs:
        with pytest.raises(SpecError):
            motion_from_spec(doc)


def test_classify_command(tmp_path, capsys):
    path = _write(
        tmp_path,
        "rot.json",
        {"kind": "rotation", "point": [0, 0, 0], "dir": [0, 0, 1], "angle": "pi/2"},
    )
    doc = _run_json(capsys, ["classify", "--input", path])
    assert doc["class"] == "rotation"
    assert doc["angle"] == pytest.approx(np.pi / 2, abs=1e-12)
    assert np.allclose(doc["axis"]["dir"], (0, 0, 1))
    assert np.allclose(doc["axis"]["point"], (0, 0, 0))


HALF_PI = 1.5707963267948966
QUARTER_TURN_Z = {"kind": "rotation", "point": [1, 0, 0], "dir": [0, 0, 1], "angle": "pi/2"}

# one motion document per class, and the exact document classify prints for it
CLASS_DOCUMENTS = [
    ({"kind": "translation", "v": [0, 0, 0]}, {"class": "identity"}),
    ({"kind": "translation", "v": [1, 2, 3]}, {"class": "translation", "v": [1.0, 2.0, 3.0]}),
    (
        QUARTER_TURN_Z,
        {"class": "rotation", "axis": {"point": [1.0, 0.0, 0.0], "dir": [0.0, 0.0, 1.0]},
         "angle": HALF_PI},
    ),
    (
        {"kind": "sequence", "steps": [QUARTER_TURN_Z, {"kind": "translation", "v": [0, 0, 2]}]},
        {"class": "screw", "axis": {"point": [1.0, 0.0, 0.0], "dir": [0.0, 0.0, 1.0]},
         "angle": HALF_PI, "slide": [0.0, 0.0, 2.0]},
    ),
    (
        {"kind": "reflection", "normal": [0, 0, 2], "offset": 3},
        {"class": "reflection", "mirror": {"normal": [0.0, 0.0, 1.0], "offset": 1.5}},
    ),
    (
        {"kind": "sequence", "steps": [{"kind": "reflection", "normal": [0, 0, 1], "offset": 1},
                                       {"kind": "translation", "v": [2, 0, 0]}]},
        {"class": "glide_reflection", "mirror": {"normal": [0.0, 0.0, 1.0], "offset": 1.0},
         "slide": [2.0, 0.0, 0.0]},
    ),
    ({"kind": "inversion", "center": [1, 2, 3]}, {"class": "inversion", "center": [1.0, 2.0, 3.0]}),
    (
        {"kind": "sequence", "steps": [
            {"kind": "reflection", "normal": [0, 0, 1], "offset": 0},
            {"kind": "rotation", "point": [0, 0, 0], "dir": [0, 0, 1], "angle": "pi/2"}]},
        {"class": "rotary_reflection", "mirror": {"normal": [0.0, 0.0, 1.0], "offset": 0.0},
         "center": [0.0, 0.0, 0.0], "angle": 1.5707963267948968},
    ),
]


def test_classify_prints_each_class_document_exactly(tmp_path, capsys):
    # the encoder walks each record's dataclass fields, so key order is pinned
    # too, nested keys included
    for spec, want in CLASS_DOCUMENTS:
        doc = _run_json(capsys, ["classify", "--input", _write(tmp_path, "m.json", spec)])
        assert (doc, json.dumps(doc)) == (want, json.dumps(want))
    assert [want["class"] for _, want in CLASS_DOCUMENTS] == list(oracle.ALL_VARIANTS)


def test_classify_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"kind": "translation", "v": [1, 0, 0]})))
    doc = _run_json(capsys, ["classify"])
    assert doc == {"class": "translation", "v": [1.0, 0.0, 0.0]}


def test_compose_composite_sequence(tmp_path, capsys):
    path = _write(tmp_path, "h.json", H_SPEC)
    doc = _run_json(capsys, ["compose", "--input", path])
    assert len(doc["linear"]) == 9
    from trimirror.example import make_h

    h = make_h()
    assert np.allclose(doc["linear"], np.asarray(h.linear).reshape(9), atol=1e-12)
    assert np.allclose(doc["translation"], P_EX, atol=1e-12)
    assert np.allclose(doc["translation"], (0.713432, 0.713434, 1.512472), atol=5e-6)


def test_compose_inversion(tmp_path, capsys):
    path = _write(tmp_path, "inv.json", {"kind": "inversion", "center": [1, 2, 3]})
    doc = _run_json(capsys, ["compose", "--input", path])
    assert np.allclose(doc["linear"], -np.eye(3).reshape(9))
    assert np.allclose(doc["translation"], (2, 4, 6))


def test_classify_composite_matches_library(tmp_path, capsys):
    path = _write(tmp_path, "h.json", H_SPEC)
    doc = _run_json(capsys, ["classify", "--input", path])
    from trimirror.example import make_h

    record = classify(make_h())
    assert doc["class"] == "screw"
    assert doc["angle"] == pytest.approx(record.angle, abs=1e-15)
    assert np.allclose(doc["slide"], record.slide, atol=1e-15)
    assert np.allclose(doc["axis"]["point"], record.axis.point, atol=1e-15)


def test_triples_identity_case(tmp_path, capsys):
    triple = {"A": [1, 0, 0], "B": [0, 2, 0], "C": [0, 0, 3]}
    src = _write(tmp_path, "src.json", triple)
    dst = _write(tmp_path, "dst.json", triple)
    doc = _run_json(capsys, ["triples", "--src", src, "--dst", dst])
    assert doc["self_check"] is True
    assert len(doc["mirrors"]) == 3
    first = doc["mirrors"][0]
    for mirror in doc["mirrors"][1:]:
        assert np.allclose(mirror["normal"], first["normal"], atol=1e-12)
        assert mirror["offset"] == pytest.approx(first["offset"], abs=1e-12)
    assert doc["first_class"]["class"] == "reflection"
    assert doc["second_class"]["class"] == "identity"
    assert np.allclose(doc["fourth_mirror"]["normal"], first["normal"], atol=1e-12)


def test_triples_swap_case(tmp_path, capsys):
    src = _write(tmp_path, "src.json", {"A": [0, 0, 0], "B": [2, 0, 0], "C": [1, 1, 0]})
    dst = _write(tmp_path, "dst.json", {"A": [2, 0, 0], "B": [0, 0, 0], "C": [1, 1, 0]})
    doc = _run_json(capsys, ["triples", "--src", src, "--dst", dst])
    assert doc["self_check"] is True
    assert np.allclose(doc["mirrors"][0]["normal"], (1, 0, 0))
    assert doc["mirrors"][0]["offset"] == pytest.approx(1.0, abs=1e-12)
    for mirror in doc["mirrors"][1:]:
        assert np.allclose(mirror["normal"], (0, 0, 1))
        assert mirror["offset"] == pytest.approx(0.0, abs=1e-12)
    assert doc["first_class"]["class"] == "reflection"
    # the proper partner is the half-turn about the y-line through (1, 0, 0)
    assert doc["second_class"]["class"] == "rotation"
    assert abs(doc["second_class"]["angle"]) == pytest.approx(np.pi, abs=1e-12)
    assert np.allclose(doc["second_class"]["axis"]["dir"], (0, 1, 0), atol=1e-12)
    assert np.allclose(doc["second_class"]["axis"]["point"], (1, 0, 0), atol=1e-12)


def test_iterate_csv_unit_pitch_screw(tmp_path, capsys):
    path = _write(tmp_path, "g.json", G_SPEC)
    code, out = _run(capsys, ["iterate", "--input", path, "--start", "1,0,0", "--count", "8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i,x,y,z"
    assert len(lines) == 10
    assert lines[1] == "0,1.0,0.0,0.0"
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert fields[0] == str(i)
        assert fields[3] == repr(float(i))
        x, y = float(fields[1]), float(fields[2])
        assert np.hypot(x, y) == pytest.approx(1.0, abs=1e-12)


def test_iterate_zero_count_and_json(tmp_path, capsys):
    path = _write(tmp_path, "g.json", G_SPEC)
    code, out = _run(capsys, ["iterate", "--input", path, "--start", "1,0,0", "--count", "0"])
    assert code == 0
    assert out == "i,x,y,z\n0,1.0,0.0,0.0\n"
    doc = _run_json(
        capsys, ["iterate", "--input", path, "--start", "1,0,0", "--count", "3", "--format", "json"]
    )
    assert len(doc["points"]) == 4
    assert np.allclose(doc["points"][0], (1, 0, 0))
    assert doc["points"][3][2] == pytest.approx(3.0, abs=1e-12)


def test_iterate_default_count(tmp_path, capsys):
    path = _write(tmp_path, "g.json", G_SPEC)
    code, out = _run(capsys, ["iterate", "--input", path, "--start", "1,0,0"])
    assert code == 0
    assert len(out.splitlines()) == 14  # header + 13 points


def test_example_command(capsys):
    doc = _run_json(capsys, ["example"])
    assert doc["theta"] == pytest.approx(0.936324, abs=5e-6)
    assert np.allclose(doc["m"], (-0.539178, 0.223335, 0.833496), atol=5e-6)
    assert np.allclose(doc["residual"], (1.25261, 0.490099, 0.678976), atol=5e-6)
    assert np.allclose(doc["p"], P_EX, atol=1e-12)
    assert np.allclose(doc["bisector_normal_ab"], (1.29261, -0.611424, 1), atol=5e-6)
    assert np.allclose(doc["bisector_normal_bb_prime"], (0.332024, -2.93047, 1), atol=5e-6)
    assert doc["residual_dot_n"] <= 1e-9
    assert list(doc) == [
        "b", "b_prime", "axis_k", "n_direction", "theta", "m", "residual", "p", "screw_axis_h",
        "bisector_normal_ab", "bisector_normal_bb_prime", "residual_dot_n",
    ]
    assert list(doc["axis_k"]) == list(doc["screw_axis_h"]) == ["point", "dir"]
    assert len(doc["axis_k"]["dir"]) == 3 and len(doc["screw_axis_h"]["point"]) == 3


def test_exit_codes(tmp_path, capsys):
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert main(["classify", "--input", str(garbled)]) == 2
    capsys.readouterr()

    assert main(["classify", "--input", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    g = _write(tmp_path, "g.json", G_SPEC)
    assert main(["iterate", "--input", g, "--start", "1,0"]) == 2
    capsys.readouterr()
    # example.iterate is the one place a negative count is refused
    assert main(["iterate", "--input", g, "--start", "1,0,0", "--count", "-2"]) == 2
    assert capsys.readouterr().err == "error: iterate count must be nonnegative\n"
    assert main(["iterate", "--input", g, "--start", "1,x,3"]) == 2
    assert capsys.readouterr().err.startswith("error: start point: ")

    src = _write(tmp_path, "src.json", {"A": [0, 0, 0], "B": [1, 0, 0], "C": [0, 1, 0]})
    stretched = _write(tmp_path, "dst.json", {"A": [0, 0, 0], "B": [3, 0, 0], "C": [0, 1, 0]})
    assert main(["triples", "--src", src, "--dst", stretched]) == 3
    capsys.readouterr()

    flat = _write(tmp_path, "flat.json", {"A": [0, 0, 0], "B": [1, 0, 0], "C": [2, 0, 0]})
    assert main(["triples", "--src", flat, "--dst", src]) == 2
    capsys.readouterr()
    listed = _write(tmp_path, "listed.json", [1, 2, 3])
    assert main(["triples", "--src", listed, "--dst", src]) == 2
    assert capsys.readouterr().err == "error: triple description must be a JSON object\n"
    # numpy would read "1" and true as numbers: a point or vector holds JSON numbers only
    worded = _write(tmp_path, "worded.json", {"A": [0, 0, "0"], "B": [1, 0, 0], "C": [0, 1, 0]})
    assert main(["triples", "--src", worded, "--dst", src]) == 2
    assert capsys.readouterr().err == "error: field 'A' must hold three numbers\n"
    # and it would read null as NaN, which the finiteness check would report
    nulled = _write(tmp_path, "nulled.json", {"A": [0, 0, None], "B": [1, 0, 0], "C": [0, 1, 0]})
    assert main(["triples", "--src", nulled, "--dst", src]) == 2
    assert capsys.readouterr().err == "error: field 'A' must hold three numbers\n"
    # the field is tested as JSON before numpy reads it: a list of exactly three numbers
    for name, v in (("strings", ["1", "2", "3"]), ("booleans", [True, False, True]),
                    ("nulls", [1, 2, None]), ("scalar", 5), ("short", [1, 2]),
                    ("ragged", [[1], 2, 3])):
        path = _write(tmp_path, f"{name}.json", {"kind": "translation", "v": v})
        assert main(["compose", "--input", path]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert captured.err == "error: field 'v' must hold three numbers\n", name
    # an object for a component is malformed input too, not a TypeError
    nested = _write(tmp_path, "nested.json", {"kind": "translation", "v": [1, 2, {}]})
    assert main(["compose", "--input", nested]) == 2
    assert capsys.readouterr().err == "error: field 'v' must hold three numbers\n"
    # three numbers as_vec3 then refuses keep the field's name
    endless = _write(tmp_path, "endless.json", {"kind": "translation", "v": [1, 2, math.inf]})
    assert main(["compose", "--input", endless]) == 2
    assert capsys.readouterr().err == "error: field 'v': vector components must be finite\n"
    # _number refuses a bool angle, as it refuses a bool component
    turned = _write(tmp_path, "turned.json", {**QUARTER_TURN_Z, "angle": True})
    assert main(["compose", "--input", turned]) == 2
    assert capsys.readouterr().err == "error: cannot parse angle True\n"

    # tolerances too loose for the worked example: at 1 and 2 the rotation
    # part no longer classifies as a rotation, at 10 the orbit points coincide
    for tol in ("1", "2", "10"):
        assert main(["--tol", tol, "example"]) == 3
        assert capsys.readouterr().err.startswith("error: ")
    # a tolerance that is not positive and finite is malformed input: at inf
    # a translation by (5, 0, 0) would classify as the identity
    shift = _write(tmp_path, "shift.json", {"kind": "translation", "v": [5, 0, 0]})
    for tol in ("inf", "1e400", "nan", "0", "-1e-9"):
        assert main([f"--tol={tol}", "classify", "--input", shift]) == 2, tol
        captured = capsys.readouterr()
        assert captured.out == "", tol
        assert captured.err == "error: tolerances must be positive and finite\n", tol

    assert main([]) == 2
    capsys.readouterr()


def test_input_beyond_the_float_range_exits_as_malformed_input(tmp_path, capsys):
    # congruent triples 2e307 apart: the first bisector's chord length
    # overflows, so the input is beyond the float range (2), not a violated
    # geometric precondition (3); one error line, no traceback or numpy warning
    far = {"A": [1e307, 0, 0], "B": [1e307, 1, 0], "C": [1e307, 0, 1]}
    mirrored = {k: [-x, y, z] for k, (x, y, z) in far.items()}
    src = _write(tmp_path, "src.json", far)
    dst = _write(tmp_path, "dst.json", mirrored)
    assert main(["triples", "--src", src, "--dst", dst]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: plane normal must have a nonzero, finite length\n"

    # a non-congruent pair as far apart is still a violated precondition
    stretched = _write(tmp_path, "stretched.json", {**mirrored, "B": [-1e307, 3, 0]})
    assert main(["triples", "--src", src, "--dst", stretched]) == 3
    assert capsys.readouterr().err.startswith("error: ")

    # a screw whose slide overflows is refused as malformed input too, and
    # classify's float split overflows without a numpy warning (the test run
    # turns any RuntimeWarning into an error)
    steps = [{"kind": "rotation", "point": [0, 0, 0], "dir": [1, 1, 0], "angle": 1},
             {"kind": "translation", "v": [1.5e308, 1.5e308, 0]}]
    screw = _write(tmp_path, "screw.json", {"kind": "sequence", "steps": steps})
    assert main(["classify", "--input", screw]) == 2
    assert capsys.readouterr().err == "error: vector components must be finite\n"

    # a translation that long is still finite: classified without a warning
    far_shift = _write(tmp_path, "far_shift.json", {"kind": "translation", "v": [1.5e308, 1.5e308, 0]})
    assert _run_json(capsys, ["classify", "--input", far_shift])["class"] == "translation"

    # a JSON integer past the largest double, as an angle, an offset, a vector
    # component or a pi token's denominator, cannot become a float
    huge, message = 10**400, "int too large to convert to float"
    turn = {"kind": "rotation", "point": [0, 0, 0], "dir": [0, 0, 1]}
    for name, doc, err in (
        ("angle", {**turn, "angle": huge}, message),
        ("offset", {"kind": "reflection", "normal": [0, 0, 1], "offset": huge}, message),
        ("component", {"kind": "translation", "v": [huge, 0, 0]}, f"field 'v': {message}"),
        ("token", {**turn, "angle": f"pi/{huge}"}, message),
    ):
        assert main(["classify", "--input", _write(tmp_path, f"{name}.json", doc)]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert captured.err == f"error: {err}\n", name
    huge_src = _write(tmp_path, "huge_src.json", {**far, "A": [huge, 0, 0]})
    assert main(["triples", "--src", huge_src, "--dst", dst]) == 2
    assert capsys.readouterr().err == f"error: field 'A': {message}\n"


def test_an_inversion_whose_shift_overflows_exits_as_malformed_input(tmp_path, capsys):
    # the shift 2 center passes the largest double: the one inversion builder
    # doubles the center on floats and refuses it, one error line and no numpy
    # overflow warning, where -I and 2.0 * center on an array warned first
    path = _write(tmp_path, "inv.json", {"kind": "inversion", "center": [1e308, 0, 0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["compose"], ["classify"], ["iterate", "--start", "1,0,0"]):
            assert main([*argv, "--input", path]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err == "error: vector components must be finite\n", argv


def test_orbit_beyond_the_float_range_exits_as_malformed_input(tmp_path, capsys):
    # the first step overflows: one error line, no numpy warning, and no
    # infinite point printed, whether or not a later step would reach it
    path = _write(tmp_path, "shift.json", {"kind": "translation", "v": [1e308, 0, 0]})
    for count in ([], ["--count", "1"]):
        argv = ["iterate", "--input", path, "--start", "1e308,1e308,0", *count]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vector components must be finite\n"


def test_tolerance_flag_loosens_length_checks(tmp_path, capsys):
    path = _write(tmp_path, "tiny.json", {"kind": "translation", "v": [1e-5, 0, 0]})
    strict = _run_json(capsys, ["classify", "--input", path])
    assert strict["class"] == "translation"
    loose = _run_json(capsys, ["--tol", "1e-3", "classify", "--input", path])
    assert loose["class"] == "identity"


def test_emitted_class_round_trips(tmp_path, capsys):
    # classify's records of random motions, then a public-constructor record
    # of every class, through JSON text and back
    rng = np.random.default_rng(51)
    cases = []
    for _ in range(20):
        motion = oracle.random_motion(rng)
        cases.append((classify(motion), motion))
    for variant in oracle.ALL_VARIANTS:
        record = oracle.random_record(rng, variant)
        cases.append((record, oracle.record_motion(record)))
    for record, motion in cases:
        doc = json.loads(json.dumps(class_to_json(record)))
        again = oracle.record_from_json(doc)
        assert type(again) is type(record)
        assert iso_equal(reconstruct(again), motion, Tolerance(1e-8, 1e-8))
    assert {type(record) for record, _ in cases} == set(oracle.RECORD_CLASSES.values())


def test_outputs_are_deterministic(tmp_path, capsys):
    runs = []
    for _ in range(2):
        code, out = _run(capsys, ["example"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]

    src = _write(tmp_path, "src.json", {"A": [0, 0, 0], "B": [2, 0, 0], "C": [1, 1, 0]})
    dst = _write(tmp_path, "dst.json", {"A": [2, 0, 0], "B": [0, 0, 0], "C": [1, 1, 0]})
    runs = [_run(capsys, ["triples", "--src", src, "--dst", dst])[1] for _ in range(2)]
    assert runs[0] == runs[1]

    g = _write(tmp_path, "g.json", G_SPEC)
    argv = ["iterate", "--input", g, "--start", "1,0,0", "--count", "8"]
    runs = [_run(capsys, argv)[1] for _ in range(2)]
    assert runs[0] == runs[1]
