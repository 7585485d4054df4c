"""Command-line front end.

Subcommands:

  classify   read a motion description, print its canonical class as JSON
  compose    read a motion description, print its affine form as JSON
  triples    build both mirror sequences carrying one triple onto another
  iterate    tabulate an orbit of a motion as CSV or JSON
  example    print the worked composite-motion report as JSON

Motion descriptions are JSON documents with a "kind" field: rotation
(point, dir, angle), translation (v), reflection (normal, offset),
inversion (center), or sequence (steps, applied in listed order).  A point or
vector holds three JSON numbers, an offset one; an angle is a number or a token
"pi", "-pi", "pi/6" and so on.  Exit status is 0 on success, 2 for malformed
input, 3 for violated geometric preconditions.

`main` resolves --tol once, before any subcommand reads input, into args.tol.
The module imports no numpy: the arrays it prints are geom's Vec3 values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys

from .classify import Inversion, MotionClass, classify, reconstruct
from .construct import TriplePair, second_motion, three_reflections
from .errors import CollinearPoints, GeometryError
from .example import DEFAULT_ITERATES, analyze, iterate
from .geom import DEFAULT_TOL, Line3, Plane, PointTriple, Tolerance, Vec3, as_vec3, points_coincide
from .motion import (
    AffineIsometry,
    apply,
    identity,
    plane_reflection,
    rotation_about_axis,
    seq_to_affine,
    then,
    translation,
)

_ANGLE_TOKEN = re.compile(r"([+-]?)pi(?:/([0-9]+))?\Z")


class SpecError(ValueError):
    """Malformed or inconsistent input document."""


def _number(value) -> bool:
    """Whether a JSON value is a number: an int or a float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_angle(value) -> float:
    """Angle from a JSON number or a pi-token string like "pi/6" or "-pi"."""
    if isinstance(value, bool):
        raise SpecError("angle must be a number or a pi token")
    match = isinstance(value, str) and _ANGLE_TOKEN.match(value.strip())
    if not (match or _number(value)):
        raise SpecError(f"cannot parse angle {value!r}")
    try:  # float() refuses an int past the largest double, int() may refuse over 4300 digits
        number = float(int(match.group(2) or "1")) if match else float(value)
    except (ValueError, OverflowError) as exc:
        raise SpecError(str(exc)) from exc
    if not match:
        if not math.isfinite(number):
            raise SpecError("angle must be finite")
        return number
    if number == 0.0:
        raise SpecError("pi token denominator must be nonzero")
    return (-1.0 if match.group(1) == "-" else 1.0) * math.pi / number


def _vec_field(doc: dict, key: str):
    if key not in doc:
        raise SpecError(f"missing field {key!r}")
    if isinstance(doc[key], list) and None in doc[key]:  # numpy would read null as NaN
        raise SpecError(f"field {key!r} must hold three numbers")
    try:  # TypeError: an object for a number; OverflowError: an int past the largest double
        v = as_vec3(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"field {key!r}: {exc}") from exc
    if not all(map(_number, doc[key])):  # numpy reads "1" and true as numbers too
        raise SpecError(f"field {key!r} must hold three numbers")
    return v


def _num_field(doc: dict, key: str) -> float:
    if key not in doc or not _number(doc[key]):
        raise SpecError(f"field {key!r} must be a number")
    return float(doc[key])


def motion_from_spec(doc) -> AffineIsometry:
    """Affine motion described by a MotionSpec document."""
    if not isinstance(doc, dict):
        raise SpecError("motion description must be a JSON object")
    kind = doc.get("kind")
    try:
        if kind == "rotation":
            return rotation_about_axis(
                _vec_field(doc, "point"),
                _vec_field(doc, "dir"),
                parse_angle(doc.get("angle", None)),
            )
        if kind == "translation":
            return translation(_vec_field(doc, "v"))
        if kind == "reflection":
            return plane_reflection(Plane(_vec_field(doc, "normal"), _num_field(doc, "offset")))
        if kind == "inversion":
            return reconstruct(Inversion(center=_vec_field(doc, "center")))
        if kind == "sequence":
            steps = doc.get("steps")
            if not isinstance(steps, list) or not steps:
                raise SpecError("sequence needs a nonempty list under 'steps'")
            out = identity()
            for entry in steps:
                out = then(out, motion_from_spec(entry))
            return out
    except SpecError:
        raise
    except (ValueError, OverflowError) as exc:  # OverflowError: an int past the largest double
        raise SpecError(str(exc)) from exc
    raise SpecError(f"unknown motion kind {kind!r}")


def triple_from_spec(doc, tol: Tolerance) -> PointTriple:
    """PointTriple from a TripleSpec document {"A": ..., "B": ..., "C": ...}."""
    if not isinstance(doc, dict):
        raise SpecError("triple description must be a JSON object")
    a = _vec_field(doc, "A")
    b = _vec_field(doc, "B")
    c = _vec_field(doc, "C")
    try:
        return PointTriple(a, b, c, tol)
    except CollinearPoints as exc:
        raise SpecError("triple points are collinear") from exc


def _load_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON in {path}: {exc}") from exc


def _json(value):
    """JSON form of a field value: a Plane or Line3 as an object, an array as a flat float list."""
    if isinstance(value, Plane):
        return {"normal": _json(value.normal), "offset": float(value.offset)}
    if isinstance(value, Line3):
        return {"point": _json(value.point), "dir": _json(value.direction)}
    if isinstance(value, Vec3):
        return value.ravel().tolist()
    return float(value)


def _fields_json(value) -> dict:
    """The dataclass `value`'s fields through _json, in declaration order."""
    return {f.name: _json(getattr(value, f.name)) for f in dataclasses.fields(value)}


def class_to_json(record: MotionClass) -> dict:
    """A class record's JSON document: its class name, then its fields."""
    return {"class": record.NAME, **_fields_json(record)}


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def cmd_classify(args) -> int:
    motion = motion_from_spec(_load_json(args.input))
    _emit(class_to_json(classify(motion, args.tol)))
    return 0


def cmd_compose(args) -> int:
    motion = motion_from_spec(_load_json(args.input))
    _emit({"linear": _json(motion.linear), "translation": _json(motion.translation)})
    return 0


def cmd_triples(args) -> int:
    tol = args.tol
    src = triple_from_spec(_load_json(args.src), tol)
    dst = triple_from_spec(_load_json(args.dst), tol)
    pair = TriplePair(src, (dst.a, dst.b, dst.c))
    first = three_reflections(pair, tol)  # on floats: an overflowing chord raises, silently
    second = second_motion(first, pair.dst, tol)
    first_motion = seq_to_affine(first)
    partner = seq_to_affine(second)
    carries = [(m, s, t) for s, t in zip(src.points(), pair.dst) for m in (first_motion, partner)]
    _emit(
        {
            "mirrors": [_json(p) for p in first.planes],
            "fourth_mirror": _json(second.planes[3]),
            "first_class": class_to_json(classify(first_motion, tol)),
            "second_class": class_to_json(classify(partner, tol)),
            "self_check": all(points_coincide(apply(m, s), t, tol) for m, s, t in carries),
        }
    )
    return 0


def _parse_start(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise SpecError("start point must be 'x,y,z'")
    try:
        return as_vec3([float(part) for part in parts])
    except ValueError as exc:
        raise SpecError(f"start point: {exc}") from exc


def cmd_iterate(args) -> int:
    motion = motion_from_spec(_load_json(args.input))
    start = _parse_start(args.start)
    if args.count < 0:
        raise SpecError("count must be nonnegative")
    points = iterate(motion, start, args.count)
    if args.format == "json":
        _emit({"points": [_json(p) for p in points]})
        return 0
    lines = ["i,x,y,z"]
    for i, p in enumerate(points):
        lines.append(f"{i},{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_example(args) -> int:
    report = analyze(args.tol)
    _emit({**_fields_json(report), "residual_dot_n": float(report.residual_dot_n())})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trimirror", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override the length tolerance eps_len (default 1e-9)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="canonical class of a motion")
    p.add_argument("--input", default="-", help="motion JSON file, or - for stdin")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compose", help="affine form of a motion")
    p.add_argument("--input", default="-", help="motion JSON file, or - for stdin")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("triples", help="mirror sequences carrying one triple onto another")
    p.add_argument("--src", required=True, help="source triple JSON file")
    p.add_argument("--dst", required=True, help="destination triple JSON file")
    p.set_defaults(func=cmd_triples)

    p = sub.add_parser("iterate", help="tabulate an orbit of a motion")
    p.add_argument("--input", default="-", help="motion JSON file, or - for stdin")
    p.add_argument("--start", required=True, help="start point as 'x,y,z'")
    p.add_argument("--count", type=int, default=DEFAULT_ITERATES, help="number of applications")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("example", help="worked composite-motion report")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args.tol = DEFAULT_TOL if args.tol is None else Tolerance(eps_len=args.tol)
        return args.func(args)
    except GeometryError as exc:  # a violated geometric precondition
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a SpecError, a bad --tol, or input beyond the float range
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
