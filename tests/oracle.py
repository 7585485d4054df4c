"""Independent checking machinery for the test suite.

`spectral_classify` re-derives the canonical form of a motion from the
eigenstructure of its linear part (trace for the angle, SVD null spaces for
axis and mirror directions, linear solves for fixed points).  It shares no
code with the library's closed-form classifier beyond the parameter record
types, so agreement between the two is meaningful.

`walk_three_reflections` is the mirror construction as the library wrote it
before its kernels took checked vectors: every stage goes through the public
geom functions, which validate each argument again.  The library's
`three_reflections` must return the same planes bit for bit.

`probe_classify_fixed_point` is the probe walk the library's fixed-point
classifier used before it read the class off the linear part: it moves a
frame of points near the fixed point and reads the axis and mirror from
their displacements and midpoints.  It uses only the public API, so it
checks the library's kernel by a second, independent route.

`numpy_linear_kernel`, `numpy_relocate_axis`, `numpy_rotation_parts` and
`numpy_validate` are the classify and motion kernels as the library wrote
them on numpy arrays, before they moved to Python floats.  The library's
kernels must give the same classes and verdicts, and parameters equal to
rounding.

The module also carries random generators for motions and canonical
records, and tolerant comparison helpers for the geometric parameter types.
"""

from __future__ import annotations

import numpy as np

from trimirror import (
    AffineIsometry,
    DegenerateSource,
    GlideReflection,
    Identity,
    Inversion,
    Line3,
    NotAFixedPoint,
    NotCongruent,
    OrientationParity,
    Plane,
    PointTriple,
    ProbeExhausted,
    ReflectionSequence,
    Reflection,
    Rotation,
    RotaryReflection,
    Screw,
    Tolerance,
    Translation,
    apply,
    collinear,
    congruent_triples,
    find_probe,
    identity,
    iso_equal,
    orientation,
    perpendicular_bisector_plane,
    plane_reflection,
    plane_through_points,
    points_coincide,
    reflect_point,
    rotation_about_axis,
    seq_to_affine,
    then,
    translation,
)

from trimirror.motion import _mgs

TOL = Tolerance()


def _unit_null_vector(m: np.ndarray) -> np.ndarray:
    """Unit vector spanning the (assumed one-dimensional) null space of m."""
    _, _, vh = np.linalg.svd(m)
    v = vh[-1]
    for comp in v:
        if abs(comp) > 1e-12:
            return v if comp > 0 else -v
    return v


def _skew_vee(m: np.ndarray) -> np.ndarray:
    s = 0.5 * (m - m.T)
    return np.array([s[2, 1], s[0, 2], s[1, 0]])


def spectral_classify(motion: AffineIsometry, tol: Tolerance = TOL):
    """Canonical form via eigenstructure; mirrors the library's thresholds.

    Signed angles come from atan2 of the skew part against the trace, which
    stays accurate where arccos of the trace alone would lose half the
    significant digits near 0 and pi.
    """
    l, t = np.asarray(motion.linear), np.asarray(motion.translation)
    det = float(np.linalg.det(l))

    if det > 0.0:
        # near the identity the null-space direction is arbitrary, but then
        # the angle comes out below threshold and the direction is unused
        d = _unit_null_vector(l - np.eye(3))
        cos = float(np.clip((np.trace(l) - 1.0) / 2.0, -1.0, 1.0))
        sin = float(_skew_vee(l) @ d)
        angle = float(np.arctan2(sin, cos))
        if angle <= -np.pi:
            angle = np.pi
        if abs(angle) <= tol.eps_angle:
            if float(np.linalg.norm(t)) <= tol.eps_len:
                return Identity()
            return Translation(v=t)
        slide = (t @ d) * d
        across = t - slide
        # minimum-norm solution of (L - I) x = -across is the axis foot
        foot, *_ = np.linalg.lstsq(l - np.eye(3), -across, rcond=None)
        axis = Line3(foot, d)
        if float(np.linalg.norm(slide)) <= tol.eps_len:
            return Rotation(axis=axis, angle=angle)
        return Screw(axis=axis, angle=angle, slide=slide)

    # improper: trace = -1 + 2 cos(angle); the normal is arbitrary near an
    # inversion, where every direction is a -1 eigenvector and any choice
    # describes the same motion
    n = _unit_null_vector(l + np.eye(3))
    cos = float(np.clip((np.trace(l) + 1.0) / 2.0, -1.0, 1.0))
    rotation_part = l @ (np.eye(3) - 2.0 * np.outer(n, n))
    sin = float(_skew_vee(rotation_part) @ n)
    angle = float(np.arctan2(sin, cos))
    if abs(abs(angle) - np.pi) <= tol.eps_angle:
        center = np.linalg.solve(l - np.eye(3), -t)
        return Inversion(center=center)
    if abs(angle) <= tol.eps_angle:
        along = (t @ n) * n
        slide = t - along
        mirror = Plane(n, 0.5 * float(t @ n))
        if float(np.linalg.norm(slide)) <= tol.eps_len:
            return Reflection(mirror=mirror)
        return GlideReflection(mirror=mirror, slide=slide)
    center = np.linalg.solve(l - np.eye(3), -t)
    mirror = Plane(n, float(n @ center))
    return RotaryReflection(mirror=mirror, center=center, angle=angle)


# ---------------------------------------------------------------- mirror walk


def walk_three_reflections(pair, tol: Tolerance = TOL):
    """three_reflections through the public functions, plane by plane.

    Returns the mirror sequence and the branch taken at each stage: "moved"
    (a bisector plane), "fixed" (the point was already in place) or, for B,
    "on_line" (B in place and C on line A'B', so the source plane is reused).
    """
    a, b, c = pair.src.points()
    a2, b2, c2 = pair.dst
    if collinear(a, b, c, tol):
        raise DegenerateSource("source triple is collinear at this tolerance")
    if not congruent_triples(pair.src, pair.dst, tol):
        raise NotCongruent("triples are not congruent at this tolerance")
    if points_coincide(a, a2, tol):
        alpha, path = plane_through_points(a, b, c, tol), ("fixed",)
    else:
        alpha, path = perpendicular_bisector_plane(a, a2, tol), ("moved",)
    b_stage = reflect_point(alpha, b)
    if points_coincide(b_stage, b2, tol):
        if collinear(a2, b2, c, tol):
            beta, path = plane_through_points(a, b, c, tol), path + ("on_line",)
        else:
            beta, path = plane_through_points(a2, b2, c, tol), path + ("fixed",)
    else:
        beta, path = perpendicular_bisector_plane(b_stage, b2, tol), path + ("moved",)
    c_stage = reflect_point(beta, reflect_point(alpha, c))
    if points_coincide(c_stage, c2, tol):
        gamma, path = plane_through_points(a2, b2, c2, tol), path + ("fixed",)
    else:
        gamma, path = perpendicular_bisector_plane(c_stage, c2, tol), path + ("moved",)
    return ReflectionSequence((alpha, beta, gamma)), path


# ---------------------------------------------------------------- probe walk

_PROBE_DIRECTIONS = tuple(
    np.array(w, dtype=float)
    for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1))
)


def _wrap_angle(angle: float) -> float:
    """Wrap into (-pi, pi], sending the seam to +pi."""
    wrapped = float(np.arctan2(np.sin(angle), np.cos(angle)))
    return np.pi if wrapped <= -np.pi else wrapped


def _probe_angle(linear: np.ndarray, direction: np.ndarray) -> float:
    cos = float(np.clip((np.trace(linear) - 1.0) / 2.0, -1.0, 1.0))
    return _wrap_angle(float(np.arctan2(float(_skew_vee(linear) @ direction), cos)))


def _widest_cross(directions: list) -> np.ndarray | None:
    """Unit cross product of the best-separated pair among unit `directions`."""
    best, best_norm = None, 0.0
    for i in range(len(directions)):
        for j in range(i + 1, len(directions)):
            n = np.cross(directions[i], directions[j])
            size = float(np.linalg.norm(n))
            if size > best_norm:
                best, best_norm = n, size
    if best is None or best_norm <= 1e-12:
        return None
    return best / best_norm


def _probe_offsets(motion, c: np.ndarray, s: float, midpoints: bool) -> list:
    """Unit directions of the probe displacements X -> m(X), or of the
    midpoint offsets (X + m(X))/2 - c, for the probes X = c + s*w."""
    directions = []
    for w in _PROBE_DIRECTIONS:
        x = c + s * w
        image = apply(motion, x)
        offset = 0.5 * (x + image) - c if midpoints else image - x
        length = float(np.linalg.norm(offset))
        if length > 1e-10 * s:
            directions.append(offset / length)
    return directions


def probe_classify_fixed_point(motion, c, tol: Tolerance = TOL):
    """Canonical form of a motion fixing c, from probe points alone.

    Every displacement of a proper motion fixing c is perpendicular to its
    axis, so the cross product of two well-separated displacements is the
    axis.  For an improper one the midpoint of X and m(X) lies on the mirror
    of its reflection factor, so midpoint offsets span the mirror; dividing
    the mirror out leaves a rotation about the mirror normal, classified by
    the same walk.
    """
    c = np.asarray(c, dtype=float)
    if not points_coincide(apply(motion, c), c, tol):
        raise NotAFixedPoint("the supplied point is moved by the motion")
    if iso_equal(motion, identity(), tol):
        return Identity()
    s = max(1.0, float(np.linalg.norm(c)))
    if all(points_coincide(apply(motion, c + s * e), c - s * e, tol) for e in np.eye(3)):
        return Inversion(center=c)

    if orientation(motion) is OrientationParity.PROPER:
        direction = _widest_cross(_probe_offsets(motion, c, s, midpoints=False))
        if direction is None:
            raise ProbeExhausted("probe displacements do not isolate a rotation axis")
        axis = Line3(c, direction)
        angle = _probe_angle(np.asarray(motion.linear), axis.direction)
        if abs(angle) <= tol.eps_angle:
            return Identity()
        return Rotation(axis=axis, angle=angle)

    witness = find_probe(motion, c, tol)
    if witness.case_tag == "half-turn":
        return Reflection(mirror=perpendicular_bisector_plane(witness.a, witness.b, tol))
    normal = _widest_cross(_probe_offsets(motion, c, s, midpoints=True))
    if normal is None:
        raise ProbeExhausted("midpoint offsets do not span a mirror plane")
    mirror = Plane(normal, float(normal @ c))
    residue = probe_classify_fixed_point(then(motion, plane_reflection(mirror)), c, tol)
    if isinstance(residue, Identity):
        return Reflection(mirror=mirror)
    sign = 1.0 if float(residue.axis.direction @ mirror.normal) >= 0.0 else -1.0
    angle = _wrap_angle(sign * residue.angle)
    if abs(angle) <= tol.eps_angle:
        return Reflection(mirror=mirror)
    if abs(abs(angle) - np.pi) <= tol.eps_angle:
        return Inversion(center=c)
    return RotaryReflection(mirror=mirror, center=c, angle=angle)


# ---------------------------------------------------------------- numpy kernels


def _numpy_rotation_axis(r: np.ndarray) -> np.ndarray:
    cos = (float(np.trace(r)) - 1.0) / 2.0
    skew = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if cos > 0.0:
        axis = skew
    else:
        sym = 0.5 * (r + r.T) - cos * np.eye(3)
        axis = sym[:, int(np.argmax(np.diag(sym)))]
        if float(axis @ skew) < 0.0:
            axis = -axis
    length = float(np.linalg.norm(axis))
    if length == 0.0:
        return axis
    axis = axis / length
    for comp in axis:
        if abs(comp) > 1e-12:
            return axis if comp > 0.0 else -axis
    return axis


def numpy_linear_kernel(linear: np.ndarray, tol: Tolerance = TOL):
    """(class, unit axis or mirror normal or None, angle) of a linear part."""
    eye = np.eye(3)
    if float(np.max(np.linalg.norm(linear - eye, axis=0))) <= tol.eps_len:
        return Identity, None, 0.0
    if float(np.max(np.linalg.norm(linear + eye, axis=0))) <= tol.eps_len:
        return Inversion, None, 0.0
    proper = float(np.linalg.det(linear)) > 0.0
    r = linear if proper else -linear
    direction = _numpy_rotation_axis(r)
    angle = _probe_angle(r, direction)
    if proper:
        if abs(angle) <= tol.eps_angle:
            return Identity, None, 0.0
        return Rotation, direction, angle
    angle = _wrap_angle(angle - np.pi)
    if abs(angle) <= tol.eps_angle:
        return Reflection, direction, 0.0
    if abs(abs(angle) - np.pi) <= tol.eps_angle:
        return Inversion, None, 0.0
    return RotaryReflection, direction, angle


def numpy_relocate_axis(linear: np.ndarray, v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Point x perpendicular to d with (I - linear) x = v, by a 2x2 solve."""
    seed = np.eye(3)[int(np.argmin(np.abs(d)))]
    p = np.cross(d, seed)
    p = p / np.linalg.norm(p)
    q = np.cross(d, p)
    shifted = np.eye(3) - linear
    system = np.array([[p @ shifted @ p, p @ shifted @ q], [q @ shifted @ p, q @ shifted @ q]])
    coeffs = np.linalg.solve(system, np.array([p @ v, q @ v]))
    return coeffs[0] * p + coeffs[1] * q


def numpy_rotation_parts(point, direction, angle: float):
    """Linear part and translation of the rotation, as I + sin K + (1 - cos) K^2."""
    d = np.array(direction, dtype=float)
    d = d / np.linalg.norm(d)
    k = np.array([[0.0, -d[2], d[1]], [d[2], 0.0, -d[0]], [-d[1], d[0], 0.0]])
    r = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    p = np.array(point, dtype=float)
    return r, p - r @ p


def numpy_validate(linear) -> np.ndarray:
    """The linear part AffineIsometry stores, or its ValueError."""
    l = np.array(linear, dtype=float)
    if l.shape != (3, 3) or not np.isfinite(l).all():
        raise ValueError("linear part must be a finite 3x3 matrix")
    residual = float(np.abs(l.T @ l - np.eye(3)).max())
    if residual > 1e-6:
        raise ValueError(f"linear part is not orthogonal (residual {residual:.3e})")
    if residual > 1e-10:
        l = _mgs(l)
    if abs(abs(float(np.linalg.det(l))) - 1.0) > 1e-10:
        raise ValueError("linear part must have determinant +1 or -1")
    return l


# ---------------------------------------------------------------- generators


def random_point(rng: np.random.Generator, scale: float = 3.0) -> np.ndarray:
    return rng.uniform(-scale, scale, 3)


def random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        length = float(np.linalg.norm(v))
        if length > 1e-3:
            return v / length


def random_plane(rng: np.random.Generator) -> Plane:
    n = random_unit(rng)
    return Plane(n, float(rng.uniform(-3.0, 3.0)))


def random_line(rng: np.random.Generator) -> Line3:
    return Line3(random_point(rng), random_unit(rng))


def random_triple(rng: np.random.Generator) -> PointTriple:
    while True:
        a, b, c = (random_point(rng) for _ in range(3))
        area = float(np.linalg.norm(np.cross(b - a, c - a)))
        if area > 1e-2:
            return PointTriple(a, b, c)


def random_angle(rng: np.random.Generator, lo: float = 1e-3) -> float:
    """Signed angle bounded away from 0 and pi by lo."""
    magnitude = rng.uniform(lo, np.pi - lo)
    return float(magnitude if rng.random() < 0.5 else -magnitude)


def random_motion(rng: np.random.Generator, mirrors: int | None = None) -> AffineIsometry:
    """Product of `mirrors` random reflections (0..4) and a random translation."""
    if mirrors is None:
        mirrors = int(rng.integers(0, 5))
    out = translation(random_point(rng, 2.0))
    for _ in range(mirrors):
        out = then(out, plane_reflection(random_plane(rng)))
    return out


def random_record(rng: np.random.Generator, variant: str):
    """A random canonical record of the named class, safely inside thresholds."""
    if variant == "identity":
        return Identity()
    if variant == "translation":
        v = random_point(rng)
        while float(np.linalg.norm(v)) < 1e-3:
            v = random_point(rng)
        return Translation(v=v)
    if variant == "rotation":
        return Rotation(axis=random_line(rng), angle=random_angle(rng))
    if variant == "screw":
        axis = random_line(rng)
        slide = float(rng.uniform(0.1, 2.0)) * np.asarray(axis.direction)
        if rng.random() < 0.5:
            slide = -slide
        return Screw(axis=axis, angle=random_angle(rng), slide=slide)
    if variant == "reflection":
        return Reflection(mirror=random_plane(rng))
    if variant == "glide_reflection":
        mirror = random_plane(rng)
        seed = random_unit(rng)
        in_plane = np.cross(np.asarray(mirror.normal), seed)
        while float(np.linalg.norm(in_plane)) < 1e-3:
            in_plane = np.cross(np.asarray(mirror.normal), random_unit(rng))
        slide = float(rng.uniform(0.1, 2.0)) * in_plane / float(np.linalg.norm(in_plane))
        return GlideReflection(mirror=mirror, slide=slide)
    if variant == "inversion":
        return Inversion(center=random_point(rng))
    if variant == "rotary_reflection":
        mirror = random_plane(rng)
        n = np.asarray(mirror.normal)
        center = random_point(rng)
        center = center - mirror.signed_distance(center) * n
        return RotaryReflection(mirror=mirror, center=center, angle=random_angle(rng))
    raise ValueError(f"unknown variant {variant!r}")


ALL_VARIANTS = (
    "identity",
    "translation",
    "rotation",
    "screw",
    "reflection",
    "glide_reflection",
    "inversion",
    "rotary_reflection",
)


# ---------------------------------------------------------------- comparisons


def angles_close(a: float, b: float, eps: float = 1e-8) -> bool:
    """Equality of angles modulo 2*pi (so pi and -pi agree)."""
    diff = (a - b + np.pi) % (2.0 * np.pi) - np.pi
    return abs(diff) <= eps


def lines_close(a: Line3, b: Line3, eps: float = 1e-8) -> bool:
    if float(np.linalg.norm(np.cross(a.direction, b.direction))) > eps:
        return False
    return float(np.linalg.norm(np.asarray(a.point) - np.asarray(b.point))) <= eps


def planes_close(a: Plane, b: Plane, eps: float = 1e-8) -> bool:
    if float(np.linalg.norm(np.cross(a.normal, b.normal))) > eps:
        return False
    s = 1.0 if float(a.normal @ b.normal) >= 0.0 else -1.0
    return abs(a.offset - s * b.offset) <= eps


def records_match(a, b, eps: float = 1e-8) -> bool:
    """Same class and same canonical parameters within eps."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Identity):
        return True
    if isinstance(a, Translation):
        return float(np.linalg.norm(a.v - b.v)) <= eps
    if isinstance(a, Rotation):
        if not lines_close(a.axis, b.axis, eps):
            return False
        flip = 1.0 if float(a.axis.direction @ b.axis.direction) >= 0.0 else -1.0
        return angles_close(a.angle, flip * b.angle, eps)
    if isinstance(a, Screw):
        if not lines_close(a.axis, b.axis, eps):
            return False
        flip = 1.0 if float(a.axis.direction @ b.axis.direction) >= 0.0 else -1.0
        return (
            angles_close(a.angle, flip * b.angle, eps)
            and float(np.linalg.norm(a.slide - b.slide)) <= eps
        )
    if isinstance(a, Reflection):
        return planes_close(a.mirror, b.mirror, eps)
    if isinstance(a, GlideReflection):
        return (
            planes_close(a.mirror, b.mirror, eps)
            and float(np.linalg.norm(a.slide - b.slide)) <= eps
        )
    if isinstance(a, Inversion):
        return float(np.linalg.norm(a.center - b.center)) <= eps
    if isinstance(a, RotaryReflection):
        if not planes_close(a.mirror, b.mirror, eps):
            return False
        if float(np.linalg.norm(a.center - b.center)) > eps:
            return False
        flip = 1.0 if float(a.mirror.normal @ b.mirror.normal) >= 0.0 else -1.0
        return angles_close(a.angle, flip * b.angle, eps)
    raise TypeError(f"unsupported record {a!r}")


def plane_bytes(plane: Plane) -> bytes:
    """A plane's normal and offset as bytes, for bit-for-bit comparisons."""
    return plane.normal.tobytes() + np.float64(plane.offset).tobytes()


def sequence_of(rng: np.random.Generator, count: int) -> ReflectionSequence:
    return ReflectionSequence(tuple(random_plane(rng) for _ in range(count)))


def record_motion(record) -> AffineIsometry:
    """Affine form of a record, built independently of reconstruct()."""
    if isinstance(record, Identity):
        return AffineIsometry(np.eye(3), np.zeros(3))
    if isinstance(record, Translation):
        return translation(record.v)
    if isinstance(record, Rotation):
        return rotation_about_axis(record.axis.point, record.axis.direction, record.angle)
    if isinstance(record, Screw):
        turn = rotation_about_axis(record.axis.point, record.axis.direction, record.angle)
        return then(turn, translation(record.slide))
    if isinstance(record, Reflection):
        return plane_reflection(record.mirror)
    if isinstance(record, GlideReflection):
        return then(plane_reflection(record.mirror), translation(record.slide))
    if isinstance(record, Inversion):
        return AffineIsometry(-np.eye(3), 2.0 * np.asarray(record.center))
    if isinstance(record, RotaryReflection):
        turn = rotation_about_axis(record.center, record.mirror.normal, record.angle)
        return then(plane_reflection(record.mirror), turn)
    raise TypeError(f"unsupported record {record!r}")
