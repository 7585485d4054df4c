"""Rigid motions of 3-space built from plane reflections and sorted into
their canonical forms."""

from .errors import (
    CoincidentPoints,
    CollinearPoints,
    DegenerateSource,
    GeometryError,
    InvalidClassParameters,
    NotAFixedPoint,
    NotCongruent,
    ParallelDistinctMirrors,
    ParallelPlanes,
)
from .geom import (
    DEFAULT_TOL,
    Line3,
    Plane,
    PointTriple,
    Tolerance,
    Vec3,
    as_vec3,
    collinear,
    coplanar,
    intersect_planes,
    lines_equal,
    midpoint,
    perpendicular_bisector_plane,
    plane_through_points,
    planes_equal,
    point_on_plane,
    points_coincide,
    reflect_point,
    vec3,
)
from .motion import (
    PROBE_POINTS,
    AffineIsometry,
    Motion,
    OrientationParity,
    ReflectionSequence,
    apply,
    identity,
    iso_equal,
    orientation,
    plane_reflection,
    rotation_about_axis,
    rotation_about_line,
    seq_to_affine,
    then,
    translation,
)
from .construct import TriplePair, congruent_triples, second_motion, three_reflections
from .classify import (
    GlideReflection,
    Identity,
    Inversion,
    MotionClass,
    Reflection,
    Rotation,
    RotaryReflection,
    Screw,
    Translation,
    classify,
    classify_fixed_point,
    reconstruct,
    rotation_from_plane_pair,
    split_translation,
)
from .example import ExampleReport, analyze, iterate, make_f, make_g, make_h, make_k

__version__ = "0.1.0"
