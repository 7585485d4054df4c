"""Exception types raised by the geometric routines.

Everything derives from GeometryError (itself a ValueError) so callers can
catch the whole family or plain ValueError without caring which stage failed.
"""


class GeometryError(ValueError):
    """Base class for every geometric precondition failure."""


class CoincidentPoints(GeometryError):
    """Two points expected to be distinct agree within tolerance."""


class CollinearPoints(GeometryError):
    """Three points expected to span a plane sit on a common line."""


class ParallelPlanes(GeometryError):
    """Two planes expected to meet in a line are parallel."""


class DegenerateSource(GeometryError):
    """A source triple is too close to collinear to anchor a construction."""


class NotCongruent(GeometryError):
    """Source and destination triples have mismatched pairwise distances."""


class NotAFixedPoint(GeometryError):
    """The supplied point is moved by the motion it was claimed to anchor."""


class ParallelDistinctMirrors(GeometryError):
    """Two mirror planes are parallel but not equal; their product is not a rotation."""


class InvalidClassParameters(GeometryError):
    """A canonical-form record violates the invariants of its own class."""
