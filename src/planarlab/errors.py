"""Exception types raised across the package."""

from __future__ import annotations


class PlanarLabError(Exception):
    """Base class for all planarlab errors."""


class InvalidArgumentError(PlanarLabError, ValueError):
    """An argument is out of its domain (a count, a size, a method name)."""


# -- graph construction / encoding ------------------------------------------


class GraphInputError(PlanarLabError):
    """Invalid raw input while building a graph."""


class LoopEdgeError(GraphInputError):
    """An edge (i, i) was supplied."""


class DuplicateEdgeError(GraphInputError):
    """The same unordered pair was supplied twice."""


class VertexOutOfRangeError(GraphInputError):
    """An endpoint lies outside {1..n}, or n itself is non-positive."""


class MalformedEncodingError(PlanarLabError):
    """A graph encoding string does not follow the n:HEX format."""


class NotPlanarInputError(PlanarLabError):
    """An operation defined only on planar graphs received a non-planar one."""


# -- patterns ----------------------------------------------------------------


class PatternError(PlanarLabError):
    """Invalid fixed pattern."""


class DisconnectedPatternError(PatternError):
    pass


class NonplanarPatternError(PatternError):
    pass


class PatternTooLargeError(PatternError):
    """Pattern order exceeds what the operation supports."""


class PatternNotTwoEdgeConnectedError(PatternError):
    pass


# -- census / persistence ----------------------------------------------------


class ResourceLimitError(PlanarLabError):
    """A configured search-node budget was exceeded."""


class CensusError(PlanarLabError):
    pass


class IoFailureError(CensusError):
    """Underlying file I/O failed or the file structure is unusable."""


class ChecksumMismatchError(CensusError):
    """Census payload does not match its checksum line (or the line is missing)."""


class VersionUnsupportedError(CensusError):
    """Census header names a format version this build does not read."""


class CensusMissingError(CensusError):
    """No stored record (with graphs, where required) for the requested class."""


# -- sampling / verification -------------------------------------------------


class EmptyClassError(PlanarLabError):
    """The requested class contains no graphs."""


class EmptyClassBoundError(EmptyClassError):
    """The requested (n, m) violates the planar edge bound, so the class is empty."""


class NotTriangulationError(PlanarLabError):
    """A triangulation-only check was applied to a non-triangulation."""
