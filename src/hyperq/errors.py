"""Exception hierarchy shared by all hyperq modules."""


class HyperqError(Exception):
    """Base class for all hyperq errors."""


class EdgeArityError(HyperqError, ValueError):
    """An edge does not consist of exactly r distinct vertices."""


class VertexOutOfRangeError(HyperqError, ValueError):
    """A vertex id lies outside [0, n)."""


class DuplicateEdgeError(HyperqError, ValueError):
    """The same edge (as a vertex set) appears more than once."""


class ArgumentRangeError(HyperqError, ValueError):
    """A numeric argument lies outside its admissible range."""


class EmptyVertexSetError(HyperqError, ValueError):
    """An operation requiring at least one vertex got an empty hypergraph."""


class FormatError(HyperqError, ValueError):
    """Malformed hypergraph text (bad header or wrong token count)."""


class DimensionMismatchError(HyperqError, ValueError):
    """A weight vector's length does not match the vertex count."""


class NotNormalizedError(HyperqError, ValueError):
    """A weight vector required to have unit r-norm does not."""


class NegativeEntryError(HyperqError, ValueError):
    """A weight vector required to be nonnegative has a negative entry."""


class UniformityMismatchError(HyperqError, ValueError):
    """Host and pattern hypergraphs have different uniformity."""


class DisconnectedError(HyperqError, ValueError):
    """An operation requiring a connected hypergraph got a disconnected one."""


class TooSmallError(HyperqError, ValueError):
    """The hypergraph has too few edges for the requested check."""


class NoConvergenceError(HyperqError, RuntimeError):
    """An iterative search exhausted its budget without converging."""
