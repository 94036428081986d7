"""Exception hierarchy shared by all cylpc modules.

The CLI maps these onto process exit codes: invalid parameters,
out-of-range data and a missing optional dependency exit 2, unreadable
or malformed input files exit 3, and undecodable bitstreams exit 4.
"""


class CylpcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(CylpcError, ValueError):
    """Input data violates a documented precondition (empty cloud, NaN, ...)."""


class InvalidConfigError(CylpcError, ValueError):
    """Configuration parameters are inconsistent (qstep <= 0, r_min >= R, ...)."""


class OutOfRangeError(InvalidInputError):
    """A point falls outside the voxel grid it is being binned into."""


class MissingDependencyError(CylpcError, ImportError):
    """An optional package that one command needs is not installed (scipy)."""


class MalformedFileError(CylpcError):
    """An input file does not follow its declared format."""


class CorruptStreamError(CylpcError):
    """A serialized stream cannot be decoded.

    ``offset`` is the position (bytes for container/occupancy sections,
    bits for entropy-coded payloads, as stated in the message) where
    decoding failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset
