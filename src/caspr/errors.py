"""Exception hierarchy shared by all caspr modules.

Every error carries an ``exit_code`` so the CLI can map failures to
distinct process exit statuses without inspecting types twice.
"""
import contextlib
import typing


def _rebuild(cls, args, state):
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


class CasprError(Exception):
    """Base class for all caspr failures."""

    exit_code = 1

    def __reduce__(self):
        # Rebuild without calling __init__, whose signature varies by
        # subclass, so every error survives a pipe from a worker process.
        return _rebuild, (type(self), self.args, self.__dict__)


class ParseError(CasprError):
    """A raw input row could not be parsed against the schema."""

    exit_code = 2

    def __init__(self, message, row_index=None):
        if row_index is not None:
            message = f"row {row_index}: {message}"
        super().__init__(message)
        self.row_index = row_index


class EmptyDataset(CasprError):
    exit_code = 2


class SchemaMismatch(CasprError):
    exit_code = 3


class ShapeMismatch(CasprError):
    exit_code = 3

    def __init__(self, op, shape_a, shape_b):
        super().__init__(f"{op}: incompatible shapes {tuple(shape_a)} and {tuple(shape_b)}")
        self.shapes = (tuple(shape_a), tuple(shape_b))


class NumericError(CasprError):
    exit_code = 4


class DivergenceError(NumericError):
    """Training loss became non-finite; carries the last good checkpoint."""

    def __init__(self, message, checkpoint=None):
        super().__init__(message)
        self.checkpoint = checkpoint


class ContractViolation(CasprError):
    exit_code = 1


class ConfigError(CasprError):
    exit_code = 1


class IoError(CasprError):
    exit_code = 5


class BadMagic(IoError):
    pass


class VersionMismatch(IoError):
    pass


class TruncatedFile(IoError):
    pass


class CorruptFile(IoError):
    """A file has the right framing but malformed content."""


class LabelError(CasprError):
    exit_code = 1


class CaseError(CasprError):
    exit_code = 1


@contextlib.contextmanager
def too_large(what):
    """A ConfigError naming `what` where numpy refuses a size past int64, the address space or memory."""
    try:
        yield
    except (ValueError, OverflowError, MemoryError) as exc:
        raise ConfigError(f"{what} is too large: {exc}") from None


def check_field_types(config):
    """A ConfigError for the first field of dataclass `config` whose value has the wrong type.

    An int field takes no bool, and a float field also takes an int.
    """
    for name, want in typing.get_type_hints(type(config)).items():
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else want):
            raise ConfigError(f"field {name!r} must be {want.__name__}, got {type(value).__name__}")
