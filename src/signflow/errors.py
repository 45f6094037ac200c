"""Exception hierarchy shared across the package.

Domain failures (bad data, bad shapes) raise subclasses of SignflowError and
map to exit code 1 at the CLI; flag/usage problems raise UsageError and map
to exit code 2.
"""


class SignflowError(Exception):
    """Base class for all domain errors."""


class DimensionError(SignflowError):
    """Tensor shape mismatch; message names the offending shapes."""


class ConfigError(SignflowError):
    """Invalid configuration value or combination."""


class UsageError(SignflowError):
    """API or CLI misuse (wrong call order, missing required flags)."""


class InputError(SignflowError):
    """Invalid runtime input value (e.g. empty video, label out of range)."""


class ParseError(SignflowError):
    """Malformed on-disk artifact; message carries file and line context."""


class GlossLookupError(SignflowError):
    """Gloss id not resolvable in the lexicon."""


class FrameIOError(SignflowError):
    """Frame file unreadable or unwritable; message carries the path."""

    @classmethod
    def of(cls, path, exc: OSError) -> "FrameIOError":
        """An OS fault on ``path``, read one way: the path, then the OS's
        reason (``strerror``, which does not repeat the path)."""
        return cls(f"{path}: {exc.strerror or exc}")


class NumericError(SignflowError):
    """Non-finite value encountered where finite math is required."""
