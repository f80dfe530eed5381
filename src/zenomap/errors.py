"""Exception types shared across the package."""


class ZenomapError(Exception):
    """Base class for all package-specific errors."""


class TruncationOverflowError(ZenomapError, RuntimeError):
    """Probability has come within one kick of the truncated window's edge.

    Results past this point could silently lose norm, so the offending kick
    aborts before it runs. ``edge`` is ``"lower"``, ``"upper"`` or
    ``"both"``; ``occupation`` is the total probability within the kernel
    bandwidth of the window edges before the kick, which bounds the norm the
    kick could carry out of the window.
    """

    def __init__(self, message: str, edge: str = "", occupation: float = 0.0):
        super().__init__(message)
        self.edge = edge
        self.occupation = occupation


class NormDriftError(ZenomapError, ValueError):
    """A per-kick norm record deviates from 1 beyond tolerance.

    A numerical failure like :class:`TruncationOverflowError`; it subclasses
    ``ValueError`` because it is raised while a series is validated.
    """


class NonFiniteError(ZenomapError, ValueError):
    """A per-kick series column holds nan or inf, for example after an overflow.

    A numerical failure like :class:`NormDriftError`, raised while a series
    is validated; the message names the column.
    """


class NoLocalizationError(ZenomapError, RuntimeError):
    """An occupation profile has no decaying exponential envelope.

    Raised by the localization-length fit when the log-profile slope is
    non-negative, which is the expected outcome for delocalized states
    (for example under frequent full measurement).
    """


class ConfigError(ZenomapError, ValueError):
    """A run configuration is malformed or violates a constraint; ``message``
    is the text without the key and line that ``str()`` adds."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        detail = message
        if key is not None and line is not None:
            detail = f"{message} (key '{key}', line {line})"
        elif key is not None:
            detail = f"{message} (key '{key}')"
        elif line is not None:
            detail = f"{message} (line {line})"
        super().__init__(detail)
        self.message = message
        self.key = key
        self.line = line
