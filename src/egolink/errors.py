"""Exception types shared across the package, and the rule that names a
config key in a ConfigError."""


class ParseError(ValueError):
    """A malformed line in an edge-list input."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ConfigError(ValueError):
    """Invalid option, policy, or generator parameter."""


def check_key(key, check, *args):
    """``check(*args)`` with ``key`` named in its ConfigError, unless the
    check names it itself, as the count rule does."""
    try:
        return check(*args)
    except ConfigError as exc:
        if str(exc).startswith(f"{key}: "):
            raise
        raise ConfigError(f"{key}: {exc}") from None


class PreconditionError(ValueError):
    """An operation was called on arguments outside its contract."""


class EmptyInputError(ValueError):
    """An operation that needs data received none."""


class EmptyResultError(RuntimeError):
    """A pipeline produced no usable cells; carries diagnostic counts."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
