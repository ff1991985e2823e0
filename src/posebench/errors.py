"""Exception types and the value checks shared across the package."""


class PosebenchError(Exception):
    """Base class for all errors raised by this package; raised itself, a runtime or program fault (CLI exit code 3)."""


class ValidationError(PosebenchError):
    """Invalid input data or arguments (maps to CLI exit code 2)."""


class InputError(ValidationError):
    """A data error of whole inputs, named by their roles ("train", "test", "origin"); the CLI names their files."""

    def __init__(self, message: str, *roles: str):
        super().__init__(message)
        self.roles = roles


def check_int(name: str, value, minimum: int = 0):
    """Raise unless value is a JSON integer (an int, never a bool or a float) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def json_error(exc: Exception) -> str:
    """What json.loads reported: its message, or that the nesting ran past the recursion limit."""
    return "nesting too deep" if isinstance(exc, RecursionError) else getattr(exc, "msg", str(exc))


def is_number(value) -> bool:
    """A JSON number: an int or a float, never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)
