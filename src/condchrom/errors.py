"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A family/operation parameter is outside its valid range."""


class InputError(ValueError):
    """Malformed or inconsistent user input (files, colorings, vertex ids)."""


class UnsupportedCaseError(ValueError):
    """The requested (family, r) pair falls outside every closed-form case."""


class PreconditionError(RuntimeError):
    """A stated precondition of a theorem-level operation does not hold."""


def check_level(r: int) -> None:
    """Raise ParameterError unless the level r is at least 1."""
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
