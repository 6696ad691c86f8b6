"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: InputError -> 1, DomainError -> 2,
ResourceLimitError -> 3.
"""


class InputError(ValueError):
    """Malformed input: bad vertices, faces outside the complex, parse errors."""


class DomainError(Exception):
    """A mathematical precondition fails (non-APC, non-shifted, disconnected...)."""


class ResourceLimitError(Exception):
    """A budget was exceeded: the oracle's subset count (trees.SUBSET_CAP),
    the symbolic-determinant size (weighted.DET_SIZE_CAP), the face budget
    (complexes.FACE_CAP), the Laurent product budget (laurent.PRODUCT_PAIR_CAP)
    or a 64-bit exponent range. Each message names its budget; the oracle's
    gives its count as comb(f_k, size), whose value can pass str()'s limit."""


class ExactnessError(ArithmeticError):
    """An operation that must be exact (division, integrality assert) was not."""


def _require(cond, message: str) -> None:
    """Raise ExactnessError unless an exactness invariant holds (a bare assert
    would vanish under python -O)."""
    if not cond:
        raise ExactnessError(message)
