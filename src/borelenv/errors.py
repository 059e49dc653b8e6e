"""Exception types shared across the package."""


class BorelenvError(Exception):
    """Base class for all package errors."""


class InvalidInput(BorelenvError, ValueError):
    """Malformed or mismatched input: wrong shape, mixed fields, bad JSON."""


class NotInvertible(BorelenvError):
    """A square matrix required to be invertible is singular."""


class ResourceGuard(BorelenvError):
    """An operation was asked for a size beyond its hard enumeration guard."""


class ContractViolation(BorelenvError):
    """An internal postcondition failed; indicates a bug, never bad input."""


class UlpInfeasible(BorelenvError):
    """No upper*lower*permutation factorization exists with the requested
    unipotent normalization.

    Only the unipotent-upper normalization can be infeasible, and only for
    singular inputs; the unipotent-lower normalization always exists.
    """
