"""Exception types shared across the package."""

__all__ = ["DomainError", "SingularMomentumError", "DegenerateMomentaError",
           "CapExceededError", "SectorMismatchError"]


class DomainError(ValueError):
    """Momenta left the phase's certified branch domain, or a value overflows a double or int64."""


class SingularMomentumError(ValueError):
    """A unit-circle eigenvalue factor was evaluated too close to its pole at z = 1."""


class DegenerateMomentaError(ValueError):
    """Momenta collide within the distinctness tolerance (the predicted vector vanishes)."""


class CapExceededError(RuntimeError):
    """The memory budget that the dense cap sets would be exceeded."""


class SectorMismatchError(ValueError):
    """Operands belong to different sectors or incompatible basis orderings."""
