"""Exception types shared across the package."""


class ZdinftyError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ZdinftyError):
    """Vector or matrix dimensions are inconsistent."""


class NotFullRank(ZdinftyError):
    """Generator directions do not span the ambient space."""


class FieldMismatch(ZdinftyError):
    """Operands live over different base fields."""


class ComposabilityError(ZdinftyError):
    """Attempted to compose maps whose endpoints do not match."""


class ShapeMismatch(ZdinftyError):
    """A map or class does not have the endpoints an operation requires."""


class NotIndecomposable(ZdinftyError):
    """Operation requires an indecomposable object."""


class DecompositionFailure(ZdinftyError):
    """No splitting was found for a decomposable object; indicates a bug."""


class UnrecognizedShape(ZdinftyError):
    """An indecomposable does not match any classified label."""


class WindowTooSmall(ZdinftyError):
    """Requested quiver window cannot contain a full mesh."""


class WitnessNotFound(ZdinftyError):
    """An extension space that Serre duality makes nonzero came out zero (a bug signal)."""


class NotLatticeMorphism(ZdinftyError):
    """Operation requires a morphism between torsion-free objects."""


class ParseError(ZdinftyError):
    """Object expression could not be parsed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message, self.position = message, position


class RangeError(ZdinftyError):
    """A numeric parameter is outside its allowed range."""
