"""Exception types shared across the package."""


class ShapeError(ValueError):
    """An argument has the wrong length, shape, or index range."""


class ZeroCodeError(ValueError):
    """A construction would produce a code of dimension zero."""


class CapacityError(RuntimeError):
    """An exact brute-force computation would exceed the enumeration caps.

    Raised instead of silently degrading to an estimate; callers that can
    live with a bound must opt in explicitly.
    """


class InvariantError(RuntimeError):
    """A fact the analysis proves for every word failed to hold.

    This signals a fault in the implementation, not in its input.
    """
