"""Exception types shared across the library."""


class UavbcError(Exception):
    """Base class for all uavbc errors."""


class InvalidParams(UavbcError, ValueError):
    """A physical parameter is out of range. Carries the offending field name."""

    def __init__(self, field, message=None):
        self.field = field
        super().__init__(message or f"invalid value for parameter {field!r}")


class PowerBudgetExceeded(UavbcError, ValueError):
    """Requested transmit powers violate the per-instant power budget."""


class TimeOutOfRange(UavbcError, ValueError):
    """Time instant outside the flight duration [0, T]."""


class ZeroSpeedLeg(UavbcError, ValueError):
    """A flight leg of nonzero length was requested with V = 0."""


class DegenerateLocations(UavbcError, ValueError):
    """Two hover locations coincide where distinct ones are required."""


class InvalidTrajectory(UavbcError, ValueError):
    """Hover-fly-hover inputs that no trajectory realizes.

    Raised by `make_hfh` for hover locations outside [-D/2, D/2] or out of
    order, distinct locations with V = 0, and hover times that do not fit T.
    """


class InfeasibleFlight(UavbcError, ValueError):
    """The UAV cannot traverse the inter-user distance within the flight time."""


class DiscretizationInvalid(UavbcError, ValueError):
    """A discretized trajectory violates speed, span or duration constraints."""


class GridTooCoarse(UavbcError, ValueError):
    """DP grid that the oracle cannot represent.

    Raised for fewer than 2 slots, 3 positions or 2 user-1 rate bins, for a
    negative mu_steps, for a position spacing wider than the per-slot motion
    budget, and for a per-slot motion of more than 127 grid steps: the
    motion stage makes 2m + 2 passes over the values for m steps a slot, so
    a coarse time grid calls for more slots, not a longer motion loop.
    """


class NoSignChange(UavbcError, RuntimeError):
    """Numeric intersection search found no sign change (uniqueness violated)."""


class ValidityError(UavbcError, ValueError):
    """Asymptotic formula requested far outside its validity regime."""
