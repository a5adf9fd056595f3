"""Exception taxonomy for the pause-and-resume workbench.

The CLI maps these onto exit codes: parameter/regime problems exit 2,
input-data problems exit 3.
"""

from __future__ import annotations


class OprError(Exception):
    """Base class for all workbench errors."""


class ParameterError(OprError, ValueError):
    """Invalid numeric parameters (bounds, counts, grids)."""


class RegimeError(ParameterError):
    """Parameters outside the regime where the quantity is defined,
    e.g. a switching cost too large for the variant's guarantees."""


class StructuralError(OprError, ValueError):
    """Malformed inputs: length mismatches, empty sequences."""


class FeasibilityError(OprError):
    """A schedule does not satisfy the exactly-k-acceptances constraint."""


class ProtocolError(OprError):
    """Online-player protocol violation: stepping an exhausted player,
    stepping past the horizon, or a player that fails to fill its units."""


class DegenerateProfitError(OprError):
    """Maximization profit is nonpositive, so the competitive ratio is undefined."""


class TraceError(OprError, ValueError):
    """Trace file cannot be parsed or violates dataset invariants."""
