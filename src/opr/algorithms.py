"""Online players: one price in, one irrevocable 0/1 decision out.

Every player is a threshold family driven by one state machine; the players
differ only in the per-unit thresholds they consult.  The double-threshold
players compare against the stay rail when the previous price was accepted
and the resume rail otherwise.  The baselines have both rails equal, so
their decisions ignore the previous state: k-search uses the beta = 0
double-threshold rails, the constant rule the single price sqrt(L*U), and
the carbon-agnostic player a rail on the price bound (U for min, L for max)
that accepts every price, so it runs the job in the first k slots.

Every player honors the forced-acceptance rule near the deadline, which is
what makes every run feasible regardless of the price sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import CostBreakdown, Instance, Schedule, Variant, evaluate_schedule
from .errors import ParameterError, ProtocolError
from .thresholds import (
    ThresholdFamily,
    constant_threshold,
    dtpr_max_thresholds,
    dtpr_min_thresholds,
    ksearch_thresholds,
)


class PlayerKind(Enum):
    DTPR_MIN = "dtpr-min"
    DTPR_MAX = "dtpr-max"
    CARBON_AGNOSTIC = "agnostic"
    CONSTANT_THRESHOLD = "const"
    KSEARCH_MIN = "ksearch-min"
    KSEARCH_MAX = "ksearch-max"


_MIN_SIDE = {PlayerKind.DTPR_MIN, PlayerKind.KSEARCH_MIN}
_MAX_SIDE = {PlayerKind.DTPR_MAX, PlayerKind.KSEARCH_MAX}


@dataclass
class PlayerState:
    """Mutable online state: single-use, one logical thread.

    ``i`` is the 1-based index of the next unit to fill; it increments by the
    emitted decision and tops out at k+1 (exhausted).  ``prev_decision``
    always mirrors the last emitted decision, 0 before the first step.
    """

    kind: PlayerKind
    variant: Variant
    k: int
    T: int
    family: ThresholdFamily
    i: int = 1
    prev_decision: int = 0
    t: int = 0

    @property
    def exhausted(self) -> bool:
        return self.i > self.k

    def step(self, price: float) -> int:
        """Consume the next price and emit the irrevocable decision."""
        if self.exhausted:
            raise ProtocolError(f"player already filled all {self.k} units")
        t_now = self.t + 1
        if t_now > self.T:
            raise ProtocolError(f"step past horizon T={self.T}")
        # Forced acceptance: units still needed are k - i + 1 and slots left
        # including this one are T - t + 1, so the deadline binds exactly when
        # (k - i) >= (T - t).
        if (self.k - self.i) >= (self.T - t_now):
            accept = True
        else:
            if self.prev_decision == 1:
                rail = (
                    self.family.upper[self.i - 1]
                    if self.variant is Variant.MIN
                    else self.family.lower[self.i - 1]
                )
            else:
                rail = (
                    self.family.lower[self.i - 1]
                    if self.variant is Variant.MIN
                    else self.family.upper[self.i - 1]
                )
            # ties accept on both sides
            accept = price <= rail if self.variant is Variant.MIN else price >= rail
        decision = 1 if accept else 0
        self.i += decision
        self.prev_decision = decision
        self.t = t_now
        return decision


def _constant_family(
    k: int, rail: float, U: float, L: float, variant: Variant
) -> ThresholdFamily:
    """Both rails at one price for every unit.  The ratio is that of a single
    reservation price at beta = 0: accept at the rail against an optimum at
    the far bound, or be forced to the near bound against one at the rail."""
    return ThresholdFamily(
        variant=variant,
        k=k,
        lower=(rail,) * k,
        upper=(rail,) * k,
        ratio=max(rail / L, U / rail),
        params=(L, U, 0.0),
    )


def new_player(
    kind: PlayerKind,
    k: int,
    T: int,
    L: float,
    U: float,
    beta: float,
    variant: Variant,
    family: ThresholdFamily | None = None,
) -> PlayerState:
    """Build a fresh single-use player from raw parameters.

    The player always carries a threshold family.  ``family`` overrides the
    threshold construction; the experiment layer uses this to run a player
    built from a clipped beta while the instance still charges the true one.
    """
    if kind in _MIN_SIDE and variant is not Variant.MIN:
        raise ParameterError(f"{kind.value} is a min-variant player")
    if kind in _MAX_SIDE and variant is not Variant.MAX:
        raise ParameterError(f"{kind.value} is a max-variant player")
    if family is None:
        if kind is PlayerKind.DTPR_MIN:
            family = dtpr_min_thresholds(k, U, L, beta)
        elif kind is PlayerKind.DTPR_MAX:
            family = dtpr_max_thresholds(k, U, L, beta)
        elif kind in (PlayerKind.KSEARCH_MIN, PlayerKind.KSEARCH_MAX):
            family = ksearch_thresholds(k, U, L, variant)
        elif kind is PlayerKind.CONSTANT_THRESHOLD:
            family = _constant_family(k, constant_threshold(U, L), U, L, variant)
        else:  # carbon-agnostic: a rail on the price bound accepts every price
            rail = U if variant is Variant.MIN else L
            family = _constant_family(k, rail, U, L, variant)
    return PlayerState(kind=kind, variant=variant, k=k, T=T, family=family)


def run_online(
    kind: PlayerKind, inst: Instance, family: ThresholdFamily | None = None
) -> Schedule:
    """Drive a player over c_1..c_T and return its (always feasible) schedule.

    Once the player has filled its k units the remaining decisions are 0 by
    protocol; the player is not stepped further.
    """
    player = new_player(kind, inst.k, inst.T, inst.L, inst.U, inst.beta, inst.variant, family)
    decisions = []
    for price in inst.prices:
        if player.exhausted:
            decisions.append(0)
        else:
            decisions.append(player.step(price))
    sched = Schedule(tuple(decisions))
    if sched.num_accepted() != inst.k:
        raise ProtocolError(
            f"{kind.value} accepted {sched.num_accepted()} of k={inst.k} units"
        )
    return sched


def hindsight_trace(
    kind: PlayerKind, inst: Instance, family: ThresholdFamily | None = None
) -> tuple[Schedule, CostBreakdown]:
    """Run a player and evaluate its schedule in one call."""
    sched = run_online(kind, inst, family)
    return sched, evaluate_schedule(inst, sched)
