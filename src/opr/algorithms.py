"""Online players: one price in, one irrevocable 0/1 decision out.

Every player is a threshold family driven by one state machine; the players
differ only in the per-unit thresholds they consult.  The double-threshold
players compare against the stay rail when the previous price was accepted
and the resume rail otherwise.  The baselines have both rails equal, so
their decisions ignore the previous state: k-search uses the beta = 0
double-threshold rails, the constant rule the single price sqrt(L*U), and
the carbon-agnostic player a rail on the price bound (U for min, L for max)
that accepts every price, so it runs the job in the first k slots.

The state machine is one loop, ``PlayerState.feed``: ``run_online`` feeds it
the whole price sequence, and ``step``, the protocol the adversary drives,
is that same loop on one price.  ``player_family`` is the one place the
per-kind threshold family is built.

Every player honors the forced-acceptance rule near the deadline, which is
what makes every run feasible regardless of the price sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

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
#: read once per ``feed`` call: on CPython 3.11 a member lookup on the enum
#: class is several times slower than a module global, and ``step`` pays it
#: on every price
_VARIANT_MIN = Variant.MIN


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

    def feed(self, prices: Iterable[float]) -> list[int]:
        """Consume prices in order and emit one irrevocable decision each.

        This is the only state-machine loop.  It stops early, without
        consuming the rest, once all k units are filled; the caller pads the
        remaining slots with 0.  The forced-acceptance rule makes every unit
        filled by slot T, so the loop never passes the horizon.
        """
        k, T, i, prev, t = self.k, self.T, self.i, self.prev_decision, self.t
        is_min = self.variant is _VARIANT_MIN
        # "on" rail after an accept (stay), "off" rail otherwise (resume)
        if is_min:
            on, off = self.family.upper, self.family.lower
        else:
            on, off = self.family.lower, self.family.upper
        out: list[int] = []
        for price in prices:
            if i > k:
                break
            t += 1
            # Forced acceptance: units still needed are k - i + 1 and slots
            # left including this one are T - t + 1, so the deadline binds
            # exactly when (k - i) >= (T - t).
            if k - i >= T - t:
                x = 1
            else:
                rail = on[i - 1] if prev else off[i - 1]
                # ties accept on both sides
                x = 1 if (price <= rail if is_min else price >= rail) else 0
            i += x
            prev = x
            out.append(x)
        self.i, self.prev_decision, self.t = i, prev, t
        return out

    def step(self, price: float) -> int:
        """Consume the next price and emit the irrevocable decision."""
        if self.i > self.k:
            raise ProtocolError(f"player already filled all {self.k} units")
        if self.t >= self.T:
            raise ProtocolError(f"step past horizon T={self.T}")
        return self.feed((price,))[0]


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


def _check_side(kind: PlayerKind, variant: Variant) -> None:
    if kind in _MIN_SIDE and variant is not Variant.MIN:
        raise ParameterError(f"{kind.value} is a min-variant player")
    if kind in _MAX_SIDE and variant is not Variant.MAX:
        raise ParameterError(f"{kind.value} is a max-variant player")


def player_family(
    kind: PlayerKind, k: int, U: float, L: float, beta: float, variant: Variant
) -> ThresholdFamily:
    """The threshold family a player of this kind runs on.

    This is the one place the per-kind construction lives; a caller that
    runs many players on the same parameters can build the family once and
    hand it to ``new_player``/``run_online``.
    """
    _check_side(kind, variant)
    if kind is PlayerKind.DTPR_MIN:
        return dtpr_min_thresholds(k, U, L, beta)
    if kind is PlayerKind.DTPR_MAX:
        return dtpr_max_thresholds(k, U, L, beta)
    if kind in (PlayerKind.KSEARCH_MIN, PlayerKind.KSEARCH_MAX):
        return ksearch_thresholds(k, U, L, variant)
    if kind is PlayerKind.CONSTANT_THRESHOLD:
        return _constant_family(k, constant_threshold(U, L), U, L, variant)
    # carbon-agnostic: a rail on the price bound accepts every price
    rail = U if variant is Variant.MIN else L
    return _constant_family(k, rail, U, L, variant)


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
    threshold construction; the experiment layer uses this to reuse one
    family across trials and to run a player built from a clipped beta while
    the instance still charges the true one.
    """
    if family is None:
        family = player_family(kind, k, U, L, beta, variant)
    else:
        _check_side(kind, variant)
    return PlayerState(kind=kind, variant=variant, k=k, T=T, family=family)


def run_online(
    kind: PlayerKind, inst: Instance, family: ThresholdFamily | None = None
) -> Schedule:
    """Drive a player over c_1..c_T and return its (always feasible) schedule.

    Once the player has filled its k units the remaining decisions are 0 by
    protocol; the player is not fed further.
    """
    player = new_player(kind, inst.k, inst.T, inst.L, inst.U, inst.beta, inst.variant, family)
    decisions = player.feed(inst.prices)
    decisions += [0] * (inst.T - len(decisions))
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
