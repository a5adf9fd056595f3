"""Online players: one price in, one irrevocable 0/1 decision out.

Every player is a threshold family driven by one state machine; the players
differ only in the per-unit thresholds they consult.  A ``PlayerKind`` names
an algorithm, not a variant: each kind serves both the min and the max side,
and a player takes its variant from the instance, through its family.  The
double-threshold player (DTPR) compares against the stay rail when the
previous price was accepted and the resume rail otherwise.  The baselines
have both rails equal, so their decisions ignore the previous state:
k-search uses the beta = 0 double-threshold rails, the constant rule the
single price sqrt(L*U), and the carbon-agnostic player a rail on the price
bound (U for min, L for max) that accepts every price, so it runs the job in
the first k slots.

The state machine is one loop, ``PlayerState.feed``: ``run_online`` feeds it
the whole price sequence, and ``step``, the protocol the adversary drives,
is that same loop on one price.  ``play_lanes`` is the same machine over
many lanes at once, for the experiment pipeline: its loop runs over the
slots, and each step is a few numpy passes over every (algorithm, trial)
lane.  ``player_family`` is the one place the per-kind threshold family is
built.

Every player honors the forced-acceptance rule near the deadline, which is
what makes every run feasible regardless of the price sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

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
    DTPR = "dtpr"
    KSEARCH = "ksearch"
    CONSTANT_THRESHOLD = "const"
    CARBON_AGNOSTIC = "agnostic"


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
        is_min = self.family.variant is _VARIANT_MIN
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
    )


def player_family(
    kind: PlayerKind, k: int, U: float, L: float, beta: float, variant: Variant
) -> ThresholdFamily:
    """The threshold family a player of this kind runs on ``variant``.

    This is the one place the per-kind construction lives, and the one place
    DTPR's min or max construction is picked by variant; a caller that runs
    many players on the same parameters can build the family once and hand
    it to ``new_player``/``run_online``.
    """
    if kind is PlayerKind.DTPR:
        if variant is Variant.MIN:
            return dtpr_min_thresholds(k, U, L, beta)
        return dtpr_max_thresholds(k, U, L, beta)
    if kind is PlayerKind.KSEARCH:
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

    ``kind`` names the algorithm; ``variant`` is the instance's, and the
    player reads it from its threshold family, so every kind plays both
    sides.  ``family`` overrides the threshold construction; the experiment
    layer uses this to reuse one family across trials and to run a player
    built from a clipped beta while the instance still charges the true one.
    """
    if family is None:
        family = player_family(kind, k, U, L, beta, variant)
    elif family.variant is not variant:
        raise ParameterError(
            f"a {family.variant.value} family cannot play a {variant.value} instance"
        )
    return PlayerState(kind=kind, k=k, T=T, family=family)


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


def play_lanes(
    prices: np.ndarray, rails: np.ndarray, lanes: np.ndarray, variant: Variant
) -> np.ndarray:
    """`PlayerState.feed` of many players at once, decision for decision.

    ``prices`` is (n, T), one trial a row.  ``rails`` is (F, 2, k+1): row f
    holds a family's lower rail in ``rails[f, 0, :k]`` and its upper rail in
    ``rails[f, 1, :k]``.  ``lanes`` is (n, m) row numbers: lane (i, a) plays
    price row i on rail row ``lanes[i, a]``, and reads the rails as ``feed``
    does.  Column k is scratch: it is set here to a price no lane accepts,
    so a lane that has filled its k units declines from then on.  Returns
    the (n, m, T) int8 decisions.

    Each slot gathers every lane's rail for its next unit and previous
    decision, compares (ties accept), and forces acceptance once the units
    left reach the slots left.  Decisions come from compares only, so they
    are ``feed``'s bit for bit.  The loop stops once every lane has filled
    its k units.
    """
    n, T = prices.shape
    m, width = lanes.shape[1], rails.shape[-1]
    k = width - 1
    is_min = variant is _VARIANT_MIN
    accepts = np.less_equal if is_min else np.greater_equal
    rails[..., k] = -np.inf if is_min else np.inf
    flat = rails.reshape(-1)
    # the flat index of each lane's rail after a reject (resume: lower on
    # the min side, upper on the max side) for its next unit; the rail after
    # an accept (stay) is `width` away, in the direction `onto_stay`
    resume, onto_stay = (0, width) if is_min else (width, -width)
    filled = lanes * (2 * width) + resume
    # a lane is forced at slot t (0-based) while filled <= forced_at + t
    forced_at = filled - (T - k)
    idx, rail = filled.copy(), np.empty((n, m))
    forced, scratch = np.empty((n, m), dtype=bool), np.empty_like(filled)
    decided = np.zeros((T, n, m), dtype=bool)
    cols, left = prices.T[:, :, None], n * m * k
    for t in range(T):
        x = decided[t]
        np.take(flat, idx, out=rail)
        accepts(cols[t], rail, out=x)
        if t >= T - k:
            np.add(forced_at, t, out=scratch)
            np.less_equal(filled, scratch, out=forced)
            x |= forced
        filled += x
        left -= np.count_nonzero(x)
        if not left:
            break
        np.multiply(x, onto_stay, out=idx)
        idx += filled
    return decided.view(np.int8).transpose(1, 2, 0)
