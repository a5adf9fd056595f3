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

The state machine is one loop, ``play_lanes``: its loop runs over the
slots, and each step is a few numpy passes over every (algorithm, trial)
lane.  The experiment pipeline plays all its lanes in one call, and
``run_online`` plays its one instance as one lane.  ``PlayerState.step`` is
the same transition on one price, for the adversary, whose next price
depends on the last decision.  ``player_family`` is the one place the
per-kind threshold family is built.

Every player honors the forced-acceptance rule near the deadline, which is
what makes every run feasible regardless of the price sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


#: on CPython 3.11 a member lookup on the enum class is several times slower
#: than a module global, and ``step`` pays it on every price
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

    def step(self, price: float) -> int:
        """Consume the next price and emit the irrevocable decision.

        ``play_lanes``'s transition on one lane and one price.  Forced
        acceptance: units still needed are k - i + 1 and slots left
        including this one are T - t + 1, so the deadline binds exactly when
        (k - i) >= (T - t).  Otherwise the price is compared with the stay
        rail after an accept and the resume rail otherwise; ties accept.
        """
        k, i = self.k, self.i
        if i > k:
            raise ProtocolError(f"player already filled all {k} units")
        if self.t >= self.T:
            raise ProtocolError(f"step past horizon T={self.T}")
        self.t += 1
        if k - i >= self.T - self.t:
            x = 1
        elif self.family.variant is _VARIANT_MIN:
            rail = self.family.upper if self.prev_decision else self.family.lower
            x = 1 if price <= rail[i - 1] else 0
        else:
            rail = self.family.lower if self.prev_decision else self.family.upper
            x = 1 if price >= rail[i - 1] else 0
        self.i = i + x
        self.prev_decision = x
        return x


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
    sides.  ``family`` overrides the threshold construction, for a caller
    that reuses one family or plays rails built from another beta than the
    instance charges; its variant and k must be the player's.
    """
    if family is None:
        family = player_family(kind, k, U, L, beta, variant)
    elif family.variant is not variant:
        raise ParameterError(
            f"a {family.variant.value} family cannot play a {variant.value} instance"
        )
    elif family.k != k:
        raise ParameterError(f"a family of k={family.k} cannot play k={k} units")
    return PlayerState(kind=kind, k=k, T=T, family=family)


def run_online(
    kind: PlayerKind, inst: Instance, family: ThresholdFamily | None = None
) -> Schedule:
    """Play c_1..c_T as one lane of `play_lanes` and return the player's
    (always feasible) schedule; decisions after the k-th accept are 0."""
    k = inst.k
    family = new_player(kind, k, inst.T, inst.L, inst.U, inst.beta, inst.variant, family).family
    rails = np.empty((1, 2, k + 1))
    rails[0, 0, :k], rails[0, 1, :k] = family.lower, family.upper
    lanes = np.zeros((1, 1), dtype=np.intp)
    decisions = play_lanes(np.array([inst.prices]), rails, lanes, inst.variant)
    sched = Schedule(tuple(decisions[0, 0].tolist()))
    if sched.num_accepted() != k:
        raise ProtocolError(f"{kind.value} accepted {sched.num_accepted()} of k={k} units")
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
    """Many players at once, each on its own price row and rail row.

    ``prices`` is (n, T), one trial a row.  ``rails`` is (F, 2, k+1): row f
    holds a family's lower rail in ``rails[f, 0, :k]`` and its upper rail in
    ``rails[f, 1, :k]``.  ``lanes`` is (n, m) row numbers: lane (i, a) plays
    price row i on rail row ``lanes[i, a]``.  Column k is scratch: it is set
    here to a price no lane accepts, so a lane that has filled its k units
    declines from then on.  Returns the (n, m, T) int8 decisions.

    Each slot gathers every lane's rail for its next unit and previous
    decision, compares (ties accept), and forces acceptance once the units
    left reach the slots left, as `PlayerState.step` does on one lane.  The
    loop stops once every lane has filled its k units; the slots after that
    stay 0.
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
