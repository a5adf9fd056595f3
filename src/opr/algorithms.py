"""Online players: one price in, one irrevocable 0/1 decision out.

Every player is a threshold family driven by one state machine.  Which rails
each ``PlayerKind`` plays is decided in `thresholds` (`player_family`, and
`player_families` for a batch); this module takes only families, never a
kind, and plays them.  A family carries its k and variant, which must be the
instance's.  The double-threshold player (DTPR) compares against the
stay rail when the previous price was accepted and the resume rail
otherwise; the baselines have both rails equal, so their decisions ignore
the previous state.

There is one transition rule, written twice: as ``PlayerState.step`` on one
price, and as ``play_lanes``, a loop over the slots that steps every
(algorithm, trial) lane in a few numpy passes.  One player over a known
sequence is a loop over ``step``, ``run_online``; the experiment plays all
its lanes in one ``play_lanes`` call.

Every player honors the forced-acceptance rule near the deadline, which is
what makes every run feasible regardless of the price sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CostBreakdown, Instance, Schedule, Variant, evaluate_schedule
from .errors import ParameterError, ProtocolError
from .thresholds import ThresholdFamily


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

    T: int
    family: ThresholdFamily
    i: int = 1
    prev_decision: int = 0
    t: int = 0

    @property
    def exhausted(self) -> bool:
        return self.i > self.family.k

    def step(self, price: float) -> int:
        """Consume the next price and emit the irrevocable decision.

        ``play_lanes``'s transition on one lane and one price.  Forced
        acceptance: units still needed are k - i + 1 and slots left
        including this one are T - t + 1, so the deadline binds exactly when
        (k - i) >= (T - t).  Otherwise the price is compared with the stay
        rail after an accept and the resume rail otherwise; ties accept.
        """
        k, i = self.family.k, self.i
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


def new_player(family: ThresholdFamily, T: int) -> PlayerState:
    """A fresh single-use player of ``family`` (its rails, k and variant)
    over ``T`` slots; `thresholds.player_family` builds a kind's family."""
    if not (1 <= family.k <= T):
        raise ParameterError(f"need 1 <= k <= T, got k={family.k}, T={T}")
    return PlayerState(T=T, family=family)


def run_online(family: ThresholdFamily, inst: Instance) -> Schedule:
    """Step a fresh player of ``family`` through c_1..c_T and return its
    (always feasible) schedule; once it has filled its k units it is no
    longer stepped and its decisions are 0.  The family's variant and k must
    be the instance's; its rails may come from another beta than the
    instance charges."""
    if family.variant is not inst.variant:
        raise ParameterError(f"a {family.variant.value} family cannot play a "
                             f"{inst.variant.value} instance")
    if family.k != inst.k:
        raise ParameterError(f"a family of k={family.k} cannot play k={inst.k} units")
    player = new_player(family, inst.T)
    sched = Schedule(tuple(0 if player.exhausted else player.step(p) for p in inst.prices))
    if sched.num_accepted() != inst.k:
        raise ProtocolError(f"player accepted {sched.num_accepted()} of k={inst.k} units")
    return sched


def hindsight_trace(family: ThresholdFamily, inst: Instance) -> tuple[Schedule, CostBreakdown]:
    """Run a player of ``family`` and evaluate its schedule in one call."""
    sched = run_online(family, inst)
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
    left reach the slots left, as `PlayerState.step` does on one lane.
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
    decided = np.empty((T, n, m), dtype=bool)
    cols = prices.T[:, :, None]
    for t in range(T):
        x = decided[t]
        np.take(flat, idx, out=rail)
        accepts(cols[t], rail, out=x)
        if t >= T - k:
            np.add(forced_at, t, out=scratch)
            np.less_equal(filled, scratch, out=forced)
            x |= forced
        filled += x
        np.multiply(x, onto_stay, out=idx)
        idx += filled
    return decided.view(np.int8).transpose(1, 2, 0)
