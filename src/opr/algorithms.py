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

There is one transition rule, written twice: as ``PlayerState.step`` on one
price, and as ``play_lanes``, a loop over the slots that steps every
(algorithm, trial) lane in a few numpy passes.  One player over a known
sequence is a loop over ``step``, ``run_online``; the experiment plays all
its lanes in one ``play_lanes`` call.  ``player_families`` checks a pass's
cells and builds their rails as one table in a few numpy passes;
``player_family`` is its one-cell case.

Every player honors the forced-acceptance rule near the deadline, which is
what makes every run feasible regardless of the price sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import (CostBreakdown, Instance, Schedule, Variant, check_cell, check_k,
                   evaluate_schedule)
from .errors import OprError, ParameterError, ProtocolError
from .thresholds import ThresholdFamily, constant_threshold, dtpr_rails, solve_ratios


class PlayerKind(Enum):
    DTPR = "dtpr"
    KSEARCH = "ksearch"
    CONSTANT_THRESHOLD = "const"
    CARBON_AGNOSTIC = "agnostic"


#: the kinds whose families are built from a solved ratio
_SOLVED = (PlayerKind.DTPR, PlayerKind.KSEARCH)

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


def player_families(
    cells: Sequence[tuple[PlayerKind, float, float, float]], k: int, variant: Variant
) -> tuple[np.ndarray, np.ndarray, dict[int, OprError]]:
    """The (F, 2, k+1) rail table of a player of each (kind, U, L, beta)
    cell on ``variant``, the F ratios, and ``{row: error}`` for each cell
    whose check or ratio solve failed.  Row f holds cell f's lower and upper
    rails in ``[f, :, :k]``, as `play_lanes` reads them; column k and a
    failed cell's row and ratio are 0.  A k that is not a positive integer raises.

    DTPR and k-search (DTPR at beta = 0) rows come from one `solve_ratios`
    call and one `dtpr_rails`.  A constant row holds sqrt(L*U) on both rails,
    an agnostic row the price bound that accepts every price (U for min, L
    for max); their ratio is that of one reservation price at beta = 0.
    """
    k = check_k(k)
    table, ratios, failed = np.zeros((max(len(cells), 1), 2, k + 1)), np.zeros(len(cells)), {}
    solving, flat = [], []
    for f, (kind, U, L, beta) in enumerate(cells):
        try:
            check_cell(k, U, L, beta)
        except ParameterError as exc:
            failed[f] = exc
            continue
        if kind in _SOLVED:
            solving.append((f, U, L, 0.0 if kind is PlayerKind.KSEARCH else beta))
        else:
            flat.append((f, U, L, kind is PlayerKind.CONSTANT_THRESHOLD))
    found = solve_ratios(variant, [(k, *cell[1:]) for cell in solving]) if solving else ()
    failed.update((cell[0], r) for cell, r in zip(solving, found) if isinstance(r, OprError))
    if solved := [(*cell, r) for cell, r in zip(solving, found) if not isinstance(r, OprError)]:
        rows = [cell[0] for cell in solved]
        _, U, L, beta, ratio = np.array(solved).T
        table[rows, :, :k] = dtpr_rails(variant, k, U, L, beta, ratio)
        ratios[rows] = ratio
    if flat:
        rows, rails = [f for f, *_ in flat], [
            constant_threshold(U, L) if const else U if variant is _VARIANT_MIN else L
            for _, U, L, const in flat]
        ratios[rows] = [max(rail / L, U / rail) for rail, (_, U, L, _) in zip(rails, flat)]
        table[rows, :, :k] = np.array(rails)[:, None, None]
    return table, ratios, failed


def player_family(
    kind: PlayerKind, k: int, U: float, L: float, beta: float, variant: Variant
) -> ThresholdFamily:
    """`player_families` on one cell, as a family, raising its error.  A
    caller that runs many players on the same parameters can build the
    family once and hand it to ``new_player``/``run_online``."""
    table, ratios, failed = player_families([(kind, U, L, beta)], k, variant)
    if failed:
        raise failed[0]
    lower, upper = table[0, :, :-1].tolist()
    return ThresholdFamily(variant, int(k), tuple(lower), tuple(upper), float(ratios[0]))


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
    if not (1 <= k <= T):
        raise ParameterError(f"need 1 <= k <= T, got k={k}, T={T}")
    if family is None:
        family = player_family(kind, k, U, L, beta, variant)
    elif family.variant is not variant:
        raise ParameterError(
            f"a {family.variant.value} family cannot play a {variant.value} instance"
        )
    elif family.k != k:
        raise ParameterError(f"a family of k={family.k} cannot play k={k} units")
    return PlayerState(k=family.k, T=T, family=family)


def run_online(
    kind: PlayerKind, inst: Instance, family: ThresholdFamily | None = None
) -> Schedule:
    """Step a fresh player through c_1..c_T and return its (always feasible)
    schedule; once it has filled its k units it is no longer stepped and its
    decisions are 0."""
    k = inst.k
    player = new_player(kind, k, inst.T, inst.L, inst.U, inst.beta, inst.variant, family)
    sched = Schedule(tuple(0 if player.exhausted else player.step(p) for p in inst.prices))
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
