"""Adaptive lower-bound adversaries, runnable against any online player.

The adversary interrogates the player purely through the step protocol: it
presents one price by calling ``step(price)``, observes the 0/1 decision it
returns (anything else raises ``ProtocolError``), and chooses the continuation.
For the min variant the probe script is:

  * probe the i-th resume threshold (nudged up by a hair so that a player
    sitting exactly on it refuses), up to k times or until accepted;
  * after an acceptance, present U until the player switches away (capped at
    k presentations; a player that never switches fills itself at U prices);
  * if a probe is refused k times, flood U to the declared horizon, forcing
    the player to buy its remaining units at the worst price;
  * if the player fills all k units, close with k slots of L so the offline
    optimum gets the best block.

The max variant mirrors this with stay-threshold probes nudged down, L
floods, and a closing U block.  The transcript's ratio is computed against
the exact DP optimum of the realized sequence, which can only certify a
larger lower bound than the analytic estimate.

Both variants run one path, ``_adversary``, which checks the cell first
(`check_cell`, as every player family and instance does), then the regime
0 < beta < `regime_edge`, then, on the max side only, the probe bound
2*beta <= U - L.  Each run solves its cell once: the probes'
double-threshold family also plays the DTPR player, and its ratio is the
transcript's ``bound``; every other shipped kind plays its `player_family`.

The probes sit on the double-threshold resume rail, so a player whose own
thresholds sit above it grabs them cheaply.  The k-search and constant-
threshold players, whose two rails coincide, therefore also face the
grab/stall scripts of ``_grab_stall_script``, built on their own thresholds
and replayed by ``hindsight_trace(online.family, inst)``, a fresh player of
the family the probes stepped; the adversary returns whichever transcript
scores higher.  Double-threshold players, the carbon-agnostic player and
black-box factories see only the probe script.

The probe script drives the double-threshold player to exactly alpha/omega.
It does not certify alpha/omega against every player in this cost model,
which charges both boundary flips: on the min side, for small k, the
constant-threshold and k-search players can have an exact worst case below
alpha.  For k = 1, a single threshold at sqrt((U+2b)(L+2b)) - 2b scores
sqrt((U+2b)/(L+2b)), e.g. 1.809 at U=30, L=5, b=3, against alpha = 2.102.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .algorithms import hindsight_trace, new_player
from .core import (CostBreakdown, Instance, Schedule, Variant, check_cell, cost_ratio,
                   evaluate_schedule)
from .errors import ProtocolError, RegimeError
from .offline import dp_optimal
from .thresholds import (EDGE_NAMES, PlayerKind, dtpr_max_thresholds, dtpr_min_thresholds,
                         player_family, regime_edge)


#: factory signature: (k, T, L, U, beta) -> a player; `_drive` calls only its
#: ``step(price) -> 0 or 1``
PlayerFactory = Callable[[int, int, float, float, float], object]

#: shipped players read for the grab/stall scripts; the carbon-agnostic rail
#: sits on the price bound and is left to the probe script
_GRAB_STALL_KINDS = (PlayerKind.CONSTANT_THRESHOLD, PlayerKind.KSEARCH)

#: relative nudge applied to probe prices so exact-threshold ties refuse
_PROBE_NUDGE = 1e-9


@dataclass(frozen=True)
class AdversaryTranscript:
    """Everything the adversary realized: the sequence, both costs, the ratio;
    and the bound (alpha or omega) of its cell."""

    prices: tuple[float, ...]
    alg_schedule: Schedule
    alg_cost: CostBreakdown
    opt_cost: CostBreakdown
    ratio: float
    bound: float


def declared_horizon(k: int) -> int:
    """Horizon announced to the player by the probe script, sized so every
    branch fits: k rounds of (k probe slots + k flood slots) plus both
    closing blocks.  A grab/stall script announces its own length, <= 3k."""
    return k * (2 * k + 2) + 2 * k


def _drive(
    player, k: int, T: int, probes: tuple[float, ...], flood_price: float, close_price: float
) -> tuple[list[float], list[int]]:
    """Run the probe/flood script on ``player.step``; the realized prices+decisions."""
    prices: list[float] = []
    decisions: list[int] = []
    accepted = 0

    def present(price: float) -> int:
        nonlocal accepted
        x = player.step(price)
        if x not in (0, 1):
            raise ProtocolError(f"player emitted {x!r}, expected 0 or 1")
        prices.append(price)
        decisions.append(x)
        accepted += x
        return x

    for probe in probes:
        # probe phase: up to k tries or until accepted
        for _ in range(k):
            if present(probe):
                break
        else:
            # terminal: worst-case value for the remainder of the horizon;
            # an exhausted player is no longer stepped, its decisions are 0
            while len(prices) < T and accepted < k:
                present(flood_price)
            if accepted != k:
                raise ProtocolError(f"player ended the flooded branch with {accepted} "
                                    f"of {k} units")
            rest = T - len(prices)
            return prices + [flood_price] * rest, decisions + [0] * rest
        # stay phase: flood until the player fills or switches away (capped
        # at k presentations)
        for _ in range(k):
            if accepted == k or not present(flood_price):
                break
        if accepted == k:
            break
    # player filled early: close with the best-case block
    return prices + [close_price] * k, decisions + [0] * k


def _nudged(price: float, L: float, U: float, up: bool) -> float:
    """``price`` moved a hair up (or down), kept inside [L, U]."""
    if up:
        return min(price * (1 + _PROBE_NUDGE) + _PROBE_NUDGE * L, U)
    return max(price * (1 - _PROBE_NUDGE) - _PROBE_NUDGE * L, L)


def _finish(inst: Instance, sched: Schedule, alg_cost: CostBreakdown,
            bound: float) -> AdversaryTranscript:
    _, opt_cost = dp_optimal(inst)
    return AdversaryTranscript(
        prices=inst.prices,
        alg_schedule=sched,
        alg_cost=alg_cost,
        opt_cost=opt_cost,
        ratio=cost_ratio(alg_cost.total, opt_cost.total, inst.variant),
        bound=bound,
    )


def _grab_stall_script(
    rail: tuple[float, ...], variant: Variant, k: int, U: float, L: float, beta: float
) -> tuple[float, ...]:
    """The best-scoring script against a player with one threshold rail.

    Script (m, c), for 0 <= m < k and 0 <= c < k - m, on the min side:

      * grab units 1..m, each at a price just inside its threshold, followed
        by U so the player switches away;
      * c slots of L, which the player accepts;
      * k - c slots just outside the threshold of unit m + c + 1 (stall);
      * k - m - c slots of U, which the deadline forces the player to take.

    The fill script grabs all k units the same way and closes with k slots
    of L.  The max side mirrors this (L <-> U, inside/outside flipped).  The
    player's cost is exact; the optimum is bounded by one block of c best
    prices and k - c stall prices, so the closed-form score is a lower bound
    on the DP-scored ratio.  Max-side scripts with nonpositive player profit
    are skipped.  Script (0, 0) always scores, since `_adversary` admits only
    0 < beta < `regime_edge`: on the min side its optimum k*stall + 2*beta
    is positive, on the max side its player profit k*L - 2*beta is.
    """
    minimize = variant is Variant.MIN
    best, worst, sign = (L, U, 1.0) if minimize else (U, L, -1.0)
    inside = [_nudged(r, L, U, up=not minimize) for r in rail]
    outside = [_nudged(r, L, U, up=minimize) for r in rail]
    flip = sign * 2 * beta

    def score(alg: float, opt: float) -> float:
        if minimize:
            return alg / opt
        return opt / alg if alg > 0 else -math.inf

    grabbed = [0.0]
    for g in inside:
        grabbed.append(grabbed[-1] + g + flip)
    top, shape = -math.inf, (0, 0)
    for m in range(k):
        for c in range(k - m):
            stall = outside[m + c]
            alg = grabbed[m] + (c * best + flip if c else 0.0) + (k - m - c) * worst + flip
            r = score(alg, c * best + (k - c) * stall + flip)
            if r > top:
                top, shape = r, (m, c)
    if score(grabbed[k], k * best + flip) > top:
        shape = (k, 0)
    m, c = shape
    prices = [p for g in inside[:m] for p in (g, worst)]
    if m == k:
        return tuple(prices + [best] * k)
    stall = outside[m + c]
    return tuple(prices + [best] * c + [stall] * (k - c) + [worst] * (k - m - c))


def _adversary(player: PlayerKind | PlayerFactory, variant: Variant, k: int, U: float,
               L: float, beta: float) -> AdversaryTranscript:
    """The adversary of ``variant``: the probe transcript, or the grab/stall
    transcript if it scores higher.  The cell is checked first, then the
    regime, then (max only) the probe bound."""
    k = check_cell(k, U, L, beta)
    edge, name = regime_edge(variant, k, U, L), EDGE_NAMES[variant]
    if not (0 < beta < edge):
        raise RegimeError(f"adversary_{variant.value} needs 0 < beta < {name}, "
                          f"got beta={beta}, {name}={edge}")
    minimize = variant is Variant.MIN
    if not minimize and 2 * beta > U - L:
        raise RegimeError(f"adversary_max probes need 2*beta <= U-L, "
                          f"got 2*beta={2 * beta}, U-L={U - L}")
    # the probes sit a hair past the rail a player resumes on: above the
    # min side's lower rail, below the max side's upper rail
    family = (dtpr_min_thresholds if minimize else dtpr_max_thresholds)(k, U, L, beta)
    rail = family.lower if minimize else family.upper
    probes = tuple(_nudged(r, L, U, up=minimize) for r in rail)
    flood, close = (U, L) if minimize else (L, U)
    T = declared_horizon(k)
    if player is PlayerKind.DTPR:
        online = new_player(family, T)
    elif isinstance(player, PlayerKind):
        online = new_player(player_family(player, k, U, L, beta, variant), T)
    else:
        online = player(k, T, L, U, beta)
    prices, decisions = _drive(online, k, T, probes, flood_price=flood, close_price=close)
    inst = Instance(k=k, T=len(prices), L=L, U=U, beta=beta, variant=variant, prices=tuple(prices))
    sched = Schedule(tuple(decisions))
    transcript = _finish(inst, sched, evaluate_schedule(inst, sched), family.ratio)
    # every other player, black-box factories included, sees only the probes
    if player not in _GRAB_STALL_KINDS:
        return transcript
    script = _grab_stall_script(online.family.lower, variant, k, U, L, beta)
    inst = Instance(k=k, T=len(script), L=L, U=U, beta=beta, variant=variant, prices=script)
    scripted = _finish(inst, *hindsight_trace(online.family, inst), family.ratio)
    return scripted if scripted.ratio > transcript.ratio else transcript


def adversary_min(
    player: PlayerKind | PlayerFactory, k: int, U: float, L: float, beta: float
) -> AdversaryTranscript:
    """Min-variant adversary; requires 0 < beta < `regime_edge`."""
    return _adversary(player, Variant.MIN, k, U, L, beta)


def adversary_max(
    player: PlayerKind | PlayerFactory, k: int, U: float, L: float, beta: float
) -> AdversaryTranscript:
    """Max-variant adversary; requires 0 < beta < `regime_edge` and 2*beta <= U - L.

    The second bound is a construction constraint: beyond it the stay
    thresholds overshoot U and the probe prices would leave [L, U].  A
    player whose transcript profit is nonpositive has no ratio; that raises
    ``DegenerateProfitError``.
    """
    return _adversary(player, Variant.MAX, k, U, L, beta)
