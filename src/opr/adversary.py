"""Adaptive lower-bound adversaries, runnable against any online player.

The adversary interrogates the player purely through the step protocol: it
presents one price, observes the 0/1 decision, and chooses the continuation.
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

The probes sit on the double-threshold resume rail, so a player whose own
thresholds sit above it grabs them cheaply.  The k-search and constant-
threshold players, whose two rails coincide, therefore also face the
grab/stall scripts of ``_grab_stall_script``, built on their own thresholds;
the adversary returns whichever transcript scores higher.  Double-threshold
players, the carbon-agnostic player and black-box factories see only the
probe script.

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
from typing import Callable, Protocol

from .algorithms import PlayerKind, PlayerState, new_player, run_online
from .core import CostBreakdown, Instance, Schedule, Variant, cost_ratio, evaluate_schedule
from .errors import ProtocolError, RegimeError
from .offline import dp_optimal
from .thresholds import dtpr_max_thresholds, dtpr_min_thresholds


class OnlinePlayer(Protocol):
    def step(self, price: float) -> int: ...


#: factory signature: (k, T, L, U, beta) -> player honoring the step protocol
PlayerFactory = Callable[[int, int, float, float, float], OnlinePlayer]

#: shipped players read for the grab/stall scripts; the carbon-agnostic rail
#: sits on the price bound and is left to the probe script
_GRAB_STALL_KINDS = frozenset({PlayerKind.CONSTANT_THRESHOLD, PlayerKind.KSEARCH})

#: relative nudge applied to probe prices so exact-threshold ties refuse
_PROBE_NUDGE = 1e-9


@dataclass(frozen=True)
class AdversaryTranscript:
    """Everything the adversary realized: the sequence, both costs, the ratio."""

    prices: tuple[float, ...]
    alg_schedule: Schedule
    alg_cost: CostBreakdown
    opt_cost: CostBreakdown
    ratio: float


def declared_horizon(k: int) -> int:
    """Horizon announced to the player by the probe script, sized so every
    branch fits: k rounds of (k probe slots + k flood slots) plus both
    closing blocks.  A grab/stall script announces its own length, <= 3k."""
    return k * (2 * k + 2) + 2 * k


def _build_player(player: PlayerKind | PlayerFactory, k: int, T: int,
                  L: float, U: float, beta: float, variant: Variant) -> OnlinePlayer:
    if isinstance(player, PlayerKind):
        return new_player(player, k, T, L, U, beta, variant)
    return player(k, T, L, U, beta)


def _drive(
    player: OnlinePlayer,
    k: int,
    T: int,
    probes: tuple[float, ...],
    flood_price: float,
    close_price: float,
) -> tuple[list[float], list[int]]:
    """Run the probe/flood script, returning the realized prices+decisions."""
    prices: list[float] = []
    decisions: list[int] = []
    accepted = 0

    def present(price: float) -> int:
        x = player.step(price)
        if x not in (0, 1):
            raise ProtocolError(f"player emitted {x!r}, expected 0 or 1")
        prices.append(price)
        decisions.append(x)
        return x

    for probe in probes:
        # probe phase: up to k tries or until accepted
        got = False
        for _ in range(k):
            if present(probe):
                accepted += 1
                got = True
                break
        if not got:
            # terminal: worst-case value for the remainder of the horizon;
            # an exhausted player is no longer stepped, its decisions are 0
            while len(prices) < T:
                if accepted < k:
                    if present(flood_price):
                        accepted += 1
                else:
                    prices.append(flood_price)
                    decisions.append(0)
            if accepted != k:
                raise ProtocolError(
                    f"player ended the flooded branch with {accepted} of {k} units"
                )
            return prices, decisions
        if accepted == k:
            break
        # flood until the player switches away (capped at k presentations)
        for _ in range(k):
            if present(flood_price) == 0:
                break
            accepted += 1
            if accepted == k:
                break
        if accepted == k:
            break
    # player filled early: close with the best-case block
    for _ in range(k):
        prices.append(close_price)
        decisions.append(0)
    return prices, decisions


def _nudged(price: float, L: float, U: float, up: bool) -> float:
    """``price`` moved a hair up (or down), kept inside [L, U]."""
    if up:
        return min(price * (1 + _PROBE_NUDGE) + _PROBE_NUDGE * L, U)
    return max(price * (1 - _PROBE_NUDGE) - _PROBE_NUDGE * L, L)


def _finish(inst: Instance, sched: Schedule) -> AdversaryTranscript:
    alg_cost = evaluate_schedule(inst, sched)
    _, opt_cost = dp_optimal(inst)
    return AdversaryTranscript(
        prices=inst.prices,
        alg_schedule=sched,
        alg_cost=alg_cost,
        opt_cost=opt_cost,
        ratio=cost_ratio(alg_cost.total, opt_cost.total, inst.variant),
    )


def _grab_stall_script(
    rail: tuple[float, ...], variant: Variant, k: int, U: float, L: float, beta: float
) -> tuple[float, ...] | None:
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
    are skipped.  Returns None when no script scores.
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
    top, shape = -math.inf, None
    for m in range(k):
        for c in range(k - m):
            stall = outside[m + c]
            alg = grabbed[m] + (c * best + flip if c else 0.0) + (k - m - c) * worst + flip
            r = score(alg, c * best + (k - c) * stall + flip)
            if r > top:
                top, shape = r, (m, c)
    if score(grabbed[k], k * best + flip) > top:
        shape = (k, 0)
    if shape is None:
        return None
    m, c = shape
    prices = [p for g in inside[:m] for p in (g, worst)]
    if m == k:
        return tuple(prices + [best] * k)
    stall = outside[m + c]
    return tuple(prices + [best] * c + [stall] * (k - c) + [worst] * (k - m - c))


def _adversary(
    player: PlayerKind | PlayerFactory,
    variant: Variant,
    k: int,
    U: float,
    L: float,
    beta: float,
    probes: tuple[float, ...],
) -> AdversaryTranscript:
    """Probe transcript, or the grab/stall transcript if it scores higher."""
    T = declared_horizon(k)
    p = _build_player(player, k, T, L, U, beta, variant)
    flood, close = (U, L) if variant is Variant.MIN else (L, U)
    prices, decisions = _drive(p, k, T, probes, flood_price=flood, close_price=close)
    inst = Instance(k=k, T=len(prices), L=L, U=U, beta=beta, variant=variant, prices=tuple(prices))
    transcript = _finish(inst, Schedule(tuple(decisions)))
    # every other player, black-box factories included, sees only the probes
    if not isinstance(p, PlayerState) or p.kind not in _GRAB_STALL_KINDS:
        return transcript
    script = _grab_stall_script(p.family.lower, variant, k, U, L, beta)
    if script is None:
        return transcript
    inst = Instance(k=k, T=len(script), L=L, U=U, beta=beta, variant=variant, prices=script)
    scripted = _finish(inst, run_online(p.kind, inst, p.family))
    return scripted if scripted.ratio > transcript.ratio else transcript


def adversary_min(
    player: PlayerKind | PlayerFactory, k: int, U: float, L: float, beta: float
) -> AdversaryTranscript:
    """Min-variant adversary; requires 0 < beta < (U-L)/2."""
    if not (0 < beta < (U - L) / 2):
        raise RegimeError(
            f"adversary_min needs 0 < beta < (U-L)/2, got beta={beta}, (U-L)/2={(U - L) / 2}"
        )
    family = dtpr_min_thresholds(k, U, L, beta)
    probes = tuple(_nudged(l, L, U, up=True) for l in family.lower)
    return _adversary(player, Variant.MIN, k, U, L, beta, probes)


def adversary_max(
    player: PlayerKind | PlayerFactory, k: int, U: float, L: float, beta: float
) -> AdversaryTranscript:
    """Max-variant adversary; requires 0 < beta < kL/2 and 2*beta <= U - L.

    The second bound is a construction constraint: beyond it the stay
    thresholds overshoot U and the probe prices would leave [L, U].  A
    player whose transcript profit is nonpositive has no ratio; that raises
    ``DegenerateProfitError``.
    """
    if not (0 < beta < k * L / 2):
        raise RegimeError(
            f"adversary_max needs 0 < beta < kL/2, got beta={beta}, kL/2={k * L / 2}"
        )
    if 2 * beta > U - L:
        raise RegimeError(
            f"adversary_max probes need 2*beta <= U-L, got 2*beta={2 * beta}, U-L={U - L}"
        )
    family = dtpr_max_thresholds(k, U, L, beta)
    probes = tuple(_nudged(u, L, U, up=False) for u in family.upper)
    return _adversary(player, Variant.MAX, k, U, L, beta, probes)
