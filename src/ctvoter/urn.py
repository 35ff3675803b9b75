"""Box-and-ball game abstracting edge-type evolution on a path.

Boxes are labelled 0..J; box j != 0 holds balls standing for edges of type j,
box 0 for empty edges. A step stands for one interaction: a ball moves from
box 1 to box 0 (an edge becoming empty) while a ball from a non-empty box
j != 0 moves to j-1, j or j+1 (the second edge's updated weight). Destination
J+1 is clamped to J: in the coupled edge process absolute weights never
exceed J*eps, so type J cannot be exceeded. The game halts when box 1 is
empty. Random play checks this before each step and picks the second box
uniformly, with moves from box 1 to box 0 allowed per the literal rules; the
deterministic worst-case play treats both moves of a step as simultaneous,
which its closed-form trajectory requires (see play_strategy_S). Box 0 gains
at least one ball per step and never loses any, so every play halts within
the total ball count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .common import check_seed


@dataclass(frozen=True)
class UrnState:
    counts: tuple[int, ...]  # index 0..J
    step: int = 0

    @property
    def n_boxes(self) -> int:
        return len(self.counts)

    def total(self) -> int:
        return sum(self.counts)


def uniform_start(balls_per_box: int, n_boxes: int) -> UrnState:
    """balls_per_box balls in every box j != 0, box 0 empty."""
    if n_boxes < 2:
        raise ValueError("need J >= 1 (at least boxes 0 and 1)")
    if balls_per_box < 0:
        raise ValueError("ball count must be >= 0")
    return UrnState((0,) + (balls_per_box,) * (n_boxes - 1), 0)


def play_random(initial: UrnState, seed: int) -> tuple[UrnState, int]:
    """Play with uniformly random choices; returns the final state and steps.

    If after the box-1 to box-0 move every box j != 0 is empty, the step ends
    with no second move (there is no interacting edge to pick). seed must be
    an int in [0, 2**64), as common.check_seed says.
    """
    check_seed(seed)
    counts = list(initial.counts)
    j_top = len(counts) - 1
    if j_top < 1:
        raise ValueError("need at least boxes 0 and 1")
    rng = random.Random(seed)
    steps = 0
    while counts[1] > 0:
        counts[1] -= 1
        counts[0] += 1
        nonempty = [j for j in range(1, j_top + 1) if counts[j] > 0]
        if nonempty:
            j = nonempty[rng.randrange(len(nonempty))]
            dest = j - 1 + rng.randrange(3)
            if dest > j_top:
                dest = j_top
            counts[j] -= 1
            counts[dest] += 1
        steps += 1
    return UrnState(tuple(counts), initial.step + steps), steps


def play_strategy_S(balls_per_box: int, n_boxes_above: int) -> tuple[int, list[UrnState]]:
    """Deterministic worst-case play from the uniform start.

    Each step moves a ball from box 1 to box 0 and takes a ball from the
    lowest-labelled non-empty box j >= 2, moving it to j-1. The two moves of
    a step are simultaneous: the step is legal while a ball can flow through
    box 1, i.e. box 1 is occupied or the j = 2 refill arrives within the
    step. (The final step of the worst-case trajectory drains a ball that
    enters box 1 during that very step.) With J >= 3 boxes above box 0 this
    halts after exactly 3*M steps and never touches boxes j >= 4. Returns
    (steps, trajectory including the initial state).
    """
    if n_boxes_above < 3:
        raise ValueError("strategy play requires J >= 3")
    if balls_per_box < 0:
        raise ValueError("ball count must be >= 0")
    counts = [0] + [balls_per_box] * n_boxes_above
    trajectory = [UrnState(tuple(counts), 0)]
    steps = 0
    # legal step: box 1 occupied, or box 2 occupied (its ball is the lowest
    # candidate, so the refill reaches box 1 within the step)
    while counts[1] > 0 or counts[2] > 0:
        for j in range(2, n_boxes_above + 1):
            if counts[j] > 0:
                counts[j] -= 1
                counts[j - 1] += 1
                break
        counts[1] -= 1
        counts[0] += 1
        steps += 1
        trajectory.append(UrnState(tuple(counts), steps))
    return steps, trajectory


def closed_form_Y(balls_per_box: int, n: int, n_boxes_above: int) -> UrnState:
    """State after step n of the strategy play, from the phase formulas.

    Phase 1 (n <= M): box 1 holds M, box 2 loses one ball per step. Phase 2
    (n = M + k, 1 <= k <= 2M): boxes 1 and 3 hold M - ceil(k/2) and box 2
    alternates 1 (k odd) and 0. Box 0 always holds n; boxes >= 4 never move.
    """
    m = balls_per_box
    if n_boxes_above < 3:
        raise ValueError("closed form requires J >= 3")
    if not 0 <= n <= 3 * m:
        raise ValueError(f"step index {n} out of range [0, {3 * m}]")
    counts = [0] + [m] * n_boxes_above
    counts[0] = n
    if n <= m:
        counts[2] = m - n
    else:
        k = n - m
        half = math.ceil(k / 2)
        counts[1] = m - half
        counts[2] = 1 if k % 2 == 1 else 0
        counts[3] = m - half
    return UrnState(tuple(counts), n)

