"""Seeded inputs for the three workloads, as plain ``(src, dst)`` tuples.

Everything here is the benchmark's own: a Dyck-word generator, random
leaf placement, arbitrary pairings and the streaming arrival trace.  The
program under test never generates its own inputs; ``run.py`` converts
these tuples into ``CommunicationSet`` objects before any timing starts,
and the checker compares every result against the tuples kept here.

The grids are fixed and only the draws inside each cell depend on the
seed, so two seeds give workloads of the same shape and size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Pairs = tuple[tuple[int, int], ...]

#: ``SchedulerConfig.columnar_threshold``'s default: direct-cold puts two
#: tree sizes on each side of it.
CROSSOVER = 4096


def dyck_word(n_pairs: int, rng: random.Random) -> str:
    """A random Dyck word: shuffle the brackets, rotate at the minimum prefix."""
    chars = ["("] * n_pairs + [")"] * n_pairs
    rng.shuffle(chars)
    depth, low, cut = 0, 0, 0
    for i, ch in enumerate(chars):
        depth += 1 if ch == "(" else -1
        if depth < low:
            low, cut = depth, i + 1
    return "".join(chars[cut:] + chars[:cut])


def place(word: str, positions: list[int]) -> Pairs:
    """Pair each ``(`` with its ``)``; character ``i`` sits on ``positions[i]``."""
    stack: list[int] = []
    pairs = []
    for ch, leaf in zip(word, positions):
        if ch == "(":
            stack.append(leaf)
        else:
            pairs.append((stack.pop(), leaf))
    return tuple(sorted(pairs))


def well_nested(n_pairs: int, n_leaves: int, rng: random.Random) -> Pairs:
    """A right-oriented well-nested set on ``2 * n_pairs`` random leaves."""
    leaves = sorted(rng.sample(range(n_leaves), 2 * n_pairs))
    return place(dyck_word(n_pairs, rng), leaves)


def arbitrary(n_pairs: int, n_leaves: int, rng: random.Random) -> Pairs:
    """Random pairing of random leaves: crossings and both orientations."""
    leaves = rng.sample(range(n_leaves), 2 * n_pairs)
    return tuple(sorted(zip(leaves[0::2], leaves[1::2])))


# -- direct-cold ---------------------------------------------------------------

DIRECT_SIZES = (1024, 2048, CROSSOVER, 2 * CROSSOVER)
DIRECT_PAIRS = (8, 24, 64)
DIRECT_REPLICAS = 9


def direct_cold(seed: int) -> list[tuple[Pairs, int]]:
    """One pass: every (tree size, pair count) cell ``DIRECT_REPLICAS`` times."""
    rng = random.Random(seed)
    out = [
        (well_nested(m, n, rng), n)
        for n in DIRECT_SIZES
        for m in DIRECT_PAIRS
        for _ in range(DIRECT_REPLICAS)
    ]
    rng.shuffle(out)
    return out


# -- batch-hot -----------------------------------------------------------------

HOT_SIZES = (256, 512, 1024, 2048)
HOT_PAIRS = (8, 32, 64)
HOT_WORKING_SET = 48  # below the service's default cache capacity of 256
HOT_DRAINS = 16
HOT_DRAIN_SIZE = 32


def batch_hot(seed: int) -> tuple[list[tuple[Pairs, int]], list[list[int]]]:
    """The working set, and one pass of drains as indices into it."""
    rng = random.Random(seed)
    working = []
    for i in range(HOT_WORKING_SET):
        n = HOT_SIZES[i % len(HOT_SIZES)]
        m = HOT_PAIRS[(i // len(HOT_SIZES)) % len(HOT_PAIRS)]
        working.append((well_nested(m, n, rng), n))
    drains = [
        [rng.randrange(HOT_WORKING_SET) for _ in range(HOT_DRAIN_SIZE)]
        for _ in range(HOT_DRAINS)
    ]
    return working, drains


# -- stream-tenants --------------------------------------------------------------


@dataclass(frozen=True)
class Arrival:
    """One request of the arrival trace, released at logical tick ``tick``."""

    tick: int
    tenant: str
    pairs: Pairs
    n_leaves: int
    high: bool


STREAM_TICKS = 24
STREAM_CACHE = 32          # fewer than the distinct sets in a pass
STREAM_MAX_INFLIGHT = 8    # burst ticks queue; ordinary ticks do not
CROSS_SIZES = (128, 256)
CROSS_PAIRS = (8, 16, 24)
SHAPE_LEAVES = CROSSOVER
SHAPE_PAIRS = 48
SHAPE_WORDS = 12
SHAPE_SPAN = 1024          # leaves one shape's placement occupies
SMALL_SIZES = (256, 512, 1024)
SMALL_PAIRS = (8, 24, 48)
SMALL_POOL = 24
BURST_EVERY = 12
BURST_SIZE = 8


def stream_tenants(seed: int) -> list[Arrival]:
    """One pass of the three-tenant arrival trace, ordered by tick.

    Per ordinary tick: one crossing set (HIGH), one shape pair (two
    placements of one Dyck word, NORMAL) and two small well-nested sets
    drawn with repeats from a small pool (NORMAL).  Every
    ``BURST_EVERY`` ticks the small tenant adds a burst that overflows
    the per-tick budget, so some requests wait a tick and DRR picks.
    """
    rng = random.Random(seed)
    # which pool set each small request repeats is fixed, not seeded, so
    # every seed gives the same pattern of cache hits and misses
    picks = random.Random(0)
    shape_words = [dyck_word(SHAPE_PAIRS, rng) for _ in range(SHAPE_WORDS)]
    shape_base = [
        sorted(rng.sample(range(SHAPE_SPAN), 2 * SHAPE_PAIRS)) for _ in shape_words
    ]
    pool = [
        (
            well_nested(
                SMALL_PAIRS[i % len(SMALL_PAIRS)],
                SMALL_SIZES[(i // len(SMALL_PAIRS)) % len(SMALL_SIZES)],
                rng,
            ),
            SMALL_SIZES[(i // len(SMALL_PAIRS)) % len(SMALL_SIZES)],
        )
        for i in range(SMALL_POOL)
    ]
    trace: list[Arrival] = []
    for tick in range(STREAM_TICKS):
        n = CROSS_SIZES[tick % len(CROSS_SIZES)]
        m = CROSS_PAIRS[tick % len(CROSS_PAIRS)]
        trace.append(Arrival(tick, "crossing", arbitrary(m, n, rng), n, True))
        k = tick % SHAPE_WORDS
        for _ in range(2):
            shift = rng.randrange(SHAPE_LEAVES - SHAPE_SPAN)
            pairs = place(shape_words[k], [p + shift for p in shape_base[k]])
            trace.append(Arrival(tick, "shapes", pairs, SHAPE_LEAVES, False))
        extra = BURST_SIZE if tick % BURST_EVERY == BURST_EVERY - 1 else 0
        for _ in range(2 + extra):
            pairs, n = pool[picks.randrange(SMALL_POOL)]
            trace.append(Arrival(tick, "small", pairs, n, False))
    return trace
