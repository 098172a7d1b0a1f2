"""Independent output checker for the benchmark.

It reads a settled result as plain data (rounds of ``(src, dst)`` pairs,
the tree size, per-switch change counts) and checks it against the
requested pairs with computations of its own; it calls nothing in
``repro``.  Run ``python3 perfbench/checker.py`` for the self-test.

Checks
------
* delivery (Theorem 4): the delivered pairs equal the requested set,
  each pair once, nothing spurious;
* round validity: no directed tree edge carries two pairs in one round;
* round count (Theorem 5): a well-nested request takes exactly ``width``
  rounds; any other request takes between ``width`` and the sum of the
  widths of its outermost-first non-crossing layers;
* Theorem 8: a well-nested request changes no switch more than
  ``T8_CHANGES_BOUND`` times (derived in README.md).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

Pair = tuple[int, int]

#: Per-switch configuration-change bound for well-nested sets: a switch's
#: configuration is fixed by the input driving each of its three outputs,
#: and each output's driver is established once and alternates at most
#: twice over a schedule (Lemmas 6-7), so at most 3 * (1 + 2) rounds
#: change it.  It depends on neither width nor tree size.
T8_CHANGES_BOUND = 9


@dataclass(frozen=True)
class View:
    """What the checker reads off one settled result."""

    n_leaves: int
    rounds: tuple[tuple[Pair, ...], ...]
    switch_changes_max: int
    power_units: int
    logical_messages: int = 0
    physical_messages: int = 0
    batches: int = 1


def view_from_payload(payload: dict) -> View:
    """Decode a serialized schedule payload (plain or general) by hand."""
    body = payload.get("combined", payload)
    changes = body["power"]["per_switch_changes"].values()
    return View(
        n_leaves=int(body["n_leaves"]),
        rounds=tuple(
            tuple((int(s), int(d)) for s, d in r["performed"]) for r in body["rounds"]
        ),
        switch_changes_max=max(changes, default=0),
        power_units=int(body["power"]["total_units"]),
        logical_messages=int(body["control"]["messages"]),
        physical_messages=int(body["control"]["physical_messages"]),
        batches=int(payload["decompose"]["n_batches"]) if "decompose" in payload else 1,
    )


def view_from_schedule(schedule) -> View:
    """Read a live ``Schedule`` object through its public attributes only."""
    return View(
        n_leaves=schedule.n_leaves,
        rounds=tuple(
            tuple((c.src, c.dst) for c in r.performed) for r in schedule.rounds
        ),
        switch_changes_max=max(schedule.power.per_switch_changes.values(), default=0),
        power_units=schedule.power.total_units,
        logical_messages=schedule.control_messages,
        physical_messages=schedule.physical_messages,
    )


def path_edges(src: int, dst: int, n_leaves: int) -> list[tuple[int, int]]:
    """Directed edges of the tree path, as ``(child heap id, 0 up / 1 down)``."""
    a, b = n_leaves + src, n_leaves + dst
    edges = []
    while a != b:
        edges.append((a, 0))
        edges.append((b, 1))
        a >>= 1
        b >>= 1
    return edges


def width(pairs: Iterable[Pair], n_leaves: int) -> int:
    """Largest number of pairs sharing one directed edge."""
    load: Counter = Counter()
    for s, d in pairs:
        load.update(path_edges(s, d, n_leaves))
    return max(load.values(), default=0)


def _crosses(a: Pair, b: Pair) -> bool:
    (al, ar), (bl, br) = sorted(a), sorted(b)
    return al < bl <= ar < br or bl < al <= br < ar


def is_well_nested(pairs: Sequence[Pair]) -> bool:
    """Right-oriented with no two intervals crossing."""
    if any(s >= d for s, d in pairs):
        return False
    ends = sorted([(s, 0, i) for i, (s, _) in enumerate(pairs)]
                  + [(d, 1, i) for i, (_, d) in enumerate(pairs)])
    stack: list[int] = []
    for _, closing, i in ends:
        if not closing:
            stack.append(i)
        elif not stack or stack.pop() != i:
            return False
    return True


def layers(pairs: Iterable[Pair]) -> list[list[Pair]]:
    """Outermost-first first-fit non-crossing layers, per orientation."""
    out: list[list[Pair]] = []
    for right in (True, False):
        mine: list[list[Pair]] = []
        chosen = [p for p in pairs if (p[0] < p[1]) == right]
        for p in sorted(chosen, key=lambda p: (min(p), -max(p))):
            for layer in mine:
                if not any(_crosses(p, q) for q in layer):
                    layer.append(p)
                    break
            else:
                mine.append([p])
        out.extend(mine)
    return out


@dataclass(frozen=True)
class Expected:
    """What a correct result for one request must satisfy."""

    pairs: tuple[Pair, ...]
    n_leaves: int
    width: int
    well_nested: bool
    max_rounds: int


def expect(pairs: Sequence[Pair], n_leaves: int) -> Expected:
    """Width, class and round ceiling of one request, computed here."""
    w = width(pairs, n_leaves)
    nested = is_well_nested(pairs)
    ceiling = w if nested else sum(width(layer, n_leaves) for layer in layers(pairs))
    return Expected(tuple(pairs), n_leaves, w, nested, ceiling)


def check(expected: Expected, view: View) -> list[str]:
    """Every problem found in one result; empty when the result is correct."""
    problems = []
    n = view.n_leaves
    if n != expected.n_leaves:
        problems.append(f"scheduled on {n} leaves, requested {expected.n_leaves}")
    delivered = Counter(p for rnd in view.rounds for p in rnd)
    wanted = Counter(expected.pairs)
    if delivered != wanted:
        missing = sorted((wanted - delivered).elements())
        extra = sorted((delivered - wanted).elements())
        twice = sorted(p for p, k in delivered.items() if k > 1)
        problems.append(
            f"delivery: missing {missing[:4]}, spurious {extra[:4]}, twice {twice[:4]}"
        )
    for index, rnd in enumerate(view.rounds):
        used: Counter = Counter()
        for s, d in rnd:
            if not (0 <= s < n and 0 <= d < n):
                problems.append(f"round {index}: pair {(s, d)} outside the tree")
                break
            used.update(path_edges(s, d, n))
        clash = [e for e, k in used.items() if k > 1]
        if clash:
            problems.append(f"round {index}: edges {clash[:4]} carry two pairs")
    rounds = len(view.rounds)
    if not expected.width <= rounds <= expected.max_rounds:
        problems.append(
            f"rounds: {rounds} outside [{expected.width}, {expected.max_rounds}]"
        )
    if expected.well_nested and view.switch_changes_max > T8_CHANGES_BOUND:
        problems.append(
            f"T8: a switch changed {view.switch_changes_max} times "
            f"(bound {T8_CHANGES_BOUND})"
        )
    return problems


def self_test() -> list[str]:
    """Corrupt a correct schedule four ways; each must be rejected.

    Returns the names of the cases the checker got wrong: a corruption
    it accepted or rejected for another reason, or the correct schedule
    rejected.
    """
    n = 8
    requested = [(0, 7), (1, 2), (3, 6), (4, 5)]  # width 2
    first, second = ((0, 7), (4, 5)), ((1, 2), (3, 6))
    cases = {
        "clean": ((first, second), None),
        "dropped": ((first, ((1, 2),)), "delivery"),
        "duplicated": ((first, (*second, (4, 5))), "delivery"),
        "wrong leaf": ((first, ((1, 2), (3, 5))), "delivery"),
        "edge clash": ((first + ((3, 6),), ((1, 2),)), "carry two pairs"),
    }
    expected = expect(requested, n)
    failures = [] if expected.width == 2 and expected.well_nested else ["expect"]
    for name, (rounds, reason) in cases.items():
        problems = check(expected, View(n, rounds, 2, 12))
        if reason is None:
            ok = not problems
        else:
            ok = any(reason in p for p in problems)
        if not ok:
            failures.append(name)
    return failures


if __name__ == "__main__":
    import sys

    failed = self_test()
    print("checker self-test:", "FAILED " + ", ".join(failed) if failed else "ok")
    sys.exit(1 if failed else 0)
