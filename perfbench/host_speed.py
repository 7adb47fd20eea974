"""A fixed piece of pure-Python work that times the host, not the program.

On a shared host, code switches every few milliseconds between a fast
state and one about 1.7 times slower, as other tenants load the machine,
and the share of time spent slow drifts over seconds to minutes.  The
benchmark runs `work` between its operations and scales each operation's
time by NOMINAL_S over the mean reference time measured around it, so a
figure reads as if the host ran at one fixed speed.  The work imports
nothing from the program, so a change to the program moves the operation
times and leaves the reference where it is.

The mix follows what the program's time goes to: field arithmetic through
method calls and table lookups with row elimination (coding), enumeration
of small tuples counted in a dict (oracle, assignment), and breadth-first
augmenting paths over adjacency lists (netflow).
"""

from __future__ import annotations

import itertools
import time
from collections import deque

# the reference's time in the host's fast state; scaled figures are in ms of it
NOMINAL_S = 0.0004


class _Field:
    """GF(2^8) with log / antilog tables."""

    def __init__(self) -> None:
        self.exp = [0] * 510
        self.log = [0] * 256
        x = 1
        for i in range(255):
            self.exp[i] = self.exp[i + 255] = x
            self.log[x] = i
            x <<= 1
            if x & 0x100:
                x ^= 0x11D

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        return self.exp[255 - self.log[a]]


_FIELD = _Field()
_SIZE = 10
_MATRIX = [[(i * 37 + j * 11 + i * j) % 255 + 1 for j in range(_SIZE)] for i in range(_SIZE)]
_GRAPH = [[(u * 5 + d) % 20 for d in (1, 3, 7)] for u in range(20)]


def _rank() -> int:
    f = _FIELD
    rows = [list(r) for r in _MATRIX]
    rank = 0
    for col in range(_SIZE):
        pivot = next((r for r in range(rank, _SIZE) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = f.inv(rows[rank][col])
        rows[rank] = [f.mul(scale, v) for v in rows[rank]]
        for r in range(_SIZE):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a ^ f.mul(factor, b) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _enumerate() -> int:
    counts: dict[tuple[int, ...], int] = {}
    for combo in itertools.combinations(range(9), 4):
        key = tuple(sorted(x % 5 for x in combo))
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def _paths() -> int:
    reached = 0
    for source in range(20):
        seen = {source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in _GRAPH[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        reached += len(seen)
    return reached


EXPECTED = (_rank(), _enumerate(), _paths())


def work() -> tuple[int, int, int]:
    return _rank(), _enumerate(), _paths()


def sample() -> float:
    """Seconds one round of the reference work takes now."""
    start = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - start
    if result != EXPECTED:
        raise RuntimeError(f"reference work gave {result}, expected {EXPECTED}")
    return elapsed


def samples_for(seconds: float) -> list[float]:
    """Rounds of the reference work, at least one, until they fill `seconds`."""
    taken = [sample()]
    while sum(taken) < seconds:
        taken.append(sample())
    return taken
