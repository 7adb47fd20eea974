"""Seeded input corpora for the three benchmark workloads.

Every corpus is a pure function of the workload seed.  The program never
sees the generator: it receives only the instance files written here (and,
for verify-simulate, the plan files it writes itself from them).

The feature that sets an operation's cost is fixed per position, the same
for every seed, so that the timings of two seeds differ by the host's noise
and not by the draws (with plain draws, the interquartile range over ten
seeds of a 768-item oracle pool's summed search size is 37 % of its
median, against 0 here); everything else is drawn from the seed:

- plan and verify-simulate: n runs through its range in turn, so the pool
  holds each n equally often, and each client's held-set size is a uniform
  draw fixed per position; which packets it holds and its delay are seeded
  draws;
- oracle-sweep: item i takes the (n, wants) cell at the i-th quantile of
  the regression sweep's draw distribution, cells ordered by search size,
  so the rare, expensive cells appear in every seed's pool equally often;
  held sets, delays and both matrices are seeded draws.  The oracle's cost
  depends on the want vector alone.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from pathlib import Path

# lcm(1..16): every integer delay 1..16 divides it, so bandwidth files keep
# integer delays and exercise the packet_size / bandwidth parse branch
PACKET_SIZE = 720720

PLAN_N_RANGE = (8, 20)
PLAN_POOL = 520  # 40 instances per n
VS_N_RANGE = (24, 28)
VS_PLANS = 8
VS_WIDE_FIELD_EVERY = 4
VS_WIDE_FIELD_DEGREE = 12
ORACLE_MAX_N = 6
ORACLE_MAX_K = 4
ORACLE_POOL = 768
ORACLE_M_LIMIT = 12  # brute_force_optimum's default m_cap ceiling


def item_rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


def n_in_turn(n_range: tuple[int, int], i: int) -> int:
    lo, hi = n_range
    return lo + i % (hi - lo + 1)


def client_docs(rng: random.Random, n: int, wants: list[int]) -> list[dict]:
    return [
        {
            "has": sorted(rng.sample(range(1, n + 1), n - w)),
            "delay": rng.randint(1, 16),
        }
        for w in wants
    ]


def use_bandwidth(doc: dict) -> dict:
    """Restate integer delays as packet_size / bandwidth."""
    for client in doc["clients"]:
        client["bandwidth"] = PACKET_SIZE // client.pop("delay")
    doc["packet_size"] = PACKET_SIZE
    return doc


def sized_instance(seed: int, i: int, n: int, bandwidth: bool) -> dict:
    """k = max(2, n // 2) clients, each holding a uniform 0..n packets.

    The held-set sizes depend on the position i alone; which packets each
    client holds, and its delay, depend on the seed too."""
    sizes = random.Random(i)
    wants = [n - sizes.randint(0, n) for _ in range(max(2, n // 2))]
    doc = {"n": n, "clients": client_docs(item_rng(seed, i), n, wants)}
    return use_bandwidth(doc) if bandwidth else doc


def dump(doc: object) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------- plan


def plan_instances(seed: int, count: int = PLAN_POOL) -> list[dict]:
    """n in turn over PLAN_N_RANGE; every other file states bandwidths."""
    return [
        sized_instance(seed, i, n_in_turn(PLAN_N_RANGE, i), i % 2 == 1) for i in range(count)
    ]


# ---------------------------------------------------------------- verify-simulate


def vs_instances(seed: int, count: int = VS_PLANS) -> list[tuple[dict, int | None]]:
    """(instance, field degree or None for the default) per plan."""
    out = []
    for i in range(count):
        n = n_in_turn(VS_N_RANGE, i)
        wide = i % VS_WIDE_FIELD_EVERY == VS_WIDE_FIELD_EVERY - 1
        out.append((sized_instance(seed, i, n, i % 2 == 1), VS_WIDE_FIELD_DEGREE if wide else None))
    return out


# ---------------------------------------------------------------- oracle-sweep


def _search_size(wants: tuple[int, ...]) -> int:
    """Candidate count the oracle's budget formula gives; a cost proxy."""
    m_star = max(wants, default=0)
    m_cap = max(m_star, min(sum(wants), ORACLE_M_LIMIT))
    return sum(
        math.prod(math.comb(m, w) for w in wants) for m in range(m_star, m_cap + 1)
    )


def oracle_cells() -> tuple[list[tuple[int, tuple[int, ...]]], list[float]]:
    """Every (n, wants) the regression sweep can draw, ordered by cost proxy.

    The sweep draws n uniform on 0..6, k uniform on 1..4 and each client's
    held-set size uniform on 0..n, so each want vector of length k has
    probability 1/7 * 1/4 * (n + 1)^-k.  Ordering cells by search size
    makes the quantile grid follow the cost distribution.
    """
    cells = []
    for n in range(ORACLE_MAX_N + 1):
        for k in range(1, ORACLE_MAX_K + 1):
            p = 1 / ((ORACLE_MAX_N + 1) * ORACLE_MAX_K * (n + 1) ** k)
            for wants in _want_vectors(n, k):
                cells.append((_search_size(wants), n, wants, p))
    cells.sort()
    cumulative, total = [], 0.0
    for *_, p in cells:
        total += p
        cumulative.append(total)
    return [(n, wants) for _, n, wants, _ in cells], [c / total for c in cumulative]


def _want_vectors(n: int, k: int):
    if k == 0:
        yield ()
        return
    for head in range(n + 1):
        for tail in _want_vectors(n, k - 1):
            yield (head, *tail)


def _random_rows(rng: random.Random, m: int, k: int) -> list[list[int]]:
    return [[rng.randint(0, 1) for _ in range(k)] for _ in range(m)]


def _surplus_rows(rng: random.Random, wants: tuple[int, ...]) -> list[list[int]]:
    """A feasible matrix in which columns may carry up to two extra ones."""
    m = max(wants, default=0) + rng.randint(0, 2)
    rows = [[0] * len(wants) for _ in range(m)]
    for j, w in enumerate(wants):
        for i in rng.sample(range(m), min(m, w + rng.randint(0, 2))):
            rows[i][j] = 1
    return rows


def oracle_items(seed: int, count: int = ORACLE_POOL) -> list[dict]:
    """Instance, a random matrix for the feasibility cross-check, and a
    feasible matrix with surplus ones for reduce + transform."""
    cells, cumulative = oracle_cells()
    items = []
    for i in range(count):
        u = (i + 0.5) / count
        n, wants = cells[min(bisect.bisect_right(cumulative, u), len(cells) - 1)]
        rng = item_rng(seed, i)
        wants = rng.sample(wants, len(wants))  # client order: the cost stays
        instance = {"n": n, "clients": client_docs(rng, n, wants)}
        m = rng.randint(0, max(wants) + 1)
        items.append(
            {
                "instance": instance,
                "random_rows": _random_rows(rng, m, len(wants)),
                "surplus_rows": _surplus_rows(rng, wants),
            }
        )
    return items


# ---------------------------------------------------------------- files


def write_vs_corpus(
    directory: Path, seed: int, count: int = VS_PLANS
) -> list[tuple[Path, int | None]]:
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for i, (doc, degree) in enumerate(vs_instances(seed, count)):
        path = directory / f"instance-{i:02d}.json"
        path.write_text(dump(doc))
        out.append((path, degree))
    return out


def write_oracle_corpus(directory: Path, seed: int, count: int = ORACLE_POOL) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "items.jsonl"
    path.write_text("".join(json.dumps(item) + "\n" for item in oracle_items(seed, count)))
    return path
