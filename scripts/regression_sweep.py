#!/usr/bin/env python3
"""Random-instance sweep over --count seeded draws (seed 0, n <= 6 packets,
k <= 4 clients): on every draw the closed form, the constructed optimal plan,
and the oracle's complete enumeration must agree exactly; a code built for
the plan (default field) must pass decodability_check and let every client
decode a random payload; and the weight and max-flow feasibility tests must
give the same verdict on a random matrix.  Exits nonzero on the first
failure."""

import argparse
import os
import random
import sys
import time
from fractions import Fraction

from dmsiplan import (
    AssignmentMatrix,
    ClientSpec,
    CodeConstructionError,
    DmsiInstance,
    brute_force_optimum,
    closed_form_delay,
    construct_code,
    decodability_check,
    is_feasible,
    is_solvable,
    optimal_assignment,
    run_simulation,
    total_delay,
)

SEED = 0


def draw_instance(
    rng: random.Random, max_n: int = 6, max_k: int = 4, delay_range: tuple[int, int] = (1, 16)
) -> DmsiInstance:
    """n <= max_n packets, 1..max_k clients, each holding a uniform number of
    them, and integer delays in delay_range; the tests draw their corpora here."""
    n = rng.randint(0, max_n)
    clients = []
    for _ in range(rng.randint(1, max_k)):
        has = frozenset(rng.sample(range(n), rng.randint(0, n)))
        clients.append(ClientSpec(has=has, delay=Fraction(rng.randint(*delay_range))))
    return DmsiInstance(n=n, clients=tuple(clients))


def draw_matrix(rng: random.Random, instance: DmsiInstance) -> AssignmentMatrix:
    m = rng.randint(0, max(instance.want_counts(), default=0) + 1)
    rows = tuple(
        tuple(rng.randint(0, 1) for _ in range(instance.k)) for _ in range(m)
    )
    return AssignmentMatrix(rows=rows, k=instance.k)


def certify_code(instance: DmsiInstance, matrix: AssignmentMatrix, seed: int) -> str | None:
    """Build a code for the plan and decode one payload at every client."""
    code = construct_code(instance, matrix, seed=seed)
    if not all(decodability_check(instance, matrix, code)):
        return "decodability_check fails on the constructed code"
    # a payload stream of its own, so the instance draws stay those of the seed
    decoded = run_simulation(instance, matrix, code, payload_seed=seed).decoded_ok
    failed = [j + 1 for j, ok in enumerate(decoded) if not ok]
    return f"clients {failed} do not decode the payload" if failed else None


def sweep(count: int) -> tuple[int, list[str]]:
    """The exit status and the lines that report it."""
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    examined = 0
    slowest = (0.0, None)
    for i in range(count):
        instance = draw_instance(rng)
        t1 = time.perf_counter()
        result = brute_force_optimum(instance)
        dt = time.perf_counter() - t1
        if dt > slowest[0]:
            slowest = (dt, instance)
        examined += result.matrices_examined

        closed = closed_form_delay(instance)
        _, star = optimal_assignment(instance)
        constructed = total_delay(star, instance.delays()).total
        if not (result.best_total == closed == constructed):
            return 1, [
                f"DISAGREEMENT on draw {i}: {instance}",
                f"  enumerated {result.best_total}, closed {closed}, "
                f"constructed {constructed}",
            ]

        try:
            problem = certify_code(instance, star, seed=i)
        except (CodeConstructionError, ValueError) as err:
            problem = f"{type(err).__name__}: {err}"
        if problem:
            return 1, [f"CODE FAILURE on draw {i}: {instance}: {problem}"]

        matrix = draw_matrix(rng, instance)
        if is_solvable(instance, matrix) != is_feasible(matrix, instance):
            return 1, [f"FEASIBILITY DISAGREEMENT on draw {i}: {instance} {matrix}"]

    elapsed = time.perf_counter() - t0
    return 0, [
        f"{count} draws agreed; {examined} candidates enumerated in {elapsed:.2f}s",
        f"slowest single search: {slowest[0] * 1000:.1f} ms on {slowest[1]}",
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    args = parser.parse_args()
    status, lines = sweep(args.count)
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # the reader stopped early: send the rest nowhere, so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
