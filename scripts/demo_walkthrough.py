#!/usr/bin/env python3
"""Full pipeline on the bundled six-packet instance: start from a hand-built
feasible plan, rewrite it step by step into the optimal one, confirm the
optimum by exhaustive search, then broadcast a random payload and decode."""

import argparse
from pathlib import Path

from dmsiplan import (
    AssignmentMatrix,
    brute_force_optimum,
    closed_form_delay,
    parse_instance,
    run_simulation,
    total_delay,
    transform_to_optimal,
)
from dmsiplan.cli import _rational_text, build_plan, render_plan

# feasible by inspection, but pays for packet 3 twice at the slow client
HAND_PLAN = ((1, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1), (0, 0, 1, 1), (0, 0, 1, 1))

INSTANCE = Path(__file__).resolve().parent.parent / "data" / "demo_instance.json"
PAYLOAD_SEED = 0


def show_matrix(matrix):
    for row in matrix.rows:
        print("   " + " ".join(str(a) for a in row))


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()  # no options but --help

    instance = parse_instance(INSTANCE.read_text())
    print(f"{instance.n} packets, {instance.k} clients, wants {instance.want_counts()}")

    print("\nhand-built plan:")
    hand = AssignmentMatrix(rows=HAND_PLAN, k=instance.k)
    show_matrix(hand)
    report = total_delay(hand, instance.delays())
    print(f"   total delay {_rational_text(report.total)}")

    print("\nrewriting toward the optimum:")
    trace = transform_to_optimal(hand, instance)
    for step in trace.steps:
        print(f"   {step.label}: total {_rational_text(step.total)}")
    print(f"   closed form: {_rational_text(closed_form_delay(instance))}")

    print("\noptimal plan with a verified code:")
    bundle = build_plan(instance)
    print(render_plan(bundle))

    print("\nexhaustive confirmation:")
    result = brute_force_optimum(instance)
    print(
        f"   {result.matrices_examined} candidates over m in "
        f"[{result.m_range[0]}, {result.m_range[1]}]; "
        f"minimum {_rational_text(result.best_total)}"
    )

    print("\nbroadcast simulation:")
    sim = run_simulation(instance, bundle.matrix, bundle.code, PAYLOAD_SEED)
    print(f"   payload {sim.payload}")
    print(f"   broadcast {sim.broadcast}")
    for j in range(instance.k):
        status = "ok" if sim.decoded_ok[j] else "FAILED"
        print(
            f"   C{j + 1} complete at t={_rational_text(sim.completion[j])}, decode {status}"
        )
    print(f"   final clock {_rational_text(sim.final_clock)}")


if __name__ == "__main__":
    main()
