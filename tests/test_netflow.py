"""The layered network and its equivalence with the column-weight criterion."""

import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmsiplan.netflow as netflow
from conftest import instances, make_instance, random_instance
from dmsiplan import AssignmentMatrix, is_feasible, is_solvable, sink_flows
from dmsiplan.netflow import FlowNetwork, build_network, max_flow


def test_demo_network_shape(demo_instance, optimal_plan_matrix):
    net = build_network(demo_instance, optimal_plan_matrix)
    assert net.num_nodes == 1 + 6 + 5 + 5 + 4 + 1
    forward_edges = len(net.edge_head) // 2
    side_info = sum(len(c.has) for c in demo_instance.clients)
    ones = sum(sum(row) for row in optimal_plan_matrix.rows)
    assert side_info == 13
    assert forward_edges == 6 + side_info + 6 + 5 + 5 + ones


def test_demo_witness_flows_match_the_full_network(
    demo_instance, hand_plan_matrix, optimal_plan_matrix
):
    for j, client in enumerate(demo_instance.clients):
        column = [row[j] for row in optimal_plan_matrix.rows]
        held, pairs, sink_side = netflow._witness(6, client.has, column)
        # the optimal plan gives each client exactly the rows it misses, so every
        # assigned row carries one missing packet and the cut is {s}
        assert sorted(held) == sorted(client.has)
        assert [h for _, h in pairs] == [h for h, a in enumerate(column) if a]
        assert len(held) + len(pairs) == 6 and sink_side is None
    for matrix in (hand_plan_matrix, optimal_plan_matrix):
        net = build_network(demo_instance, matrix)
        full = tuple(max_flow(net, net.sink(j)) for j in range(4))
        assert sink_flows(demo_instance, matrix) == full == (6, 6, 6, 6)


def test_demo_network_flows(demo_instance, hand_plan_matrix, optimal_plan_matrix):
    for matrix in (hand_plan_matrix, optimal_plan_matrix):
        net = build_network(demo_instance, matrix)
        assert [max_flow(net, net.sink(j)) for j in range(4)] == [6, 6, 6, 6]
        assert is_solvable(demo_instance, matrix)


def test_dropping_a_needed_row_starves_the_hungriest_client(demo_instance, optimal_plan_matrix):
    short = AssignmentMatrix(rows=optimal_plan_matrix.rows[:4], k=4)
    net = build_network(demo_instance, short)
    # C4 holds one packet and now gets only 4 of the 5 rows it needs
    assert max_flow(net, net.sink(3)) == 5
    assert not is_solvable(demo_instance, short)
    assert not is_feasible(short, demo_instance)


def test_max_flow_never_exceeds_packet_count(demo_instance, optimal_plan_matrix):
    net = build_network(demo_instance, optimal_plan_matrix)
    for j in range(4):
        assert max_flow(net, net.sink(j)) <= demo_instance.n


def test_dimension_mismatch_rejected(demo_instance):
    with pytest.raises(ValueError):
        build_network(demo_instance, AssignmentMatrix(rows=(), k=2))
    with pytest.raises(ValueError):
        sink_flows(demo_instance, AssignmentMatrix(rows=(), k=2))


def test_max_flow_rejects_a_sink_outside_the_network(demo_instance, optimal_plan_matrix):
    network = build_network(demo_instance, optimal_plan_matrix)
    for sink in (-1, network.num_nodes):
        with pytest.raises(ValueError, match=re.escape(
            f"sink index {sink} outside [0, {network.num_nodes})"
        )):
            max_flow(network, sink)


def test_max_flow_into_the_source_is_zero(demo_instance, optimal_plan_matrix):
    assert max_flow(build_network(demo_instance, optimal_plan_matrix), 0) == 0


def test_empty_instance_is_solvable():
    inst = make_instance(0, [], [])
    assert is_solvable(inst, AssignmentMatrix(rows=(), k=0))


def _all_side_info_sets(n, k):
    subsets = [frozenset(s) for r in range(n + 1) for s in itertools.combinations(range(n), r)]
    return itertools.product(subsets, repeat=k)


def test_equivalence_exhaustive_small():
    """Both feasibility criteria agree on every tiny configuration."""
    for n in range(0, 4):
        for k in (1, 2):
            for has_sets in _all_side_info_sets(n, k):
                inst = make_instance(n, has_sets, [2] * k)
                for m in range(0, 4):
                    for bits in itertools.product((0, 1), repeat=m * k):
                        rows = tuple(
                            tuple(bits[i * k : (i + 1) * k]) for i in range(m)
                        )
                        matrix = AssignmentMatrix(rows=rows, k=k)
                        assert is_feasible(matrix, inst) == is_solvable(inst, matrix)


def test_equivalence_random_corpus():
    rng = random.Random(777)
    agreements = 0
    for _ in range(1000):
        inst = random_instance(rng, max_n=5, max_k=3)
        m = rng.randint(0, 5)
        rows = tuple(
            tuple(rng.randint(0, 1) for _ in range(inst.k)) for _ in range(m)
        )
        matrix = AssignmentMatrix(rows=rows, k=inst.k)
        assert is_feasible(matrix, inst) == is_solvable(inst, matrix)
        agreements += 1
    assert agreements == 1000


def test_adding_an_assignment_never_lowers_flow():
    rng = random.Random(4242)
    for _ in range(200):
        inst = random_instance(rng, max_n=4, max_k=3)
        m = rng.randint(1, 4)
        rows = [[rng.randint(0, 1) for _ in range(inst.k)] for _ in range(m)]
        matrix = AssignmentMatrix(rows=tuple(tuple(r) for r in rows), k=inst.k)
        zeros = [(i, j) for i in range(m) for j in range(inst.k) if rows[i][j] == 0]
        if not zeros:
            continue
        i, j = rng.choice(zeros)
        rows[i][j] = 1
        bumped = AssignmentMatrix(rows=tuple(tuple(r) for r in rows), k=inst.k)
        before = build_network(inst, matrix)
        after = build_network(inst, bumped)
        for sink_client in range(inst.k):
            assert max_flow(after, after.sink(sink_client)) >= max_flow(
                before, before.sink(sink_client)
            )


def test_witness_matches_max_flow_on_the_full_network():
    """Witness flows equal the augmenting-path search on the full network."""
    rng = random.Random(9001)
    short = 0
    for _ in range(150):
        inst = random_instance(rng, max_n=30, max_k=12)
        density = rng.random()
        rows = tuple(
            tuple(int(rng.random() < density) for _ in range(inst.k))
            for _ in range(rng.randint(0, inst.n))
        )
        matrix = AssignmentMatrix(rows=rows, k=inst.k)
        full = build_network(inst, matrix)
        reference = tuple(max_flow(full, full.sink(j)) for j in range(inst.k))
        assert sink_flows(inst, matrix) == reference
        assert is_solvable(inst, matrix) == all(f == inst.n for f in reference)
        short += sum(f < inst.n for f in reference)
    assert short >= 300


def test_max_flow_on_a_path_deeper_than_the_recursion_limit():
    length = 5000
    net = FlowNetwork(n=0, m=0, num_nodes=length)
    for node in range(length - 1):
        net.add_edge(node, node + 1, 2)
    net.add_edge(0, length - 1, 1)
    assert max_flow(net, length - 1) == 3
    assert max_flow(net, length // 2) == 2


def test_max_flow_undoes_a_shortest_path_that_blocks():
    """s-x-y-t is the only shortest path; the max flow of 2 must take it back."""
    s, x, y, t, z, w, u, v = range(8)
    net = FlowNetwork(n=0, m=0, num_nodes=8)
    for tail, head in [(s, x), (x, y), (y, t), (x, z), (z, w), (w, t), (s, u), (u, v), (v, y)]:
        net.add_edge(tail, head, 1)
    assert max_flow(net, t) == 2


@st.composite
def _instance_with_matrix(draw):
    instance = draw(instances(max_n=12, max_k=6))
    row = st.tuples(*[st.integers(0, 1)] * instance.k)
    rows = draw(st.lists(row, max_size=14))
    return instance, AssignmentMatrix(rows=tuple(rows), k=instance.k)


@given(_instance_with_matrix())
@settings(max_examples=300)
def test_sink_flows_equal_max_flow_on_the_full_network(case):
    instance, matrix = case
    net = build_network(instance, matrix)
    full = tuple(max_flow(net, net.sink(j)) for j in range(instance.k))
    assert sink_flows(instance, matrix) == full


def _swap_packet(held, pairs, sink_side):
    """The first hub path starts at a held packet instead of a missing one."""
    return held, [(held[0], pairs[0][1]), *pairs[1:]], sink_side


def _repeat_row(held, pairs, sink_side):
    return held, [pairs[0], (pairs[1][0], pairs[0][1])], sink_side


def _unassigned_row(held, pairs, sink_side):
    return held, [pairs[0], (pairs[1][0], 2)], sink_side


def _lacking_packet(held, pairs, sink_side):
    """A direct path from a packet the client misses."""
    return [*held, pairs[0][0]], pairs[1:], sink_side


def _packet_past_n(held, pairs, sink_side):
    return held, [pairs[0], (3, pairs[1][1])], sink_side


def _packet_below_0(held, pairs, sink_side):
    return held, [pairs[0], (-1, pairs[1][1])], sink_side


def _cut_of_s(held, pairs, sink_side):
    return held, pairs, None


def _cut_without_held(held, pairs, sink_side):
    return held, pairs, ([], sink_side[1])


def _short_flow(held, pairs, sink_side):
    return held, pairs[:-1], sink_side


# one client holding packet 0 of 3; rows 0 and 1 are assigned to it, row 2 is
# not, and in the short matrix only row 0 is
FULL = ((1,), (1,), (0,))
SHORT = ((1,), (0,))


@pytest.mark.parametrize(
    "rows, tamper, message",
    [
        (FULL, _swap_packet, "s -> x_i edge carries two units"),
        (FULL, _repeat_row, "u_h -> v_h edge carries two units"),
        (FULL, _unassigned_row, "row not assigned to the client"),
        (FULL, _lacking_packet, "packet the client lacks"),
        (FULL, _packet_past_n, "packet the network lacks"),
        (FULL, _packet_below_0, "packet the network lacks"),
        (FULL, _short_flow, "flow value 2 differs from cut capacity 3"),
        (SHORT, _cut_of_s, "flow value 2 differs from cut capacity 3"),
        (SHORT, _cut_without_held, "flow value 2 differs from cut capacity 4"),
    ],
    ids=[
        "held-packet-through-hub", "row-used-twice", "row-not-assigned",
        "direct-from-missing-packet", "packet-past-n", "packet-below-0", "flow-below-cut", "cut-s-above-flow",
        "cut-above-flow",
    ],
)
def test_the_witness_check_refuses_a_bad_witness(monkeypatch, rows, tamper, message):
    instance = make_instance(3, [{0}], [1])
    matrix = AssignmentMatrix(rows=rows, k=1)
    assert sink_flows(instance, matrix) == (1 + sum(row[0] for row in rows),)
    real = netflow._witness
    monkeypatch.setattr(netflow, "_witness", lambda *args: tamper(*real(*args)))
    with pytest.raises(RuntimeError, match=re.escape(message)):
        sink_flows(instance, matrix)
    with pytest.raises(RuntimeError, match=re.escape(message)):
        is_solvable(instance, matrix)


def test_the_witness_check_accepts_another_minimum_cut(monkeypatch):
    """Moving v_h out of the sink side swaps u_h -> v_h for v_h -> t_j: still 2."""
    instance = make_instance(3, [{0}], [1])
    matrix = AssignmentMatrix(rows=SHORT, k=1)
    real = netflow._witness
    monkeypatch.setattr(
        netflow, "_witness", lambda *args: (*real(*args)[:2], ([0], []))
    )
    assert sink_flows(instance, matrix) == (2,)


def test_the_witness_check_takes_memory_by_paths_not_by_packets():
    """One client holding nothing of 2 million packets, one row: a one-path
    witness, checked without a set of every packet."""
    instance = make_instance(2_000_000, [set()], [1])
    matrix = AssignmentMatrix(rows=((1,),), k=1)
    tracemalloc.start()
    try:
        assert sink_flows(instance, matrix) == (1,)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
