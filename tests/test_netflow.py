"""The layered network and its equivalence with the column-weight criterion."""

import itertools
import random
from collections import deque

import pytest

from conftest import make_instance, random_instance
from dmsiplan import (
    AssignmentMatrix,
    FlowNetwork,
    build_network,
    is_feasible,
    is_solvable,
    max_flow,
    sink_flows,
)


def edmonds_karp(network, sink):
    """Reference max flow: shortest augmenting paths, one BFS per path."""
    residual = list(network.edge_cap)
    source = network.source
    if sink == source:
        return 0
    flow = 0
    while True:
        arrived_by = [-1] * network.num_nodes
        arrived_by[source] = -2
        queue = deque([source])
        while queue and arrived_by[sink] == -1:
            node = queue.popleft()
            for edge in network.adjacency[node]:
                head = network.edge_head[edge]
                if residual[edge] > 0 and arrived_by[head] == -1:
                    arrived_by[head] = edge
                    queue.append(head)
        if arrived_by[sink] == -1:
            return flow
        bottleneck = None
        node = sink
        while node != source:
            edge = arrived_by[node]
            if bottleneck is None or residual[edge] < bottleneck:
                bottleneck = residual[edge]
            node = network.edge_head[edge ^ 1]
        node = sink
        while node != source:
            edge = arrived_by[node]
            residual[edge] -= bottleneck
            residual[edge ^ 1] += bottleneck
            node = network.edge_head[edge ^ 1]
        flow += bottleneck


def test_demo_network_shape(demo_instance, optimal_plan_matrix):
    net = build_network(demo_instance, optimal_plan_matrix)
    assert net.num_nodes == 1 + 6 + 5 + 5 + 4 + 1
    forward_edges = len(net.edge_head) // 2
    side_info = sum(len(c.has) for c in demo_instance.clients)
    ones = sum(sum(row) for row in optimal_plan_matrix.rows)
    assert side_info == 13
    assert forward_edges == 6 + side_info + 6 + 5 + 5 + ones


def test_pruned_network_keeps_only_what_reaches_the_sink(demo_instance, optimal_plan_matrix):
    for j, w in enumerate(optimal_plan_matrix.column_weights()):
        net = build_network(demo_instance, optimal_plan_matrix, j)
        assert net.num_nodes == 1 + 6 + 5 + 5 + 4 + 1
        # s -> x and one edge out of each x, then hub -> u -> v -> t per assigned row
        assert len(net.edge_head) // 2 == 6 + 6 + 3 * w
        assert max_flow(net, net.sink(j)) == 6


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
        build_network(demo_instance, AssignmentMatrix(rows=(), k=4), client=4)
    with pytest.raises(ValueError):
        sink_flows(demo_instance, AssignmentMatrix(rows=(), k=2))


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


def test_pruned_dinic_matches_full_edmonds_karp():
    """Per-sink flows on pruned networks equal Edmonds-Karp on the full one."""
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
        reference = tuple(edmonds_karp(full, full.sink(j)) for j in range(inst.k))
        assert sink_flows(inst, matrix) == reference
        assert all(max_flow(full, full.sink(j)) == reference[j] for j in range(inst.k))
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
    assert edmonds_karp(net, t) == max_flow(net, t) == 2
