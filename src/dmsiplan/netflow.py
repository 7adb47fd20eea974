"""Max-flow check that an assignment matrix really supports a coded broadcast.

For an instance with n packets and an m x k assignment matrix, the layered
network has a source s, one node x_i per original packet, a pair u_h -> v_h
per broadcast packet (the unit edge between them models that each broadcast
carries one symbol), one sink t_j per client, and a hub through which every
packet reaches every encoder:

    s -> x_i            capacity 1
    x_i -> t_j          unlimited, iff client j already holds packet i
    x_i -> hub          unlimited
    hub -> u_h          unlimited (the encoder may mix anything)
    u_h -> v_h          capacity 1
    v_h -> t_j          capacity 1, iff a[h][j] = 1

The hub stands in for the complete x_i -> u_h bipartite graph with n + m
edges instead of n * m.  It admits the same flows: every x_i still reaches
every u_h with unlimited capacity.

The matrix admits a feasible coded broadcast exactly when every sink can
receive n units of flow.  "Unlimited" is capacity n, which no s-side cut can
exceed.  This is deliberately independent of the column-weight criterion in
assignment.py so the two can cross-check each other.

Network construction is pure; max_flow works on a private residual copy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .assignment import AssignmentMatrix
from .instance import DmsiInstance


@dataclass
class FlowNetwork:
    """Edge-list digraph; edge 2t and 2t+1 are a forward/backward pair."""

    n: int
    m: int
    k: int
    num_nodes: int
    edge_head: list[int] = field(default_factory=list)
    edge_cap: list[int] = field(default_factory=list)
    adjacency: list[list[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.adjacency:
            self.adjacency = [[] for _ in range(self.num_nodes)]

    # node numbering: s, then x_1..x_n, u_1..u_m, v_1..v_m, t_1..t_k, hub
    @property
    def source(self) -> int:
        return 0

    @property
    def hub(self) -> int:
        return 1 + self.n + 2 * self.m + self.k

    def packet_node(self, i: int) -> int:
        return 1 + i

    def encoder_node(self, h: int) -> int:
        return 1 + self.n + h

    def broadcast_node(self, h: int) -> int:
        return 1 + self.n + self.m + h

    def sink(self, j: int) -> int:
        return 1 + self.n + 2 * self.m + j

    def add_edge(self, tail: int, head: int, cap: int) -> None:
        self.adjacency[tail].append(len(self.edge_head))
        self.edge_head.append(head)
        self.edge_cap.append(cap)
        self.adjacency[head].append(len(self.edge_head))
        self.edge_head.append(tail)
        self.edge_cap.append(0)


def build_network(instance: DmsiInstance, matrix: AssignmentMatrix) -> FlowNetwork:
    if matrix.k != instance.k:
        raise ValueError(f"matrix has {matrix.k} columns for {instance.k} clients")
    n, m, k = instance.n, matrix.m, instance.k
    net = FlowNetwork(n=n, m=m, k=k, num_nodes=2 + n + 2 * m + k)
    unlimited = n  # total supply is n, so this cap never binds
    for i in range(n):
        net.add_edge(net.source, net.packet_node(i), 1)
    for i in range(n):
        for j in range(k):
            if i in instance.clients[j].has:
                net.add_edge(net.packet_node(i), net.sink(j), unlimited)
    for i in range(n):
        net.add_edge(net.packet_node(i), net.hub, unlimited)
    for h in range(m):
        net.add_edge(net.hub, net.encoder_node(h), unlimited)
    for h in range(m):
        net.add_edge(net.encoder_node(h), net.broadcast_node(h), 1)
    for h in range(m):
        for j in range(k):
            if matrix.rows[h][j]:
                net.add_edge(net.broadcast_node(h), net.sink(j), 1)
    return net


def max_flow(network: FlowNetwork, sink: int) -> int:
    """Edmonds-Karp from the source to the given node index."""
    if not 0 <= sink < network.num_nodes:
        raise ValueError(f"sink index {sink} outside [0, {network.num_nodes})")
    residual = list(network.edge_cap)
    source = network.source
    if sink == source:
        return 0
    flow = 0
    while True:
        # BFS for the shortest augmenting path, remembering arrival edges
        arrived_by: list[int] = [-1] * network.num_nodes
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


def is_solvable(instance: DmsiInstance, matrix: AssignmentMatrix) -> bool:
    """True iff every client's sink can absorb n units of flow."""
    network = build_network(instance, matrix)
    return all(
        max_flow(network, network.sink(j)) >= instance.n for j in range(instance.k)
    )
