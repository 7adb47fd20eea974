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
assignment.py so the two can cross-check each other: the network is built
from the side-information sets and the matrix entries, never from the want
counts.

Each sink's flow is computed on a network pruned to what can reach it.
Flow into t_j runs along paths that end at t_j, and the other sinks have no
out-edges, so a u_h -> v_h pair with a[h][j] = 0 carries none of it: t_j's
network keeps hub -> u_h -> v_h -> t_j only for the rows with a[h][j] = 1.
A packet j holds reaches t_j over an unlimited edge, so a unit it sends
through the hub could take that edge instead; its x_i -> hub edge is
dropped too.  What is left has 2n + 3r edges, r the rows assigned to j, and
the same max flow as the full network.  Node numbers are those of the full
network; the pruned nodes are left without edges.

max_flow is Dinic's algorithm (1970).  A BFS labels each node with its
distance from s in the residual graph; a depth-first search then saturates
every shortest augmenting path, advancing a per-node edge pointer past the
edges it has used up, and the two repeat until s no longer reaches the
sink.  The search keeps its path in a list rather than recursing, because
residual paths can run far deeper than the network's six layers.

Network construction is pure; max_flow works on a private residual copy.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .assignment import AssignmentMatrix
from .instance import DmsiInstance


@dataclass(slots=True)
class FlowNetwork:
    """Edge-list digraph; edge 2t and 2t+1 are a forward/backward pair."""

    n: int
    m: int
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

    def sink(self, j: int) -> int:
        return 1 + self.n + 2 * self.m + j

    def add_edge(self, tail: int, head: int, cap: int) -> None:
        self.adjacency[tail].append(len(self.edge_head))
        self.edge_head.append(head)
        self.edge_cap.append(cap)
        self.adjacency[head].append(len(self.edge_head))
        self.edge_head.append(tail)
        self.edge_cap.append(0)


def build_network(
    instance: DmsiInstance, matrix: AssignmentMatrix, client: int | None = None
) -> FlowNetwork:
    """The full network, or with client given, the part that can reach its sink."""
    n, m, k = instance.n, len(matrix.rows), len(instance.clients)
    if matrix.k != k:
        raise ValueError(f"matrix has {matrix.k} columns for {k} clients")
    if client is None:
        sinks, held = range(k), ()
    elif 0 <= client < k:
        sinks, held = (client,), instance.clients[client].has
    else:
        raise ValueError(f"client index {client} outside [0, {k})")
    num_nodes = 2 + n + 2 * m + k
    net = FlowNetwork(n, m, num_nodes, [], [], [[] for _ in range(num_nodes)])
    add = net.add_edge
    unlimited = n  # total supply is n, so this cap never binds
    x, u, v, t = 1, 1 + n, 1 + n + m, 1 + n + 2 * m  # first x, u, v and t
    hub = t + k
    for i in range(n):
        add(0, x + i, 1)
    for j in sinks:
        for i in instance.clients[j].has:
            add(x + i, t + j, unlimited)
    for i in range(n):
        if i not in held:
            add(x + i, hub, unlimited)
    for h, row in enumerate(matrix.rows):
        if client is None or row[client]:
            add(hub, u + h, unlimited)
            add(u + h, v + h, 1)
            for j in sinks:
                if row[j]:
                    add(v + h, t + j, 1)
    return net


def max_flow(network: FlowNetwork, sink: int) -> int:
    """Dinic's max flow from the source to the given node index."""
    num_nodes = network.num_nodes
    if not 0 <= sink < num_nodes:
        raise ValueError(f"sink index {sink} outside [0, {num_nodes})")
    source = network.source
    if sink == source:
        return 0
    heads = network.edge_head
    adjacency = network.adjacency
    residual = list(network.edge_cap)
    flow = 0
    while True:
        # BFS levels; it stops once the sink has one, since every node nearer
        # than the sink is labelled by then and no other node at its level
        # lies on a shortest path
        level = [-1] * num_nodes
        level[source] = 0
        queue = [source]
        for node in queue:  # the list grows while it is walked: a FIFO queue
            below = level[node] + 1
            for edge in adjacency[node]:
                head = heads[edge]
                if residual[edge] and level[head] < 0:
                    level[head] = below
                    queue.append(head)
            if level[sink] >= 0:
                break
        else:
            return flow
        # blocking flow; path holds the edges from the source to node
        pointer = [0] * num_nodes
        path: list[int] = []
        node = source
        while True:
            if node == sink:
                pushed = min(map(residual.__getitem__, path))
                flow += pushed
                depth = -1
                for d, edge in enumerate(path):
                    residual[edge] -= pushed
                    residual[edge ^ 1] += pushed
                    if depth < 0 and not residual[edge]:
                        depth = d
                # go on from the tail of the first edge the push saturated
                node = heads[path[depth] ^ 1]
                del path[depth:]
                continue
            edges = adjacency[node]
            p = pointer[node]
            below = level[node] + 1
            end = len(edges)
            while p < end:
                edge = edges[p]
                if residual[edge] and level[heads[edge]] == below:
                    break
                p += 1
            pointer[node] = p
            if p < end:
                path.append(edge)
                node = heads[edge]
            elif node == source:
                break
            else:  # dead end: back up and skip the edge that led here
                node = heads[path.pop() ^ 1]
                pointer[node] += 1


def _sink_flows(instance: DmsiInstance, matrix: AssignmentMatrix) -> Iterator[int]:
    # checked here as well, since with no clients no network is built
    k = len(instance.clients)
    if matrix.k != k:
        raise ValueError(f"matrix has {matrix.k} columns for {k} clients")
    for j in range(k):
        network = build_network(instance, matrix, j)
        yield max_flow(network, network.sink(j))


def sink_flows(instance: DmsiInstance, matrix: AssignmentMatrix) -> tuple[int, ...]:
    """Max flow into each client's sink, each on its own pruned network."""
    return tuple(_sink_flows(instance, matrix))


def is_solvable(instance: DmsiInstance, matrix: AssignmentMatrix) -> bool:
    """True iff every client's sink can absorb n units of flow."""
    n = instance.n
    return all(flow >= n for flow in _sink_flows(instance, matrix))
