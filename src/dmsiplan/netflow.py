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
receive n units of flow.  "Unlimited" is capacity n, which no flow can
exceed, since the n unit edges out of s carry it all.  This is deliberately
independent of the column-weight criterion in assignment.py so the two can
cross-check each other: every check below reads the side-information sets
and the matrix entries, never the want counts.

sink_flows proves each sink's max flow with a witness instead of searching
for it: a flow and an s-t cut of equal value, since no flow exceeds any
cut's capacity (Ford & Fulkerson, 1956).  For client j, with r_j rows
assigned to it, the witness is built in O(n + m):

- Flow.  Each held packet i takes s -> x_i -> t_j.  The first
  min(n - |has_j|, r_j) missing packets pair in order with distinct
  assigned rows h and take s -> x_i -> hub -> u_h -> v_h -> t_j.  Its value
  is min(n, |has_j| + r_j).
- Cut.  When the value is n, the source side is {s} alone, with the n unit
  edges s -> x_i crossing.  Otherwise every assigned row carries a missing
  packet, and the sink side is T = {t_j, held x_i, v_h of assigned rows}.
  Into T come only s -> x_i of the held packets and u_h -> v_h of the
  assigned rows, |has_j| + r_j unit edges: each x_i -> t_j and v_h -> t_j
  edge starts inside T, and the hub, the u_h and the other sinks have no
  other edge into it.

_checked_value checks the witness before its value is returned.  Every
path starts with s -> x_i, so i must be one of the n packets, which the
least and largest i show without a set of all n.  A direct
path needs x_i -> t_j, so i must be held; a hub path needs v_h -> t_j, so
a[h][j] must be 1; x_i -> hub and hub -> u_h exist for every packet and
row.  No s -> x_i or u_h -> v_h edge may carry two units, which also keeps
every unlimited edge within n.  The cut's capacity is summed over every
edge the rules put into its sink side from outside, and it must equal the
flow's value, or the check raises.

build_network and max_flow are the reference the tests compare sink_flows
against: the full network, and a max-flow search on it by shortest
augmenting paths (Edmonds & Karp, 1972).  Each round a breadth-first search
from s finds a shortest residual path to the sink, and the path carries its
bottleneck; the rounds stop once s no longer reaches the sink.  The search
walks lists rather than recursing, because residual paths can run far
deeper than the network's six layers.  It is checked from outside as well:
each sink_flows value it must match is proved by that witness's own cut.

Network construction is pure; max_flow works on a private residual copy.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import compress, filterfalse, repeat
from operator import itemgetter

from .assignment import AssignmentMatrix, _check_client_count
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

    # node numbering: s = 0, then x_1..x_n, u_1..u_m, v_1..v_m, t_1..t_k, hub
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
    """The full layered network, with a sink for every client."""
    _check_client_count(matrix, instance)
    n, m, k = instance.n, len(matrix.rows), instance.k
    num_nodes = 2 + n + 2 * m + k
    net = FlowNetwork(n, m, num_nodes, [], [], [[] for _ in range(num_nodes)])
    add = net.add_edge
    unlimited = n  # total supply is n, so this cap never binds
    x, u, v, t = 1, 1 + n, 1 + n + m, 1 + n + 2 * m  # first x, u, v and t
    hub = t + k
    for i in range(n):
        add(0, x + i, 1)
    for j, client in enumerate(instance.clients):
        for i in client.has:
            add(x + i, t + j, unlimited)
    for i in range(n):
        add(x + i, hub, unlimited)
    for h, row in enumerate(matrix.rows):
        add(hub, u + h, unlimited)
        add(u + h, v + h, 1)
        for j, a in enumerate(row):
            if a:
                add(v + h, t + j, 1)
    return net


def max_flow(network: FlowNetwork, sink: int) -> int:
    """Max flow from the source, node 0, to the given node index."""
    num_nodes = network.num_nodes
    if not 0 <= sink < num_nodes:
        raise ValueError(f"sink index {sink} outside [0, {num_nodes})")
    if sink == 0:
        return 0
    heads = network.edge_head
    adjacency = network.adjacency
    residual = list(network.edge_cap)
    flow = 0
    while True:
        # BFS; arrived_by[node] is the edge that first reached node, s aside
        arrived_by = [-1] * num_nodes
        queue = [0]
        for node in queue:  # the list grows while it is walked: a FIFO queue
            for edge in adjacency[node]:
                head = heads[edge]
                if residual[edge] and head and arrived_by[head] < 0:
                    arrived_by[head] = edge
                    queue.append(head)
            if arrived_by[sink] >= 0:
                break
        else:
            return flow
        path = []
        node = sink
        while node:
            path.append(arrived_by[node])
            node = heads[path[-1] ^ 1]
        pushed = min(map(residual.__getitem__, path))
        for edge in path:
            residual[edge] -= pushed
            residual[edge ^ 1] += pushed
        flow += pushed


_PACKET, _ROW = itemgetter(0), itemgetter(1)
# (held packets, (packet, row) pairs through the hub, sink side or None for {s})
_Witness = tuple[list[int], list[tuple[int, int]], tuple[list[int], list[int]] | None]


def _witness(n: int, has: frozenset[int], column: Sequence[int]) -> _Witness:
    """One client's flow paths and a cut of the same capacity, unchecked.

    The sink side, when the cut is not {s}, is given as the packets i and
    rows h whose x_i and v_h join t_j there.
    """
    held = list(has)
    assigned = list(compress(range(len(column)), column))
    pairs = list(zip(filterfalse(has.__contains__, range(n)), assigned))
    if len(held) + len(pairs) == n:
        return held, pairs, None
    return held, pairs, (held, assigned)


def _checked_value(
    n: int, has: frozenset[int], column: Sequence[int], witness: _Witness
) -> int:
    """The witness's flow value, once each path and the cut obey the edge rules."""
    held, pairs, sink_side = witness
    packets = set(held)
    packets.update(map(_PACKET, pairs))
    rows = set(map(_ROW, pairs))
    assigned = set(compress(range(len(column)), column))
    if not has.issuperset(held):
        raise RuntimeError("a direct path leaves a packet the client lacks: no x_i -> t_j")
    if not rows <= assigned:
        raise RuntimeError("a hub path ends in a row not assigned to the client: no v_h -> t_j")
    if packets and not (0 <= min(packets) and max(packets) < n):
        raise RuntimeError("a path starts at a packet the network lacks: no s -> x_i")
    if len(packets) < len(held) + len(pairs):
        raise RuntimeError("an s -> x_i edge carries two units")
    if len(rows) < len(pairs):
        raise RuntimeError("a u_h -> v_h edge carries two units")
    value = len(held) + len(pairs)
    if sink_side is None:
        capacity = n  # the unit edges s -> x_i
    else:
        near_packets, near_rows = map(set, sink_side)
        # every edge into the sink side from outside: s -> x_i and u_h -> v_h
        # for its x_i and v_h, and x_i -> t_j and v_h -> t_j for those it leaves out
        capacity = (
            len(near_packets) + len(near_rows)
            + n * len(has - near_packets) + len(assigned - near_rows)
        )
    if capacity != value:
        raise RuntimeError(f"flow value {value} differs from cut capacity {capacity}")
    return value


def _sink_flows(instance: DmsiInstance, matrix: AssignmentMatrix) -> Iterator[int]:
    _check_client_count(matrix, instance)  # zip below would drop a column silently
    n = instance.n
    columns = zip(*matrix.rows) if matrix.rows else repeat((), instance.k)
    for client, column in zip(instance.clients, columns):
        has = client.has
        yield _checked_value(n, has, column, _witness(n, has, column))


def sink_flows(instance: DmsiInstance, matrix: AssignmentMatrix) -> tuple[int, ...]:
    """Max flow into each client's sink, each proved by a checked flow and cut."""
    return tuple(_sink_flows(instance, matrix))


def is_solvable(instance: DmsiInstance, matrix: AssignmentMatrix) -> bool:
    """True iff every client's sink can absorb n units of flow."""
    return all(map(instance.n.__le__, _sink_flows(instance, matrix)))
