"""Directed and undirected weighted graphs with the shortest-path primitives
used everywhere else in the package.

Distances are nonnegative integers; an unreachable vertex has distance INF,
which is the float infinity (never an integer sentinel).  Addition with INF
saturates naturally.
"""

from __future__ import annotations

import heapq
from collections import deque

INF = float("inf")

FORWARD = "forward"
BACKWARD = "backward"


class GraphFormatError(ValueError):
    """Raised for malformed graph text."""


class Graph:
    """A graph with vertices 0..n-1 and a list of weighted edges.

    For an undirected graph each edge is stored once and the adjacency is
    symmetric.  Parallel edges are permitted; shortest paths ignore the
    heavier copies.
    """

    def __init__(self, n, edges=(), undirected=False):
        self.n = n
        self.undirected = undirected
        self.edges = []
        for e in edges:
            if len(e) == 2:
                u, v = e
                w = 1
            else:
                u, v, w = e
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
            if not isinstance(w, int) or w < 0:
                raise GraphFormatError(f"edge weight must be a nonnegative int, got {w!r}")
            if u == v:
                continue
            self.edges.append((u, v, w))
        self._adj_out = None
        self._adj_in = None
        self._unit = None

    @property
    def m(self):
        return len(self.edges)

    @property
    def unit_weights(self):
        if self._unit is None:
            self._unit = all(w == 1 for _, _, w in self.edges)
        return self._unit

    @property
    def max_weight(self):
        return max((w for _, _, w in self.edges), default=1)

    @property
    def adj_out(self):
        if self._adj_out is None:
            out = [[] for _ in range(self.n)]
            for u, v, w in self.edges:
                out[u].append((v, w))
                if self.undirected:
                    out[v].append((u, w))
            self._adj_out = out
        return self._adj_out

    @property
    def adj_in(self):
        if self.undirected:
            return self.adj_out
        if self._adj_in is None:
            inc = [[] for _ in range(self.n)]
            for u, v, w in self.edges:
                inc[v].append((u, w))
            self._adj_in = inc
        return self._adj_in

    def directed_edges(self):
        """Yield every directed arc (both orientations if undirected)."""
        for u, v, w in self.edges:
            yield u, v, w
            if self.undirected:
                yield v, u, w

    def has_edge(self):
        return bool(self.edges)

    def __repr__(self):
        kind = "undirected" if self.undirected else "directed"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


def _adjacency(g, direction):
    if direction == FORWARD:
        return g.adj_out
    if direction == BACKWARD:
        return g.adj_in
    raise ValueError(f"unknown direction {direction!r}")


def shortest_paths(g, source, direction=FORWARD):
    """Single-source distances; BFS when all weights are 1, Dijkstra otherwise."""
    adj = _adjacency(g, direction)
    n = g.n
    dist = [INF] * n
    dist[source] = 0
    if g.unit_weights:
        q = deque([source])
        while q:
            u = q.popleft()
            du = dist[u] + 1
            for v, _ in adj[u]:
                if du < dist[v]:
                    dist[v] = du
                    q.append(v)
    else:
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    return dist


def truncated_shortest_paths(g, source, k, direction=FORWARD):
    """The k closest vertices to ``source`` in (distance, vertex-id) order.

    Returns a list of (vertex, distance) pairs of length min(k, #reachable).
    """
    if k <= 0:
        return []
    adj = _adjacency(g, direction)
    dist = {source: 0}
    settled = []
    done = set()
    heap = [(0, source)]
    while heap and len(settled) < k:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        settled.append((u, d))
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return settled


def topological_order(g):
    """Kahn's algorithm, smallest vertex id first.  None if g has a cycle."""
    indeg = [0] * g.n
    for _, v, _ in g.directed_edges():
        indeg[v] += 1
    heap = [v for v in range(g.n) if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    adj = g.adj_out
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v, _ in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(order) != g.n:
        return None
    return order


def is_dag(g):
    return not g.undirected and topological_order(g) is not None


def condense_scc(g):
    """Strongly connected components plus the condensation DAG.

    Returns (comp, dag) where comp[v] is the component id of v and dag is a
    Graph over the components.  Component ids are renumbered by the smallest
    original vertex they contain, which makes the result deterministic.
    """
    n = g.n
    adj = g.adj_out
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comp = [-1] * n
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        # Iterative Tarjan.
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi][0]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])

    # Renumber components by smallest member id.
    smallest = [n] * ncomp
    for v in range(n):
        smallest[comp[v]] = min(smallest[comp[v]], v)
    order = sorted(range(ncomp), key=lambda c: smallest[c])
    relabel = [0] * ncomp
    for new, old in enumerate(order):
        relabel[old] = new
    comp = [relabel[c] for c in comp]

    best = {}
    for u, v, w in g.directed_edges():
        cu, cv = comp[u], comp[v]
        if cu == cv:
            continue
        key = (cu, cv)
        if w < best.get(key, INF):
            best[key] = w
    dag = Graph(ncomp, [(u, v, w) for (u, v), w in best.items()])
    return comp, dag


def sample_vertex_set(n, size, rng):
    """A uniform random vertex subset of the requested size."""
    if size >= n:
        return set(range(n))
    return set(rng.sample(range(n), size))


def relabel_topological(g):
    """Relabel a DAG so vertex ids are a topological order.

    Returns (relabeled_graph, order) where order[new_id] = original id, and
    raises ValueError when g has a cycle (an undirected edge is one).
    """
    order = topological_order(g)
    if order is None:
        raise ValueError("graph is not a DAG")
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    h = Graph(g.n, [(pos[u], pos[v], w) for u, v, w in g.edges], undirected=g.undirected)
    return h, order


def write_graph(g):
    """Serialize to the plain text graph format."""
    kind = "U" if g.undirected else "D"
    weighted = "1" if g.unit_weights else "W"
    lines = [f"p {g.n} {g.m} {kind} {weighted}"]
    for u, v, w in g.edges:
        if weighted == "1":
            lines.append(f"{u} {v}")
        else:
            lines.append(f"{u} {v} {w}")
    return "\n".join(lines) + "\n"


def read_graph(text):
    """Parse the plain text graph format.

    Header: ``p <n> <m> <D|U> <W|1>``.  Then one line per edge, 0-indexed,
    ``u v`` for unit weights or ``u v w`` when weighted; ``#`` starts a
    comment.  Undirected edges are listed once.
    """
    header = None
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "p" or len(parts) != 5:
                raise GraphFormatError(f"bad header line: {raw!r}")
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"bad header counts: {raw!r}") from exc
            if n < 0 or m < 0:
                raise GraphFormatError(f"negative header counts: {raw!r}")
            kind, weighted = parts[3], parts[4]
            if kind not in ("D", "U") or weighted not in ("W", "1"):
                raise GraphFormatError(f"bad header flags: {raw!r}")
            header = (n, m, kind, weighted)
            continue
        n, m, kind, weighted = header
        if weighted == "1" and len(parts) != 2:
            raise GraphFormatError(f"expected 'u v': {raw!r}")
        if weighted == "W" and len(parts) != 3:
            raise GraphFormatError(f"expected 'u v w': {raw!r}")
        try:
            edges.append((int(parts[0]), int(parts[1]), int(parts[2]) if weighted == "W" else 1))
        except ValueError as exc:
            raise GraphFormatError(f"non-integer in edge line: {raw!r}") from exc
    if header is None:
        raise GraphFormatError("missing header line")
    n, m, kind, _ = header
    if len(edges) != m:
        raise GraphFormatError(f"header announces {m} edges, found {len(edges)}")
    return Graph(n, edges, undirected=(kind == "U"))
