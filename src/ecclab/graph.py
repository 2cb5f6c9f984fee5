"""Directed and undirected weighted graphs with the shortest-path primitives
used everywhere else in the package.

Distances are nonnegative integers; an unreachable vertex has distance INF,
which is the float infinity (never an integer sentinel).  Addition with INF
saturates naturally.
"""

from __future__ import annotations

import heapq
import json
import re
from collections import deque
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter, ne

INF = float("inf")

FORWARD = "forward"
BACKWARD = "backward"


class GraphFormatError(ValueError):
    """Raised for malformed graph text."""


class Graph:
    """A graph with vertices 0..n-1 and a list of weighted edges.

    For an undirected graph each edge is stored once and the adjacency is
    symmetric.  Parallel edges are permitted; shortest paths ignore the
    heavier copies.  ``edges`` is not changed after construction, so each
    view derived from it is computed once, on first use, and cached.

    The constructor checks every edge and drops self-loops; ``_trusted``
    builds a graph from edges already known to pass, with no check.
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
            # A bool is an int that write_graph would spell True or False;
            # testing it by identity costs a tenth of an isinstance call.
            if not isinstance(w, int) or w < 0 or w is True or w is False:
                raise GraphFormatError(f"edge weight must be a nonnegative int, got {w!r}")
            if u == v:
                continue
            self.edges.append((u, v, w))

    @classmethod
    def _trusted(cls, n, edges, undirected=False):
        """The graph on ``edges``, a list of (u, v, w) triples that the
        constructor would keep as they are: 0 <= u, v < n, u != v and w a
        nonnegative int.  Nothing is checked, and the list is not copied."""
        g = cls.__new__(cls)
        g.n, g.edges, g.undirected = n, edges, undirected
        return g

    @property
    def m(self):
        return len(self.edges)

    @cached_property
    def unit_weights(self):
        return self.max_weight == 1 == min(map(itemgetter(2), self.edges), default=1)

    @cached_property
    def max_weight(self):
        return max(map(itemgetter(2), self.edges), default=1)

    @cached_property
    def adj_out(self):
        out = [[] for _ in range(self.n)]
        if self.undirected:
            for u, v, w in self.edges:
                out[u].append((v, w))
                out[v].append((u, w))
        else:
            for u, v, w in self.edges:
                out[u].append((v, w))
        return out

    @cached_property
    def adj_in(self):
        if self.undirected:
            return self.adj_out
        inc = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            inc[v].append((u, w))
        return inc

    def directed_edges(self):
        """Yield every directed arc (both orientations if undirected)."""
        for u, v, w in self.edges:
            yield u, v, w
            if self.undirected:
                yield v, u, w

    def __repr__(self):
        kind = "undirected" if self.undirected else "directed"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


def shortest_paths(g, source, direction=FORWARD):
    """d(source -> v) for every v, or d(v -> source) BACKWARD, by BFS when all
    weights are 1 and Dijkstra otherwise.  ``source`` may be a list of
    vertices, all seeded at 0; d is then to the nearest (INF if it is empty)."""
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown direction {direction!r}")
    adj = g.adj_out if direction == FORWARD else g.adj_in
    sources = source if isinstance(source, list) else [source]
    dist = [INF] * g.n
    for s in sources:
        dist[s] = 0
    if g.unit_weights:
        q = deque(sources)
        while q:
            u = q.popleft()
            du = dist[u] + 1
            for v, _ in adj[u]:
                if du < dist[v]:
                    dist[v] = du
                    q.append(v)
    else:
        heap = [(0, s) for s in sources]
        heapq.heapify(heap)
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
    dist = shortest_paths(g, source, direction)
    near = heapq.nsmallest(k, ((d, v) for v, d in enumerate(dist) if d != INF))
    return [(v, d) for d, v in near]


def topological_order(g):
    """Kahn's algorithm, smallest vertex id first.  None if g has a cycle."""
    indeg = [0] * g.n
    for _, v, _ in g.directed_edges() if g.undirected else g.edges:
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


def condense_scc(g):
    """Strongly connected components plus the condensation DAG.

    Returns (comp, dag) where comp[v] is the component id of v and dag is a
    Graph over the components, with the lightest arc from one component to
    another.  Kosaraju's two searches find the components: a depth-first
    search over out-arcs gives a finish order, then in reverse finish order
    each search over in-arcs from an unlabeled vertex labels one component.
    Component ids are renumbered by the smallest original vertex they
    contain, which makes the result deterministic.
    """
    n = g.n
    adj_out, adj_in = g.adj_out, g.adj_in
    seen = [False] * n
    finish = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(adj_out[root]))]
        while work:
            v, arcs = work[-1]
            for w, _ in arcs:
                if not seen[w]:
                    seen[w] = True
                    work.append((w, iter(adj_out[w])))
                    break
            else:
                work.pop()
                finish.append(v)

    comp = [-1] * n
    for root in reversed(finish):
        if comp[root] != -1:
            continue
        comp[root] = root
        work = [root]
        while work:
            for w, _ in adj_in[work.pop()]:
                if comp[w] == -1:
                    comp[w] = root
                    work.append(w)

    # Renumber components by smallest member id: in increasing vertex order
    # a component first shows up at its smallest member.
    relabel = {}
    comp = [relabel.setdefault(c, len(relabel)) for c in comp]
    ncomp = len(relabel)

    best = {}
    for u, v, w in g.directed_edges() if g.undirected else g.edges:
        cu, cv = comp[u], comp[v]
        if cu == cv:
            continue
        key = (cu, cv)
        if w < best.get(key, INF):
            best[key] = w
    dag = Graph._trusted(ncomp, [(u, v, w) for (u, v), w in best.items()])
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
    h = Graph._trusted(g.n, [(pos[u], pos[v], w) for u, v, w in g.edges], g.undirected)
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

    Text spelled exactly as ``write_graph`` writes it (ASCII digits, single
    spaces, every line ending in a newline, no comment and no blank line) is
    read fastest, by ``_read_canonical``, which reads its integers with the C
    JSON scanner.  Any other text (a number with a leading zero is one) takes
    the general path below, and any other valid spelling gives the same
    graph.  There the edge lines are split, counted and converted in bulk,
    with no token list kept; only a file that fails is read again line by
    line, for its first bad line.  A bad line is reported before a wrong edge
    count, and that before an edge out of range or a negative weight.
    """
    g = _read_canonical(text)
    if g is not None:
        return g
    raws = text.splitlines()
    lines = [raw.split("#", 1)[0] for raw in raws] if "#" in text else raws
    counts = list(map(len, map(str.split, lines)))
    if 0 in counts:
        # Blank and comment-only lines.
        kept = [i for i, c in enumerate(counts) if c]
        raws, lines, counts = ([seq[i] for i in kept] for seq in (raws, lines, counts))
    if not lines:
        raise GraphFormatError("missing header line")
    raw, parts = raws[0], lines[0].split()
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
    arity = 3 if weighted == "W" else 2
    raws, lines, counts = raws[1:], lines[1:], counts[1:]
    if (counts and not min(counts) == max(counts) == arity) or len(lines) != m:
        _check_edge_lines(raws, lines, arity)
        raise GraphFormatError(f"header announces {m} edges, found {len(lines)}")
    # Graph checks the range and the weights, and takes (u, v) as an edge of
    # weight 1.
    ints = map(int, chain.from_iterable(map(str.split, lines)))
    try:
        return Graph(n, zip(*[ints] * arity), undirected=(kind == "U"))
    except ValueError:
        # A non-integer token, or Graph's own error, which a bad line precedes.
        _check_edge_lines(raws, lines, arity)
        raise


# The header write_graph writes, and the digits its edge lines are spelled in.
_CANONICAL_HEADER = re.compile(r"p ([0-9]+) ([0-9]+) ([DU]) ([W1])\n")
_DIGITS = dict.fromkeys(map(ord, "0123456789"))
_COMMAS = {ord(" "): ",", ord("\n"): ","}


def _read_canonical(text):
    """The graph of ``text`` when it is spelled as ``write_graph`` writes it
    and holds no error, by one pass per step that runs in C; None for any
    other text, which read_graph's general path then reads or refuses."""
    head = _CANONICAL_HEADER.match(text)
    if head is None or not text.endswith("\n"):
        return None
    arity = 3 if head[4] == "W" else 2
    body = text[head.end():]
    lines = body.count("\n")
    # With its digits deleted, the body must be each line's single spaces and
    # newline.  A regular expression repeated once per line costs a
    # backtracking frame per line: 1.9 MB of peak RSS at 10,000 lines.
    if body.translate(_DIGITS) != (" " * (arity - 1) + "\n") * lines:
        return None
    try:
        n, m = int(head[1]), int(head[2])
        # The C JSON scanner reads the numbers, as one array with a comma for
        # each separator, in half the time int() takes per token.
        ints = json.loads("[" + body.translate(_COMMAS)[:-1] + "]")
    except ValueError:
        # A number longer than int() converts, or one with a leading zero,
        # which JSON refuses; the general path reads or names it.
        return None
    # One number per separator, and the body ends in one, so no number is
    # empty: no line starts with a space and no separator doubles up.
    us, vs = ints[0::arity], ints[1::arity]
    if m != lines or len(ints) != arity * m or max(max(us, default=-1), max(vs, default=-1)) >= n:
        return None
    # Digits alone spell no negative weight; self-loops are dropped, as Graph
    # drops them.
    arcs = zip(us, vs, ints[2::3] if arity == 3 else repeat(1))
    return Graph._trusted(n, list(compress(arcs, map(ne, us, vs))), head[3] == "U")


def _check_edge_lines(raws, lines, arity):
    """Raise the GraphFormatError of the first edge line, comment stripped,
    with the wrong number of tokens or a non-integer one."""
    for raw, line in zip(raws, lines):
        parts = line.split()
        if len(parts) != arity:
            raise GraphFormatError(f"expected {'u v w' if arity == 3 else 'u v'!r}: {raw!r}")
        try:
            list(map(int, parts))
        except ValueError as exc:
            raise GraphFormatError(f"non-integer in edge line: {raw!r}") from exc
