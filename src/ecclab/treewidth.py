"""Exact eccentricities on graphs of small treewidth.

The solver follows the divide-and-conquer scheme: split the vertex set along
a bag of the decomposition into a balanced side with few boundary portals,
compute portal distances, recurse on both sides augmented with portal-to-
portal shortcut edges, and resolve the cross-side farthest vertices through
the portals with rangemax.three_layer_farthest, a min-plus loop over the
distinct shapes of the portal distance vectors.

find_portal_split cuts at the most balanced bag-tree edge, with at most width
portals, or else at a centroid bag, with at most width + 1 portals (the bound
of a bag separator), so every graph above the base-case size of
max(width**3, 16) vertices can split.

Splitting is the costly path, though, where the graph's weighted diameter is
small against n.  So each node first tries the level sweep of the oracle
(Akiba, Iwata and Yoshida, SIGMOD 2013) under a budget of what splitting it
would cost, and splits only where the sweep gives up (see _sweep_budget); a
base case tries it under its default budget and then takes the matrix path.
On k-trees the sweep answers the top node: the benchmark's tw-ktree jobs
took a third of the time of always splitting, and an undirected 3-tree of
25,600 vertices about half.  On unit cycles, whose diameter is n / 2, the
sweep gives up at the upper nodes, or the memory gate skips them, and they
split as before: at 1,600 and 3,200 vertices the time did not move.

The decomposition is validated once, by where each vertex tops out on the
bag tree, and normalised (no tree edge joins nested bags) only if the top
node splits.  Each side recurses on it restricted to its own vertices,
renumbered and normalised by _side, so it has at most one bag per vertex.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from operator import add

from .graph import (
    BACKWARD,
    FORWARD,
    INF,
    Graph,
    shortest_paths,
)
from .oracle import (
    MAX,
    MIN,
    ROUNDTRIP_MAX_LEVELS,
    SOURCE,
    UNDIRECTED,
    check_variant,
    eccentricity_report,
    exact_eccentricities,
    pair_row,
    sweep_ecc,
)
from .rangemax import ThreeLayerInstance, three_layer_farthest


class DecompositionError(ValueError):
    """Raised when a tree decomposition fails validation."""


class PortalSplitError(RuntimeError):
    """Raised when a graph is too small to split into two non-empty parts."""


@dataclass
class TreeDecomposition:
    """Bags and the bag tree's edges.  Every producer (read_td, _normalize,
    _side and both decomposers) builds a new object, and nothing changes
    bags or tree afterwards, so width is computed once."""

    bags: list
    tree: list

    def __post_init__(self):
        self.bags = [frozenset(b) for b in self.bags]
        self.tree = [tuple(e) for e in self.tree]

    @cached_property
    def width(self):
        # No bags: width -1, so an empty decomposition's bag size reads 0.
        return max((len(b) for b in self.bags), default=0) - 1

    def neighbors(self):
        adj = [[] for _ in self.bags]
        for i, j in self.tree:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def validate(self, g):
        """Raise the first fault: in the bag tree, a vertex outside 0..n-1 or in
        no bag, the first edge in no bag, the first vertex topping out twice
        (see _tops).  Two subtrees meet exactly when one holds the other's top."""
        nb = len(self.bags)
        if nb == 0:
            raise DecompositionError("decomposition has no bags")
        if len(self.tree) != nb - 1:
            raise DecompositionError(
                f"bag tree must have {nb - 1} edges, found {len(self.tree)}"
            )
        for i, j in self.tree:
            if not (0 <= i < nb and 0 <= j < nb):
                raise DecompositionError(f"bag tree edge ({i},{j}) out of range")
        order, parent = _bfs_order(self.neighbors())
        if len(order) != nb:
            raise DecompositionError("bag tree is not connected")
        top, parts, _ = _tops(self.bags, order, parent)
        outside = [v for v in top if not 0 <= v < g.n]
        if outside:
            raise DecompositionError(f"bag vertices outside 0..{g.n - 1}: {sorted(outside)[:5]}")
        if len(top) != g.n:
            missing = set(range(g.n)) - top.keys()
            raise DecompositionError(f"vertices not covered by any bag: {sorted(missing)[:5]}")
        for u, v, _ in g.edges:
            if u not in self.bags[top[v]] and v not in self.bags[top[u]] and not (
                    any(v in self.bags[b] for b in parts.get(u, ()))
                    or any(u in self.bags[b] for b in parts.get(v, ()))):
                raise DecompositionError(f"edge ({u},{v}) not covered by any bag")
        if parts:
            raise DecompositionError(f"bags containing vertex {min(parts)} are not connected")


def _bfs_order(adj):
    """The bags reached from bag 0 along the neighbour lists adj, in
    breadth-first order, and each bag's parent: -1 for bag 0, None for a bag
    not reached."""
    parent = [None] * len(adj)
    parent[0] = -1
    order = [0]
    for u in order:
        for v in adj[u]:
            if parent[v] is None:
                parent[v] = u
                order.append(v)
    return order, parent


def _tops(bags, order, parent):
    """Where vertices top out on the bag tree as _bfs_order roots it: at each
    bag holding them whose parent does not.  top[v] is v's last such bag,
    parts[v] all of them if more than one, count[b] how many top out at b."""
    top, parts, count = {}, {}, [0] * len(bags)
    for b in order:
        vs = bags[b] - bags[parent[b]] if b else bags[b]
        count[b] = len(vs)
        for v in vs:
            if v in top:
                parts.setdefault(v, [top[v]]).append(b)
            top[v] = b
    return top, parts, count


def write_td(td, n):
    """PACE-2017 style text; bag ids are 1-indexed, vertices 0-indexed."""
    lines = [f"s td {len(td.bags)} {td.width + 1} {n}"]
    for i, b in enumerate(td.bags):
        lines.append("b " + " ".join([str(i + 1)] + [str(v) for v in sorted(b)]))
    for i, j in td.tree:
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def read_td(text, n):
    """Parse write_td's format for a graph of n vertices.  The one 's td'
    line gives the bag count N, the largest bag size and n; each bag id in
    1..N names at most one 'b' line, and a bag id with no line is empty.
    The first bad line in file order is reported before any other fault, and
    an N above the tree-edge lines plus one before any bag is built."""
    bag_lines, edges = [], []
    header = None
    comments = "#" in text
    for raw in text.splitlines():
        parts = (raw.split("#", 1)[0] if comments else raw).split()
        if not parts:
            continue
        head = parts[0]
        if head == "s" and (len(parts) != 5 or parts[1] != "td"):
            raise DecompositionError(f"bad solution line: {raw!r}")
        if head == "s" and header is not None:
            raise DecompositionError(f"second 's td' line: {raw!r}")
        try:
            if head == "b":
                bag_lines.append((int(parts[1]), frozenset(map(int, parts[2:]))))
            elif head == "s":
                header = (int(parts[2]), int(parts[3]), int(parts[4]))
            elif head == "c" and raw.split("#", 1)[0].strip().startswith("c "):
                continue
            else:
                i, j = parts  # a tree edge
                edges.append((int(i) - 1, int(j) - 1))
        except (ValueError, IndexError) as exc:
            raise DecompositionError(f"malformed .td line: {raw!r}") from exc
    if header is None:
        raise DecompositionError("missing 's td' line")
    nb, size, header_n = header
    if header_n != n:
        raise DecompositionError(f"'s td' line gives {header_n} vertices, the graph has {n}")
    bags = {}
    for i, bag in bag_lines:
        if not 1 <= i <= nb:
            raise DecompositionError(f"bag id {i} outside 1..{nb}")
        if i in bags:
            raise DecompositionError(f"bag id {i} listed twice")
        bags[i] = bag
    if nb > len(edges) + 1:
        raise DecompositionError(f"bag tree must have {nb - 1} edges, found {len(edges)}")
    td = TreeDecomposition([bags.get(i, frozenset()) for i in range(1, nb + 1)], edges)
    if size != td.width + 1:
        raise DecompositionError(f"'s td' line gives bag size {size}, the largest bag has {td.width + 1}")
    return td


@dataclass
class PortalSplit:
    side: frozenset
    portals: frozenset
    complement: frozenset


def _normalize(td):
    """Contract every tree edge whose bags are nested, keeping the larger bag,
    and renumber.  Empty bags are nested in any neighbour, so they go too.

    One pass over the edges suffices on a valid decomposition: contracting
    a nested edge grows a bag, but by the running-intersection property a
    kept edge's bags can never become nested later."""
    bags = td.bags
    root = list(range(len(bags)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    kept = []
    for i, j in td.tree:
        i, j = find(i), find(j)
        if bags[i] <= bags[j]:
            root[i] = j
        elif bags[j] <= bags[i]:
            root[j] = i
        else:
            kept.append((i, j))
    if len(kept) == len(td.tree):
        return td  # nothing nested: td is normalised already
    order = [i for i in range(len(bags)) if root[i] == i]
    remap = {old: new for new, old in enumerate(order)}
    return TreeDecomposition(
        [bags[i] for i in order], [(remap[find(i)], remap[find(j)]) for i, j in kept]
    )


def find_portal_split(g, td):
    """A balanced side of the graph, cut off at one bag of td.

    td must be a valid, normalised decomposition of g (no tree edge joins
    nested bags; see TreeDecomposition.validate and _normalize), as the solver
    passes.  On the bag tree rooted at bag 0 the split takes, in order:

    - Tree-edge cut: of the tree edges with a side of between n/(width+1) and
      n*width/(width+1) vertices, the one whose side is closest to n/2.  The
      side is the union of the bags on one end; its portals lie in the two
      end bags' intersection, at most width vertices.
    - Centroid bag: otherwise, walking down from the root, the first bag c
      with no child part (the vertices of one subtree hanging off c, outside
      c) of more than half of the vertices outside c.  The side is c plus
      whole parts around c, largest first, until they hold a third of the
      vertices outside c; its portals lie in c, at most width + 1 vertices.

    The portals are the vertices of the cut bag with an edge (in either
    direction) leaving the side, so no edge joins side - portals to the
    complement.  Both are non-empty for every graph with n > max(width**3,
    16); PortalSplitError is raised when one of them would be empty.
    """
    n = g.n
    k = max(1, td.width)
    lo = n / (k + 1)
    hi = n * k / (k + 1)
    if k == 1:
        lo = math.floor(lo)
        hi = math.ceil(hi)

    bags = td.bags
    adj = td.neighbors()

    # Root the bag tree, find each vertex's topmost bag, count per subtree.
    bfs, parent = _bfs_order(adj)
    top, _, cnt_top = _tops(bags, bfs, parent)
    sub_top = cnt_top[:]
    for b in reversed(bfs[1:]):
        sub_top[parent[b]] += sub_top[b]

    # A vertex of bag c tops out above c exactly when it lies in c's parent,
    # so the subtree of c holds sub_top[c] + len(bags[c]) - cnt_top[c]
    # vertices and the rest of the tree n - sub_top[c].  Equal sizes take
    # the subtree.
    sub_sizes = {c: sub_top[c] + len(bags[c]) - cnt_top[c] for c in bfs[1:]}
    cut = min(
        ((abs(size - n / 2), c, size == sub)
         for c, sub in sub_sizes.items()
         for size in (sub, n - sub_top[c])
         if lo <= size <= hi),
        default=None,
    )
    if cut is not None:
        _, c, take_sub = cut
        if take_sub:
            bag, parts = c, [u for u in adj[c] if u != parent[c]]
        else:
            bag, parts = parent[c], [u for u in adj[parent[c]] if u != c]
    else:
        bag = 0
        while True:
            outside = n - len(bags[bag])
            heavy = [u for u in adj[bag] if u != parent[bag] and 2 * sub_top[u] > outside]
            if not heavy:
                break
            bag = heavy[0]
        up = n - sub_top[bag] - (len(bags[bag]) - cnt_top[bag])

        def part(u):
            return up if u == parent[bag] else sub_top[u]

        parts, held = [], 0
        for u in sorted(adj[bag], key=part, reverse=True):
            if 3 * held >= outside:
                break
            parts.append(u)
            held += part(u)

    # The side is the cut bag and every vertex topping out in a chosen part.
    in_side = [False] * len(bags)
    stack = list(parts)
    while stack:
        b = stack.pop()
        in_side[b] = True
        stack += [v for v in adj[b] if v != bag and not in_side[v]]
    side = set(bags[bag]).union(v for v, b in top.items() if in_side[b])
    out, inc = g.adj_out, g.adj_in
    portals = frozenset(
        v for v in bags[bag] if any(u not in side for nbrs in (out[v], inc[v]) for u, _ in nbrs)
    )
    complement = frozenset(v for v in range(n) if v not in side)
    if not complement or len(side) == len(portals):
        raise PortalSplitError(f"graph too small to split (n={n}, width={td.width})")
    return PortalSplit(frozenset(side), portals, complement)


def min_degree_decomposition(g):
    """Greedy minimum-degree elimination heuristic.

    A convenience decomposer with no width guarantee; the generator's exact
    decomposition is preferred when available.
    """
    n = g.n
    nbr = [set() for _ in range(n)]
    for u, v, _ in g.edges:
        nbr[u].add(v)
        nbr[v].add(u)
    # A lazy-deletion heap of (degree, vertex): an entry is live while its
    # vertex is alive and still has that degree, so the smallest live entry
    # is the vertex of least degree, ties to the smallest id.
    heap = [(len(nbr[v]), v) for v in range(n)]
    heapq.heapify(heap)
    alive = [True] * n
    bag_of = {}
    bags = []
    order = []
    while heap:
        deg, v = heapq.heappop(heap)
        if not alive[v] or deg != len(nbr[v]):
            continue
        bag = frozenset({v} | nbr[v])
        bag_of[v] = len(bags)
        bags.append(bag)
        order.append(v)
        for a in nbr[v]:
            nbr[a].discard(v)
            nbr[a] |= nbr[v] - {a}
            heapq.heappush(heap, (len(nbr[a]), a))
        alive[v] = False
        nbr[v] = set()
    pos = {v: i for i, v in enumerate(order)}
    # Each bag hangs off the bag of its earliest-later-eliminated member;
    # pieces without one (ends of components) are stitched onto bag 0.
    edges = []
    root = len(order) - 1
    for i, v in enumerate(order):
        if i == root:
            continue
        later = [u for u in bags[i] if u != v and pos[u] > i]
        if later:
            nxt = min(later, key=lambda u: pos[u])
            edges.append((i, bag_of[nxt]))
        else:
            edges.append((i, root))
    return TreeDecomposition(bags, edges)


def generate_partial_ktree(n, k, edge_keep_prob, rng, directed=False, max_weight=1):
    """Random partial k-tree with its natural width-k tree decomposition.

    Builds a k-tree (seed clique of k+1 vertices, each later vertex attached
    to a random k-subset of an existing bag), then deletes every non-seed
    edge independently with probability 1 - edge_keep_prob.  The seed clique
    is kept so the decomposition width is meaningful even for sparse draws.

    With directed=True every kept edge becomes forward, backward or both
    (equal thirds); weights are uniform in [1, max_weight].
    """
    if n < k + 1:
        raise ValueError(f"need n >= k+1 (n={n}, k={k})")
    bags = [frozenset(range(k + 1))]
    tree = []
    seed_edges = []
    later_edges = []
    for u in range(k + 1):
        for v in range(u + 1, k + 1):
            seed_edges.append((u, v))
    for v in range(k + 1, n):
        pick = rng.randrange(len(bags))
        base = sorted(bags[pick])
        subset = sorted(rng.sample(base, k))
        bags.append(frozenset(subset + [v]))
        tree.append((pick, len(bags) - 1))
        for u in subset:
            later_edges.append((u, v))
    kept = list(seed_edges)
    for e in later_edges:
        if rng.random() < edge_keep_prob:
            kept.append(e)

    def weight():
        return 1 if max_weight <= 1 else rng.randint(1, max_weight)

    if not directed:
        edges = [(u, v, weight()) for u, v in kept]
        g = Graph(n, edges, undirected=True)
    else:
        edges = []
        for u, v in kept:
            roll = rng.random()
            if roll < 1 / 3:
                edges.append((u, v, weight()))
            elif roll < 2 / 3:
                edges.append((v, u, weight()))
            else:
                edges.append((u, v, weight()))
                edges.append((v, u, weight()))
        g = Graph(n, edges, undirected=False)
    return g, TreeDecomposition(bags, tree)


def _side(g, td, keep, portals, fwd):
    """(graph, decomposition) of one side, renumbered by position in the
    sorted vertex list keep.  The graph is the subgraph of g induced on keep
    plus a shortcut edge p -> q of weight fwd[p][q] = d(p -> q) for every two
    portals with q reachable from p (one per pair on an undirected graph);
    the decomposition is td restricted to keep and normalised, so it has at
    most len(keep) bags."""
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v], w) for u, v, w in g.edges if u in pos and v in pos]
    edges += [
        (pos[p], pos[q], fwd[p][q])
        for p in portals
        for q in portals
        if (p < q if g.undirected else p != q) and fwd[p][q] != INF
    ]
    bags = [frozenset(pos[v] for v in b if v in pos) for b in td.bags]
    side = Graph._trusted(len(keep), edges, g.undirected)
    return side, _normalize(TreeDecomposition(bags, td.tree))


def _cross_values(variant, avs, portals, cvs, fwd, bwd):
    """max over cvs of the variant pair distance, routed through portals.

    fwd[p][v] = d(p -> v) and bwd[p][v] = d(v -> p) in the ambient graph.
    A middle vertex is a pair of distance rows (d(a -> mid), d(mid -> c)):
    out holds the legs a -> p -> c, back the legs c -> p -> a.  Returns one
    value per vertex of avs, INF for each when no portal joins the sides.
    """
    if not portals:
        return [INF] * len(avs)

    def farthest(middle):
        d_ab = [[to_mid[a] for to_mid, _ in middle] for a in avs]
        d_bc = [[from_mid[c] for c in cvs] for _, from_mid in middle]
        return three_layer_farthest(ThreeLayerInstance(d_ab, d_bc))

    out = [(bwd[p], fwd[p]) for p in portals]
    back = [(fwd[p], bwd[p]) for p in portals]
    if variant in (SOURCE, UNDIRECTED):  # undirected graphs have bwd is fwd
        return farthest(out)
    if variant == MAX:
        return list(map(max, farthest(out), farthest(back)))
    if variant == MIN:
        return farthest(out + back)
    # ROUNDTRIP, leg by leg, the row sums of every (out, back) pair: a -> p -> c -> q -> a.
    return farthest([[list(map(add, *rows)) for rows in zip(o, b)] for o in out for b in back])


# Mask operations the level sweep may spend on a recursion node per machine
# word of its split cost (see _sweep_budget); it also scales the memory
# gate.  Two runs each of 1, 2, 4 and 8 (Python 3.11, 2 CPUs, before the
# plain OR loop of oracle._levels; kept at 4 on purpose): the benchmark's
# tw-ktree solve_rel read 30-31, 24-25, 21-22 and 22-23 (about 68 when
# every node splits); the undirected 3-tree of 25,600 vertices took
# 5.1-6.0, 4.4, 3.3-3.4 and 2.9-3.7 s at 94, 93, 97 and 103 MB peak
# (7.8-10 s at 94 MB when every node splits); the unit cycle of 3,200
# vertices did not move.
_SWEEP_PER_SPLIT = 4


def _sweep_budget(g, width):
    """(work budget in mask operations, most levels kept) under which the
    level sweep answers a recursion node for less than splitting it, and in
    no more memory; None when W + 1 levels of n masks, what every variant
    holds, would outgrow the node's own footprint.

    Splitting costs about (n + m)(width + 1) log n machine words, and one
    mask operation touches ceil(n / 64) of them.  The sweep's levels may
    take 2 _SWEEP_PER_SPLIT (n + m)(width + 1) words, so few enough
    levels of n masks; only the roundtrip sweep keeps more than W + 1, and
    it gives up past them.  The gate comes first because the sweep builds
    its first level before it checks any budget.
    """
    n = g.n
    words = -(-n // 64)
    size = _SWEEP_PER_SPLIT * (n + g.m) * (width + 1)
    levels = 2 * size // (n * words)
    if max(1, g.max_weight) + 1 > levels:
        return None
    return size * n.bit_length() // words, levels


def _solve(g, td, variant, found=None):
    """Eccentricities of g; td is a valid decomposition of g.

    A node of at most max(width**3, 16) vertices is a base case: the level
    sweep under its default budget, else the matrix path.  A larger node
    tries the sweep under _sweep_budget and splits when that gives up; only
    then is td normalised (a side's already is), which keeps its width.
    Where the node does not split and ``found`` is a list, the witness pair
    of g's report is appended to it, as the sweep or the matrix path gave it.
    """
    n = g.n
    base = n <= max(td.width ** 3, 16)
    limits = (None, ROUNDTRIP_MAX_LEVELS) if base else _sweep_budget(g, td.width)
    if limits is not None:
        budget, levels = limits
        ecc = sweep_ecc(g, variant, None, budget, found, levels)
        if ecc is not None:
            return ecc
    if base:
        report = exact_eccentricities(g, variant, cap=None)
        if found is not None:
            found.append(report.witness)
        return report.ecc
    td = _normalize(td)
    split = find_portal_split(g, td)
    portals = sorted(split.portals)
    fwd = {p: shortest_paths(g, p, FORWARD) for p in portals}
    # On an undirected graph adj_in is adj_out, so d(v -> p) = d(p -> v).
    bwd = fwd if g.undirected else {p: shortest_paths(g, p, BACKWARD) for p in portals}

    ecc = [0] * n
    for p in portals:
        ecc[p] = max(pair_row(variant, fwd[p], bwd[p]))
    # For n > max(width ** 3, 16) the split leaves neither inner nor outer
    # empty, so both sides recurse on fewer vertices.
    inner = sorted(split.side - split.portals)
    outer = sorted(split.complement)
    for own, far in ((inner, outer), (outer, inner)):
        keep = sorted(own + portals)
        local = dict(zip(keep, _solve(*_side(g, td, keep, portals, fwd), variant)))
        for v, cross in zip(own, _cross_values(variant, own, portals, far, fwd, bwd)):
            ecc[v] = max(local[v], cross)
    return ecc


def tw_ecc(g, td, variant, found=None):
    """The eccentricities of tw_eccentricities alone, and ``found`` as
    _solve fills it in for the top node."""
    check_variant(g, variant)
    td.validate(g)
    return _solve(g, td, variant, found)


def tw_eccentricities(g, td, variant):
    """Exact eccentricities using the tree decomposition.

    Matches the brute-force oracle on every input, witness included; the
    decomposition only affects the running time.  The witness comes from the
    top node's sweep or matrix path, and from eccentricity_report's
    shortest-path runs only where the top node splits.
    """
    found = []
    ecc = tw_ecc(g, td, variant, found)
    return eccentricity_report(g, variant, ecc, found)
