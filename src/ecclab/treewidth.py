"""Exact eccentricities on graphs of small treewidth.

The solver follows the divide-and-conquer scheme: split the vertex set along
a bag of the decomposition into a balanced side with few boundary portals,
compute portal distances, recurse on both sides augmented with portal-to-
portal shortcut edges, and resolve the cross-side farthest vertices through
the portals with rangemax.three_layer_farthest, a min-plus loop over the
distinct shapes of the portal distance vectors.

The decomposition is validated once and normalised in one pass (no tree
edge joins nested bags).  Each side recurses on the decomposition restricted
to its own vertices, renumbered and normalised again, so a recursion node
holds at most as many bags as vertices.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

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
    ROUNDTRIP,
    SOURCE,
    UNDIRECTED,
    check_variant,
    exact_eccentricities,
    pair_row,
    report_from_ecc,
    sweep_ecc,
)
from .rangemax import ThreeLayerInstance, three_layer_farthest


class DecompositionError(ValueError):
    """Raised when a tree decomposition fails validation."""


class PortalSplitError(RuntimeError):
    """Raised when no balanced split with few portals was found."""


@dataclass
class TreeDecomposition:
    bags: list
    tree: list

    def __post_init__(self):
        self.bags = [frozenset(b) for b in self.bags]
        self.tree = [tuple(e) for e in self.tree]

    @property
    def width(self):
        return max((len(b) for b in self.bags), default=1) - 1

    def neighbors(self):
        adj = [[] for _ in self.bags]
        for i, j in self.tree:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def validate(self, g):
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
        adj = self.neighbors()
        seen = [False] * nb
        q = deque([0])
        seen[0] = True
        cnt = 1
        while q:
            u = q.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    cnt += 1
                    q.append(v)
        if cnt != nb:
            raise DecompositionError("bag tree is not connected")
        covered = set().union(*self.bags) if self.bags else set()
        outside = [v for v in covered if not 0 <= v < g.n]
        if outside:
            raise DecompositionError(f"bag vertices outside 0..{g.n - 1}: {sorted(outside)[:5]}")
        missing = set(range(g.n)) - covered
        if missing:
            raise DecompositionError(f"vertices not covered by any bag: {sorted(missing)[:5]}")
        where = [[] for _ in range(g.n)]
        for bi, b in enumerate(self.bags):
            for v in b:
                where[v].append(bi)
        for u, v, _ in g.edges:
            if not any(v in self.bags[bi] for bi in where[u]):
                raise DecompositionError(f"edge ({u},{v}) not covered by any bag")
        # Connectivity: bags containing each vertex must form a subtree.
        for v in range(g.n):
            if not where[v]:
                continue
            member = set(where[v])
            q = deque([where[v][0]])
            reached = {where[v][0]}
            while q:
                u = q.popleft()
                for w in adj[u]:
                    if w in member and w not in reached:
                        reached.add(w)
                        q.append(w)
            if reached != member:
                raise DecompositionError(f"bags containing vertex {v} are not connected")


def write_td(td, n):
    """PACE-2017 style text; bag ids are 1-indexed, vertices 0-indexed."""
    lines = [f"s td {len(td.bags)} {td.width + 1} {n}"]
    for i, b in enumerate(td.bags):
        lines.append("b " + " ".join([str(i + 1)] + [str(v) for v in sorted(b)]))
    for i, j in td.tree:
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def read_td(text):
    bags = {}
    edges = []
    header = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("c "):
            continue
        parts = line.split()
        if parts[0] == "s" and (len(parts) != 5 or parts[1] != "td"):
            raise DecompositionError(f"bad solution line: {raw!r}")
        try:
            if parts[0] == "s":
                header = (int(parts[2]), int(parts[3]), int(parts[4]))
            elif parts[0] == "b":
                bags[int(parts[1]) - 1] = frozenset(int(x) for x in parts[2:])
            elif len(parts) != 2:
                raise DecompositionError(f"bad tree edge line: {raw!r}")
            else:
                edges.append((int(parts[0]) - 1, int(parts[1]) - 1))
        except (ValueError, IndexError) as exc:
            raise DecompositionError(f"malformed .td line: {raw!r}") from exc
    if header is None:
        raise DecompositionError("missing 's td' line")
    nb = header[0]
    bag_list = [bags.get(i, frozenset()) for i in range(nb)]
    return TreeDecomposition(bag_list, edges)


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
    order = [i for i in range(len(bags)) if root[i] == i]
    remap = {old: new for new, old in enumerate(order)}
    return TreeDecomposition(
        [bags[i] for i in order], [(remap[find(i)], remap[find(j)]) for i, j in kept]
    )


def _restricted(td, pos):
    """td restricted to the vertices of pos, renumbered by pos and normalised,
    so it has at most len(pos) bags."""
    bags = [frozenset(pos[v] for v in b if v in pos) for b in td.bags]
    return _normalize(TreeDecomposition(bags, td.tree))


def _boundary(g, side):
    """Vertices of side with an edge (either direction) leaving side."""
    portals = set()
    for u, v, _ in g.edges:
        iu, iv = u in side, v in side
        if iu and not iv:
            portals.add(u)
        elif iv and not iu:
            portals.add(v)
    return portals


def _undirected_components(g, removed):
    seen = set(removed)
    comps = []
    adj = g.adj_out
    adj_in = g.adj_in
    for s in range(g.n):
        if s in seen:
            continue
        comp = {s}
        seen.add(s)
        q = deque([s])
        while q:
            u = q.popleft()
            for nbrs in (adj[u], adj_in[u]):
                for v, _ in nbrs:
                    if v not in seen:
                        seen.add(v)
                        comp.add(v)
                        q.append(v)
        comps.append(comp)
    return comps


def find_portal_split(g, td):
    """A balanced side of the graph whose boundary is at most width portals.

    td must be a valid decomposition of g (see TreeDecomposition.validate);
    the solver passes a normalised one.  The returned split satisfies:
    portals is a subset of side, every edge leaving side is incident to a
    portal, |portals| <= width, and the side holds between n/(width+1) and
    n*width/(width+1) vertices.
    """
    n = g.n
    k = max(1, td.width)
    if n <= k + 1:
        raise PortalSplitError(f"graph too small to split (n={n}, width={k})")
    lo = n / (k + 1)
    hi = n * k / (k + 1)
    if k == 1:
        lo = math.floor(lo)
        hi = math.ceil(hi)

    bags = td.bags
    nb = len(bags)
    adj = td.neighbors()

    # Root the bag tree, find each vertex's topmost bag, count per subtree.
    parent = [-1] * nb
    bfs = [0]
    seen = [False] * nb
    seen[0] = True
    for u in bfs:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                bfs.append(v)
    top = {}
    for b in bfs:
        for v in bags[b]:
            if v not in top:
                top[v] = b
    cnt_top = [0] * nb
    for v, b in top.items():
        cnt_top[b] += 1
    sub_top = cnt_top[:]
    for b in reversed(bfs):
        if parent[b] != -1:
            sub_top[parent[b]] += sub_top[b]

    def subtree_bags(c):
        out = [c]
        for u in out:
            for v in adj[u]:
                if v != parent[u] and parent[v] == u:
                    out.append(v)
        return out

    def finish(side):
        portals = _boundary(g, side)
        if len(portals) > k:
            return None
        if not (lo <= len(side) <= hi):
            return None
        return PortalSplit(
            frozenset(side), frozenset(portals), frozenset(set(range(n)) - side)
        )

    candidates = []
    for c in range(nb):
        if parent[c] == -1:
            continue
        sep = bags[c] & bags[parent[c]]
        size_sub = sub_top[c] + len(sep)
        size_other = n - sub_top[c]
        for size in (size_sub, size_other):
            if lo <= size <= hi:
                candidates.append((abs(size - n / 2), c, size == size_sub))
    candidates.sort()
    for _, c, take_sub in candidates:
        if take_sub:
            side = set().union(*(bags[b] for b in subtree_bags(c)))
        else:
            inside = set(subtree_bags(c))
            side = set().union(*(bags[b] for b in range(nb) if b not in inside))
            side |= bags[c] & bags[parent[c]]
        split = finish(side)
        if split is not None:
            return split

    # No single tree edge is balanced: group components around a centroid bag.
    best_c, best_load = 0, None
    for c in range(nb):
        parts = []
        for v in adj[c]:
            if parent[v] == c:
                parts.append(sub_top[v])
        up = n - len(bags[c]) - sum(parts)
        load = max(parts + [up], default=0)
        if best_load is None or load < best_load:
            best_c, best_load = c, load
    bag = set(bags[best_c])
    comps = _undirected_components(g, bag)
    for ordering in (
        sorted(comps, key=len, reverse=True),
        sorted(comps, key=len),
    ):
        side = set(bag)
        for comp in ordering:
            if len(side) >= lo:
                break
            side |= comp
        for cand in (side, (set(range(n)) - side) | bag):
            split = finish(cand)
            if split is not None:
                return split
    # Single-component candidates.
    for comp in comps:
        split = finish(set(bag) | comp)
        if split is not None:
            return split
    raise PortalSplitError("no balanced split with at most width portals found")


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


def _augmented_side(g, pos, portals, fwd):
    """Induced subgraph on the vertices of pos, renumbered by pos, plus
    portal-to-portal shortcut edges."""
    edges = [
        (pos[u], pos[v], w)
        for u, v, w in g.edges
        if u in pos and v in pos
    ]
    plist = sorted(portals)
    for p in plist:
        row = fwd[p]
        for q in plist:
            if p == q or row[q] == INF:
                continue
            if g.undirected and p > q:
                continue
            edges.append((pos[p], pos[q], int(row[q])))
    return Graph(len(pos), edges, undirected=g.undirected)


def _cross_values(variant, avs, plist, cvs, fwd, bwd):
    """max over cvs of the variant pair distance, routed through portals.

    fwd[p][v] = d(p -> v) and bwd[p][v] = d(v -> p) in the ambient graph.
    Returns one value per vertex of avs.
    """

    def run(ab_entry, bc_entry, middle):
        d_ab = [[ab_entry(a, b) for b in middle] for a in avs]
        d_bc = [[bc_entry(b, c) for c in cvs] for b in middle]
        return three_layer_farthest(ThreeLayerInstance(d_ab, d_bc))

    if variant == UNDIRECTED:
        res = run(lambda a, p: fwd[p][a], lambda p, c: fwd[p][c], plist)
        return [v for v, _ in res]
    if variant == SOURCE:
        res = run(lambda a, p: bwd[p][a], lambda p, c: fwd[p][c], plist)
        return [v for v, _ in res]
    if variant == MAX:
        out = run(lambda a, p: bwd[p][a], lambda p, c: fwd[p][c], plist)
        back = run(lambda a, p: fwd[p][a], lambda p, c: bwd[p][c], plist)
        return [max(x[0], y[0]) for x, y in zip(out, back)]
    if variant == MIN:
        middle = [(p, d) for p in plist for d in (0, 1)]

        def ab(a, pd):
            p, d = pd
            return bwd[p][a] if d == 0 else fwd[p][a]

        def bc(pd, c):
            p, d = pd
            return fwd[p][c] if d == 0 else bwd[p][c]

        res = run(ab, bc, middle)
        return [v for v, _ in res]
    if variant == ROUNDTRIP:
        middle = [(p, q) for p in plist for q in plist]

        def ab(a, pq):
            p, q = pq
            return bwd[p][a] + fwd[q][a]

        def bc(pq, c):
            p, q = pq
            return fwd[p][c] + bwd[q][c]

        res = run(ab, bc, middle)
        return [v for v, _ in res]
    raise ValueError(f"unknown variant {variant!r}")


def _base_case(g, variant):
    return sweep_ecc(g, variant, None) or exact_eccentricities(g, variant, cap=None).ecc


def _solve(g, td, variant):
    """Eccentricities of g; td is a normalised decomposition of g."""
    n = g.n
    if n <= max(td.width ** 3, 16):
        return _base_case(g, variant)
    try:
        split = find_portal_split(g, td)
    except PortalSplitError:
        return _base_case(g, variant)
    side = split.side
    portals = sorted(split.portals)
    if len(side) <= len(portals) or len(side) >= n:
        return _base_case(g, variant)

    fwd = {p: shortest_paths(g, p, FORWARD) for p in portals}
    # On an undirected graph adj_in is adj_out, so d(v -> p) = d(p -> v).
    bwd = fwd if g.undirected else {p: shortest_paths(g, p, BACKWARD) for p in portals}

    def recurse(vertices):
        pos = {v: i for i, v in enumerate(vertices)}
        return _solve(_augmented_side(g, pos, portals, fwd), _restricted(td, pos), variant)

    side_sorted = sorted(side)
    comp_sorted = sorted(split.complement | split.portals)
    ecc_s = recurse(side_sorted)
    ecc_c = recurse(comp_sorted)

    pset = set(portals)
    a_side = [v for v in side_sorted if v not in pset]
    c_side = sorted(split.complement)
    cross_a = _cross_values(variant, a_side, portals, c_side, fwd, bwd) if c_side else None
    cross_c = _cross_values(variant, c_side, portals, a_side, fwd, bwd) if a_side else None
    a_index = {v: i for i, v in enumerate(a_side)}
    c_index = {v: i for i, v in enumerate(c_side)}

    ecc = [0] * n
    for p in portals:
        ecc[p] = max(pair_row(variant, fwd[p], bwd[p]))
    for i, v in enumerate(side_sorted):
        if v in pset:
            continue
        local = ecc_s[i]
        ecc[v] = max(local, cross_a[a_index[v]]) if cross_a is not None else local
    for i, v in enumerate(comp_sorted):
        if v in pset:
            continue
        local = ecc_c[i]
        ecc[v] = max(local, cross_c[c_index[v]]) if cross_c is not None else local
    return ecc


def tw_eccentricities(g, td, variant):
    """Exact eccentricities using the tree decomposition.

    Matches the brute-force oracle on every input; the decomposition only
    affects the running time.  It is validated once, then normalised.
    """
    check_variant(g, variant)
    td.validate(g)
    return report_from_ecc(variant, _solve(g, _normalize(td), variant))
