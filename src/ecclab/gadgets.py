"""Lower-bound gadget constructions.

Every constructor takes a set-system instance and emits a GadgetOutput: the
graph, which variant and quantity it talks about, the exact value promised on
the "equals" side of the decision, the bound promised on the other side, and
bookkeeping (witness vertex ids, optional pathwidth witness, DAG flag).

The promise direction differs per family and is documented on each
constructor: hitting-set gadgets pin the exact value on YES instances,
orthogonal-vectors gadgets pin it on NO instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graph import Graph, topological_order
from .oracle import MAX, MIN, ROUNDTRIP, SOURCE, UNDIRECTED
from .setsystem import HSE, OV, SetSystemInstance, solve_set_system
from .treewidth import TreeDecomposition


class GadgetError(ValueError):
    pass


class GraphBuilder:
    def __init__(self, undirected=False):
        self.undirected = undirected
        self.index = {}
        self.edges = []

    def node(self, label):
        return self.index.setdefault(label, len(self.index))

    def edge(self, u, v, w=1):
        self.edges.append((u, v, w))

    def build(self):
        return Graph(len(self.index), self.edges, undirected=self.undirected)


@dataclass
class GadgetOutput:
    graph: Graph
    variant: str
    quantity: str
    answer: bool
    eq_side: str  # which solver answer ("yes"/"no") pins the exact value
    yes_value: "int | float"
    no_bound: "int | float"
    is_dag: bool
    witness_map: dict
    pathwidth_witness: "TreeDecomposition | None" = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        # A degenerate instance can leave one vertex (or none); pad to two.
        if self.graph.n < 2:
            self.graph = Graph(2, [])

    def expected(self):
        """(relation, value) the oracle quantity must satisfy."""
        side = "yes" if self.answer else "no"
        if side == self.eq_side:
            return "eq", self.yes_value
        return "ge", self.no_bound

    def to_sidecar_json(self):
        payload = {
            "variant": self.variant,
            "quantity": self.quantity,
            "answer": self.answer,
            "eq_side": self.eq_side,
            "yes_value": self.yes_value,
            "no_bound": self.no_bound,
            "is_dag": self.is_dag,
            "witness_map": self.witness_map,
            "extras": self.extras,
        }
        if self.pathwidth_witness is not None:
            payload["pathwidth_witness"] = {
                "bags": [sorted(b) for b in self.pathwidth_witness.bags],
                "tree": [list(e) for e in self.pathwidth_witness.tree],
            }
        return _indented_json(payload) + "\n"


def _indented_json(value, depth=0):
    """``json.dumps(value, sort_keys=True, indent=2)`` for a sidecar's values:
    dicts with string keys, lists, tuples and JSON scalars, ``depth`` levels
    in.  The text is written directly, since with ``indent`` ``json.dumps``
    runs its pure-Python encoder, whose closures are left as cyclic garbage."""
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_indented_json(v, depth + 1)}"
                 for k, v in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        # Most items are vertex ids: str() spells an int as json.dumps does.
        items = [str(v) if type(v) is int else _indented_json(v, depth + 1) for v in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def reduce_hse(inst):
    """Dominated-set preprocessing: drop every a-set contained in another.

    Keeps the instance's answer; the surviving a-sets are pairwise
    incomparable.  Returns (kept_masks, kept_original_indices).
    """
    masks = inst.list_a
    kept = []
    for i, a in enumerate(masks):
        dominated = False
        for j, a2 in enumerate(masks):
            if i == j:
                continue
            if a | a2 == a2 and (a != a2 or j < i):
                dominated = True
                break
        if not dominated:
            kept.append(i)
    return [masks[i] for i in kept], kept


def _members(b, set_ids, masks, elem_ids, into=False, w=1):
    """One arc of weight w per (set, element of its mask): set -> element, or
    element -> set when `into`.  `elem_ids` maps universe positions to ids."""
    for s, mask in zip(set_ids, masks):
        for j, e in elem_ids.items():
            if mask >> j & 1:
                if into:
                    b.edge(e, s, w)
                else:
                    b.edge(s, e, w)


def _tripartite(b, masks_a, masks_b, positions, tag, w=1):
    """The A - U - B / A - C - B graph every gadget starts from.

    Creates ("a", i), (tag, j) for j in positions and ("b", i), in that
    order, then arcs a -> (tag, j) when j is in a and (tag, j) -> b when j is
    in b.  Returns (a_ids, mid_ids, b_ids); mid_ids follows positions."""
    a_ids = [b.node(("a", i)) for i in range(len(masks_a))]
    mid = {j: b.node((tag, j)) for j in positions}
    b_ids = [b.node(("b", i)) for i in range(len(masks_b))]
    _members(b, a_ids, masks_a, mid, w=w)
    _members(b, b_ids, masks_b, mid, into=True, w=w)
    return a_ids, list(mid.values()), b_ids


def _decided(inst, mode):
    """Decide `inst` as a `mode` instance: (answer, witness, work).

    `work` is the instance to build from.  A degenerate instance (HSE: YES
    with no b-set; OV: NO with an empty side) becomes the one-element
    instance with the same answer, so every gadget has some vertex to hold
    its promise."""
    if inst.mode != mode:
        inst = SetSystemInstance(inst.d, inst.list_a, inst.list_b, mode)
    answer, witness = solve_set_system(inst)
    if mode == HSE:
        degenerate = answer and inst.nb == 0
    else:
        degenerate = not answer and (inst.na == 0 or inst.nb == 0)
    if degenerate:
        inst = SetSystemInstance.from_sets([[0]], [[0]], 1, mode)
    return answer, witness, inst


def _chain(b, labels, first=None):
    """Create one node per label, in order, joined by unit arcs into a path
    that starts at `first` when given.  Returns the new ids."""
    ids = [b.node(label) for label in labels]
    path = ids if first is None else [first] + ids
    for u, v in zip(path, path[1:]):
        b.edge(u, v)
    return ids


def _spine_witness(shared, spine):
    """Path decomposition with `shared` in every bag and one bag per spine
    vertex (a single bag of `shared` when the spine is empty)."""
    shared = frozenset(shared)
    bags = [shared | {v} for v in spine] or [shared]
    return TreeDecomposition(bags, [(i, i + 1) for i in range(len(bags) - 1)])


# ---------------------------------------------------------------------------
# Undirected radius 2 vs 3.


def gadget_radius_23(inst, sparsify=False):
    """Undirected radius: YES -> radius exactly 2, NO -> radius >= 3.

    With sparsify=True the dummy-pendant block is added (same promise, more
    nodes, no pathwidth witness)."""
    answer = _decided(inst, HSE)[0]
    masks_a, _ = reduce_hse(inst)
    b = GraphBuilder(undirected=True)
    a_ids, u_ids, b_ids = _tripartite(b, masks_a, inst.list_b, range(inst.d), "u")
    x = b.node("x")
    y = b.node("y")
    z = b.node("z")
    for a in a_ids:
        b.edge(x, a)
        b.edge(y, a)
    for u in u_ids:
        b.edge(x, u)
    b.edge(y, z)
    witness = {"x": x, "y": y, "z": z}
    pw = None
    if sparsify:
        hub = b.node("dummy-hub")
        for a in a_ids:
            b.edge(hub, a)
        n_dummy = max(1, max(inst.na, 1) * max(inst.d, 1))
        for i in range(n_dummy):
            b.edge(hub, b.node(("dummy", i)))
        witness["dummy_hub"] = hub
    else:
        pw = _spine_witness(u_ids + [x, y, z], a_ids + b_ids)
    return GadgetOutput(
        graph=b.build(),
        variant=UNDIRECTED,
        quantity="radius",
        answer=answer,
        eq_side="yes",
        yes_value=2,
        no_bound=3,
        is_dag=False,
        witness_map=witness,
        pathwidth_witness=pw,
        extras={"u_count": inst.d},
    )


# ---------------------------------------------------------------------------
# Directed source / max radius, t+1 vs 2t.


def _source_like_nodes(b, inst, t, masks_a):
    """Shared skeleton: HSE arcs, b-tails, a-heads behind the hub x."""
    present = 0
    for m in masks_a:
        present |= m
    u_keep = [j for j in range(inst.d) if present >> j & 1]
    a_ids, u_ids, b_ids = _tripartite(b, masks_a, inst.list_b, u_keep, "u")
    x = b.node("x")
    tails = []
    for i, bid in enumerate(b_ids):
        tails += _chain(b, [("bt", i, s) for s in range(1, t)], bid)
    heads = []
    for i, aid in enumerate(a_ids):
        b.edge(aid, x)
        head = _chain(b, [("ah", i, s) for s in range(1, t - 1)], x)
        heads += head
        b.edge(head[-1] if head else x, aid)
    return a_ids, u_ids, b_ids, tails, heads, x


def gadget_source_radius(inst, t):
    """Source radius: YES -> exactly t+1, NO -> >= 2t (t >= 2)."""
    if t < 2:
        raise GadgetError("t must be at least 2")
    answer, _, work = _decided(inst, HSE)
    masks_a, _ = reduce_hse(work)
    b = GraphBuilder(undirected=False)
    _, _, _, _, _, x = _source_like_nodes(b, work, t, masks_a)
    g = b.build()
    return GadgetOutput(
        graph=g,
        variant=SOURCE,
        quantity="radius",
        answer=answer,
        eq_side="yes",
        yes_value=t + 1,
        no_bound=2 * t,
        is_dag=False,
        witness_map={"x": x},
        extras={"t": t},
    )


def _trivial_max_yes(t):
    """A bidirected path with max-radius exactly t+1 (center of 2t+3 nodes)."""
    n = 2 * (t + 1) + 1
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1, 1))
        edges.append((i + 1, i, 1))
    return Graph(n, edges)


def gadget_max_radius(inst, t):
    """Max radius: YES -> exactly t+1, NO -> >= 2t (t >= 2).

    Preprocessing from the construction: an element contained in every b-set
    either decides the instance (if it also appears in some a-set) or can be
    removed from the universe."""
    if t < 2:
        raise GadgetError("t must be at least 2")
    answer = _decided(inst, HSE)[0]
    list_a = list(inst.list_a)
    list_b = list(inst.list_b)
    d = inst.d
    drop = 0
    trivial_yes = False
    if list_b:
        for j in range(d):
            if all(m >> j & 1 for m in list_b):
                if any(m >> j & 1 for m in list_a):
                    trivial_yes = True
                    break
                drop |= 1 << j
    if trivial_yes or (answer and inst.nb == 0):
        g, witness, extras = _trivial_max_yes(t), {"center": t + 1}, {"t": t, "trivial": True}
    else:
        keep = ~drop
        work = SetSystemInstance(d, [m & keep for m in list_a], [m & keep for m in list_b], HSE)
        masks_a, _ = reduce_hse(work)
        b = GraphBuilder(undirected=False)
        a_ids, u_ids, b_ids, tails, heads, x = _source_like_nodes(b, work, t, masks_a)
        for v in u_ids + b_ids + tails + heads:
            b.edge(v, x)
        g = b.build()
        witness, extras = {"x": x}, {"t": t}
    return GadgetOutput(
        graph=g,
        variant=MAX,
        quantity="radius",
        answer=answer,
        eq_side="yes",
        yes_value=t + 1,
        no_bound=2 * t,
        is_dag=False,
        witness_map=witness,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# Roundtrip radius 4 vs 8.


def gadget_roundtrip_radius(inst):
    """Roundtrip radius: YES -> exactly 4, NO -> >= 8.

    Two glued copies of a core gadget.  Per universe element u (and copy) the
    core has nodes u_C, u_D plus four two-node chains shared by all of A:
    a forward chain into u_C, a return chain out of u_C, and the mirrored
    pair around u_D.  Direct edges encode membership (a -> u_C and u_D -> a
    when u is in a; u_C -> a and a -> u_D otherwise) so each (a, u) pair lies
    on 4-cycles through both u_C and u_D, while chain attachments are keyed
    to the membership classes so that every chain node sits at roundtrip
    distance exactly 4 from every a.  B attaches as u_C -> b, b -> u_D."""
    answer, _, work = _decided(inst, HSE)
    masks_a, _ = reduce_hse(work)
    b = GraphBuilder(undirected=False)
    a_ids = [b.node(("a", i)) for i in range(len(masks_a))]
    core = []
    spine = list(a_ids)
    for copy in (1, 2):
        ucs, uds = {}, {}
        for j in range(work.d):
            uc = ucs[j] = b.node(("uc", copy, j))
            ud = uds[j] = b.node(("ud", copy, j))
            e1 = b.node(("e", copy, j, 0))
            e2 = b.node(("e", copy, j, 1))
            c1 = b.node(("c", copy, j, 0))
            c2 = b.node(("c", copy, j, 1))
            s1 = b.node(("s", copy, j, 0))
            s2 = b.node(("s", copy, j, 1))
            t1 = b.node(("t", copy, j, 0))
            t2 = b.node(("t", copy, j, 1))
            core += [uc, ud, e1, e2, c1, c2, s1, s2, t1, t2]
            # Forward chain into u_C (owners: a not containing u).
            b.edge(e1, e2)
            b.edge(e2, uc)
            b.edge(uc, e1)
            b.edge(uc, e2)
            b.edge(e1, ud)
            b.edge(e2, ud)
            # Return chain out of u_C (owners: a containing u).
            b.edge(uc, c1)
            b.edge(c1, c2)
            b.edge(c2, uc)
            # Forward chain into u_D (owners: a containing u).
            b.edge(s1, s2)
            b.edge(s2, ud)
            b.edge(ud, s1)
            # Return chain out of u_D (owners: a not containing u).
            b.edge(ud, t1)
            b.edge(t1, t2)
            b.edge(uc, t1)
            b.edge(uc, t2)
            b.edge(t1, ud)
            b.edge(t2, ud)
            for i, mask in enumerate(masks_a):
                a = a_ids[i]
                if mask >> j & 1:
                    b.edge(a, uc)
                    b.edge(ud, a)
                    b.edge(c2, a)
                    b.edge(a, s1)
                else:
                    b.edge(uc, a)
                    b.edge(a, ud)
                    b.edge(a, e1)
                    b.edge(a, c1)
                    b.edge(s2, a)
                    b.edge(t2, a)
        bb_ids = [b.node(("b", copy, i)) for i in range(work.nb)]
        spine += bb_ids
        _members(b, bb_ids, work.list_b, ucs, into=True)
        _members(b, bb_ids, work.list_b, uds)
    g = b.build()
    # Pathwidth witness: the full core (all u and chain nodes of both copies)
    # sits in every bag; each a or b vertex occupies one bag of its own.
    pw = _spine_witness(core, spine) if g.n > 2 or core else None
    return GadgetOutput(
        graph=g,
        variant=ROUNDTRIP,
        quantity="radius",
        answer=answer,
        eq_side="yes",
        yes_value=4,
        no_bound=8,
        is_dag=False,
        witness_map={},
        pathwidth_witness=pw,
        extras={"u_count": work.d},
    )


# ---------------------------------------------------------------------------
# Layered tree widget: a DAG over a vertex set with controlled min-distances.


def _attach_dg(b, leaf_ids, t, tag):
    """Attach a balanced-tree DAG widget over the given leaves.

    Between any two widget nodes x < y (topologically) that are not
    tree-descendants of one another the min-distance is exactly t+1;
    descendant pairs are at distance <= t.  Returns a dict with the id lists
    ("all", "leaves", "added"); "added" excludes the original leaves.
    """
    n = len(leaf_ids)
    out = {"all": list(leaf_ids), "leaves": list(leaf_ids), "added": [],
           "heap_index": {}}
    if n == 0:
        return out
    size = 1
    while size < n:
        size *= 2
    leaves = list(leaf_ids)
    for i in range(size - n):
        v = b.node((tag, "pad", i))
        leaves.append(v)
        out["added"].append(v)
    out["leaves"] = leaves
    out["heap_index"] = {v: size + i for i, v in enumerate(leaves)}
    if size == 1:
        return out
    chains = {}
    for idx in range(1, size):
        chain = chains[idx] = _chain(b, [(tag, "int", idx, s) for s in range(t)])
        out["added"].extend(chain)
        for v in chain:
            out["heap_index"][v] = idx

    def copies(idx):
        if idx >= size:
            return [leaves[idx - size]]
        return chains[idx]

    for idx in range(2, 2 * size):
        cur = idx
        while cur > 1:
            parent = cur // 2
            if cur % 2 == 0:
                for xi in copies(idx):
                    b.edge(xi, copies(parent)[0])
            else:
                for xi in copies(idx):
                    b.edge(copies(parent)[-1], xi)
            cur = parent
    out["all"] = leaves + [v for idx in sorted(chains) for v in chains[idx]]
    return out


def heap_descendant(hx, hy):
    """True when heap index hy lies in the subtree rooted at heap index hx."""
    while hy > hx:
        hy //= 2
    return hy == hx


def build_dg(size, t):
    """Standalone tree widget over `size` fresh leaves.

    Returns (graph, info); info carries "leaves", "added", "all" and a
    "heap_index" map from vertex id to its position in the balanced tree, for
    checking descendant relations with heap_descendant."""
    if size < 1 or t < 1:
        raise GadgetError("size and t must be positive")
    b = GraphBuilder(undirected=False)
    leaf_ids = [b.node(("leaf", i)) for i in range(size)]
    info = _attach_dg(b, leaf_ids, t, "dg")
    g = b.build()
    assert topological_order(g) is not None
    return g, info


# ---------------------------------------------------------------------------
# Min radius on a DAG, t+1 vs 2t.


def gadget_min_radius_dag(inst, t):
    """Min radius on a DAG: YES -> exactly t+1, NO -> >= 2t (t >= 2)."""
    if t < 2:
        raise GadgetError("t must be at least 2")
    answer, _, work = _decided(inst, HSE)
    masks_a, _ = reduce_hse(work)
    b = GraphBuilder(undirected=False)
    a_ids, u_ids, b_ids = _tripartite(b, masks_a, work.list_b, range(work.d), "u")
    for i, bid in enumerate(b_ids):
        _chain(b, [("bt", i, s) for s in range(1, t)], bid)
    _attach_dg(b, a_ids, t, "dg1")
    _attach_dg(b, a_ids, t, "dg2")
    xs = _chain(b, [("x", i) for i in range(1, t + 1)])
    y = b.node("y")
    for a in a_ids:
        b.edge(a, xs[0])
        b.edge(a, y)
    for u in u_ids:
        b.edge(xs[-1], u)
    g = b.build()
    assert topological_order(g) is not None
    return GadgetOutput(
        graph=g,
        variant=MIN,
        quantity="radius",
        answer=answer,
        eq_side="yes",
        yes_value=t + 1,
        no_bound=2 * t,
        is_dag=True,
        witness_map={"y": y, "x_path": xs},
        extras={"t": t},
    )


# ---------------------------------------------------------------------------
# Min diameter, 2 vs 3 on a DAG and t+1 vs 2t weighted.


def gadget_min_diameter_dag(inst):
    """Min diameter on a DAG: NO orthogonal pair -> exactly 2, YES -> >= 3.

    On top of the orthogonality graph, tree widgets keep every within-part
    pair at distance 2 and the hub pair x -> y carries everything else.
    Hub-to-widget edges also cover the internal widget nodes of the B part so
    that every A-to-B-part pair stays at 2 on NO instances.
    """
    answer, witness, work = _decided(inst, OV)
    b = GraphBuilder(undirected=False)
    a_ids, c_ids, b_ids = _tripartite(b, work.list_a, work.list_b, range(work.d), "c")
    dg_a = _attach_dg(b, a_ids, 1, "dga")
    dg_b = _attach_dg(b, b_ids, 1, "dgb")
    dg_c = _attach_dg(b, c_ids, 1, "dgc")
    x = b.node("x")
    y = b.node("y")
    b.edge(x, y)
    for v in dg_a["all"]:
        b.edge(v, x)
    for v in dg_c["all"]:
        b.edge(x, v)
        b.edge(v, y)
    for v in dg_b["all"]:
        b.edge(y, v)
    for v in dg_a["added"]:
        b.edge(v, y)
    for v in dg_b["added"]:
        b.edge(x, v)
    g = b.build()
    assert topological_order(g) is not None
    return GadgetOutput(
        graph=g,
        variant=MIN,
        quantity="diameter",
        answer=answer,
        eq_side="no",
        yes_value=2,
        no_bound=3,
        is_dag=True,
        witness_map={"x": x, "y": y},
        extras={"ov_witness": witness},
    )


def gadget_min_diameter_weighted(inst, t):
    """Weighted min diameter: NO orthogonal pair -> exactly t+1, YES -> >= 2t.

    t must be even and at least 2."""
    if t < 2 or t % 2:
        raise GadgetError("t must be even and at least 2")
    answer, witness, work = _decided(inst, OV)
    h = t // 2
    b = GraphBuilder(undirected=False)
    a_ids, c_ids, b_ids = _tripartite(b, work.list_a, work.list_b, range(work.d), "c", w=h)
    x = b.node("x")
    y = b.node("y")
    z = b.node("z")
    for a in a_ids:
        b.edge(a, x, 1)
        b.edge(x, a, t)
    for c in c_ids:
        b.edge(c, x, 1)
        b.edge(c, z, h)
        b.edge(z, c, h)
    for bb in b_ids:
        b.edge(bb, y, t)
        b.edge(y, bb, 1)
    b.edge(y, x, 1)
    for c in c_ids:
        b.edge(y, c, 1)
    return GadgetOutput(
        graph=b.build(),
        variant=MIN,
        quantity="diameter",
        answer=answer,
        eq_side="no",
        yes_value=t + 1,
        no_bound=2 * t,
        is_dag=False,
        witness_map={"x": x, "y": y, "z": z},
        extras={"t": t, "ov_witness": witness},
    )


# ---------------------------------------------------------------------------
# Undirected diameter 2 vs 3 and roundtrip diameter 4 vs 6.


def _diameter_23_edges(work):
    b = GraphBuilder(undirected=True)
    a_ids, c_ids, b_ids = _tripartite(b, work.list_a, work.list_b, range(work.d), "c")
    x = b.node("x")
    y = b.node("y")
    for a in a_ids:
        b.edge(x, a)
    for bb in b_ids:
        b.edge(y, bb)
    for c in c_ids:
        b.edge(x, c)
        b.edge(y, c)
    b.edge(x, y)
    return b, x, y


def gadget_undirected_diameter_23(inst):
    """Undirected diameter: NO orthogonal pair -> exactly 2, YES -> >= 3."""
    answer, witness, work = _decided(inst, OV)
    b, x, y = _diameter_23_edges(work)
    return GadgetOutput(
        graph=b.build(),
        variant=UNDIRECTED,
        quantity="diameter",
        answer=answer,
        eq_side="no",
        yes_value=2,
        no_bound=3,
        is_dag=False,
        witness_map={"x": x, "y": y},
        extras={"ov_witness": witness},
    )


def gadget_roundtrip_diameter(inst):
    """Roundtrip diameter: NO orthogonal pair -> exactly 4, YES -> >= 6.

    This is the bidirected version of the undirected 2 vs 3 graph, so every
    roundtrip distance is twice the undirected one."""
    answer, witness, work = _decided(inst, OV)
    b, x, y = _diameter_23_edges(work)
    g_und = b.build()
    g = Graph(g_und.n, list(g_und.directed_edges()), undirected=False)
    return GadgetOutput(
        graph=g,
        variant=ROUNDTRIP,
        quantity="diameter",
        answer=answer,
        eq_side="no",
        yes_value=4,
        no_bound=6,
        is_dag=False,
        witness_map={"x": x, "y": y},
        extras={"ov_witness": witness},
    )


# ---------------------------------------------------------------------------
# All undirected eccentricities, 3 vs 5 per vertex of A, with a fixed-4 hub.


def gadget_all_eccentricities(inst):
    """Per-vertex promise: each a has eccentricity 5 when some b is
    orthogonal to it and 3 otherwise, while the hub x always has
    eccentricity 4.  Requires a nonempty A and B."""
    if inst.na == 0 or inst.nb == 0:
        raise GadgetError("both vector sets must be nonempty")
    b = GraphBuilder(undirected=True)
    a_ids, c_ids, b_ids = _tripartite(b, inst.list_a, inst.list_b, range(inst.d), "c")
    x = b.node("x")
    y = b.node("y")
    b.edge(x, y)
    for a in a_ids:
        b.edge(x, a)
    for c in c_ids:
        b.edge(y, c)
    pend = []
    for i, bb in enumerate(b_ids):
        p = b.node(("bp", i))
        b.edge(bb, p)
        pend.append(p)
    for i, mask in enumerate(inst.list_b):
        if mask == 0:
            w = b.node(("w", i))
            b.edge(y, w)
            b.edge(w, b_ids[i])
    expected = []
    for ma in inst.list_a:
        orth = any(ma & mb == 0 for mb in inst.list_b)
        expected.append(5 if orth else 3)
    return GadgetOutput(
        graph=b.build(),
        variant=UNDIRECTED,
        quantity="eccentricities",
        answer=any(e == 5 for e in expected),
        eq_side="yes",
        yes_value=5,
        no_bound=3,
        is_dag=False,
        witness_map={"x": x, "y": y, "a": a_ids},
        extras={"expected_a_ecc": expected, "hub": x, "hub_ecc": 4},
    )


# ---------------------------------------------------------------------------
# Undirected median (minimum distance sum).


def _median_preprocess(inst):
    list_a = list(inst.list_a)
    list_b = list(inst.list_b)
    d = inst.d
    changed = True
    while changed:
        changed = False
        for j in range(d):
            bit = 1 << j
            if list_a and all(m & bit for m in list_a):
                list_a = [m & ~bit for m in list_a]
                list_b = [m for m in list_b if not m & bit]
                changed = True
    # Compact the universe to the elements still used somewhere.
    used = 0
    for m in list_a + list_b:
        used |= m
    remap = [j for j in range(d) if used >> j & 1]
    pos = {j: i for i, j in enumerate(remap)}

    def compact(m):
        out = 0
        for j in remap:
            if m >> j & 1:
                out |= 1 << pos[j]
        return out

    return [compact(m) for m in list_a], [compact(m) for m in list_b], len(remap)


def gadget_median(inst):
    """Undirected median: YES -> minimum distance sum exactly M*, NO -> >= M*+2.

    M* = 9p + 2|A| + 2|B| + 4|U| + 4 where p is the pendant-block size,
    reported in extras.  A slack universe element belonging to every b-set and
    no a-set keeps the construction non-degenerate."""
    answer = _decided(inst, HSE)[0]
    list_a, list_b, d = _median_preprocess(inst)
    if answer and not list_b:
        list_a, list_b, d = [1, 2], [1], 2
    # Slack element: last universe position, in every b-set, in no a-set.
    slack = 1 << d
    list_b = [m | slack for m in list_b]
    d += 1
    na, nb = len(list_a), len(list_b)
    n = max(na, nb, 1)
    p = max(1, n * d, 2 * na + 2 * nb + 4 * d + 8)
    b = GraphBuilder(undirected=True)
    a_ids = [b.node(("a", i)) for i in range(na)]
    u_ids = {j: b.node(("u", j)) for j in range(d)}
    un_ids = {j: b.node(("un", j)) for j in range(d)}
    b_ids = [b.node(("b", i)) for i in range(nb)]
    x = b.node("x")
    y = b.node("y")
    z = b.node("z")
    _members(b, a_ids, list_a, u_ids)
    _members(b, a_ids, [~m for m in list_a], un_ids)
    _members(b, b_ids, list_b, u_ids, into=True)
    for a in a_ids:
        b.edge(x, a)
    for bb in b_ids:
        b.edge(y, bb)
    for un in un_ids.values():
        b.edge(z, un)
    for i in range(p):
        b.edge(x, b.node(("px", i)))
        b.edge(y, b.node(("py", i)))
        b.edge(z, b.node(("pz", i)))
    m_star = 9 * p + 2 * na + 2 * nb + 4 * d + 4
    return GadgetOutput(
        graph=b.build(),
        variant=UNDIRECTED,
        quantity="median",
        answer=answer,
        eq_side="yes",
        yes_value=m_star,
        no_bound=m_star + 2,
        is_dag=False,
        witness_map={"x": x, "y": y, "z": z, "a": a_ids},
        extras={"pendants": p, "m_star": m_star},
    )
