"""Choosing which quadratic terms to keep tridiagonal.

The support-graph preprocessing picks a maximum-weight set of edges that
forms vertex-disjoint paths; those edges become the retained tridiagonal
couplings and everything else is dualized. Pipeline: solve the degree-<=2
maximum-weight subgraph exactly (an integer maximum flow on bipartite
graphs whose weights are all equal; otherwise a maximum-weight matching
on an edge gadget: a sparse assignment on bipartite graphs, where the
gadget is bipartite too, and a general matching on the rest), break each
surviving cycle at its lightest edge, and concatenate the paths into a
variable ordering.

Breaking a cycle of length L >= 3 loses at most 1/3 (bipartite: L >= 4,
at most 1/4) of its weight, and the degree-<=2 optimum dominates the best
path cover, so the result carries >= 2/3 (bipartite: >= 3/4) of the
optimal path-cover weight.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import networkx as nx
import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import (
    connected_components,
    maximum_flow,
    min_weight_full_bipartite_matching,
    shortest_path,
)

from .errors import HasCycle, NotBipartite
from .instance import SupportGraph

@dataclass(frozen=True, eq=False)
class CoverSolution:
    """Chosen edges (i, j, w) plus their decomposition into components.

    Every node has degree <= 2. A length-two cycle is represented by the
    same edge appearing twice, and its weight counts twice.
    """

    edges: tuple[tuple[int, int, float], ...]
    components: tuple[tuple[str, tuple[int, ...]], ...]
    weight: float


@dataclass(frozen=True, eq=False)
class Ordering:
    """Variable permutation with the retained/relaxed edge split.

    pi[t] is the original variable at position t; retained edges are
    consecutive under pi.
    """

    pi: np.ndarray
    retained: tuple[tuple[int, int], ...]
    relaxed: tuple[tuple[int, int], ...]


def _bipartition(g: SupportGraph, i: np.ndarray, j: np.ndarray):
    """2-coloring with color 0 on the smallest vertex of each component;
    None when some component has an odd cycle.

    One breadth-first search from a virtual vertex joined to those
    smallest vertices colors every vertex by the parity of its depth.
    """
    n, m = g.n, i.size
    _, label = connected_components(
        csr_array((np.ones(m), (i, j)), shape=(n, n)), directed=False
    )
    _, roots = np.unique(label, return_index=True)
    tails = np.concatenate([i, np.full(roots.size, n)])
    heads = np.concatenate([j, roots])
    joined = csr_array((np.ones(tails.size), (tails, heads)), shape=(n + 1, n + 1))
    depth = shortest_path(joined, directed=False, unweighted=True, indices=n)
    color = (depth[:n].astype(np.int64) - 1) % 2
    if np.any(color[i] == color[j]):
        return None
    return color


def _decode_simple(g: SupportGraph, chosen: list[tuple[int, int, float]]):
    """Split a degree-<=2 simple subgraph into path/cycle components."""
    adj: dict[int, list[int]] = {}
    for i, j, _ in chosen:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    for v in adj:
        adj[v].sort()
    seen: set[int] = set()
    comps = []

    def walk(start: int) -> list[int]:
        nodes = [start]
        seen.add(start)
        cur = start
        while True:
            nxt = [v for v in adj[cur] if v not in seen]
            if not nxt:
                return nodes
            cur = nxt[0]
            seen.add(cur)
            nodes.append(cur)

    for v in sorted(adj):
        if v not in seen and len(adj[v]) == 1:
            comps.append(("path", tuple(walk(v))))
    for v in sorted(adj):
        if v not in seen:
            comps.append(("cycle", tuple(walk(v))))
    return tuple(comps)


def _cover_from_chosen(g: SupportGraph, chosen: list[tuple[int, int, float]]):
    return CoverSolution(
        edges=tuple(sorted(chosen)),
        components=_decode_simple(g, chosen),
        weight=float(sum(w for _, _, w in chosen)),
    )


def _edge_arrays(g: SupportGraph):
    e = np.array(g.edges, dtype=np.float64).reshape(-1, 3)
    return e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2]


def _gadget(n: int, tail: np.ndarray, head: np.ndarray, w: np.ndarray):
    """Arcs (x, y, weight) of the edge gadget.

    Copy c of vertex v is node 2v + c. Edge e gets nodes a_e = 2n + e and
    b_e = 2n + m + e, joined by arcs tail copies - a_e, a_e - b_e and
    b_e - head copies, each of weight w_e. Matching a_e and b_e to vertex
    copies selects the edge (contributing 2w_e), matching a_e - b_e skips
    it (contributing w_e), so a maximum-weight matching exceeds the
    constant sum(w) by exactly the best degree-<=2 subgraph weight. x holds
    tail copies and b nodes, y holds a nodes and head copies: when every
    tail is on one side of a bipartite graph, x and y are the two sides of
    the gadget.
    """
    m = len(w)
    a = 2 * n + np.arange(m)
    b = a + m
    x = np.concatenate([2 * tail, 2 * tail + 1, b, b, b])
    y = np.concatenate([a, a, a, 2 * head, 2 * head + 1])
    return x, y, np.tile(w, 5)


def _decode_matching(g: SupportGraph, x: np.ndarray, y: np.ndarray) -> CoverSolution:
    """Keep the edges whose gadget nodes a_e and b_e both match vertex copies."""
    n, m = g.n, len(g.edges)
    on_copy = np.zeros(2 * n + 2 * m, dtype=bool)
    touches_copy = (x < 2 * n) | (y < 2 * n)
    on_copy[x[touches_copy]] = True
    on_copy[y[touches_copy]] = True
    keep = on_copy[2 * n : 2 * n + m] & on_copy[2 * n + m :]
    return _cover_from_chosen(g, [g.edges[e] for e in np.flatnonzero(keep)])


def b2_subgraph_bipartite(g: SupportGraph) -> CoverSolution:
    """Exact maximum-weight degree-<=2 subgraph of a bipartite graph.

    When every weight equals some w, the best subgraph is w times a
    maximum-cardinality one, which is an integer maximum flow: source ->
    left vertex (capacity 2) -> right vertex (capacity 1 per edge) ->
    sink (capacity 2), solved by Dinic's algorithm; the edges carrying
    flow are the subgraph. Otherwise, with every edge oriented from the
    left side, the edge gadget is bipartite: rows are the b nodes and the
    left vertex copies, columns the right vertex copies and the a nodes.
    Each row also gets a dummy column of cost C = 2 max(w), and each real
    arc costs C - w, so the minimum-cost full assignment (sparse
    Jonker-Volgenant) is a maximum-weight matching of the gadget.
    """
    i, j, w = _edge_arrays(g)
    color = _bipartition(g, i, j)
    if color is None:
        raise NotBipartite("support graph has an odd cycle")
    if not g.edges:
        return _cover_from_chosen(g, [])
    n, m = g.n, len(w)
    from_left = color[i] == 0
    tail, head = np.where(from_left, i, j), np.where(from_left, j, i)
    if w[0] > 0 and np.all(w == w[0]):
        return _b2_max_flow(g, color, tail, head)
    x, y, wx = _gadget(n, tail, head, w)
    left_copies = (2 * np.flatnonzero(color == 0)[:, None] + [0, 1]).ravel()
    right_copies = (2 * np.flatnonzero(color == 1)[:, None] + [0, 1]).ravel()
    rows = np.concatenate([2 * n + m + np.arange(m), left_copies])
    cols = np.concatenate([right_copies, 2 * n + np.arange(m)])
    nr, nc = rows.size, cols.size
    pos = np.empty(2 * n + 2 * m, dtype=np.int64)
    pos[rows] = np.arange(nr)
    pos[cols] = np.arange(nc)
    big = 2.0 * w.max()
    dummy = np.arange(nr)
    cost = csr_array(
        (
            np.concatenate([big - wx, np.full(nr, big)]),
            (np.concatenate([pos[x], dummy]), np.concatenate([pos[y], nc + dummy])),
        ),
        shape=(nr, nc + nr),
    )
    r, c = min_weight_full_bipartite_matching(cost)
    real = c < nc
    return _decode_matching(g, rows[r[real]], cols[c[real]])


def _b2_max_flow(g: SupportGraph, color: np.ndarray, tail: np.ndarray, head: np.ndarray):
    """Equal-weight case of `b2_subgraph_bipartite`: keep the edges that
    carry flow. Direct tail -> head arcs suffice because the support graph
    has one edge per vertex pair."""
    n = g.n
    source, sink = n, n + 1
    left, right = np.flatnonzero(color == 0), np.flatnonzero(color == 1)
    tails = np.concatenate([np.full(left.size, source), tail, right])
    heads = np.concatenate([left, head, np.full(right.size, sink)])
    cap = np.concatenate([np.full(left.size, 2), np.ones(tail.size), np.full(right.size, 2)])
    net = csr_array((cap.astype(np.int32), (tails, heads)), shape=(n + 2, n + 2))
    flow = maximum_flow(net, source, sink, method="dinic").flow
    used = np.asarray(flow[tail, head]).ravel() > 0
    return _cover_from_chosen(g, [g.edges[e] for e in np.flatnonzero(used)])


def b2_subgraph_general(g: SupportGraph) -> CoverSolution:
    """Exact maximum-weight degree-<=2 subgraph of any graph: a general
    maximum-weight matching on the edge gadget (see `_gadget`)."""
    i, j, w = _edge_arrays(g)
    x, y, wx = _gadget(g.n, i, j, w)
    gm = nx.Graph()
    gm.add_weighted_edges_from(zip(x.tolist(), y.tolist(), wx.tolist()))
    pairs = np.array(sorted(nx.max_weight_matching(gm)), dtype=np.int64).reshape(-1, 2)
    return _decode_matching(g, pairs[:, 0], pairs[:, 1])


def break_cycles(cs: CoverSolution) -> CoverSolution:
    """Drop the lightest edge of every cycle (ties: smallest (i, j));
    a length-two cycle collapses to its single edge."""
    wmap = {(i, j): w for i, j, w in cs.edges}
    dropped = []
    comps = []
    for kind, nodes in cs.components:
        if kind == "path":
            comps.append((kind, nodes))
            continue
        pairs = list(zip(nodes, nodes[1:])) + [(nodes[-1], nodes[0])]
        if len(nodes) == 2:
            pairs = pairs[:1]  # the duplicated edge, listed once per copy
        drop = min(pairs, key=lambda p: (wmap[(min(p), max(p))], min(p), max(p)))
        k = pairs.index(drop)
        path_nodes = nodes[k + 1 :] + nodes[: k + 1]
        key = (min(drop), max(drop))
        dropped.append((key[0], key[1], wmap[key]))
        comps.append(("path", tuple(path_nodes)))
    edges = list((Counter(cs.edges) - Counter(dropped)).elements())
    return CoverSolution(
        edges=tuple(sorted(edges)),
        components=tuple(comps),
        weight=float(sum(w for _, _, w in edges)),
    )


def make_ordering(cs: CoverSolution, g: SupportGraph) -> Ordering:
    """Concatenate path components (heaviest first) into a permutation.

    Every cover edge joins consecutive positions; isolated nodes go last
    in ascending order.
    """
    wmap = {(i, j): w for i, j, w in g.edges}
    ranked = []
    for kind, nodes in cs.components:
        if kind != "path":
            raise HasCycle("cover still contains a cycle; break cycles first")
        if nodes[-1] < nodes[0]:
            nodes = tuple(reversed(nodes))
        weight = sum(wmap[(min(u, v), max(u, v))] for u, v in zip(nodes, nodes[1:]))
        ranked.append((-weight, nodes))
    ranked.sort()
    pi: list[int] = []
    for _, nodes in ranked:
        pi.extend(nodes)
    touched = set(pi)
    pi.extend(v for v in range(g.n) if v not in touched)
    retained = sorted(
        (min(u, v), max(u, v)) for _, nodes in ranked for u, v in zip(nodes, nodes[1:])
    )
    kept = set(retained)
    relaxed = sorted((i, j) for i, j, _ in g.edges if (i, j) not in kept)
    return Ordering(
        pi=np.array(pi, dtype=np.int64),
        retained=tuple(retained),
        relaxed=tuple(relaxed),
    )


def path_cover(g: SupportGraph) -> Ordering:
    """Full pipeline: exact degree-<=2 subgraph, cycle breaking, ordering."""
    try:
        cs = b2_subgraph_bipartite(g)
    except NotBipartite:
        cs = b2_subgraph_general(g)
    return make_ordering(break_cycles(cs), g)
