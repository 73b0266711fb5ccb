"""Choosing which quadratic terms to keep tridiagonal.

The support-graph preprocessing picks a maximum-weight set of edges that
forms vertex-disjoint paths; those edges become the retained tridiagonal
couplings and everything else is dualized. Pipeline: solve the degree-<=2
maximum-weight subgraph exactly (an integer maximum flow on bipartite
graphs whose weights are all equal; otherwise a maximum-weight matching
on an edge gadget: a sparse assignment on bipartite graphs, where the
gadget is bipartite too, and the compiled blossom matching
`_kernels.matching_kernel` on the rest), break each surviving cycle at its
lightest edge, and concatenate the paths into a variable ordering.

The graph, the chosen subgraph and the ordering are arrays throughout:
the stages hand the subgraph on as a bare boolean mask over the graph's
sorted edge arrays, the Ordering carries that mask on to the relaxation
as its retained edges, and the subgraph's cycles and paths come from
`scipy.sparse.csgraph` component labels and breadth-first depths, with
no walk over individual edges. Each function imports the scipy names it
calls, so `import l0path` and the exact path solver never load scipy;
the first cover does.

Breaking a cycle of length L >= 3 loses at most 1/3 (bipartite: L >= 4,
at most 1/4) of its weight, and the degree-<=2 optimum dominates the best
path cover, so the result carries >= 2/3 (bipartite: >= 3/4) of the
optimal path-cover weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import matching_kernel
from .errors import HasCycle, NotBipartite
from .instance import SupportGraph

@dataclass(frozen=True, eq=False)
class Ordering:
    """Variable permutation with the retained edges of its graph.

    pi[t] is the original variable at position t. retained is a boolean
    mask over the graph's edges, in their (i, j) order, that marks the
    path-cover edges; each joins consecutive positions under pi, and
    ~retained marks the relaxed edges.
    """

    pi: np.ndarray
    retained: np.ndarray


def _components(n: int, i: np.ndarray, j: np.ndarray):
    """(count, label per vertex, sparse adjacency) of the graph with edges (i, j)."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    adj = csr_array((np.ones(i.size), (i, j)), shape=(n, n))
    return *connected_components(adj, directed=False), adj


def _bipartition(g: SupportGraph):
    """2-coloring with color 0 on the smallest vertex of each component;
    None when some component has an odd cycle.

    One labelling of the bipartite double cover, where each edge (i, j)
    joins i to j + n and i + n to j: v and v + n share a label exactly
    when v's component has an odd cycle, and otherwise label v's color
    class and the other one. v gets color 1 when the smallest node with
    v's label is larger than the smallest node with the label of v + n.
    """
    n = g.n
    _, label, _ = _components(2 * n, np.concatenate((g.i, g.i + n)), np.concatenate((g.j + n, g.j)))
    if np.any(label[:n] == label[n:]):
        return None
    _, first = np.unique(label, return_index=True)
    return (first[label[:n]] > first[label[n:]]).astype(np.int64)


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


def _decode_matching(g: SupportGraph, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Keep the edges whose gadget nodes a_e and b_e both match vertex copies."""
    n, m = g.n, g.w.size
    on_copy = np.zeros(2 * n + 2 * m, dtype=bool)
    touches_copy = (x < 2 * n) | (y < 2 * n)
    on_copy[x[touches_copy]] = True
    on_copy[y[touches_copy]] = True
    return on_copy[2 * n : 2 * n + m] & on_copy[2 * n + m :]


def b2_subgraph_bipartite(g: SupportGraph) -> np.ndarray:
    """Exact maximum-weight degree-<=2 subgraph of a bipartite graph, as a
    boolean mask over g's edges.

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
    i, j, w = g.i, g.j, g.w
    color = _bipartition(g)
    if color is None:
        raise NotBipartite("support graph has an odd cycle")
    if w.size == 0:
        return np.zeros(0, dtype=bool)
    n, m = g.n, w.size
    from_left = color[i] == 0
    tail, head = np.where(from_left, i, j), np.where(from_left, j, i)
    if w[0] > 0 and np.all(w == w[0]):
        return _b2_max_flow(g, color, tail, head)
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

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
    """Equal-weight case of `b2_subgraph_bipartite`: the mask of the edges
    that carry flow. Direct tail -> head arcs suffice because the support
    graph has one edge per vertex pair."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow

    n = g.n
    source, sink = n, n + 1
    left, right = np.flatnonzero(color == 0), np.flatnonzero(color == 1)
    tails = np.concatenate([np.full(left.size, source), tail, right])
    heads = np.concatenate([left, head, np.full(right.size, sink)])
    cap = np.concatenate([np.full(left.size, 2), np.ones(tail.size), np.full(right.size, 2)])
    net = csr_array((cap.astype(np.int32), (tails, heads)), shape=(n + 2, n + 2))
    flow = maximum_flow(net, source, sink, method="dinic").flow
    return np.asarray(flow[tail, head]).ravel() > 0


def b2_subgraph_general(g: SupportGraph) -> np.ndarray:
    """Exact maximum-weight degree-<=2 subgraph of any graph, as a boolean
    mask over g's edges: a general maximum-weight matching on the edge
    gadget (see `_gadget`), by the compiled blossom method in O(V + E)
    scratch (see `_kernels.matching_kernel`)."""
    x, y, wx = _gadget(g.n, g.i, g.j, g.w)
    mate = matching_kernel(2 * g.n + 2 * g.w.size, x, y, wx)
    matched = np.flatnonzero(mate >= 0)
    return _decode_matching(g, matched, mate[matched])


def break_cycles(chosen: np.ndarray, g: SupportGraph) -> np.ndarray:
    """Drop the lightest edge of every cycle (ties: smallest (i, j)) from
    the edge mask `chosen`; returns a new mask.

    A component of the degree-<=2 subgraph is a cycle when it has as many
    edges as nodes.
    """
    e = np.flatnonzero(chosen)
    ncomp, label, _ = _components(g.n, g.i[e], g.j[e])
    comp = label[g.i[e]]
    cycle = np.bincount(comp, minlength=ncomp) == np.bincount(label)
    # the first edge of each component in (w, i, j) order
    order = np.lexsort((g.j[e], g.i[e], g.w[e], comp))
    lightest = order[np.diff(comp[order], prepend=-1) != 0]
    chosen = chosen.copy()
    chosen[e[lightest[cycle[comp[lightest]]]]] = False
    return chosen


def make_ordering(chosen: np.ndarray, g: SupportGraph) -> Ordering:
    """Concatenate the paths of the edge mask `chosen` (heaviest first,
    ties: smaller first node) into a permutation.

    Each path runs from its smaller endpoint and its weight is summed in
    path order. Every cover edge joins consecutive positions; untouched
    nodes go last in ascending order. The Ordering keeps a copy of
    `chosen` as its retained mask.
    """
    from scipy.sparse.csgraph import dijkstra

    ci, cj, cw = g.i[chosen], g.j[chosen], g.w[chosen]
    ncomp, label, adj = _components(g.n, ci, cj)
    comp = label[ci]
    if np.any(np.bincount(comp, minlength=ncomp) == np.bincount(label)):
        raise HasCycle("cover still contains a cycle; break cycles first")
    degree = np.bincount(np.concatenate([ci, cj]), minlength=g.n)
    ends = np.flatnonzero(degree == 1)
    path, start_at = np.unique(label[ends], return_index=True)
    start = ends[start_at]
    depth = dijkstra(adj, directed=False, indices=start, unweighted=True, min_only=True)
    # ufunc.at adds in index order: with the edges in path order, each
    # path's weight sums from its start, as a loop along the path would
    weight = np.zeros(ncomp)
    along = np.lexsort((np.minimum(depth[ci], depth[cj]), comp))
    np.add.at(weight, comp[along], cw[along])
    rank = np.empty(ncomp, dtype=np.int64)
    rank[path[np.lexsort((start, -weight[path]))]] = np.arange(path.size)
    touched = np.flatnonzero(degree > 0)
    walk = touched[np.lexsort((depth[touched], rank[label[touched]]))]
    pi = np.concatenate([walk, np.flatnonzero(degree == 0)])
    return Ordering(pi=pi, retained=np.array(chosen, dtype=bool))


def path_cover(g: SupportGraph) -> Ordering:
    """Full pipeline: exact degree-<=2 subgraph, cycle breaking, ordering."""
    try:
        chosen = b2_subgraph_bipartite(g)
    except NotBipartite:
        chosen = b2_subgraph_general(g)
    return make_ordering(break_cycles(chosen, g), g)
