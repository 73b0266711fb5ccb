import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

import l0path
import l0path._kernels as _kernels
import l0path.cover as cover
from l0path import (
    HasCycle,
    NotBipartite,
    SupportGraph,
    TooLarge,
    b2_subgraph_bipartite,
    b2_subgraph_general,
    break_cycles,
    gen_lattice2d,
    gen_tridiagonal,
    make_ordering,
    path_cover,
    support_graph,
    write_instance,
)
from l0path._kernels import matching_kernel

from conftest import make_graph, random_dd_instance, rng_for
from test_setup import same_bytes

STAR = make_graph(4, [(0, 1, 1.5), (1, 2, 1.0), (1, 3, 0.8)])
TRIANGLE = make_graph(3, [(0, 1, 3.0), (0, 2, 2.0), (1, 2, 1.0)])
FOUR_CYCLE = make_graph(4, [(0, 1, 4.0), (0, 3, 1.0), (1, 2, 3.0), (2, 3, 2.0)])


def edge_tuples(g, mask=slice(None)):
    """The graph's edges (i, j, w) as Python tuples, optionally masked."""
    return list(zip(g.i[mask].tolist(), g.j[mask].tolist(), g.w[mask].tolist()))


def retained_weight(g, ordering):
    """Sum of the retained edges' weights, in edge order."""
    return sum(g.w[ordering.retained].tolist())


def split_pairs(g, ordering):
    """(retained, relaxed): the ordering's kept and dropped edges of g as
    (k, 2) arrays of (i, j) rows, in edge order."""
    return tuple(np.stack((g.i[m], g.j[m]), axis=1) for m in (ordering.retained, ~ordering.retained))


# Reference oracle: the tuple walks that break_cycles and make_ordering
# replace, fed the same exact degree-<=2 subgraph. path_cover must agree
# with it bitwise on pi, retained and relaxed.


def decode_simple_loop(chosen):
    """Split a degree-<=2 simple subgraph into path/cycle components."""
    adj = {}
    for i, j, _ in chosen:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    for v in adj:
        adj[v].sort()
    seen = set()
    comps = []

    def walk(start):
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


def break_cycles_loop(chosen, comps):
    """Open every cycle at its lightest edge (ties: smallest (i, j))."""
    wmap = {(i, j): w for i, j, w in chosen}
    paths = []
    for kind, nodes in comps:
        if kind == "path":
            paths.append((kind, nodes))
            continue
        pairs = list(zip(nodes, nodes[1:])) + [(nodes[-1], nodes[0])]
        drop = min(pairs, key=lambda p: (wmap[(min(p), max(p))], min(p), max(p)))
        k = pairs.index(drop)
        paths.append(("path", nodes[k + 1 :] + nodes[: k + 1]))
    return tuple(paths)


def make_ordering_loop(comps, edges, n):
    """(pi, retained, relaxed): paths heaviest first, then isolated nodes."""
    wmap = {(i, j): w for i, j, w in edges}
    ranked = []
    for kind, nodes in comps:
        if kind != "path":
            raise HasCycle("cover still contains a cycle; break cycles first")
        if nodes[-1] < nodes[0]:
            nodes = tuple(reversed(nodes))
        weight = sum(wmap[(min(u, v), max(u, v))] for u, v in zip(nodes, nodes[1:]))
        ranked.append((-weight, nodes))
    ranked.sort()
    pi = []
    for _, nodes in ranked:
        pi.extend(nodes)
    touched = set(pi)
    pi.extend(v for v in range(n) if v not in touched)
    retained = sorted(
        (min(u, v), max(u, v)) for _, nodes in ranked for u, v in zip(nodes, nodes[1:])
    )
    kept = set(retained)
    relaxed = sorted((i, j) for i, j, _ in edges if (i, j) not in kept)
    return pi, retained, relaxed


def path_cover_loop(g):
    """(pi, retained, relaxed) as lists of Python ints and (i, j) tuples."""
    try:
        cs = b2_subgraph_bipartite(g)
    except NotBipartite:
        cs = b2_subgraph_general(g)
    chosen = edge_tuples(g, cs)
    comps = break_cycles_loop(chosen, decode_simple_loop(chosen))
    return make_ordering_loop(comps, edge_tuples(g), g.n)


MAX_BRUTE_EDGES = 20


def brute_force_pstar(g: SupportGraph) -> float:
    """Exhaustive maximum-weight vertex-disjoint path cover (small |E|)."""
    edges = edge_tuples(g)
    m = len(edges)
    if m > MAX_BRUTE_EDGES:
        raise TooLarge(f"|E| = {m} exceeds the exhaustive cap {MAX_BRUTE_EDGES}")
    if m == 0:
        return 0.0
    masks = np.arange(1 << m, dtype=np.uint32)
    ok = np.ones(masks.shape, dtype=bool)
    for v in range(g.n):
        inc = 0
        for e, (i, j, _) in enumerate(edges):
            if v in (i, j):
                inc |= 1 << e
        if inc:
            ok &= np.bitwise_count(masks & np.uint32(inc)) <= 2
    best = 0.0
    for mask in np.flatnonzero(ok):
        mask = int(mask)
        parent: dict[int, int] = {}

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        acyclic = True
        total = 0.0
        for e in range(m):
            if not mask & (1 << e):
                continue
            i, j, w = edges[e]
            parent.setdefault(i, i)
            parent.setdefault(j, j)
            ri, rj = find(i), find(j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
            total += w
        if acyclic and total > best:
            best = total
    return best


def random_graph(rng, n, density=0.45):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < density:
                edges.append((i, j, float(rng.uniform(0.2, 3.0))))
    return make_graph(n, edges)


def random_bipartite(rng, nl, nr, density=0.5):
    edges = []
    for i in range(nl):
        for j in range(nl, nl + nr):
            if rng.uniform() < density:
                edges.append((i, j, float(rng.uniform(0.2, 3.0))))
    return make_graph(nl + nr, edges)


def exhaustive_b2(g):
    """Best degree-limited subgraph weight, cycles allowed."""
    edges = edge_tuples(g)
    m = len(edges)
    best = 0.0
    for mask in range(1 << m):
        deg = {}
        w = 0.0
        ok = True
        for e in range(m):
            if mask >> e & 1:
                i, j, we = edges[e]
                deg[i] = deg.get(i, 0) + 1
                deg[j] = deg.get(j, 0) + 1
                if deg[i] > 2 or deg[j] > 2:
                    ok = False
                    break
                w += we
        if ok and w > best:
            best = w
    return best


def check_degrees(cs, g):
    deg = np.bincount(np.concatenate([g.i[cs], g.j[cs]]), minlength=g.n)
    assert deg.max(initial=0) <= 2


def test_b2_star():
    cs = b2_subgraph_bipartite(STAR)
    assert STAR.w[cs].sum() == 2.5
    assert edge_tuples(STAR, cs) == [(0, 1, 1.5), (1, 2, 1.0)]
    # one path 0-1-2: it orders without breaking any cycle
    assert make_ordering(cs, STAR).pi.tolist() == [0, 1, 2, 3]
    assert STAR.w[b2_subgraph_general(STAR)].sum() == 2.5


def test_b2_four_cycle_all_edges():
    cs = b2_subgraph_bipartite(FOUR_CYCLE)
    assert FOUR_CYCLE.w[cs].sum() == 10.0 and cs.all()
    with pytest.raises(HasCycle):
        make_ordering(cs, FOUR_CYCLE)
    after = break_cycles(cs, FOUR_CYCLE)
    assert FOUR_CYCLE.w[after].sum() == 9.0
    assert make_ordering(after, FOUR_CYCLE).pi.tolist() == [0, 1, 2, 3]


def test_b2_path_graph_returns_itself():
    path = make_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
    cs = b2_subgraph_bipartite(path)
    assert cs.all()
    assert make_ordering(cs, path).pi.tolist() == [0, 1, 2, 3]


def test_b2_bipartite_rejects_odd_cycle():
    with pytest.raises(NotBipartite):
        b2_subgraph_bipartite(TRIANGLE)


def test_b2_general_triangle():
    cs = b2_subgraph_general(TRIANGLE)
    assert TRIANGLE.w[cs].sum() == 6.0
    assert TRIANGLE.w[break_cycles(cs, TRIANGLE)].sum() == 5.0


def test_b2_matches_exhaustive():
    rng = rng_for(50)
    for _ in range(30):
        g = random_bipartite(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        if g.w.size > 12:
            continue
        cs = b2_subgraph_bipartite(g)
        check_degrees(cs, g)
        assert abs(g.w[cs].sum() - exhaustive_b2(g)) <= 1e-9
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(2, 6)))
        if g.w.size > 12:
            continue
        cs = b2_subgraph_general(g)
        check_degrees(cs, g)
        assert abs(g.w[cs].sum() - exhaustive_b2(g)) <= 1e-9


@pytest.mark.parametrize("side", [20, 40])
def test_b2_bipartite_lattice_reaches_degree_bound(side):
    # lattice couplings all weigh 2; degree <= 2 allows at most n edges,
    # and a Hamiltonian cycle of the even grid reaches that bound
    g = support_graph(gen_lattice2d(side, side, 0.3, 0.1, 0))
    cs = b2_subgraph_bipartite(g)
    check_degrees(cs, g)
    assert g.w[cs].sum() == 2.0 * side * side


def test_b2_bipartite_matches_general_beyond_exhaustive_cap():
    rng = rng_for(54)
    for _ in range(10):
        nl, nr = rng.integers(10, 21, size=2)
        g = random_bipartite(rng, int(nl), int(nr), density=0.25)
        cs = b2_subgraph_bipartite(g)
        check_degrees(cs, g)
        assert abs(g.w[cs].sum() - g.w[b2_subgraph_general(g)].sum()) <= 1e-9


def uniform_bipartite(rng, nl, nr, density=0.5):
    """Random bipartite graph whose edges all carry one weight."""
    g = random_bipartite(rng, nl, nr, density)
    w = float(rng.choice([2.0, rng.uniform(0.2, 3.0)]))
    return make_graph(g.n, [(i, j, w) for i, j, _ in edge_tuples(g)])


def test_b2_equal_weights_max_flow_matches_exhaustive():
    rng = rng_for(56)
    checked = 0
    for _ in range(40):
        g = uniform_bipartite(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        if g.w.size > 16:
            continue
        cs = b2_subgraph_bipartite(g)
        check_degrees(cs, g)
        assert g.w[cs].sum() == pytest.approx(exhaustive_b2(g), rel=1e-12)
        checked += 1
    assert checked >= 30


def test_b2_equal_weights_max_flow_matches_general():
    rng = rng_for(57)
    for _ in range(10):
        nl = int(rng.integers(10, 21))
        g = uniform_bipartite(rng, nl, int(rng.integers(max(10, 20 - nl), 41 - nl)), density=0.2)
        assert 20 <= g.n <= 40
        cs = b2_subgraph_bipartite(g)
        check_degrees(cs, g)
        assert g.w[cs].sum() == pytest.approx(g.w[b2_subgraph_general(g)].sum(), rel=1e-12)


def test_equal_weight_lattice_takes_the_max_flow(monkeypatch):
    def no_assignment(*args, **kwargs):
        raise AssertionError("the assignment ran on an equal-weight graph")

    monkeypatch.setattr(csgraph, "min_weight_full_bipartite_matching", no_assignment)
    g = support_graph(gen_lattice2d(100, 100, 0.3, 0.1, 0))
    assert g.w[b2_subgraph_bipartite(g)].sum() == 2.0 * 10**4
    ordering = path_cover(g)
    assert sorted(ordering.pi.tolist()) == list(range(10**4))


def test_weighted_bipartite_takes_the_assignment(monkeypatch):
    calls = []
    assignment = csgraph.min_weight_full_bipartite_matching

    def counted(*args, **kwargs):
        calls.append(1)
        return assignment(*args, **kwargs)

    def no_flow(*args, **kwargs):
        raise AssertionError("the max flow ran on a weighted graph")

    monkeypatch.setattr(csgraph, "min_weight_full_bipartite_matching", counted)
    monkeypatch.setattr(csgraph, "maximum_flow", no_flow)
    cs = b2_subgraph_bipartite(FOUR_CYCLE)
    assert FOUR_CYCLE.w[cs].sum() == 10.0 and calls == [1]


# SHA-256 of path_cover's pi, retained and relaxed, one graph per branch of
# the degree-<=2 subgraph, recorded before the stages passed a bare mask
COVER_DIGESTS = {
    "max_flow": {
        "pi": "d4544acbf87cba0a03eccd75694777a920a99dd8f4d6af6ec004c3611e6d7cb7",
        "retained": "34239b9890941397fedbdbd349255531fda412ec760c150a0e4a41b8bd4a7f2f",
        "relaxed": "d13b45c2d19f4f64fa13664263e614bc8efa6c1484c87f7d978ef8b114b5a77d",
    },
    "assignment": {
        "pi": "de663cfb3b82787ec7c32624aba8cd8de6555fc906b507971a2c2f3207b5fe52",
        "retained": "0507159fe9df5021af426c037fecb44b2eaedc777fa7ef1b6c707cbc6041ab86",
        "relaxed": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "blossom": {
        "pi": "d36a85c464c185f9f449ea5b8c035fbb18677231c68651c7691394960b4e4ade",
        "retained": "862c51a4052376f2b53741a1ae79bbd6176addd7b05bfe2b65a9c10f46ddbc02",
        "relaxed": "0157b6aabd0c62335c4cdc8321fa5fb73146da125916a20c635a8c680c0caf09",
    },
}


@pytest.mark.parametrize("branch", COVER_DIGESTS)
def test_path_cover_keeps_its_bytes(monkeypatch, branch):
    g = {
        "max_flow": lambda: support_graph(gen_lattice2d(12, 12, 0.3, 0.1, 0)),
        "assignment": lambda: support_graph(gen_tridiagonal(200, 0)),
        "blossom": lambda: support_graph(random_dd_instance(rng_for(5), 12)),
    }[branch]()
    calls = []

    def counted(mod, attr, name):
        f = getattr(mod, attr)
        monkeypatch.setattr(mod, attr, lambda *a, **k: calls.append(name) or f(*a, **k))

    counted(csgraph, "maximum_flow", "max_flow")
    counted(csgraph, "min_weight_full_bipartite_matching", "assignment")
    counted(cover, "matching_kernel", "blossom")
    ordering = path_cover(g)
    assert calls == [branch]
    arrays = dict(zip(("pi", "retained", "relaxed"), (ordering.pi, *split_pairs(g, ordering))))
    got = {f: hashlib.sha256(arrays[f].tobytes()).hexdigest() for f in COVER_DIGESTS[branch]}
    assert got == COVER_DIGESTS[branch]


def test_path_cover_deterministic():
    rng = rng_for(55)
    graphs = [
        support_graph(gen_lattice2d(12, 12, 0.3, 0.1, 1)),
        random_bipartite(rng, 15, 15, density=0.3),
        random_graph(rng, 25, density=0.2),
    ]
    for g in graphs:
        first, second = path_cover(g), path_cover(g)
        assert np.array_equal(first.pi, second.pi)
        assert np.array_equal(first.retained, second.retained)


def test_break_cycles_minimum_edge_and_ties():
    cs = b2_subgraph_bipartite(FOUR_CYCLE)
    after = break_cycles(cs, FOUR_CYCLE)
    assert (0, 3, 1.0) not in edge_tuples(FOUR_CYCLE, after)
    # all-equal weights: the lexicographically smallest edge goes
    even = make_graph(4, [(0, 1, 2.0), (0, 3, 2.0), (1, 2, 2.0), (2, 3, 2.0)])
    after = break_cycles(b2_subgraph_bipartite(even), even)
    assert (0, 1, 2.0) not in edge_tuples(even, after)
    assert even.w[after].sum() == 6.0


def test_break_cycles_keeps_paths():
    cs = b2_subgraph_bipartite(STAR)
    assert np.array_equal(break_cycles(cs, STAR), cs)


def test_brute_force_pstar_examples():
    assert brute_force_pstar(STAR) == 2.5
    assert brute_force_pstar(TRIANGLE) == 5.0
    assert brute_force_pstar(FOUR_CYCLE) == 9.0
    assert brute_force_pstar(make_graph(2, [(0, 1, 2.0)])) == 2.0
    assert brute_force_pstar(make_graph(2, [])) == 0.0


def test_brute_force_pstar_cap():
    rng = rng_for(51)
    g = random_graph(rng, 10, density=0.6)
    assert g.w.size > 20
    with pytest.raises(TooLarge):
        brute_force_pstar(g)


def test_make_ordering_star():
    ordering = make_ordering(break_cycles(b2_subgraph_bipartite(STAR), STAR), STAR)
    assert ordering.pi.tolist() == [0, 1, 2, 3]
    retained, relaxed = split_pairs(STAR, ordering)
    assert retained.tolist() == [[0, 1], [1, 2]]
    assert relaxed.tolist() == [[1, 3]]


def test_make_ordering_rejects_cycles():
    with pytest.raises(HasCycle):
        make_ordering(b2_subgraph_bipartite(FOUR_CYCLE), FOUR_CYCLE)


def test_ordering_structure():
    rng = rng_for(52)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(2, 9)))
        ordering = path_cover(g)
        assert sorted(ordering.pi.tolist()) == list(range(g.n))
        assert ordering.retained.dtype == bool and ordering.retained.shape == g.w.shape
        pos = {v: t for t, v in enumerate(ordering.pi.tolist())}
        for i, j in split_pairs(g, ordering)[0].tolist():
            assert abs(pos[i] - pos[j]) == 1


def test_pipeline_ratio_spot_checks():
    rng = rng_for(53)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 6)))
        if g.w.size > 12:
            continue
        kept = retained_weight(g, path_cover(g))
        assert kept >= (2.0 / 3.0) * brute_force_pstar(g) - 1e-9
    for _ in range(20):
        g = random_bipartite(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        if g.w.size > 12:
            continue
        kept = retained_weight(g, path_cover(g))
        assert kept >= 0.75 * brute_force_pstar(g) - 1e-9


def assert_matches_loop(g):
    got = path_cover(g)
    pi, retained, relaxed = path_cover_loop(g)
    got_retained, got_relaxed = split_pairs(g, got)
    assert same_bytes(got.pi, np.array(pi, dtype=np.int64))
    assert same_bytes(got_retained, np.array(retained, dtype=np.int64).reshape(-1, 2))
    assert same_bytes(got_relaxed, np.array(relaxed, dtype=np.int64).reshape(-1, 2))


@pytest.mark.parametrize(
    "rows, cols", [(6, 6), (6, 9), (9, 6), (7, 7), (10, 13), (20, 20), (17, 31), (40, 40), (100, 100)]
)
def test_path_cover_matches_loop_on_lattices(rows, cols):
    assert_matches_loop(support_graph(gen_lattice2d(rows, cols, 0.3, 0.1, 0)))


def cover_family_graph(rng, k):
    """The k-th graph of the differential family: n = 1..29, bipartite
    (sides interleaved) or general, with continuous, equal or small
    integer weights (forced ties); every 37th graph is edgeless."""
    n = 1 + k % 29
    bipartite = k % 2 == 0
    density = 0.0 if k % 37 == 0 else min(1.0, float(rng.uniform(1.0, 4.0)) / max(n - 1, 1))
    side = rng.permutation(n) < n // 2
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.uniform() < density and (not bipartite or side[i] != side[j])
    ]
    kind = k // 2 % 3
    if kind == 0:
        w = rng.uniform(0.2, 3.0, len(edges))
    elif kind == 1:
        w = np.full(len(edges), float(rng.choice([2.0, rng.uniform(0.2, 3.0)])))
    else:
        w = rng.integers(1, 4, len(edges)).astype(np.float64)
    return make_graph(n, [(i, j, wk) for (i, j), wk in zip(edges, w.tolist())])


def test_path_cover_matches_loop_on_random_graphs():
    rng = rng_for(58)
    graphs = [cover_family_graph(rng, k) for k in range(330)]
    assert sum(g.n == 1 for g in graphs) >= 10
    assert sum(g.w.size == 0 for g in graphs) >= 20
    assert sum(cover._bipartition(g) is None for g in graphs) >= 100
    for g in graphs:
        assert_matches_loop(g)


def test_path_weights_sum_in_path_order():
    # 0.1 + 0.2 + 0.3 rounds up, 0.3 + 0.2 + 0.1 does not: summed from the
    # smaller endpoint the two paths tie, and the smaller first node wins
    w = 0.1 + 0.2 + 0.3
    g = make_graph(6, [(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3), (4, 5, w)])
    assert path_cover(g).pi.tolist() == [0, 1, 2, 3, 4, 5]
    assert_matches_loop(g)


def test_import_leaves_networkx_unloaded(tmp_path):
    # networkx is the test suite's reference matching, never the solver's
    inst = random_dd_instance(rng_for(0), 12, 0.4)
    assert cover._bipartition(support_graph(inst)) is None
    write_instance(inst, str(tmp_path / "inst.txt"))
    src = os.path.dirname(os.path.dirname(l0path.__file__))
    probe = (
        "import sys; import numpy as np; import l0path\n"
        "from l0path import SupportGraph, default_relaxation, path_cover, read_instance\n"
        "path_cover(SupportGraph(3, np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([3.0, 2.0, 1.0]), -np.ones(3)))\n"
        f"default_relaxation(read_instance({str(tmp_path / 'inst.txt')!r}))\n"
        "print('networkx' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_path_solver_leaves_scipy_unloaded(tmp_path):
    # the exact path solver and the generators use numpy and the compiled
    # kernels only; scipy is imported by the functions of the cover and
    # the refit that call it
    inst = str(tmp_path / "inst.json")
    src = os.path.dirname(os.path.dirname(l0path.__file__))
    probe = (
        "import sys; import l0path; from l0path import cli, tridiag\n"
        "tridiag.solve(l0path.to_tridiagonal(l0path.gen_tridiagonal(50, 1)))\n"
        f"cli.main(['gen', 'tridiag', '--n', '50', '--seed', '1', '-o', {inst!r}])\n"
        f"cli.main(['solve-path', {inst!r}])\n"
        "print('scipy.sparse' in sys.modules)\n"
        "l0path.path_cover(l0path.support_graph(l0path.gen_lattice2d(3, 3, 0.3, 0.1, 0)))\n"
        "print('scipy.sparse' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split()[-2:] == ["False", "True"]


def test_no_package_module_imports_networkx():
    for path in Path(l0path.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "networkx" for n in names), path.name


def matched_pairs(mate):
    v = np.flatnonzero(mate >= 0)
    return {frozenset(p) for p in zip(v.tolist(), mate[v].tolist())}


def reference_pairs(x, y, w):
    """networkx's matching on the arcs, added in order with float weights."""
    gm = nx.Graph()
    gm.add_weighted_edges_from(zip(x.tolist(), y.tolist(), w.tolist()))
    return {frozenset(p) for p in nx.max_weight_matching(gm)}


def assert_matches_networkx(n, x, y, w):
    assert matched_pairs(matching_kernel(n, x, y, w)) == reference_pairs(x, y, w)


def assert_gadget_matches_networkx(g):
    x, y, wx = cover._gadget(g.n, g.i, g.j, g.w)
    assert_matches_networkx(2 * g.n + 2 * g.w.size, x, y, wx)


def equal_weight_odd_graph(rng, n):
    """A random graph on n >= 3 vertices with the triangle 0-1-2, every
    edge of one weight."""
    w = float(rng.choice([1.0, 2.0, rng.uniform(0.2, 3.0)]))
    edges = {(0, 1), (0, 2), (1, 2)}
    edges |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < 0.4}
    return make_graph(n, [(i, j, w) for i, j in sorted(edges)])


def test_matching_kernel_matches_networkx_on_gadgets():
    # the gadget ties by construction: each edge gives 5 arcs of one weight
    rng = rng_for(61)
    weighted = [random_graph(rng, int(rng.integers(2, 8))) for _ in range(600)]
    equal = [equal_weight_odd_graph(rng, int(rng.integers(3, 8))) for _ in range(500)]
    graphs = [g for g in weighted + equal if g.w.size]
    assert len(graphs) >= 1000
    assert sum(cover._bipartition(g) is None for g in graphs) >= 700
    for g in graphs:
        assert_gadget_matches_networkx(g)


def test_matching_kernel_matches_networkx_on_tied_graphs():
    # larger graphs with weights on a grid of quarters: blossoms nest, and
    # T-blossoms expand, relabel their children and augment. Under this
    # tag, every branch of networkx's float-weight path runs except two
    # rare ones in a T-blossom's relabelling.
    rng = rng_for(64)
    for t in range(300):
        n = int(rng.integers(4, 31))
        density = rng.uniform(0.05, 0.6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < density]
        e = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        flip = rng.uniform(size=len(e)) < 0.5
        x, y = np.where(flip, e[:, 1], e[:, 0]), np.where(flip, e[:, 0], e[:, 1])
        w = rng.integers(0, 10, len(e)) / 4.0 if t % 2 else rng.integers(1, 4, len(e)).astype(np.float64)
        assert_matches_networkx(n, x, y, w)


@pytest.mark.parametrize(
    "g",
    [
        make_graph(0, []),
        make_graph(3, []),
        make_graph(2, [(0, 1, 1.5)]),
        # two triangles and an isolated vertex
        make_graph(7, [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0), (4, 5, 1.0), (4, 6, 1.0), (5, 6, 1.0)]),
        # zero-weight arcs: the kernel takes bare arrays, and a SupportGraph
        # refuses weights that are not positive
        SimpleNamespace(n=4, i=np.array([0, 0, 1, 2]), j=np.array([1, 2, 2, 3]), w=np.array([0.0, 1.0, 1.0, 0.0])),
    ],
    ids=["empty", "no-edges", "single-edge", "disconnected", "zero-weight"],
)
def test_matching_kernel_edge_cases(g):
    assert_gadget_matches_networkx(g)
    assert_matches_networkx(g.n, g.i, g.j, g.w)


def test_matching_kernel_rejects_arcs_of_different_lengths():
    x, y, w = np.array([0, 1]), np.array([1, 2]), np.ones(2)
    for args in ((x, y[:1], w), (x, y, w[:1]), (x[:, None], y[:, None], w[:, None])):
        with pytest.raises(ValueError, match="of one length"):
            matching_kernel(3, *args)


@pytest.mark.parametrize("node", [-1, 3])
def test_matching_kernel_rejects_nodes_out_of_range(node):
    x, y, w = np.array([0, 1]), np.array([1, node]), np.ones(2)
    with pytest.raises(ValueError, match="nodes in 0 .. n-1"):
        matching_kernel(3, x, y, w)


@pytest.mark.parametrize(
    "x, y, w",
    [([0, 1], [1, 1], [1.0, 1.0]), ([0, 1], [1, 0], [1.0, 2.0]), ([0, 1], [1, 2], [1.0, np.nan])],
    ids=["loop", "repeated-pair", "nan-weight"],
)
def test_matching_kernel_rejects_non_simple_graphs(x, y, w):
    with pytest.raises(ValueError, match="no loops, no repeated pairs and finite weights"):
        matching_kernel(3, np.array(x), np.array(y), np.array(w))


def test_matching_kernel_raises_memory_error(monkeypatch):
    class OutOfMemory:
        @staticmethod
        def l0_matching(*args):
            return -3

    monkeypatch.setattr(_kernels, "_lib", OutOfMemory)
    with pytest.raises(MemoryError, match="matching kernel scratch"):
        matching_kernel(3, np.array([0, 1]), np.array([1, 2]), np.ones(2))
