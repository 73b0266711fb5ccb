import numpy as np
import pytest

import l0path.cover as cover
from l0path import (
    CoverSolution,
    HasCycle,
    NotBipartite,
    TooLarge,
    b2_subgraph_bipartite,
    b2_subgraph_general,
    break_cycles,
    gen_lattice2d,
    make_ordering,
    path_cover,
    support_graph,
)
from l0path.instance import SupportGraph

from conftest import rng_for

STAR = SupportGraph(n=4, edges=((0, 1, 1.5), (1, 2, 1.0), (1, 3, 0.8)))
TRIANGLE = SupportGraph(n=3, edges=((0, 1, 3.0), (0, 2, 2.0), (1, 2, 1.0)))
FOUR_CYCLE = SupportGraph(
    n=4, edges=((0, 1, 4.0), (0, 3, 1.0), (1, 2, 3.0), (2, 3, 2.0))
)


MAX_BRUTE_EDGES = 20


def brute_force_pstar(g: SupportGraph) -> float:
    """Exhaustive maximum-weight vertex-disjoint path cover (small |E|)."""
    m = len(g.edges)
    if m > MAX_BRUTE_EDGES:
        raise TooLarge(f"|E| = {m} exceeds the exhaustive cap {MAX_BRUTE_EDGES}")
    if m == 0:
        return 0.0
    masks = np.arange(1 << m, dtype=np.uint32)
    ok = np.ones(masks.shape, dtype=bool)
    for v in range(g.n):
        inc = 0
        for e, (i, j, _) in enumerate(g.edges):
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
            i, j, w = g.edges[e]
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
    return SupportGraph(n=n, edges=tuple(edges))


def random_bipartite(rng, nl, nr, density=0.5):
    edges = []
    for i in range(nl):
        for j in range(nl, nl + nr):
            if rng.uniform() < density:
                edges.append((i, j, float(rng.uniform(0.2, 3.0))))
    return SupportGraph(n=nl + nr, edges=tuple(edges))


def exhaustive_b2(g):
    """Best degree-limited subgraph weight, cycles allowed."""
    m = len(g.edges)
    best = 0.0
    for mask in range(1 << m):
        deg = {}
        w = 0.0
        ok = True
        for e in range(m):
            if mask >> e & 1:
                i, j, we = g.edges[e]
                deg[i] = deg.get(i, 0) + 1
                deg[j] = deg.get(j, 0) + 1
                if deg[i] > 2 or deg[j] > 2:
                    ok = False
                    break
                w += we
        if ok and w > best:
            best = w
    return best


def check_degrees(cs):
    deg = {}
    for i, j, _ in cs.edges:
        deg[i] = deg.get(i, 0) + 1
        deg[j] = deg.get(j, 0) + 1
    assert all(d <= 2 for d in deg.values())


def test_b2_star():
    cs = b2_subgraph_bipartite(STAR)
    assert cs.weight == 2.5
    assert cs.components == (("path", (0, 1, 2)),)
    assert b2_subgraph_general(STAR).weight == 2.5


def test_b2_four_cycle_all_edges():
    cs = b2_subgraph_bipartite(FOUR_CYCLE)
    assert cs.weight == 10.0
    assert len(cs.components) == 1 and cs.components[0][0] == "cycle"
    after = break_cycles(cs)
    assert after.weight == 9.0
    assert after.components[0][0] == "path"


def test_b2_path_graph_returns_itself():
    path = SupportGraph(n=4, edges=((0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)))
    cs = b2_subgraph_bipartite(path)
    assert cs.edges == path.edges
    assert cs.components == (("path", (0, 1, 2, 3)),)


def test_b2_bipartite_rejects_odd_cycle():
    with pytest.raises(NotBipartite):
        b2_subgraph_bipartite(TRIANGLE)


def test_b2_general_triangle():
    cs = b2_subgraph_general(TRIANGLE)
    assert cs.weight == 6.0
    assert break_cycles(cs).weight == 5.0


def test_b2_matches_exhaustive():
    rng = rng_for(50)
    for _ in range(30):
        g = random_bipartite(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        if len(g.edges) > 12:
            continue
        cs = b2_subgraph_bipartite(g)
        check_degrees(cs)
        assert abs(cs.weight - exhaustive_b2(g)) <= 1e-9
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(2, 6)))
        if len(g.edges) > 12:
            continue
        cs = b2_subgraph_general(g)
        check_degrees(cs)
        assert abs(cs.weight - exhaustive_b2(g)) <= 1e-9


@pytest.mark.parametrize("side", [20, 40])
def test_b2_bipartite_lattice_reaches_degree_bound(side):
    # lattice couplings all weigh 2; degree <= 2 allows at most n edges,
    # and a Hamiltonian cycle of the even grid reaches that bound
    g = support_graph(gen_lattice2d(side, side, 0.3, 0.1, 0))
    cs = b2_subgraph_bipartite(g)
    check_degrees(cs)
    assert cs.weight == 2.0 * side * side


def test_b2_bipartite_matches_general_beyond_exhaustive_cap():
    rng = rng_for(54)
    for _ in range(10):
        nl, nr = rng.integers(10, 21, size=2)
        g = random_bipartite(rng, int(nl), int(nr), density=0.25)
        cs = b2_subgraph_bipartite(g)
        check_degrees(cs)
        assert abs(cs.weight - b2_subgraph_general(g).weight) <= 1e-9


def uniform_bipartite(rng, nl, nr, density=0.5):
    """Random bipartite graph whose edges all carry one weight."""
    g = random_bipartite(rng, nl, nr, density)
    w = float(rng.choice([2.0, rng.uniform(0.2, 3.0)]))
    return SupportGraph(n=g.n, edges=tuple((i, j, w) for i, j, _ in g.edges))


def test_b2_equal_weights_max_flow_matches_exhaustive():
    rng = rng_for(56)
    checked = 0
    for _ in range(40):
        g = uniform_bipartite(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        if len(g.edges) > 16:
            continue
        cs = b2_subgraph_bipartite(g)
        check_degrees(cs)
        assert cs.weight == pytest.approx(exhaustive_b2(g), rel=1e-12)
        checked += 1
    assert checked >= 30


def test_b2_equal_weights_max_flow_matches_general():
    rng = rng_for(57)
    for _ in range(10):
        nl = int(rng.integers(10, 21))
        g = uniform_bipartite(rng, nl, int(rng.integers(max(10, 20 - nl), 41 - nl)), density=0.2)
        assert 20 <= g.n <= 40
        cs = b2_subgraph_bipartite(g)
        check_degrees(cs)
        assert cs.weight == pytest.approx(b2_subgraph_general(g).weight, rel=1e-12)


def test_equal_weight_lattice_takes_the_max_flow(monkeypatch):
    def no_assignment(*args, **kwargs):
        raise AssertionError("the assignment ran on an equal-weight graph")

    monkeypatch.setattr(cover, "min_weight_full_bipartite_matching", no_assignment)
    g = support_graph(gen_lattice2d(100, 100, 0.3, 0.1, 0))
    assert b2_subgraph_bipartite(g).weight == 2.0 * 10**4
    ordering = path_cover(g)
    assert sorted(ordering.pi.tolist()) == list(range(10**4))


def test_weighted_bipartite_takes_the_assignment(monkeypatch):
    calls = []
    assignment = cover.min_weight_full_bipartite_matching

    def counted(*args, **kwargs):
        calls.append(1)
        return assignment(*args, **kwargs)

    def no_flow(*args, **kwargs):
        raise AssertionError("the max flow ran on a weighted graph")

    monkeypatch.setattr(cover, "min_weight_full_bipartite_matching", counted)
    monkeypatch.setattr(cover, "maximum_flow", no_flow)
    cs = b2_subgraph_bipartite(FOUR_CYCLE)
    assert cs.weight == 10.0 and calls == [1]


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
        assert first.retained == second.retained
        assert first.relaxed == second.relaxed


def test_break_cycles_minimum_edge_and_ties():
    cs = b2_subgraph_bipartite(FOUR_CYCLE)
    after = break_cycles(cs)
    assert (0, 3, 1.0) not in after.edges
    # all-equal weights: the lexicographically smallest edge goes
    even = SupportGraph(
        n=4, edges=((0, 1, 2.0), (0, 3, 2.0), (1, 2, 2.0), (2, 3, 2.0))
    )
    after = break_cycles(b2_subgraph_bipartite(even))
    assert (0, 1, 2.0) not in after.edges
    assert after.weight == 6.0
    # a length-two cycle lists its edge twice and keeps one copy
    two = CoverSolution(
        edges=((0, 1, 2.0), (0, 1, 2.0)), components=(("cycle", (0, 1)),), weight=4.0
    )
    after = break_cycles(two)
    assert after.edges == ((0, 1, 2.0),) and after.weight == 2.0
    assert after.components == (("path", (1, 0)),)


def test_break_cycles_keeps_paths():
    cs = b2_subgraph_bipartite(STAR)
    assert break_cycles(cs) == cs or break_cycles(cs).edges == cs.edges


def test_brute_force_pstar_examples():
    assert brute_force_pstar(STAR) == 2.5
    assert brute_force_pstar(TRIANGLE) == 5.0
    assert brute_force_pstar(FOUR_CYCLE) == 9.0
    single = SupportGraph(n=2, edges=((0, 1, 2.0),))
    assert brute_force_pstar(single) == 2.0
    assert brute_force_pstar(SupportGraph(n=2, edges=())) == 0.0


def test_brute_force_pstar_cap():
    rng = rng_for(51)
    g = random_graph(rng, 10, density=0.6)
    assert len(g.edges) > 20
    with pytest.raises(TooLarge):
        brute_force_pstar(g)


def test_make_ordering_star():
    ordering = make_ordering(break_cycles(b2_subgraph_bipartite(STAR)), STAR)
    assert ordering.pi.tolist() == [0, 1, 2, 3]
    assert ordering.retained == ((0, 1), (1, 2))
    assert ordering.relaxed == ((1, 3),)


def test_make_ordering_rejects_cycles():
    with pytest.raises(HasCycle):
        make_ordering(b2_subgraph_bipartite(FOUR_CYCLE), FOUR_CYCLE)


def test_ordering_structure():
    rng = rng_for(52)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(2, 9)))
        ordering = path_cover(g)
        assert sorted(ordering.pi.tolist()) == list(range(g.n))
        assert len(ordering.retained) + len(ordering.relaxed) == len(g.edges)
        pos = {v: t for t, v in enumerate(ordering.pi.tolist())}
        for i, j in ordering.retained:
            assert abs(pos[i] - pos[j]) == 1


def test_pipeline_ratio_spot_checks():
    rng = rng_for(53)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 6)))
        if len(g.edges) > 12:
            continue
        wmap = {(i, j): w for i, j, w in g.edges}
        kept = sum(wmap[e] for e in path_cover(g).retained)
        assert kept >= (2.0 / 3.0) * brute_force_pstar(g) - 1e-9
    for _ in range(20):
        g = random_bipartite(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        if len(g.edges) > 12:
            continue
        wmap = {(i, j): w for i, j, w in g.edges}
        kept = sum(wmap[e] for e in path_cover(g).retained)
        assert kept >= 0.75 * brute_force_pstar(g) - 1e-9
