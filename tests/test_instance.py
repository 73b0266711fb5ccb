import dataclasses
import json

import numpy as np
import pytest

from l0path import (
    Instance,
    InvalidPermutation,
    NotDiagonallyDominant,
    NotSymmetricStorage,
    ParseError,
    enumerate_supports,
    gen_lattice2d,
    gen_signal1d,
    gen_tridiagonal,
    permute,
    read_instance,
    support_graph,
    validate,
    write_instance,
)
from l0path.instance import _build, _rng, _smooth_sparse_truth

from conftest import make_graph, make_instance, random_dd_instance, rng_for


def test_validate_example_split(example_instance):
    dd = validate(example_instance)
    assert np.allclose(dd.D, [1.5, 2.7, 2.0, 1.2])
    terms = zip(dd.term_i.tolist(), dd.term_j.tolist(), dd.term_w.tolist(), dd.term_sign.tolist())
    assert list(terms) == [
        (0, 1, 1.5, -1),
        (1, 2, 1.0, -1),
        (1, 3, 0.8, -1),
    ]


def test_validate_diagonal_only():
    inst = make_instance([1.0, 1.0], [0.0, 0.0], [(0, 0, 2.0), (1, 1, 3.0)])
    dd = validate(inst)
    assert dd.term_i.size == dd.term_j.size == dd.term_w.size == dd.term_sign.size == 0
    assert np.allclose(dd.D, [2.0, 3.0])


def test_validate_rejects_dominance_violation():
    inst = make_instance(
        [0.0, 0.0], [0.0, 0.0], [(0, 0, 1.0), (0, 1, -1.5), (1, 1, 1.0)]
    )
    with pytest.raises(NotDiagonallyDominant) as exc:
        validate(inst)
    assert exc.value.index == 0


def test_validate_rejects_missing_diagonal():
    inst = make_instance([0.0, 0.0], [0.0, 0.0], [(0, 1, -0.5), (1, 1, 1.0)])
    with pytest.raises(NotDiagonallyDominant) as exc:
        validate(inst)
    assert exc.value.index == 0


def test_validate_rejects_bad_storage():
    dup = make_instance(
        [0.0, 0.0], [0.0, 0.0],
        [(0, 0, 1.0), (0, 1, 0.2), (0, 1, 0.2), (1, 1, 1.0)],
    )
    with pytest.raises(NotSymmetricStorage):
        validate(dup)
    zero = make_instance(
        [0.0, 0.0], [0.0, 0.0], [(0, 0, 1.0), (0, 1, 0.0), (1, 1, 1.0)]
    )
    with pytest.raises(NotSymmetricStorage):
        validate(zero)


def test_dd_form_reconstructs_quadratic():
    rng = rng_for(11)
    for _ in range(10):
        inst = random_dd_instance(rng, int(rng.integers(2, 12)))
        dd = validate(inst)
        q = inst.dense_q()
        for _ in range(10):
            x = rng.standard_normal(inst.n)
            direct = 0.5 * x @ q @ x
            assert abs(dd.quad(x) - direct) <= 1e-9 * (1.0 + abs(direct))


def test_support_graph_weights(example_instance):
    g = support_graph(example_instance)
    want = make_graph(4, [(0, 1, 1.5), (1, 2, 1.0), (1, 3, 0.8)])
    assert g.n == want.n
    for got_a, want_a in ((g.i, want.i), (g.j, want.j), (g.w, want.w)):
        assert got_a.dtype == want_a.dtype and np.array_equal(got_a, want_a)
        assert not got_a.flags.writeable


def test_permute_identity(example_instance):
    same = permute(example_instance, np.arange(4))
    assert np.array_equal(same.a, example_instance.a)
    assert np.array_equal(same.qv, example_instance.qv)


def test_permute_preserves_optimum(example_instance):
    base = enumerate_supports(example_instance).value
    rng = rng_for(12)
    for _ in range(5):
        pi = rng.permutation(4)
        moved = enumerate_supports(permute(example_instance, pi)).value
        assert abs(moved - base) <= 1e-9


def test_permute_moves_meta():
    inst = gen_signal1d(8, 0.2, 0.1, seed=5)
    pi = np.array([3, 1, 0, 2, 7, 6, 5, 4])
    moved = permute(inst, pi)
    y = np.asarray(inst.meta["y"])
    assert np.allclose(np.asarray(moved.meta["y"]), y[pi])


def test_permute_rejects_non_permutation(example_instance):
    with pytest.raises(InvalidPermutation):
        permute(example_instance, np.array([0, 0, 1, 2]))
    with pytest.raises(InvalidPermutation):
        permute(example_instance, np.array([0, 1, 2]))


def test_generators_deterministic_and_dominant():
    cases = [
        (gen_tridiagonal, (9, 3)),
        (gen_signal1d, (30, 0.3, 0.1, 3)),
        (gen_lattice2d, (4, 5, 0.3, 0.1, 3)),
    ]
    for gen, args in cases:
        one, two = gen(*args), gen(*args)
        assert np.array_equal(one.a, two.a)
        assert np.array_equal(one.c, two.c)
        assert np.array_equal(one.qv, two.qv)
        validate(one)


def test_signal1d_residual_diagonal():
    # data term contributes exactly 2 beyond the smoothing couplings
    dd = validate(gen_signal1d(25, 0.3, 0.1, seed=9))
    assert np.allclose(dd.D, 2.0)


def test_lattice_indexing_row_major():
    inst = gen_lattice2d(3, 4, 0.3, 0.1, seed=1)
    pairs = {(int(i), int(j)) for i, j in zip(inst.qi, inst.qj) if i != j}
    assert (0, 1) in pairs and (0, 4) in pairs
    assert (3, 4) not in pairs  # row boundary: node 3 ends row 0


def test_zero_noise_zero_signal_instance():
    inst = gen_signal1d(5, 0.0, 0.5, seed=3)
    assert np.all(np.asarray(inst.meta["y"]) == 0.0)
    res = enumerate_supports(inst)
    assert res.value == 0.0
    assert not res.z.any()


def test_write_read_round_trip(tmp_path, example_instance):
    path = tmp_path / "inst.json"
    write_instance(example_instance, str(path))
    back = read_instance(str(path))
    assert back.n == 4
    assert np.array_equal(back.a, example_instance.a)
    assert np.array_equal(back.c, example_instance.c)
    assert np.array_equal(back.qi, example_instance.qi)
    assert np.array_equal(back.qv, example_instance.qv)
    doc = json.loads(path.read_text())
    assert list(doc) == ["n", "a", "c", "Q", "offset", "meta"]
    assert doc["Q"][0][:2] == [1, 1]  # 1-based on disk


def test_read_rejects_lower_triangle(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"n": 2, "a": [0, 0], "c": [0, 0], "Q": [[2, 1, 0.5], [1, 1, 1.0], [2, 2, 1.0]]}'
    )
    with pytest.raises(ParseError) as exc:
        read_instance(str(path))
    assert "Q" in str(exc.value)


def test_read_rejects_missing_and_malformed(tmp_path):
    cases = [
        '{"a": [0], "c": [0], "Q": [[1, 1, 1.0]]}',  # no n
        '{"n": 2, "a": [0], "c": [0, 0], "Q": [[1, 1, 1.0], [2, 2, 1.0]]}',  # a too short
        '{"n": 1, "a": [0], "c": ["x"], "Q": [[1, 1, 1.0]]}',  # non-number
        "[1, 2]",
        "{not json",
        '{"n": 2, "a": [0, 0], "c": [0, 0], "Q": [[1, true, 2.0]]}',  # bool index
        '{"n": 1, "a": [0], "c": [0], "Q": [[1, 1, 1.0]], "offset": 1e999}',
        '{"n": 1, "a": [0], "c": [0], "Q": [[1, 1, 1.0]], "meta": {"M": "abc"}}',
    ]
    for k, payload in enumerate(cases):
        path = tmp_path / f"bad{k}.json"
        path.write_text(payload)
        with pytest.raises(ParseError):
            read_instance(str(path))


# -- the loop builders the array code replaced, kept as references ---------


def build_loop(n, a, c, diag, offdiag_edges, offset=0.0, meta=None):
    trips = [(i, i, float(diag[i])) for i in range(n)]
    trips += [(i, j, float(v)) for i, j, v in offdiag_edges if v != 0.0]
    trips.sort()
    return Instance(
        n=n,
        a=a,
        c=c,
        qi=np.array([t[0] for t in trips], dtype=np.int64),
        qj=np.array([t[1] for t in trips], dtype=np.int64),
        qv=np.array([t[2] for t in trips], dtype=np.float64),
        offset=offset,
        meta=meta or {},
    )


def gen_tridiagonal_loop(n, seed):
    rng = _rng(seed)
    c = rng.uniform(-10.0, 3.0, n)
    a = rng.uniform(0.0, 1.0, n)
    off = rng.uniform(-2.0, 2.0, n - 1) if n > 1 else np.empty(0)
    slack = rng.uniform(0.0, 4.0, n)
    diag = slack.copy()
    if n > 1:
        diag[:-1] += np.abs(off)
        diag[1:] += np.abs(off)
    edges = [(i, i + 1, off[i]) for i in range(n - 1)]
    return build_loop(n, a, c, diag, edges)


def gen_signal1d_loop(n, sigma, mu, seed):
    rng = _rng(seed)
    truth = _smooth_sparse_truth(n, rng)
    y = truth + rng.normal(0.0, sigma, n)
    deg = np.full(n, 2.0)
    deg[0] = deg[-1] = 1.0
    diag = 2.0 * (1.0 + deg)
    edges = [(i, i + 1, -2.0) for i in range(n - 1)]
    meta = {"y": [float(v) for v in y], "M": float(np.max(np.abs(y)))}
    offset = float(np.sum(y * y))
    return build_loop(n, np.full(n, float(mu)), -2.0 * y, diag, edges, offset=offset, meta=meta)


def gen_lattice2d_loop(rows, cols, sigma, mu, seed):
    rng = _rng(seed)
    n = rows * cols
    truth = np.zeros((rows, cols))
    ph = max(2, rows // 5)
    pw = max(2, cols // 5)
    patches = max(1, round(0.1 * n / (ph * pw)))
    for _ in range(patches):
        r0 = int(rng.integers(0, rows - ph + 1))
        c0 = int(rng.integers(0, cols - pw + 1))
        amp = rng.uniform(0.5, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        truth[r0 : r0 + ph, c0 : c0 + pw] = amp
    y = (truth + rng.normal(0.0, sigma, (rows, cols))).ravel()
    edges = []
    for r in range(rows):
        for s in range(cols):
            i = r * cols + s
            if s + 1 < cols:
                edges.append((i, i + 1, -2.0))
            if r + 1 < rows:
                edges.append((i, i + cols, -2.0))
    deg = np.zeros(n)
    for i, j, _ in edges:
        deg[i] += 1
        deg[j] += 1
    var = sigma**2
    diag = 2.0 / var + 2.0 * deg
    meta = {"y": [float(v) for v in y], "M": float(np.max(np.abs(y)))}
    c = -2.0 * y / var
    offset = float(np.sum(y * y) / var)
    return build_loop(n, np.full(n, float(mu)), c, diag, edges, offset=offset, meta=meta)


def permute_loop(instance, pi):
    n = instance.n
    inv = np.empty(n, dtype=np.int64)
    inv[pi] = np.arange(n)
    trips = []
    for i, j, v in zip(instance.qi, instance.qj, instance.qv):
        ni, nj = int(inv[i]), int(inv[j])
        if ni > nj:
            ni, nj = nj, ni
        trips.append((ni, nj, float(v)))
    trips.sort()
    meta = dict(instance.meta)
    if "y" in meta:
        y = np.asarray(meta["y"], dtype=np.float64)
        meta["y"] = [float(y[k]) for k in pi]
    return Instance(
        n=n,
        a=instance.a[pi],
        c=instance.c[pi],
        qi=np.array([t[0] for t in trips], dtype=np.int64),
        qj=np.array([t[1] for t in trips], dtype=np.int64),
        qv=np.array([t[2] for t in trips], dtype=np.float64),
        offset=instance.offset,
        meta=meta,
    )


def dense_q_loop(instance):
    q = np.zeros((instance.n, instance.n))
    for i, j, v in zip(instance.qi, instance.qj, instance.qv):
        q[i, j] = v
        q[j, i] = v
    return q


def assert_same_instance(got, want):
    assert got.n == want.n
    for name in ("a", "c", "qi", "qj", "qv"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), name
    assert repr(got.offset) == repr(want.offset)
    assert got.meta == want.meta


@pytest.mark.parametrize("rows, cols", [(2, 2), (3, 5), (7, 4), (10, 10), (13, 100), (40, 40), (100, 100)])
def test_gen_lattice2d_matches_loop(rows, cols):
    for sigma in (0.3, 1e-3, 2.0):
        for seed in range(5):
            got = gen_lattice2d(rows, cols, sigma, 0.1, seed)
            assert_same_instance(got, gen_lattice2d_loop(rows, cols, sigma, 0.1, seed))


def test_gen_tridiagonal_and_signal1d_match_loop():
    for n in (1, 2, 3, 500, 4000):
        for seed in range(5):
            assert_same_instance(gen_tridiagonal(n, seed), gen_tridiagonal_loop(n, seed))
    for n in (2, 3, 40, 1000):
        for sigma in (0.0, 0.3):
            for seed in range(3):
                got = gen_signal1d(n, sigma, 0.1, seed)
                assert_same_instance(got, gen_signal1d_loop(n, sigma, 0.1, seed))


def test_permute_matches_loop():
    rng = rng_for(13)
    for _ in range(30):
        inst = random_dd_instance(rng, int(rng.integers(1, 12)), 0.5)
        # a repeated triplet, once with its own value and once with a
        # smaller one, which sorts before the stored copy
        k = int(rng.integers(0, inst.qi.size))
        for v in (inst.qv[k], inst.qv[k] - 1.0):
            dup = dataclasses.replace(
                inst,
                qi=np.append(inst.qi, inst.qi[k]),
                qj=np.append(inst.qj, inst.qj[k]),
                qv=np.append(inst.qv, v),
            )
            pi = rng.permutation(inst.n)
            assert_same_instance(permute(dup, pi), permute_loop(dup, pi))
    lattice = gen_lattice2d(4, 5, 0.3, 0.1, 2)
    pi = rng.permutation(lattice.n)
    assert_same_instance(permute(lattice, pi), permute_loop(lattice, pi))


def test_dense_q_matches_loop():
    rng = rng_for(14)
    for _ in range(20):
        inst = random_dd_instance(rng, int(rng.integers(1, 10)), 0.5)
        assert inst.dense_q().tobytes() == dense_q_loop(inst).tobytes()
    # a repeated cell keeps its last value, also when written through its
    # mirror (1, 0)
    inst = make_instance(
        [0.0, 0.0], [0.0, 0.0],
        [(0, 0, 2.0), (0, 1, -0.5), (1, 1, 2.0), (0, 1, -0.25), (1, 0, -0.75), (1, 1, 3.0)],
    )
    q = inst.dense_q()
    assert q.tobytes() == dense_q_loop(inst).tobytes()
    assert q.tolist() == [[2.0, -0.75], [-0.75, 3.0]]


def test_build_drops_exact_zero_couplings():
    diag = np.array([2.0, 3.0, 4.0, 5.0])
    a, c = np.zeros(4), np.ones(4)
    i, j = np.array([0, 1, 2]), np.array([1, 2, 3])
    v = np.array([0.0, -1.0, -0.0])
    got = _build(4, a, c, diag, i, j, v)
    assert_same_instance(got, build_loop(4, a, c, diag, list(zip(i.tolist(), j.tolist(), v.tolist()))))
    assert list(zip(got.qi.tolist(), got.qj.tolist())) == [(0, 0), (1, 1), (1, 2), (2, 2), (3, 3)]
