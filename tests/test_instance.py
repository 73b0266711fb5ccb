import json

import numpy as np
import pytest

from l0path import (
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

from conftest import make_instance, random_dd_instance, rng_for


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
    assert g.edges == ((0, 1, 1.5), (1, 2, 1.0), (1, 3, 0.8))


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
