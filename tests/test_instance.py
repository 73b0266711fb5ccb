import ast
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import l0path
from l0path import (
    InputError,
    Instance,
    NotDiagonallyDominant,
    NotSymmetricStorage,
    ParseError,
    Relaxation,
    RunConfig,
    SupportGraph,
    TridiagProblem,
    default_relaxation,
    enumerate_supports,
    gen_lattice2d,
    gen_signal1d,
    gen_tridiagonal,
    read_instance,
    run,
    support_graph,
    validate,
    write_instance,
)
from l0path.instance import _build, _rng, _smooth_sparse_truth

from conftest import EXAMPLE_A, EXAMPLE_C, EXAMPLE_Q, make_graph, make_instance, permute, random_dd_instance, rng_for


def test_validate_example_split(example_instance):
    assert np.allclose(validate(example_instance), [1.5, 2.7, 2.0, 1.2])
    g = support_graph(example_instance)
    terms = zip(g.i.tolist(), g.j.tolist(), g.w.tolist(), g.sign.tolist())
    assert list(terms) == [
        (0, 1, 1.5, -1),
        (1, 2, 1.0, -1),
        (1, 3, 0.8, -1),
    ]


def test_validate_diagonal_only():
    inst = make_instance([1.0, 1.0], [0.0, 0.0], [(0, 0, 2.0), (1, 1, 3.0)])
    g = support_graph(inst)
    assert g.i.size == g.j.size == g.w.size == g.sign.size == 0
    assert np.allclose(validate(inst), [2.0, 3.0])


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
    # the constructor rejects bad storage, so no instance reaches validate
    # with it
    with pytest.raises(NotSymmetricStorage):
        make_instance(
            [0.0, 0.0], [0.0, 0.0],
            [(0, 0, 1.0), (0, 1, 0.2), (0, 1, 0.2), (1, 1, 1.0)],
        )
    with pytest.raises(NotSymmetricStorage):
        make_instance(
            [0.0, 0.0], [0.0, 0.0], [(0, 0, 1.0), (0, 1, 0.0), (1, 1, 1.0)]
        )


# Before the constructor checked finiteness, such values reached the
# solvers: enumerate_supports on a NaN in a, c or Q returned value 0.0 with
# z = 0, and default_relaxation on a NaN off-diagonal leaked scipy's
# ValueError "no full matching exists", outside the error taxonomy.
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "where, name",
    [("a", "a"), ("c", "c"), ("diagonal", "qv"), ("off_diagonal", "qv"), ("offset", "offset")],
)
def test_constructor_rejects_non_finite_data(where, name, bad):
    a, c, q, offset = list(EXAMPLE_A), list(EXAMPLE_C), list(EXAMPLE_Q), 0.0
    if where == "a":
        a[2] = bad
    elif where == "c":
        c[2] = bad
    elif where == "offset":
        offset = bad
    else:
        k = 2 if where == "diagonal" else 3
        i, j, _ = q[k]
        assert (i == j) == (where == "diagonal")
        q[k] = (i, j, bad)
    with pytest.raises(InputError, match=f"^{name} has a non-finite entry$"):
        make_instance(a, c, q, offset=offset)


def test_replace_cannot_bypass_the_storage_check(example_instance):
    inst = example_instance
    with pytest.raises(NotSymmetricStorage, match=r"duplicate triplet \(1, 2\)"):
        dataclasses.replace(
            inst,
            qi=np.append(inst.qi, 1),
            qj=np.append(inst.qj, 2),
            qv=np.append(inst.qv, -1.0),
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, a=[], c=[]),
        dict(n=2, a=[1.0], c=[1.0, 1.0]),
        dict(n=2, a=[1.0, 1.0], c=[1.0, 1.0, 1.0]),
        dict(n=2, a=[1.0, 1.0], c=[1.0, 1.0], qv=[1.0]),
    ],
    ids=["n_zero", "short_a", "long_c", "unequal_triplets"],
)
def test_shape_faults_raise_input_error(kwargs):
    args = dict(qi=[0, 1], qj=[0, 1], qv=[1.0, 1.0]) | kwargs
    with pytest.raises(InputError):
        Instance(**args)


@pytest.mark.parametrize(
    "make",
    [
        # a truncating cast made these seed 1's instance, bytes and all
        lambda: gen_tridiagonal(5, 1.5),
        lambda: gen_tridiagonal(5, 1.9),
        lambda: gen_tridiagonal(5, 3.0),
        lambda: gen_tridiagonal(5, "3"),
        lambda: gen_tridiagonal(2.5, 0),
        lambda: gen_signal1d(6.0, 0.3, 0.1, 0),
        lambda: gen_lattice2d(2.5, 3, 0.3, 0.1, 0),
        lambda: gen_lattice2d(3, "3", 0.3, 0.1, 0),
        lambda: Instance(n="3", a=[1.0] * 3, c=[1.0] * 3, qi=[0, 1, 2], qj=[0, 1, 2], qv=[1.0] * 3),
        lambda: Instance(n=3.0, a=[1.0] * 3, c=[1.0] * 3, qi=[0, 1, 2], qj=[0, 1, 2], qv=[1.0] * 3),
        # operator.index takes bools: these were seed 0's n = 1 instance
        lambda: gen_tridiagonal(True, False),
        lambda: gen_lattice2d(3, 3, 0.3, 0.1, True),
        lambda: Instance(n=True, a=[1.0], c=[1.0], qi=[0], qj=[0], qv=[1.0]),
    ],
    ids=[
        "seed-1.5", "seed-1.9", "seed-3.0", "seed-str", "tridiag-n", "signal-n", "rows", "cols", "n-str", "n-3.0",
        "n-and-seed-bool", "lattice-seed-bool", "n-bool",
    ],
)
def test_seeds_and_sizes_must_be_integers(make):
    with pytest.raises(InputError, match="must be an integer"):
        make()


def test_numpy_integer_seeds_and_sizes_are_integers():
    inst = gen_tridiagonal(np.int64(5), np.uint8(1))
    assert type(inst.n) is int
    assert inst.c.tobytes() == gen_tridiagonal(5, 1).c.tobytes()
    assert gen_lattice2d(np.int32(3), np.int16(4), 0.3, 0.1, np.int64(2)).n == 12


def test_only_the_instance_module_checks_storage():
    # the storage contract is checked once, by the constructor; another
    # caller of the check would start a second copy of the contract
    seen = []
    for path in sorted(Path(l0path.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.alias, ast.FunctionDef)):
                name = node.name
            else:
                continue
            if name == "_first_storage_fault":
                seen.append((path.name, type(node).__name__))
    assert sorted(seen) == [("instance.py", "FunctionDef"), ("instance.py", "Name")]


# each data class with arrays of the stored dtypes, and the float field
# that the test passes as a view of a buffer it keeps writing to
OWNED_ARRAYS = {
    "Instance": (Instance, dict(n=2, a=[0.5, 0.5], c=[-1.0, 2.0], qi=[0, 0, 1], qj=[0, 1, 1], qv=[3.0, -1.0, 3.0]), "qv"),
    "SupportGraph": (SupportGraph, dict(n=2, i=[0], j=[1], w=[1.0], sign=[-1]), "w"),
    "TridiagProblem": (TridiagProblem, dict(m=3, a=[1.0] * 3, c=[-4.0] * 3, diag=[2.0] * 3, off=[0.0, 0.0]), "c"),
    "Relaxation": (
        Relaxation,
        dict(
            instance=gen_tridiagonal(3, 0), pi=[2, 0, 1], bounds=[0, 2, 3], diag=[3.0, 3.0, 2.0],
            off=[-1.0, 0.0], rel_i=[1], rel_j=[2], rel_w=[0.5], rel_sign=[1],
        ),
        "diag",
    ),
}


@pytest.mark.parametrize("cls, kwargs, view", OWNED_ARRAYS.values(), ids=OWNED_ARRAYS)
def test_data_classes_store_read_only_copies(cls, kwargs, view):
    owned = {k: np.array(v) if isinstance(v, list) else v for k, v in kwargs.items()}
    buf = owned[view].copy()
    owned[view] = buf[:]
    obj = cls(**owned)
    arrays = [f.name for f in dataclasses.fields(obj) if isinstance(getattr(obj, f.name), np.ndarray)]
    assert sorted(arrays) == sorted(k for k, v in owned.items() if isinstance(v, np.ndarray))
    before = {name: getattr(obj, name).copy() for name in arrays}
    for name in arrays:
        assert owned[name].flags.writeable, name
        assert not getattr(obj, name).flags.writeable, name
        assert not np.shares_memory(getattr(obj, name), owned[name]), name
    buf[:] = np.nan
    for name in arrays:
        got = getattr(obj, name)
        assert got.dtype == before[name].dtype and np.array_equal(got, before[name]), name


@pytest.mark.parametrize("seed", range(3))
def test_instance_stores_triplets_in_ij_order(seed):
    rng = rng_for(40 + seed)
    for inst in (
        gen_tridiagonal(30, seed),
        gen_lattice2d(5, 5, 0.3, 0.1, seed),
        random_dd_instance(rng, 12),  # lists its diagonals first
    ):
        key = inst.qi * inst.n + inst.qj
        assert np.all(np.diff(key) > 0)
        p = rng.permutation(inst.qv.size)
        other = dataclasses.replace(inst, qi=inst.qi[p], qj=inst.qj[p], qv=inst.qv[p])
        for name in ("qi", "qj", "qv"):
            assert getattr(other, name).tobytes() == getattr(inst, name).tobytes(), name
        assert validate(other).tobytes() == validate(inst).tobytes()
        one, two = support_graph(inst), support_graph(other)
        for f in dataclasses.fields(one):
            got, want = getattr(two, f.name), getattr(one, f.name)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name


# SHA-256 of the stored bytes of each array, recorded before the Instance
# sorted its own triplets: the generators and permute keep every byte
GENERATED_DIGESTS = {
    "tridiagonal": {
        "a": "bbdb077a4bce825c4d687eee3b5fe7e7e11b922657c092c90e32de47cab33a0b",
        "c": "c9ee7f92c29b5ad7fd0c3b427fb387c5a2730015b2e042fbf38bae0667c3bcdd",
        "qi": "30edf944cf255d684ea314ba4623bd24dd3bbe412d2de735bb660e1239794fce",
        "qj": "ab6dde111d487865f993773c7e1560073c058d7ad25aede50cf32588f7fc96e2",
        "qv": "ecfe396d0b013707a63044e642544c4797852eff6de78719579ed2accf59cbf8",
    },
    "signal1d": {
        "a": "0929d47c09483d27146567e784e1506c0319d7dc2c5d18148768408257e84d5d",
        "c": "31370975d382ca63c61b6e391467ea261d52f3c7ae39908dbe827fede51f645e",
        "qi": "30edf944cf255d684ea314ba4623bd24dd3bbe412d2de735bb660e1239794fce",
        "qj": "ab6dde111d487865f993773c7e1560073c058d7ad25aede50cf32588f7fc96e2",
        "qv": "9e9c0a0f4074e06f2a78fcef3b4f57f165cb7f17a0c3333adf3869733aa5d1f7",
    },
    "lattice2d": {
        "a": "e2734721b514296931e9a376f89060c6d77c8e23caa4845fd8851fcd39ec8207",
        "c": "133379eb10e5e6949a68b9d0b2e14a68aed484722ebdd08e9983988c4b204e03",
        "qi": "41eb06b1afb45ac066afe59f59ac4ecd965c3b86e39cb9e11729b5581fbca7de",
        "qj": "6b51beb867597a54ae44b0a094975af56989ff8bb92ee0bff2578dc7673482ff",
        "qv": "08e863a9a4947a51cf61fed0da9bc116ffb4aa45ac50cc1bd2ed63419129c656",
    },
    "permuted_lattice2d": {
        "a": "e2734721b514296931e9a376f89060c6d77c8e23caa4845fd8851fcd39ec8207",
        "c": "e348fe45e84bdc9536c206aac5830f0bfc86dff05f61210db531c9dcbab1c59d",
        "qi": "ec8ac44f4342f076874a47ab4c1ec236109ef7edc5655761693abba41970b8f6",
        "qj": "bd3c065a886ec7ccb5b788466f6e6e282e389ecb76f3179424161758da1e9d04",
        "qv": "7f4ba018a6e9c6380ec3d026644e65784b6ad3c718c6bb14e60319476ac3327e",
    },
}


@pytest.mark.parametrize("name", GENERATED_DIGESTS)
def test_generated_instances_keep_their_bytes(name):
    make = {
        "tridiagonal": lambda: gen_tridiagonal(50, 0),
        "signal1d": lambda: gen_signal1d(50, 0.3, 0.1, 0),
        "lattice2d": lambda: gen_lattice2d(6, 6, 0.3, 0.1, 0),
        "permuted_lattice2d": lambda: permute(gen_lattice2d(6, 6, 0.3, 0.1, 0), (7 * np.arange(36)) % 36),
    }
    inst = make[name]()
    got = {f: hashlib.sha256(getattr(inst, f).tobytes()).hexdigest() for f in GENERATED_DIGESTS[name]}
    assert got == GENERATED_DIGESTS[name]


def test_replace_with_a_non_numeric_box_radius_fails_at_construction():
    # run read M only after a finished ascent, and float("wide") threw the
    # run away with a ValueError
    with pytest.raises(InputError, match="meta M must be a real number, not 'wide'"):
        dataclasses.replace(gen_lattice2d(3, 3, 0.3, 0.1, 0), meta={"M": "wide"})


# values that are not real numbers get _real's message, which names them;
# real numbers past the float range get the range check's
NOT_REAL = "meta M must be a real number, not "
NOT_FINITE = "meta M must be a finite real number"


@pytest.mark.parametrize(
    "m_box, message",
    [
        (True, NOT_REAL), (np.True_, NOT_REAL), (np.inf, NOT_FINITE), (np.nan, NOT_FINITE), (-np.inf, NOT_FINITE),
        ("1", NOT_REAL), (None, NOT_REAL), (10**400, NOT_FINITE), (1j, NOT_REAL),
    ],
    ids=["bool", "numpy_bool", "inf", "nan", "-inf", "str", "none", "int_past_float", "complex"],
)
def test_constructor_rejects_a_box_radius_that_is_not_a_finite_real(example_instance, m_box, message):
    with pytest.raises(InputError, match=f"^{message}"):
        dataclasses.replace(example_instance, meta={"M": m_box})


@pytest.mark.parametrize(
    "offset",
    # the list was stored and write_instance then raised TypeError; the bools
    # and 1j passed np.isfinite; None and "1.0" raised TypeError
    [[1.0, 2.0], True, np.True_, None, "1.0", 1j],
    ids=["list", "bool", "numpy_bool", "none", "str", "complex"],
)
def test_constructor_rejects_an_offset_that_is_not_real(offset):
    with pytest.raises(InputError, match="^offset must be a real number, not "):
        make_instance(EXAMPLE_A, EXAMPLE_C, EXAMPLE_Q, offset=offset)


@pytest.mark.parametrize(
    "make, what",
    [
        # accepted, with sigma 1 and mu 1
        (lambda: gen_signal1d(10, True, 0.1, 0), "sigma"),
        (lambda: gen_lattice2d(3, 3, np.True_, 0.1, 0), "sigma"),
        (lambda: gen_lattice2d(3, 3, 0.3, True, 0), "mu"),
        # TypeError or ValueError from a comparison or float()
        (lambda: gen_lattice2d(3, 3, None, 0.1, 0), "sigma"),
        (lambda: gen_signal1d(10, "0.3", 0.1, 0), "sigma"),
        (lambda: gen_signal1d(10, 0.3, "x", 0), "mu"),
        (lambda: gen_signal1d(10, 0.3, None, 0), "mu"),
        (lambda: gen_lattice2d(3, 3, 0.3, [0.1], 0), "mu"),
    ],
    ids=["signal-sigma-bool", "lattice-sigma-numpy-bool", "lattice-mu-bool", "lattice-sigma-none", "signal-sigma-str",
         "signal-mu-str", "signal-mu-none", "lattice-mu-list"],
)
def test_generators_refuse_a_sigma_or_mu_that_is_not_real(make, what):
    with pytest.raises(InputError, match=f"^{what} must be a real number, not "):
        make()


@pytest.mark.parametrize("m_box", [3, 2.5, np.float64(2.0), np.int64(4), 0])
def test_constructor_accepts_a_finite_real_box_radius(example_instance, m_box):
    assert dataclasses.replace(example_instance, meta={"M": m_box}).meta["M"] == m_box


def test_callers_meta_cannot_reach_run():
    base = gen_lattice2d(3, 3, 0.3, 0.1, 0)
    meta = dict(base.meta)
    inst = dataclasses.replace(base, meta=meta)
    assert inst.meta is not meta
    meta["M"] = "wide"
    res = run(inst, default_relaxation(inst), RunConfig(eps=1e-2))
    assert res.lower <= res.upper + 1e-9
    assert inst.meta["M"] == base.meta["M"]


def test_validate_reads_the_checked_data():
    buf = np.array([3.0, -1.0, 3.0])
    inst = Instance(n=2, a=np.ones(2), c=-np.ones(2), qi=np.array([0, 0, 1]), qj=np.array([0, 1, 1]), qv=buf[:])
    want = validate(inst).copy()
    assert want.tolist() == [2.0, 2.0]
    buf[:] = np.nan
    assert np.array_equal(validate(inst), want)


def test_dd_form_reconstructs_quadratic():
    # the split: validate's residual diagonal plus one signed square per
    # edge of the support graph
    rng = rng_for(11)
    for _ in range(10):
        inst = random_dd_instance(rng, int(rng.integers(2, 12)))
        D, g = validate(inst), support_graph(inst)
        q = inst.dense_q()
        for _ in range(10):
            x = rng.standard_normal(inst.n)
            direct = 0.5 * x @ q @ x
            pair = x[g.i] + g.sign * x[g.j]
            split = 0.5 * D @ (x * x) + 0.5 * g.w @ (pair * pair)
            assert abs(split - direct) <= 1e-9 * (1.0 + abs(direct))


def test_support_graph_weights(example_instance):
    g = support_graph(example_instance)
    want = make_graph(4, [(0, 1, 1.5), (1, 2, 1.0), (1, 3, 0.8)])
    assert g.n == want.n
    for got_a, want_a in ((g.i, want.i), (g.j, want.j), (g.w, want.w), (g.sign, want.sign)):
        assert got_a.dtype == want_a.dtype and np.array_equal(got_a, want_a)
        assert not got_a.flags.writeable


@pytest.mark.parametrize(
    "edges",
    [
        ([0, 1], [1, 1], [1.0, 1.0], [-1, -1]),
        ([0, 0], [1, 1], [1.0, 2.0], [-1, -1]),
        ([1], [0], [1.0], [-1]),
        ([0, 0], [2, 1], [1.0, 1.0], [-1, -1]),
        ([1, 0], [2, 1], [1.0, 1.0], [-1, -1]),
        ([0], [1], [-1.0], [-1]),
        ([0], [1], [0.0], [-1]),
        ([0], [1], [np.nan], [-1]),
        ([0], [1], [np.inf], [-1]),
        ([0], [1], [1.0], [0]),
        ([0], [1], [1.0], [2]),
        ([0], [3], [1.0], [-1]),
        ([-1], [1], [1.0], [-1]),
        ([0, 1], [1, 2], [1.0], [-1, -1]),
        ([0], [1], [1.0, 1.0], [-1]),
        ([0, 1], [1, 2], [1.0, 1.0], [-1]),
        ([[0]], [[1]], [[1.0]], [[-1]]),
    ],
    ids=[
        "loop", "repeated-pair", "i-above-j", "unsorted-j", "unsorted-i", "negative-weight", "zero-weight", "nan-weight",
        "inf-weight", "zero-sign", "sign-2", "j-out-of-range", "negative-i", "short-w", "long-w", "short-sign", "2-d",
    ],
)
def test_support_graph_refuses_edges_off_its_contract(edges):
    # path_cover returned an ordering for most of these; the rest raised
    # scipy's ValueError or numpy's IndexError
    i, j, w, sign = map(np.array, edges)
    with pytest.raises(InputError):
        SupportGraph(n=3, i=i, j=j, w=w, sign=sign)


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
    with pytest.raises(InputError):
        permute(example_instance, np.array([0, 0, 1, 2]))
    with pytest.raises(InputError):
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


# SHA-256 of validate(inst) and support_graph(inst).sign, recorded when
# validate returned the split as an object whose D and term_sign held them
SPLIT_DIGESTS = {
    "tridiagonal": (
        "0d924d80db66f3f5781dabf3d2848e2f1eae8c80308135e345a58dd4d2c59ee2",
        "ba9a1778d581ab8b7c2f0f40786ffc9f11b160000acdf258613b802cf46d61fa",
    ),
    "signal1d": (
        "e10dc5a499f130aa7ab8b9bb17ba0df08e43382bfd08b91dbd2e03e711f5cdea",
        "c80a17673aa3c620f955b53433262f72c351eecccd3679f0a3c50b7e4ee77f13",
    ),
    "lattice2d": (
        "00a1ec020e1c1fde09685bdf9de4dc3235ec1128ff807c3b35d29a7a01b50248",
        "85ae98a61d8c46c891b84e682824c4a79ff779f8c8d3911c85c04147ba80b2bf",
    ),
    "random_dd": (
        "a8c4a7004f666ff3370f8191a9e013bf2c0475ae4c0b075707bbd27825046417",
        "24f2b07dabafd0d0e547fc7301ec0f28220dedc5b6f31f006a984b280a8de133",
    ),
}


@pytest.mark.parametrize("name", SPLIT_DIGESTS)
def test_split_keeps_its_bytes(name):
    inst = {
        "tridiagonal": lambda: gen_tridiagonal(40, 1),
        "signal1d": lambda: gen_signal1d(30, 0.3, 0.1, 2),
        "lattice2d": lambda: gen_lattice2d(5, 6, 0.3, 0.1, 3),
        "random_dd": lambda: random_dd_instance(rng_for(5), 14),
    }[name]()
    D, sign = validate(inst), support_graph(inst).sign
    assert D.dtype == np.float64 and D.shape == (inst.n,) and not D.flags.writeable
    assert sign.dtype == np.int64 and not sign.flags.writeable
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (D, sign))
    assert got == SPLIT_DIGESTS[name]


def test_signal1d_residual_diagonal():
    # data term contributes exactly 2 beyond the smoothing couplings
    assert np.allclose(validate(gen_signal1d(25, 0.3, 0.1, seed=9)), 2.0)


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
        pi = rng.permutation(inst.n)
        assert_same_instance(permute(inst, pi), permute_loop(inst, pi))
    lattice = gen_lattice2d(4, 5, 0.3, 0.1, 2)
    pi = rng.permutation(lattice.n)
    assert_same_instance(permute(lattice, pi), permute_loop(lattice, pi))


def test_dense_q_matches_loop():
    rng = rng_for(14)
    for _ in range(20):
        inst = random_dd_instance(rng, int(rng.integers(1, 10)), 0.5)
        assert inst.dense_q().tobytes() == dense_q_loop(inst).tobytes()
    inst = gen_lattice2d(4, 5, 0.3, 0.1, 2)
    assert inst.dense_q().tobytes() == dense_q_loop(inst).tobytes()


def test_build_drops_exact_zero_couplings():
    diag = np.array([2.0, 3.0, 4.0, 5.0])
    a, c = np.zeros(4), np.ones(4)
    i, j = np.array([0, 1, 2]), np.array([1, 2, 3])
    v = np.array([0.0, -1.0, -0.0])
    got = _build(4, a, c, diag, i, j, v)
    assert_same_instance(got, build_loop(4, a, c, diag, list(zip(i.tolist(), j.tolist(), v.tolist()))))
    assert list(zip(got.qi.tolist(), got.qj.tolist())) == [(0, 0), (1, 1), (1, 2), (2, 2), (3, 3)]
