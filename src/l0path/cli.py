"""Command-line front end: generate, solve, decompose, certify."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .decomp import RunConfig, default_relaxation, run, write_iteration_log
from .errors import InputError, NumericalError
from .instance import (
    gen_lattice2d,
    gen_signal1d,
    gen_tridiagonal,
    read_instance,
    support_graph,
    validate,
    write_instance,
)
from .oracle import enumerate_supports
from .tridiag import solve as solve_tridiag, to_tridiagonal
from .cover import path_cover


def _emit_json(doc: dict, path: str | None) -> None:
    if path is None:
        return
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _solution_doc(instance, objective, z, x, extra=None) -> dict:
    doc = {
        "objective": float(objective),
        "objective_with_offset": float(objective + instance.offset),
        "z": [int(round(float(v))) for v in z],
        "x": [float(v) for v in x],
    }
    if extra:
        doc.update(extra)
    return doc


def _cmd_gen(args) -> int:
    if args.family == "tridiag":
        inst = gen_tridiagonal(args.n, args.seed)
    elif args.family == "signal1d":
        inst = gen_signal1d(args.n, args.sigma, args.mu, args.seed)
    else:
        inst = gen_lattice2d(args.rows, args.cols, args.sigma, args.mu, args.seed)
    write_instance(inst, args.output)
    print(f"wrote {args.output} (n={inst.n}, nnz={len(inst.qv)})")
    return 0


def _cmd_solve_path(args) -> int:
    inst = read_instance(args.instance)
    sol = solve_tridiag(to_tridiagonal(inst))
    print(
        f"objective {sol.objective:.12g} "
        f"(with offset {sol.objective + inst.offset:.12g}), "
        f"support size {int(np.sum(sol.z))}"
    )
    _emit_json(_solution_doc(inst, sol.objective, sol.z, sol.x), args.output)
    return 0


def _cmd_solve_decomp(args) -> int:
    inst = read_instance(args.instance)
    config = RunConfig(
        schedule=args.steps,
        eps=args.eps,
        max_iter=args.max_iter,
    )
    res = run(inst, default_relaxation(inst), config)
    if args.log:
        write_iteration_log(res.records, args.log)
    print(
        f"lower {res.lower:.12g} upper {res.upper:.12g} "
        f"gap {100.0 * res.gap:.4g}% after {res.iterations} iterations ({res.reason})"
    )
    extra = {
        "lower": float(res.lower),
        "upper": float(res.upper),
        "gap": float(res.gap),
        "iters": int(res.iterations),
    }
    _emit_json(_solution_doc(inst, res.upper, res.z, res.x, extra), args.output)
    return 0


def _cmd_decompose(args) -> int:
    inst = read_instance(args.instance)
    validate(inst)  # only diagonally dominant instances decompose
    g = support_graph(inst)
    ordering = path_cover(g)
    kept = ordering.retained
    pairs = np.stack((g.i, g.j), axis=1) + 1
    weight_retained = sum(g.w[kept].tolist())
    weight_total = sum(g.w.tolist())
    doc = {
        "pi": (ordering.pi + 1).tolist(),
        "retained": pairs[kept].tolist(),
        "relaxed": pairs[~kept].tolist(),
        "weight_retained": float(weight_retained),
        "weight_total": float(weight_total),
    }
    print(
        f"retained {kept.sum()} of {kept.size} couplings "
        f"(weight {weight_retained:.6g} of {weight_total:.6g}); "
        f"{kept.size - kept.sum()} relaxed"
    )
    _emit_json(doc, args.output)
    return 0


def _cmd_oracle(args) -> int:
    inst = read_instance(args.instance)
    res = enumerate_supports(inst)
    print(
        f"objective {res.value:.12g} "
        f"(with offset {res.value + inst.offset:.12g}), "
        f"{res.supports_enumerated} supports enumerated"
    )
    doc = _solution_doc(
        inst, res.value, res.z, res.x,
        {"supports_enumerated": int(res.supports_enumerated)},
    )
    _emit_json(doc, args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l0path",
        description="Sparse-support quadratic minimization with on/off indicator costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance JSON file")
    fam = gen.add_subparsers(dest="family", required=True)
    g_tri = fam.add_parser("tridiag", help="random positive-definite tridiagonal")
    g_tri.add_argument("--n", type=int, required=True)
    g_sig = fam.add_parser("signal1d", help="noisy piecewise-smooth 1d signal")
    g_sig.add_argument("--n", type=int, required=True)
    g_lat = fam.add_parser("lattice2d", help="noisy 2d lattice image")
    g_lat.add_argument("--rows", type=int, required=True)
    g_lat.add_argument("--cols", type=int, required=True)
    for p in (g_sig, g_lat):
        p.add_argument("--sigma", type=float, default=0.3, help="noise level")
        p.add_argument("--mu", type=float, default=0.1, help="per-coordinate support cost")
    for p in (g_tri, g_sig, g_lat):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("-o", "--output", required=True)
        p.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("solve-path", help="exact solve for tridiagonal instances")
    sp.add_argument("instance")
    sp.add_argument("-o", "--output", help="write solution JSON here")
    sp.set_defaults(func=_cmd_solve_path)

    sd = sub.add_parser("solve-decomp", help="certified bounds for sparse instances")
    sd.add_argument("instance")
    sd.add_argument("--steps", choices=["geometric", "harmonic"], default=RunConfig.schedule)
    sd.add_argument("--eps", type=float, default=RunConfig.eps, help="relative gap target")
    sd.add_argument("--max-iter", type=int, default=RunConfig.max_iter)
    sd.add_argument("--log", help="write per-iteration CSV here")
    sd.add_argument("-o", "--output", help="write solution JSON here")
    sd.set_defaults(func=_cmd_solve_decomp)

    dc = sub.add_parser("decompose", help="path-cover ordering and retained couplings")
    dc.add_argument("instance")
    dc.add_argument("-o", "--output", help="write ordering JSON here")
    dc.set_defaults(func=_cmd_decompose)

    orc = sub.add_parser("oracle", help="exhaustive certified solve (small n)")
    orc.add_argument("instance")
    orc.add_argument("-o", "--output", help="write solution JSON here")
    orc.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
