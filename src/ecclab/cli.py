"""Command-line front end: generation, exact/approximate solving, the
treewidth solver, the 2-vs-3 reduction and sidecar verification.

Each subcommand takes only the flags it reads: the shared ones it names from
SHARED_FLAGS (see build_parser) plus its own.  Exit codes: 0 success/PASS,
1 verification FAIL, 2 usage error (a bad flag or an unreadable or malformed
file among them), 3 capacity cap exceeded.  All randomness flows from --seed
through named substreams, so one seed reproduces a run byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

from .approx import (
    approx_min_diameter,
    approx_min_diameter_dag,
    approx_min_radius_dag,
    approx_source_radius,
    finite_min_eccentricities,
)
from .gadgets import (
    GadgetError,
    build_dg,
    gadget_all_eccentricities,
    gadget_max_radius,
    gadget_median,
    gadget_min_diameter_dag,
    gadget_min_diameter_weighted,
    gadget_min_radius_dag,
    gadget_radius_23,
    gadget_roundtrip_diameter,
    gadget_roundtrip_radius,
    gadget_source_radius,
    gadget_undirected_diameter_23,
)
from .graph import INF, GraphFormatError, read_graph, write_graph
from .oracle import (
    DEFAULT_CAP,
    VARIANTS,
    CapacityError,
    VariantError,
    exact_eccentricities,
    exact_median,
    sweep_ecc,
    sweep_eccentricities,
    sweep_median,
    sweep_radius,
)
from .reduce23 import DIAMETER, RADIUS, reduce_decision23_to_set_system
from .seeds import substream
from .setsystem import HSE, OV, random_instance, write_set_system
from .treewidth import (
    DecompositionError,
    generate_partial_ktree,
    min_degree_decomposition,
    read_td,
    tw_ecc,
    tw_eccentricities,
    write_td,
)

USAGE_ERROR = 2
CAPACITY_ERROR = 3

GADGET_KINDS = {
    "radius-23": (HSE, lambda inst, a: gadget_radius_23(inst, sparsify=a.sparsify)),
    "source-radius": (HSE, lambda inst, a: gadget_source_radius(inst, _t(inst, a))),
    "max-radius": (HSE, lambda inst, a: gadget_max_radius(inst, _t(inst, a))),
    "roundtrip-radius": (HSE, lambda inst, a: gadget_roundtrip_radius(inst)),
    "min-radius-dag": (HSE, lambda inst, a: gadget_min_radius_dag(inst, _t(inst, a))),
    "median": (HSE, lambda inst, a: gadget_median(inst)),
    "min-diameter-dag": (OV, lambda inst, a: gadget_min_diameter_dag(inst)),
    "min-diameter-weighted": (
        OV,
        lambda inst, a: gadget_min_diameter_weighted(inst, _t_even(inst, a)),
    ),
    "undirected-diameter-23": (OV, lambda inst, a: gadget_undirected_diameter_23(inst)),
    "roundtrip-diameter": (OV, lambda inst, a: gadget_roundtrip_diameter(inst)),
    "all-eccentricities": (OV, lambda inst, a: gadget_all_eccentricities(inst)),
}

QUANTITIES = ("radius", "diameter", "eccentricities", "median")

APPROX_ALGORITHMS = (
    "source-radius",
    "min-diameter",
    "min-diameter-dag",
    "min-radius-dag",
    "finite-min-ecc",
)


def _t(inst, args):
    return args.t if args.t is not None else max(2, inst.d)


def _t_even(inst, args):
    t = _t(inst, args)
    return t if t % 2 == 0 else t + 1


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SystemExit2(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(args, text):
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)


def _load_graph(args):
    if not args.input:
        raise SystemExit2("--input is required")
    g = read_graph(_read_text(args.input))
    if g.n == 0:
        raise SystemExit2("graph has no vertices")
    return g


class SystemExit2(Exception):
    """Usage error carrying a message; mapped to exit code 2."""


def _check_cap_flag(args):
    if args.cap < 0:
        raise SystemExit2(f"--cap must be nonnegative (got {args.cap})")


def _eccentricities(g, variant, cap):
    """The level sweep's report, or the matrix path's where the sweep gives up."""
    return sweep_eccentricities(g, variant, cap) or exact_eccentricities(g, variant, cap=cap)


def _median(g, cap):
    """The level sweep's (vertex, sum), or the matrix path's where the sweep gives up."""
    return sweep_median(g, cap) or exact_median(g, cap=cap)


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args):
    if args.output is None:
        raise SystemExit2("gen needs --output (the path prefix of the files it writes)")
    for flag, p in ("--density", args.density), ("--edge-keep-prob", args.edge_keep_prob):
        if not 0 <= p <= 1:
            raise SystemExit2(f"{flag} must lie in [0, 1] (got {p})")
    rng = substream(args.seed, f"gen:{args.kind}")
    if args.kind == "partial-ktree":
        if args.k < 0 or args.n < args.k + 1:
            raise SystemExit2(f"partial-ktree needs 0 <= k < n (n={args.n}, k={args.k})")
        g, td = generate_partial_ktree(
            args.n, args.k, args.edge_keep_prob, rng, directed=args.directed
        )
        _write_text(args.output + ".graph", write_graph(g))
        _write_text(args.output + ".td", write_td(td, g.n))
        print(f"partial-ktree n={g.n} m={g.m} k={args.k} width={td.width}")
        return 0
    try:
        if args.kind == "dg":
            g, _ = build_dg(args.size, args.t if args.t is not None else 1)
            _write_text(args.output + ".graph", write_graph(g))
            print(f"dg n={g.n} m={g.m}")
            return 0
        if args.kind not in GADGET_KINDS:
            raise SystemExit2(f"unknown generator kind {args.kind!r}")
        if min(args.na, args.nb, args.d) < 0:
            raise SystemExit2("--na, --nb and --d must be nonnegative")
        mode, build = GADGET_KINDS[args.kind]
        inst = random_instance(args.na, args.nb, args.d, mode, rng, density=args.density)
        out = build(inst, args)
    except GadgetError as exc:
        raise SystemExit2(f"gadget rejected the instance: {exc}")
    _write_text(args.output + ".graph", write_graph(out.graph))
    _write_text(args.output + ".json", out.to_sidecar_json())
    _write_text(args.output + ".ss", write_set_system(inst))
    rel, value = out.expected()
    print(
        f"{args.kind} n={out.graph.n} m={out.graph.m} answer={out.answer} "
        f"yes_value={out.yes_value} no_bound={out.no_bound} expected={rel}:{value}"
    )
    return 0


# ---------------------------------------------------------------------------
# exact / approx / tw


def cmd_exact(args):
    _check_cap_flag(args)
    g = _load_graph(args)
    if args.quantity == "median":
        vertex, total = _median(g, args.cap)
        enc = "inf" if total == INF else total
        if args.format == "json":
            _emit(args, json.dumps({"median": vertex, "sum": enc}, sort_keys=True) + "\n")
        else:
            _emit(args, f"median\tsum\n{vertex}\t{enc}\n")
        return 0
    report = _eccentricities(g, args.variant, args.cap)
    _emit(args, report.to_json() if args.format == "json" else report.to_tsv())
    return 0


def cmd_approx(args):
    g = _load_graph(args)
    if args.algorithm == "finite-min-ecc":
        finite = finite_min_eccentricities(g)
        if args.format == "json":
            _emit(args, json.dumps({"finite": finite}, sort_keys=True) + "\n")
        else:
            lines = ["vertex\tfinite"]
            for v, ok in enumerate(finite):
                lines.append(f"{v}\t{int(ok)}")
            _emit(args, "\n".join(lines) + "\n")
        return 0
    rng = substream(args.seed, f"approx:{args.algorithm}")
    try:
        if args.algorithm == "source-radius":
            res = approx_source_radius(g, rng)
        elif args.algorithm == "min-diameter":
            res = approx_min_diameter(g, rng, args.epsilon)
        elif args.algorithm == "min-diameter-dag":
            res = approx_min_diameter_dag(g)
        else:
            res = approx_min_radius_dag(g)
    except ValueError as exc:
        # The algorithms raise ValueError only for an input they do not take.
        raise SystemExit2(str(exc)) from exc
    est = "inf" if res.estimate == INF else res.estimate
    lo, hi = res.guarantee
    if args.format == "json":
        payload = {
            "estimate": est,
            "witness": res.witness,
            "guarantee": [str(lo), str(hi)],
            "whp": res.whp,
        }
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    else:
        _emit(
            args,
            "estimate\twitness\tlo\thi\twhp\n"
            f"{est}\t{res.witness}\t{lo}\t{hi}\t{res.whp}\n",
        )
    return 0


def cmd_tw(args):
    g = _load_graph(args)
    if args.td:
        td = read_td(_read_text(args.td), g.n)
    else:
        td = min_degree_decomposition(g)
    report = tw_eccentricities(g, td, args.variant)
    _emit(args, report.to_json() if args.format == "json" else report.to_tsv())
    return 0


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args):
    if args.rounds < 1:
        raise SystemExit2(f"--rounds must be at least 1 (got {args.rounds})")
    if args.delta is not None and args.delta < 0:
        raise SystemExit2(f"--delta must be nonnegative (got {args.delta})")
    g = _load_graph(args)
    rng = substream(args.seed, "reduce")
    res = reduce_decision23_to_set_system(
        g, args.target, rng, delta=args.delta, rounds=args.rounds
    )
    if args.format == "json":
        payload = {
            "value": res.value,
            "target": res.target,
            "rounds_used": res.rounds_used,
            "delta": res.delta,
            "hash_width": res.hash_width,
        }
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    else:
        _emit(args, f"target\tvalue\n{res.target}\t{res.value}\n")
    return 0


# ---------------------------------------------------------------------------
# verify


def _verified_value(g, quantity, variant, args):
    if quantity == "median":
        if args.td:
            raise SystemExit2("--td cannot verify a median sidecar: the tw solver has no median")
        _, total = _median(g, args.cap)
        return total
    # The tw solver with --td; else the level sweep, stopped at the radius level
    # for a radius, or the matrix path where it gives up.  No witness pair.
    if args.td:
        ecc = tw_ecc(g, read_td(_read_text(args.td), g.n), variant)
    elif quantity == "radius":
        radius = sweep_radius(g, variant, args.cap)
        return exact_eccentricities(g, variant, cap=args.cap).radius if radius is None else radius
    else:
        ecc = sweep_ecc(g, variant, args.cap) or exact_eccentricities(g, variant, cap=args.cap).ecc
    if quantity == "radius":
        return min(ecc)
    return max(ecc) if quantity == "diameter" else ecc


def _integer(value, name):
    """value, if it is an integer; a JSON true or false is not."""
    if type(value) is not int:
        raise TypeError(f"{name} {value!r} is not an integer")
    return value


def _read_sidecar(path):
    """The sidecar's quantity, variant and promise.  Every field is read and
    type-checked before any solving, so a malformed sidecar is a usage error."""
    try:
        sidecar = json.loads(_read_text(path))
        quantity, variant = sidecar["quantity"], sidecar["variant"]
        if quantity not in QUANTITIES:
            raise SystemExit2(f"sidecar has unknown quantity {quantity!r}")
        if quantity == "eccentricities":
            extras = sidecar["extras"]
            hub = extras.get("hub")
            hub_ecc = None if hub is None else _integer(extras["hub_ecc"], "hub_ecc")
            # A list of vertex ids, each checked against the graph in cmd_verify.
            a_ids = list(sidecar["witness_map"]["a"])
            expected = [_integer(e, "expected_a_ecc entry") for e in extras["expected_a_ecc"]]
            if len(expected) != len(a_ids):
                raise ValueError("expected_a_ecc does not give one value per witness_map.a vertex")
            promise = (expected, a_ids, hub, hub_ecc)
        else:
            answer, eq_side = sidecar["answer"], sidecar["eq_side"]
            if type(answer) is not bool or eq_side not in ("yes", "no"):
                raise ValueError("answer must be true or false, and eq_side 'yes' or 'no'")
            rel, key = ("eq", "yes_value") if answer == (eq_side == "yes") else ("ge", "no_bound")
            promise = (rel, _integer(sidecar[key], key))
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError) as exc:
        raise SystemExit2(f"malformed sidecar {path}: {type(exc).__name__} {exc}") from exc
    return quantity, variant, promise


def cmd_verify(args):
    _check_cap_flag(args)
    g = _load_graph(args)
    if not args.sidecar:
        raise SystemExit2("--sidecar is required for verify")
    quantity, variant, promise = _read_sidecar(args.sidecar)
    if quantity == "eccentricities":
        _, a_ids, hub, _ = promise
        for v in a_ids if hub is None else [*a_ids, hub]:
            if type(v) is not int or not 0 <= v < g.n:
                raise SystemExit2(f"sidecar names vertex {v!r}, not in 0..{g.n - 1}")
    value = _verified_value(g, quantity, variant, args)
    if quantity == "eccentricities":
        expected, a_ids, hub, hub_ecc = promise
        got = [value[v] for v in a_ids]
        ok = got == expected
        if ok and hub is not None:
            ok = value[hub] == hub_ecc
        print(f"{'PASS' if ok else 'FAIL'} per-vertex expected={expected} got={got}")
        return 0 if ok else 1
    rel, target = promise
    ok = value == target if rel == "eq" else value >= target
    print(f"{'PASS' if ok else 'FAIL'} {quantity} {rel} {target}, computed {value}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing


# The flags that several subcommands share.  A subcommand names the ones it
# reads, so a flag it would ignore is an unknown flag (exit 2).
SHARED_FLAGS = {
    "input": dict(help="input graph file"),
    "output": dict(help="output file (default stdout)"),
    "variant": dict(choices=VARIANTS, default="undirected"),
    "seed": dict(type=int, default=0),
    "format": dict(choices=("json", "tsv"), default="tsv"),
    "cap": dict(type=int, default=DEFAULT_CAP, help="oracle capacity cap"),
}


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="ecclab", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, shared, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in shared.split():
            p.add_argument(f"--{flag}", **SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = subcommand("gen", cmd_gen, "seed",
                   "generate a graph (gadget, partial k-tree, or DAG block)")
    p.add_argument("--output", help="path prefix of the files written (required): <prefix>.graph, "
                   "plus .td for partial-ktree or .json and .ss for a gadget")
    p.add_argument("--kind", required=True)
    p.add_argument("--na", type=int, default=8)
    p.add_argument("--nb", type=int, default=8)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--sparsify", action="store_true")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--edge-keep-prob", type=float, default=0.8)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--directed", action="store_true")

    p = subcommand("exact", cmd_exact, "input output variant format cap",
                   "exact eccentricities or median")
    p.add_argument("--quantity", choices=("eccentricities", "median"), default="eccentricities")

    p = subcommand("approx", cmd_approx, "input output seed format", "approximation algorithms")
    p.add_argument("--algorithm", choices=APPROX_ALGORITHMS, required=True)
    p.add_argument("--epsilon", type=float, default=0.5)

    p = subcommand("tw", cmd_tw, "input output variant format",
                   "exact eccentricities via a tree decomposition")
    p.add_argument("--td", help="decomposition file (default: greedy heuristic)")

    p = subcommand("reduce", cmd_reduce, "input output seed format",
                   "2-vs-3 decision via the hashing reduction")
    p.add_argument("--target", choices=(DIAMETER, RADIUS), required=True)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--rounds", type=int, default=20)

    p = subcommand("verify", cmd_verify, "input cap", "recompute a sidecar's promise and compare")
    p.add_argument("--sidecar", help="sidecar JSON file")
    p.add_argument("--td", help="use this decomposition instead of the oracle")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others.
        return exc.code if exc.code in (0, USAGE_ERROR) else USAGE_ERROR
    # No command builds a reference cycle (tests/test_cli.py checks that each
    # leaves no garbage), so the cyclic collector only costs time here: a
    # graph's edge tuples alone set off hundreds of its passes.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (SystemExit2, GraphFormatError, VariantError, DecompositionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAPACITY_ERROR
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
