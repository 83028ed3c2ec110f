"""Batch command-line front end: backbone extraction, backbone comparison,
synthetic instance generation and percolation studies.

Exit codes: 0 all artifacts written, 1 parse/domain/runtime error,
2 usage error (bad flags).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, baselines, metrics, percolation, solver, synth
from .errors import DomainError, EmptyEdgeList, ParseError
from .graph import (
    backbone_from_edge_subset,
    backbone_from_flags,
    parse_edge_list,
    serialize_edge_list,
)
from .objectives import MODELS, ObjectiveSpec, _objective_label

OBJECTIVES = {_objective_label(model): model for model in MODELS}


def _solved(result):
    return result.backbone, solver.result_to_dict(result)


def _baseline(bb, **keys):
    return bb, dict(solver.backbone_to_dict(bb), **keys)


def _top_e(g, etarget):
    if etarget is None:
        raise DomainError("disparity-tope requires --etarget")
    return _baseline(baselines.disparity_filter_top_e(g, etarget))


# method -> (graph, global-scope spec, args) -> (backbone, JSON doc of its own
# keys); each looks its functions up when called, so a rebound attribute runs
BACKBONES = {
    "mdl-global": lambda g, spec, args: _solved(solver.greedy_global(g, spec)),
    "mdl-local": lambda g, spec, args: _solved(
        solver.greedy_local(g, replace(spec, scope="local"))),
    "disparity-alpha": lambda g, spec, args: _baseline(
        baselines.disparity_filter(g, alpha=args.alpha), alpha=args.alpha),
    "disparity-tope": lambda g, spec, args: _top_e(g, args.etarget),
    "hss": lambda g, spec, args: _baseline(
        baselines.high_salience_skeleton(g, seed=args.seed)),
    "percolation": lambda g, spec, args: _baseline(baselines.percolation_backbone(g)),
}
METHODS = tuple(BACKBONES)


def _load_graph(path, directed, round_weights):
    with open(path, "rb") as fh:
        return parse_edge_list(fh, directed=directed, round_weights=round_weights)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_backbone(args):
    # every method checks the objective, as its JSON records lam
    spec = ObjectiveSpec("global", OBJECTIVES[args.objective], args.lam)
    g = _load_graph(args.input, not args.undirected, args.round_weights)
    bb, doc = BACKBONES[args.method](g, spec, args)
    # with the method's own keys, enough to re-run the command
    doc.update(
        method=args.method,
        seed=args.seed,
        input=str(args.input),
        directed=not args.undirected,
        lam=args.lam,
        round_weights=args.round_weights,
        etarget=args.etarget,
        weight_kind=g.weight_kind,
        version=__version__,
    )

    prefix = Path(args.output or Path(args.input).stem + "." + args.method)
    _write_text(str(prefix) + ".tsv", serialize_edge_list(bb.subgraph()))
    _write_json(str(prefix) + ".json", doc)
    return 0


def _backbone_from_file(g, path):
    try:
        bb_graph = _load_graph(path, g.directed, False)
    except EmptyEdgeList:
        # `backbone` writes an empty backbone as a file without edge lines
        return backbone_from_flags(g, np.zeros(g.num_edges, dtype=bool))
    label_idx = {lab: i for i, lab in enumerate(g.labels)}
    # parent index of each backbone-file label, -1 where the parent lacks it
    idx = np.array([label_idx.get(lab, -1) for lab in bb_graph.labels], dtype=np.int64)
    src, dst = idx[bb_graph.src], idx[bb_graph.dst]
    foreign = (src < 0) | (dst < 0)
    if foreign.any():
        e = np.argmax(foreign)
        a, b = bb_graph.labels[bb_graph.src[e]], bb_graph.labels[bb_graph.dst[e]]
        raise DomainError(f"backbone node {a!r} or {b!r} not in graph")
    return backbone_from_edge_subset(g, np.column_stack([src, dst]))


def cmd_compare(args):
    g = _load_graph(args.input, not args.undirected, args.round_weights)
    backbones = [_backbone_from_file(g, path) for path in args.backbones]
    rows = [
        dict(asdict(metrics.summarize(g, bb, seed=args.seed)),
             backbone=str(path), E_b=bb.num_edges, W_b=bb.total_weight)
        for path, bb in zip(args.backbones, backbones)
    ]
    doc = {
        "input": str(args.input),
        "seed": args.seed,
        "directed": not args.undirected,
        "round_weights": args.round_weights,
        "version": __version__,
        "backbones": rows,
    }
    if len(backbones) >= 2:
        doc["jaccard_matrix"] = [
            [metrics.jaccard_similarity(a, b) for b in backbones]
            for a in backbones
        ]
    prefix = Path(args.output or Path(args.input).stem + ".compare")
    _write_json(str(prefix) + ".json", doc)
    return 0


def cmd_synth(args):
    prefix = Path(args.output or f"synth-{args.kind}")
    if args.kind == "dm":
        inst = synth.dirichlet_multinomial_weights(
            args.N, args.k, args.W, args.hstr, args.hneig, seed=args.seed
        )
        g, params = inst.graph, dict(inst.params, kind="dm")
    else:
        g = synth.random_regular_directed(args.N, args.k, seed=args.seed)
        params = {"kind": "regular", "N": args.N, "k": args.k, "seed": args.seed}
    if args.kind == "planted":
        inst = synth.plant_weights_canonical(
            g, gamma=args.gamma, scope=args.scope, seed=args.seed
        )
        g, params = inst.graph, dict(inst.params, kind="planted", k=args.k)
    _write_text(str(prefix) + ".tsv", serialize_edge_list(g))
    _write_json(str(prefix) + ".params.json", params)
    if args.kind == "planted":
        _write_text(str(prefix) + ".planted.tsv",
                    serialize_edge_list(inst.planted.subgraph()))
    return 0


def _parse_pgrid(text):
    parts = text.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise DomainError(f"bad p-grid spec {text!r}; use log:a:b:n or lin:a:b:n")
    try:
        a, b, n = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise DomainError(f"bad p-grid spec {text!r}") from None
    if n < 1 or not 0 <= a <= b <= 1 or (parts[0] == "log" and a <= 0):
        raise DomainError(f"bad p-grid range in {text!r}")
    if parts[0] == "log":
        return np.logspace(np.log10(a), np.log10(b), n)
    return np.linspace(a, b, n)


def cmd_percolation(args):
    g = _load_graph(args.input, False, args.round_weights)
    backbones = [_backbone_from_file(g, p) for p in args.backbones]
    grid = _parse_pgrid(args.pgrid)
    reports = percolation.backbone_percolation_study(g, backbones, grid)
    doc = {
        "input": str(args.input),
        "pgrid": args.pgrid,
        "backbones": list(args.backbones),
        "round_weights": args.round_weights,
        "version": __version__,
        "p_grid": grid.tolist(),
        "graphs": [dict(asdict(r), S=r.S.tolist()) for r in reports],
    }
    prefix = Path(args.output or Path(args.input).stem + ".percolation")
    _write_json(str(prefix) + ".json", doc)
    return 0


def _seed(text):
    """The type of --seed: numpy's generators take non-negative integers."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mdlbackbone", description="Parameter-free MDL network backbones and baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default=None, help="output path prefix")
        p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("backbone", help="extract a backbone from an edge list")
    p.add_argument("input")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--objective", choices=sorted(OBJECTIVES), default="micro")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--etarget", type=int, default=None)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--round-weights", action="store_true")
    common(p)
    p.set_defaults(func=cmd_backbone)

    p = sub.add_parser("compare", help="score backbones against their graph")
    p.add_argument("input")
    p.add_argument("--backbones", nargs="+", required=True)
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--round-weights", action="store_true")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate synthetic instances")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in ("regular", "planted", "dm"):
        kp = kinds.add_parser(kind)
        kp.add_argument("--N", type=int, required=True)
        kp.add_argument("--k", type=int, required=True)
        if kind == "planted":
            kp.add_argument("--gamma", type=float, required=True)
            kp.add_argument("--scope", choices=("global", "local"), default="global")
        if kind == "dm":
            kp.add_argument("--W", type=int, required=True)
            kp.add_argument("--hstr", type=float, required=True)
            kp.add_argument("--hneig", type=float, required=True)
        common(kp)
        kp.set_defaults(func=cmd_synth)

    p = sub.add_parser("percolation", help="message-passing percolation study")
    p.add_argument("input")
    p.add_argument("--pgrid", default="log:1e-4:1:25", help="log:a:b:n or lin:a:b:n")
    p.add_argument("--backbones", nargs="*", default=[])
    p.add_argument("--round-weights", action="store_true")
    common(p)
    p.set_defaults(func=cmd_percolation)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DomainError, OSError) as exc:
        print(f"mdlbackbone: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
