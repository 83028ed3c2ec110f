"""Batch command-line front end: backbone extraction, backbone comparison,
synthetic instance generation and percolation studies.

Exit codes: 0 all artifacts written, 1 parse/domain/runtime error,
2 usage error (bad flags).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, baselines, metrics, percolation, solver, synth
from .errors import DomainError, ParseError
from .graph import (
    _edge_spans,
    backbone_from_edge_subset,
    backbone_from_flags,
    parse_edge_list,
    serialize_edge_list,
)
from .objectives import ObjectiveSpec

OBJECTIVES = {
    "micro": ("microcanonical", None),
    "canonical-geometric": ("canonical", "geometric"),
    "canonical-poisson": ("canonical", "poisson"),
    "canonical-exponential": ("canonical", "exponential"),
}

METHODS = (
    "mdl-global",
    "mdl-local",
    "disparity-alpha",
    "disparity-tope",
    "hss",
    "percolation",
)


def _load_graph(path, directed, weight_kind="integer", round_weights=False):
    with open(path) as fh:
        return parse_edge_list(
            fh, directed=directed, weight_kind=weight_kind,
            round_weights=round_weights,
        )


def _objective_spec(name, scope, lam):
    family, model = OBJECTIVES[name]
    return ObjectiveSpec(scope, family, model, lam)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _output_prefix(args, default_stem):
    if args.output:
        return Path(args.output)
    return Path(default_stem)


def cmd_backbone(args):
    weight_kind = (
        "real" if args.objective == "canonical-exponential" else "integer"
    )
    g = _load_graph(
        args.input, directed=not args.undirected,
        weight_kind=weight_kind, round_weights=args.round_weights,
    )
    if args.method == "mdl-global":
        spec = _objective_spec(args.objective, "global", args.lam)
        result = solver.greedy_global(g, spec)
    elif args.method == "mdl-local":
        spec = _objective_spec(args.objective, "local", args.lam)
        result = solver.greedy_local(g, spec)
    else:
        result = None
        if args.method == "disparity-alpha":
            bb = baselines.disparity_filter(g, alpha=args.alpha)
        elif args.method == "disparity-tope":
            if args.etarget is None:
                raise DomainError("disparity-tope requires --etarget")
            bb = baselines.disparity_filter_top_e(g, args.etarget)
        elif args.method == "hss":
            bb = baselines.high_salience_skeleton(g, seed=args.seed)
        else:
            bb = baselines.percolation_backbone(g)

    prefix = _output_prefix(args, Path(args.input).stem + "." + args.method)
    if result is not None:
        bb = result.backbone
        doc = solver.result_to_dict(result)
    else:
        doc = dict(solver.backbone_to_dict(bb), method=args.method)
        if args.method == "disparity-alpha":
            doc["alpha"] = args.alpha
    # with the method's own keys, enough to re-run the command
    doc.update(
        seed=args.seed,
        input=str(args.input),
        directed=not args.undirected,
        lam=args.lam,
        round_weights=args.round_weights,
        etarget=args.etarget,
        weight_kind=g.weight_kind,
        version=__version__,
    )

    if bb.num_edges:
        _write_text(str(prefix) + ".tsv", serialize_edge_list(bb.subgraph()))
    else:
        _write_text(str(prefix) + ".tsv", "")
    _write_json(str(prefix) + ".json", doc)
    return 0


def _backbone_from_file(g, path):
    with open(path) as fh:
        text = fh.read()
    try:
        bb_graph = parse_edge_list(text, directed=g.directed, weight_kind=g.weight_kind)
    except DomainError:
        if len(_edge_spans(text)[1]):
            raise
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
    g = _load_graph(
        args.input, directed=not args.undirected,
        weight_kind="integer", round_weights=args.round_weights,
    )
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
    prefix = _output_prefix(args, Path(args.input).stem + ".compare")
    _write_json(str(prefix) + ".json", doc)
    return 0


def cmd_synth(args):
    prefix = _output_prefix(args, f"synth-{args.kind}")
    if args.kind == "regular":
        g = synth.random_regular_directed(args.N, args.k, seed=args.seed)
        params = {"kind": "regular", "N": args.N, "k": args.k, "seed": args.seed}
        planted = None
    elif args.kind == "planted":
        base = synth.random_regular_directed(args.N, args.k, seed=args.seed)
        inst = synth.plant_weights_canonical(
            base, gamma=args.gamma, scope=args.scope, seed=args.seed
        )
        g, planted = inst.graph, inst.planted
        params = dict(inst.params, kind="planted", k=args.k)
    else:
        inst = synth.dirichlet_multinomial_weights(
            args.N, args.k, args.W, args.hstr, args.hneig, seed=args.seed
        )
        g, planted = inst.graph, None
        params = dict(inst.params, kind="dm")
    _write_text(str(prefix) + ".tsv", serialize_edge_list(g))
    _write_json(str(prefix) + ".params.json", params)
    if planted is not None and planted.num_edges:
        _write_text(
            str(prefix) + ".planted.tsv", serialize_edge_list(planted.subgraph())
        )
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
    g = _load_graph(
        args.input, directed=False,
        weight_kind="integer", round_weights=args.round_weights,
    )
    backbones = [_backbone_from_file(g, p) for p in args.backbones]
    grid = _parse_pgrid(args.pgrid)
    reports = percolation.backbone_percolation_study(g, backbones, grid)
    doc = {
        "input": str(args.input),
        "pgrid": args.pgrid,
        "backbones": list(args.backbones),
        "round_weights": args.round_weights,
        "version": __version__,
        "p_grid": reports[0].p_grid.tolist(),
        "graphs": [dict(asdict(r), S=r.S.tolist()) for r in reports],
    }
    for entry in doc["graphs"]:
        del entry["p_grid"]  # the grid is written once, at the top
    prefix = _output_prefix(args, Path(args.input).stem + ".percolation")
    _write_json(str(prefix) + ".json", doc)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mdlbackbone",
        description="Parameter-free MDL network backbones and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default=None, help="output path prefix")
        p.add_argument("--seed", type=int, default=0)

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
            kp.add_argument("--scope", choices=("global", "local"),
                            default="global")
        if kind == "dm":
            kp.add_argument("--W", type=int, required=True)
            kp.add_argument("--hstr", type=float, required=True)
            kp.add_argument("--hneig", type=float, required=True)
        common(kp)
        kp.set_defaults(func=cmd_synth)

    p = sub.add_parser("percolation", help="message-passing percolation study")
    p.add_argument("input")
    p.add_argument("--pgrid", default="log:1e-4:1:25",
                   help="log:a:b:n or lin:a:b:n")
    p.add_argument("--backbones", nargs="*", default=[])
    p.add_argument("--round-weights", action="store_true")
    common(p)
    p.set_defaults(func=cmd_percolation)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DomainError, OSError) as exc:
        print(f"mdlbackbone: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
