"""Checks of the files the CLI workloads write, run by the harness after the
workload process has ended.

Every check is one checked output: ``Check(name, ok, detail, known)``.
``known`` names a recorded program defect that the mismatch shows (see
README.md). Such a mismatch is reported on its own, as a count per job, and
is not a failed output: the benchmark measures a program whose recorded
defects are part of its baseline, and a failed output is one that no
recorded defect explains. Where a planned change to the program will change
an output, the check tests an invariant instead of today's value.
"""

from __future__ import annotations

import json
from collections import namedtuple
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import eigs

Check = namedtuple("Check", "name ok detail known", defaults=(None,))

# E_b of the mdl-global backbone of the seed-1 DM file.
CLI_GLOBAL_EB_SEED1 = 110_897
DL_TOLERANCE_BITS = 1e-6
S_TOLERANCE = 1e-6
EIG_TOLERANCE = 1e-6
WARM_START_DEFECT = "warm-start trivial fixed point"


def is_failure(check):
    """A mismatch that no recorded program defect explains."""
    return not check.ok and check.known is None


def read_int_edges(path):
    """(src, dst, weight) int64 arrays of a TSV whose labels are integers."""
    with open(path) as fh:
        vals = np.fromiter(map(int, fh.read().split()), dtype=np.int64)
    vals = vals.reshape(-1, 3)
    return vals[:, 0], vals[:, 1], vals[:, 2]


def read_labeled_edges(path, label_ids):
    """(src, dst, weight) arrays of a TSV with string labels, mapped through
    (and extending) ``label_ids``."""
    src, dst, w = [], [], []
    with open(path) as fh:
        for line in fh:
            a, b, wt = line.split()
            src.append(label_ids.setdefault(a, len(label_ids)))
            dst.append(label_ids.setdefault(b, len(label_ids)))
            w.append(float(wt))
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(w)


def check_cli_global(prefix, inp, seed, code):
    """Checks of one ``backbone --method mdl-global`` job on the DM file.
    ``inp`` holds the generated (src, dst, weight) arrays sorted by
    (src, dst), with E and W."""
    from mdlbackbone.objectives import dl_global_micro

    out = [Check(f"{prefix.name}.exit_code", code == 0, f"exit code {code}")]
    if code != 0:
        return out
    with open(f"{prefix}.json") as fh:
        doc = json.load(fh)
    E_b, W_b, dl_bits, eta = doc["E_b"], doc["W_b"], doc["dl_bits"], doc["eta"]
    del doc
    N = inp["N"]
    s, d, w = read_int_edges(f"{prefix}.tsv")
    keys = inp["src"] * N + inp["dst"]
    bkeys = s * N + d
    pos = np.minimum(np.searchsorted(keys, bkeys), len(keys) - 1)
    found = keys[pos] == bkeys
    same_w = found & (inp["weight"][pos] == w)
    unique = len(np.unique(bkeys)) == len(bkeys)
    out.append(Check(
        f"{prefix.name}.tsv_edges_are_input_edges", bool(same_w.all()) and unique,
        f"{int((~same_w).sum())} of {len(bkeys)} edges not in the input with "
        f"their weight; duplicates: {not unique}",
    ))
    kept = np.zeros(len(keys), dtype=bool)
    kept[pos[found]] = True
    kept_min = int(inp["weight"][kept].min()) if kept.any() else None
    dropped_max = int(inp["weight"][~kept].max()) if not kept.all() else None
    out.append(Check(
        f"{prefix.name}.heaviest_prefix",
        kept_min is None or dropped_max is None or kept_min >= dropped_max,
        f"smallest kept weight {kept_min}, largest dropped weight {dropped_max}",
    ))
    out.append(Check(
        f"{prefix.name}.json_matches_tsv",
        E_b == len(bkeys) and W_b == int(w.sum()),
        f"JSON E_b={E_b} W_b={W_b}, TSV {len(bkeys)} edges weight {int(w.sum())}",
    ))
    dl_ref = dl_global_micro(inp["E"], inp["W"], E_b, W_b)
    out.append(Check(
        f"{prefix.name}.dl_bits", abs(dl_bits - dl_ref) <= DL_TOLERANCE_BITS
        and 0.0 < eta <= 1.0,
        f"dl_bits {dl_bits!r}, recomputed {dl_ref!r}, eta {eta!r}",
    ))
    if seed == 1:
        out.append(Check(
            f"{prefix.name}.E_b_seed1", E_b == CLI_GLOBAL_EB_SEED1,
            f"E_b {E_b}, expected {CLI_GLOBAL_EB_SEED1} at seed 1",
        ))
    return out


def nb_matrix(num_nodes, src, dst, weights, p):
    """Explicit weighted non-backtracking matrix over the 2E half-edges of an
    undirected graph (self-loops dropped): B[h, h'] = phi(w_h) when h'
    leaves the head of h and is not the reverse of h."""
    keep = src != dst
    u, v, w = src[keep], dst[keep], weights[keep]
    E = len(u)
    hs = np.concatenate([u, v])
    hd = np.concatenate([v, u])
    phi = 1.0 - (1.0 - p) ** np.concatenate([w, w])
    rev = np.concatenate([np.arange(E, 2 * E), np.arange(E)])
    # half-edges grouped by tail; the successors of h are the group of its head
    order = np.argsort(hs, kind="stable")
    starts = np.searchsorted(hs[order], np.arange(num_nodes + 1))
    n_succ = (starts[1:] - starts[:-1])[hd]
    rows = np.repeat(np.arange(2 * E), n_succ)
    within = np.arange(len(rows)) - np.repeat(np.cumsum(n_succ) - n_succ, n_succ)
    cols = order[np.repeat(starts[hd], n_succ) + within]
    keep = cols != rev[rows]
    rows, cols = rows[keep], cols[keep]
    return csr_matrix((phi[rows], (rows, cols)), shape=(2 * E, 2 * E))


def nb_spectral_radius(num_nodes, src, dst, weights, p):
    B = nb_matrix(num_nodes, src, dst, weights, p)
    if B.nnz == 0:
        return 0.0
    v0 = np.ones(B.shape[0])
    vals = eigs(B, k=1, which="LM", v0=v0, tol=1e-13, maxiter=100_000,
                return_eigenvectors=False)
    return float(abs(vals[0]))


class ContactChecker:
    """Checks of contact-study jobs. References that depend only on a job's
    backbone files (cold-start cluster sizes, spectral radii) are computed
    once per distinct file content and reused across jobs."""

    def __init__(self, input_path, seed):
        self.seed = seed
        self.labels = {}
        self.full = read_labeled_edges(input_path, self.labels)
        self.num_nodes = len(self.labels)
        self._cold = {}
        self._radius = {}

    def _graph(self, path):
        if path is None:
            return self.full
        known = dict(self.labels)
        edges = read_labeled_edges(path, known)
        if len(known) != self.num_nodes:
            raise ValueError(f"{path} has nodes outside the input graph")
        return edges

    def _cold_S(self, key, edges, p_grid):
        if key not in self._cold:
            from mdlbackbone.graph import WeightedGraph
            from mdlbackbone.percolation import HalfEdgeSystem, message_passing_cluster

            src, dst, w = edges
            g = WeightedGraph(self.num_nodes, src, dst, w.astype(np.int64),
                              directed=False)
            sys_ = HalfEdgeSystem.build(g)
            self._cold[key] = [
                message_passing_cluster(sys_, float(p), init="random", seed=self.seed)[0]
                for p in p_grid
            ]
        return self._cold[key]

    def _radius_at(self, key, edges, p):
        if (key, p) not in self._radius:
            self._radius[(key, p)] = nb_spectral_radius(self.num_nodes, *edges, p)
        return self._radius[(key, p)]

    def check_job(self, job_dir, codes, methods, percolated):
        job_dir = Path(job_dir)
        tag = job_dir.name
        out = [Check(f"{tag}.exit_codes", all(c == 0 for c in codes), f"exit codes {codes}")]
        if not all(c == 0 for c in codes):
            return out
        docs = {}
        for m in (*methods, "disparity-tope"):
            with open(job_dir / f"{m}.json") as fh:
                docs[m] = json.load(fh)
        out.append(Check(
            f"{tag}.disparity_tope_size",
            docs["disparity-tope"]["E_b"] == docs["mdl-global"]["E_b"],
            f"disparity-tope E_b {docs['disparity-tope']['E_b']}, "
            f"mdl-global E_b {docs['mdl-global']['E_b']}",
        ))
        with open(job_dir / "compare.json") as fh:
            cmp_doc = json.load(fh)
        sizes = [docs[m]["E_b"] for m in (*methods, "disparity-tope")]
        rows = [r["E_b"] for r in cmp_doc["backbones"]]
        diag = [row[i] for i, row in enumerate(cmp_doc["jaccard_matrix"])]
        out.append(Check(
            f"{tag}.compare_consistent", rows == sizes and diag == [1.0] * len(sizes),
            f"compare E_b {rows} vs backbones {sizes}; jaccard diagonal {diag}",
        ))
        with open(job_dir / "study.json") as fh:
            perc = json.load(fh)
        p_grid = np.array(perc["p_grid"])
        paths = [None] + [job_dir / f"{m}.tsv" for m in percolated]
        for graph_doc, path in zip(perc["graphs"], paths):
            label = graph_doc["label"]
            key = "full" if path is None else Path(path).read_bytes()
            edges = self._graph(path)
            p_c = graph_doc["p_crit"]
            if p_c is None:
                lam = self._radius_at(key, edges, 1.0)
                ok, detail = lam < 1.0, f"p_crit None, radius at p=1 is {lam!r}"
            else:
                lam = self._radius_at(key, edges, p_c)
                ok = abs(lam - 1.0) <= EIG_TOLERANCE
                detail = f"p_crit {p_c!r}, radius there {lam!r}"
            out.append(Check(f"{tag}.{label}.p_crit", ok, detail))
            cold = self._cold_S(key, edges, p_grid)
            for i, (p, s_warm, s_cold) in enumerate(zip(p_grid, graph_doc["S"], cold)):
                ok = abs(s_warm - s_cold) <= S_TOLERANCE
                known = None
                if not ok and s_warm < S_TOLERANCE < s_cold:
                    known = WARM_START_DEFECT
                out.append(Check(
                    f"{tag}.{label}.S[{i}]", ok,
                    f"p={p:.6g}: study S {s_warm!r}, cold-start S {s_cold!r}", known,
                ))
        return out
