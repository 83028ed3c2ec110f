"""Classical comparison backboners: disparity filter (significance-level and
fixed-size modes), high salience skeleton, and the percolation threshold
backbone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import DomainError
from .graph import backbone_from_flags, directed_parents, directed_view

__all__ = [
    "SalienceTable",
    "disparity_pvalue",
    "disparity_filter",
    "disparity_filter_top_e",
    "edge_disparity_pvalues",
    "high_salience_skeleton",
    "salience_table",
    "percolation_backbone",
]


@dataclass(frozen=True)
class SalienceTable:
    """Per-edge shortest-path-tree occurrence frequencies."""

    saliency: np.ndarray
    trees_sampled: int


def disparity_pvalue(w, s, k):
    """Probability that a uniform split of strength s over k edges puts at
    least w on one edge: (1 - w/s)^(k-1); degree-one edges get p = 1."""
    if k < 1 or w <= 0 or w > s:
        raise DomainError(f"invalid disparity arguments w={w}, s={s}, k={k}")
    if k == 1:
        return 1.0
    return float((1.0 - w / s) ** (k - 1))


def edge_disparity_pvalues(g):
    """Minimum disparity p-value per parent edge over the incident
    out-neighborhoods of the directed view."""
    dg = directed_view(g)
    w = np.asarray(dg.weights, dtype=float)
    k = np.bincount(dg.src, minlength=dg.num_nodes)[dg.src]
    s = np.bincount(dg.src, weights=w, minlength=dg.num_nodes)[dg.src]
    p = np.where(k > 1, (1.0 - w / s) ** (k - 1), 1.0)
    pvals = np.ones(g.num_edges)
    np.minimum.at(pvals, directed_parents(g), p)
    return pvals


def disparity_filter(g, alpha=0.05):
    """Backbone of edges significant at level ``alpha`` in at least one
    incident out-neighborhood of the directed view."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    pvals = edge_disparity_pvalues(g)
    return backbone_from_flags(g, pvals < alpha)


def disparity_filter_top_e(g, e_target):
    """The ``e_target`` edges with smallest disparity p-values; ties broken
    by larger weight, then (src, dst) index."""
    if not 0 <= e_target <= g.num_edges:
        raise DomainError(f"e_target={e_target} outside [0, {g.num_edges}]")
    pvals = edge_disparity_pvalues(g)
    order = np.lexsort((g.dst, g.src, -np.asarray(g.weights, dtype=float), pvals))
    flags = np.zeros(g.num_edges, dtype=bool)
    flags[order[:e_target]] = True
    return backbone_from_flags(g, flags)


def _distance_matrix(g):
    d = 1.0 / np.asarray(g.weights, dtype=float)
    mat = csr_matrix((d, (g.src, g.dst)), shape=(g.num_nodes, g.num_nodes))
    return mat


def salience_table(g, sample_cap=10000, seed=0):
    """Edge saliency: occurrence frequency in shortest-path trees rooted at
    each of up to ``sample_cap`` nodes, with distances d = 1/w. Parent choice
    on equal-length paths is the smallest predecessor index."""
    dg = directed_view(g)
    n = g.num_nodes
    dist_mat = _distance_matrix(dg)
    d_edge = 1.0 / np.asarray(dg.weights, dtype=float)

    if n <= sample_cap:
        roots = np.arange(n)
    else:
        rng = np.random.default_rng(seed)
        roots = np.sort(rng.choice(n, size=sample_cap, replace=False))

    # in-edges of each node in the directed view, sorted by (dst, src) so the
    # first feasible predecessor within a segment is the smallest-index one
    in_order = np.lexsort((dg.src, dg.dst))
    in_dst = dg.dst[in_order]
    in_starts = np.searchsorted(in_dst, np.arange(n + 1))
    in_src = dg.src[in_order]
    in_d = d_edge[in_order]
    M = dg.num_edges
    to_parent_edge = directed_parents(g)[in_order]
    has_in = in_starts[1:] > in_starts[:-1]
    starts_nz = in_starts[:-1][has_in]
    nodes_nz = np.nonzero(has_in)[0]
    positions = np.arange(M)

    counts = np.zeros(g.num_edges)
    for lo in range(0, len(roots), 256):
        chunk = roots[lo:lo + 256]
        dist = np.atleast_2d(dijkstra(dist_mat, directed=True, indices=chunk))
        for r, drow in zip(chunk, dist):
            feas = (drow[in_src] + in_d) == drow[in_dst]
            fpos = np.where(feas, positions, M)
            first = np.minimum.reduceat(fpos, starts_nz) if len(starts_nz) else fpos[:0]
            valid = (first < M) & (nodes_nz != r) & np.isfinite(drow[nodes_nz])
            np.add.at(counts, to_parent_edge[first[valid]], 1.0)
    return SalienceTable(saliency=counts / len(roots), trees_sampled=len(roots))


def high_salience_skeleton(g, sample_cap=10000, threshold=0.5, seed=0):
    """Backbone of edges whose saliency is at least ``threshold``."""
    table = salience_table(g, sample_cap=sample_cap, seed=seed)
    return backbone_from_flags(g, table.saliency >= threshold)


def percolation_backbone(g):
    """Densest-first backbone: edges added in decreasing weight (whole weight
    classes at a time) until the retained subgraph covers every non-isolated
    node of ``g`` and has as many weak components as ``g``. Both conditions
    only become true as classes are added, so the shortest such prefix of
    classes is found by bisection."""
    n, E = g.num_nodes, g.num_edges
    if E == 0:
        return backbone_from_flags(g, np.zeros(0, dtype=bool))
    w = np.asarray(g.weights, dtype=float)
    order = np.argsort(-w, kind="stable")
    w_sorted = w[order]
    # class_ends[k]: number of sorted edges in the k + 1 heaviest classes
    class_ends = np.append(np.nonzero(w_sorted[1:] != w_sorted[:-1])[0] + 1, E)

    def n_components(stop):
        kept = order[:stop]
        adj = csr_matrix(
            (np.ones(stop), (g.src[kept], g.dst[kept])), shape=(n, n)
        )
        return connected_components(adj, directed=True, connection="weak")[0]

    # a non-isolated node is covered once the class of its heaviest edge is in
    ends = np.column_stack([g.src[order], g.dst[order]]).ravel()
    first = np.unique(ends, return_index=True)[1] // 2
    lo = int(np.searchsorted(class_ends, first.max(), side="right"))
    hi = len(class_ends) - 1
    target = n_components(E)
    while lo < hi:
        mid = (lo + hi) // 2
        if n_components(class_ends[mid]) == target:
            hi = mid
        else:
            lo = mid + 1
    flags = np.zeros(E, dtype=bool)
    flags[order[:class_ends[lo]]] = True
    return backbone_from_flags(g, flags)
