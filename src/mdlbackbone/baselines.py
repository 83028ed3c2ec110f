"""Classical comparison backboners: disparity filter (significance-level and
fixed-size modes), high salience skeleton, and the percolation threshold
backbone.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, minimum_spanning_tree

from .errors import DomainError
from .graph import (
    _first_in_order,
    _out_sums,
    _pair_key,
    _sample_nodes,
    _weight_classes,
    backbone_from_flags,
    directed_parents,
)


def edge_disparity_pvalues(g):
    """Minimum disparity p-value per parent edge over the incident
    out-neighborhoods of the directed view: its src's and, for an
    undirected edge, its dst's."""
    w = np.asarray(g.weights, dtype=float)
    k, s = _out_sums(g), g.strengths()

    def at(node):
        return np.where(k[node] > 1, (1.0 - w / s[node]) ** (k[node] - 1), 1.0)

    return at(g.src) if g.directed else np.minimum(at(g.src), at(g.dst))


def disparity_filter(g, alpha=0.05):
    """Backbone of edges significant at level ``alpha`` in at least one
    incident out-neighborhood of the directed view."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    pvals = edge_disparity_pvalues(g)
    return backbone_from_flags(g, pvals < alpha)


def disparity_filter_top_e(g, e_target):
    """The ``e_target`` edges with smallest disparity p-values; ties broken
    by larger weight, then (src, dst) index: the first ``e_target`` edges in
    the order of (p-value, -weight, src, dst, position), weights compared
    as floats."""
    if not 0 <= e_target <= g.num_edges:
        raise DomainError(f"e_target={e_target} outside [0, {g.num_edges}]")
    pvals = edge_disparity_pvalues(g)
    w = np.asarray(g.weights, dtype=float)
    return backbone_from_flags(g, _first_in_order(e_target, (pvals, -w, g.src, g.dst)))


def _pair_shortest(n, a, b, values):
    """Position of each distinct pair (a, b)'s smallest value, ties by position."""
    order = np.argsort(values, kind="stable")
    key = _pair_key(a, b, n)[order]
    # return_index sorts stably: each pair's first entry in value order
    return order[np.unique(key, return_index=True)[1]]


def _pair_matrix(n, a, b, values):
    """n x n sparse matrix with one entry per distinct pair (a, b): the
    smallest of the pair's values (``csr_matrix`` would add them up)."""
    keep = _pair_shortest(n, a, b, values)
    return csr_matrix((values[keep], (a[keep], b[keep])), shape=(n, n))


# Roots that also serve as landmarks of salience_table's arc pruning, taken
# evenly spaced from the sorted roots.
_LANDMARKS = 8


def _arcs_on_shortest_paths(dist_mat, src, dst, d, landmarks, symmetric):
    """Flags of the arcs (src, dst) of length d that no landmark bound
    proves longer than their endpoints' distance.

    The bound is ub = min over landmarks L of dist(u, L) + dist(L, v), from
    one Dijkstra call on ``dist_mat`` and one on its transpose (the same rows
    when ``symmetric``). An arc is dropped when ub + slack < d, with slack =
    4(n + 1)·eps·(ub + (n - 1)·max d). Exact ties, ub == d, are kept.

    Why a dropped arc changes nothing, in float arithmetic. Dijkstra's
    distance to a node is the least left-to-right float sum over paths to
    it, attained on a simple path of at most n - 1 arcs, so it lies within a
    factor 1 ± g, g = γ_n ≈ n·eps/2, of the exact distance δ, and a finite
    one is at most (1 + g)(n - 1)·max d. At a root with drow[u] = a finite,
    drow[v] <= (1 + g)(δ(r, u) + δ(u, L) + δ(L, v)) <= (1 + g)/(1 - g)·(a +
    ub/(1 - eps/2)), while fl(a + d) >= (a + d)(1 - eps/2). So fl(a + d) >
    drow[v] once d > ub + h·(ub + (n - 1)·max d), h ≈ (n + 1)·eps; the
    slack is twice that and also covers the rounding of ``ub + slack``.
    A dropped arc therefore yields no Dijkstra minimum, removing it moves
    no distance, and ``drow[u] + d == drow[v]`` is false for it at every
    root. Where drow[u] is inf, the arc can tie only at an unreachable head,
    which never counts.
    """
    n = dist_mat.shape[0]
    from_l = np.atleast_2d(dijkstra(dist_mat, directed=True, indices=landmarks))
    to_l = from_l if symmetric else np.atleast_2d(
        dijkstra(dist_mat.T, directed=True, indices=landmarks))
    ub = np.full(len(d), np.inf)
    for to_row, from_row in zip(to_l, from_l):
        np.minimum(ub, to_row[src] + from_row[dst], out=ub)
    slack = 4 * (n + 1) * np.finfo(float).eps * (ub + (n - 1) * d.max())
    return ~(ub + slack < d)


def salience_table(g, sample_cap=10000, seed=0):
    """Saliency of every parent edge, as an array: its occurrence frequency
    in shortest-path trees rooted at each of up to ``sample_cap`` (at least
    1) nodes, with distances d = 1/w. Parent choice on equal-length paths is
    the smallest predecessor index. Of parallel arcs, only the shortest, the
    heaviest edge's (the first by position among equals), joins a tree: a
    longer one can tie it in float sums. Loops never join a tree, however
    short. The search skips the arcs that a landmark path bound proves
    longer than their endpoints' distance (see
    :func:`_arcs_on_shortest_paths`); they lie on no shortest-path tree, so
    the saliencies are those of the full search."""
    roots = _sample_nodes(g.num_nodes, sample_cap, seed)
    if roots is None:
        roots = np.arange(g.num_nodes)
    # the arcs of directed_view(g), read without building that graph
    parents = directed_parents(g)
    rev = parents[g.num_edges:]
    src = np.concatenate([g.src, g.dst[rev]])
    dst = np.concatenate([g.dst, g.src[rev]])
    n = g.num_nodes
    d_edge = 1.0 / np.asarray(g.weights, dtype=float)[parents]

    def arc_matrix(arcs):  # one arc per pair, so no entries are added up
        return csr_matrix((d_edge[arcs], (src[arcs], dst[arcs])), shape=(n, n))

    arcs = _pair_shortest(n, src, dst, d_edge)
    arcs = arcs[src[arcs] != dst[arcs]]  # a loop is on no tree
    if len(arcs):
        landmarks = roots[::-(-len(roots) // _LANDMARKS)]
        arcs = arcs[_arcs_on_shortest_paths(arc_matrix(arcs), src[arcs], dst[arcs],
                                            d_edge[arcs], landmarks, not g.directed)]
    dist_mat = arc_matrix(arcs)
    arc_src, arc_dst, arc_d = src[arcs], dst[arcs], d_edge[arcs]

    # in-arcs of each node, sorted by (dst, src) so the first feasible
    # predecessor within a segment is the smallest-index one
    in_order = np.argsort(_pair_key(arc_dst, arc_src, n), kind="stable")
    in_dst = arc_dst[in_order]
    in_starts = np.searchsorted(in_dst, np.arange(n + 1))
    in_src = arc_src[in_order]
    in_d = arc_d[in_order]
    M = len(arcs)
    to_parent_edge = parents[arcs[in_order]]
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
    return counts / len(roots)


def high_salience_skeleton(g, seed=0):
    """Backbone of edges whose saliency (:func:`salience_table`, over up to
    10,000 roots sampled with ``seed``) is at least 1/2."""
    return backbone_from_flags(g, salience_table(g, seed=seed) >= 0.5)


def percolation_backbone(g):
    """Densest-first backbone: the shortest prefix of whole weight classes,
    heaviest first, that covers every non-isolated node of ``g`` and has
    as many weak components as ``g``. Its lightest class is the lighter of
    two: the lightest among the non-isolated nodes' heaviest edges, and
    the lightest in a maximum spanning forest of the weak graph."""
    n, E = g.num_nodes, g.num_edges
    # class ranks, 1 the heaviest class, so a minimum spanning tree on ranks
    # is a maximum spanning forest on weights
    rank = _weight_classes(g.weights)[1] + 1
    heaviest = np.full(n, E + 1)
    np.minimum.at(heaviest, g.src, rank)
    np.minimum.at(heaviest, g.dst, rank)
    cover = heaviest[heaviest <= E].max(initial=0)

    pair = g.src != g.dst
    a, b = np.minimum(g.src, g.dst)[pair], np.maximum(g.src, g.dst)[pair]
    forest = minimum_spanning_tree(_pair_matrix(n, a, b, rank[pair]))
    return backbone_from_flags(g, rank <= max(cover, forest.data.max(initial=0)))
