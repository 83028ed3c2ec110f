"""Backbone evaluation measures: Jaccard overlap, strength-distribution
Hellinger distance, reachability preservation, and a summary bundle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import DomainError
from .graph import _check_sampling, _require_parent, _sample_nodes


@dataclass(frozen=True)
class BackboneMetrics:
    edge_fraction: float
    weight_fraction: float
    nonisolated_fraction: float
    hellinger: float  # None when the backbone is empty
    reachability: float


def jaccard_similarity(bb1, bb2):
    """|B1 ∩ B2| / |B1 ∪ B2| over the member edges of two backbones of one
    graph; two empty backbones are identical, so the similarity is 1."""
    if bb1.parent is not bb2.parent:
        raise DomainError("jaccard similarity needs backbones of one graph")
    a, b = bb1.member_flags, bb2.member_flags
    union = np.count_nonzero(a | b)
    if not union:
        return 1.0
    return np.count_nonzero(a & b) / union


def hellinger_strength_distance(g, bb):
    """Hellinger distance between the normalized strength distributions of
    the graph and the backbone."""
    _require_parent(g, bb)
    W = g.total_weight
    W_b = bb.total_weight
    if W <= 0 or W_b <= 0:
        raise DomainError("hellinger distance needs positive total weights")
    p = g.strengths() / W
    q = bb.retained_strengths() / W_b
    return float(np.sqrt(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)))


def reachable_pair_count(num_nodes, src, dst, directed, nodes=None):
    """Number of ordered pairs (i, j), i != j, with a directed path i -> j,
    optionally restricted to the induced subgraph on ``nodes``."""
    if nodes is not None:
        nodes = np.asarray(nodes)
        keep = np.zeros(num_nodes, dtype=bool)
        keep[nodes] = True
        relabel = -np.ones(num_nodes, dtype=np.int64)
        relabel[nodes] = np.arange(len(nodes))
        mask = keep[src] & keep[dst]
        src, dst = relabel[src[mask]], relabel[dst[mask]]
        num_nodes = len(nodes)
    data = np.ones(len(src))
    mat = csr_matrix((data, (src, dst)), shape=(num_nodes, num_nodes))
    if not directed:
        _, comp = connected_components(mat, directed=False)
        sizes = np.bincount(comp)
        return int(np.sum(sizes * (sizes - 1)))
    total = 0
    for i in range(num_nodes):
        order = breadth_first_order(mat, i, directed=True, return_predecessors=False)
        total += len(order) - 1
    return total


def _sampled_reach(g, sample_cap, seed):
    """The nodes :func:`reachability_ratio` samples (None for all of them)
    and the full graph's reachable-pair count on them. The graph is
    immutable, so the pair is kept on it per (sample_cap, seed), the way
    ``cached_property`` keeps values: scoring several backbones of one
    graph counts the full graph once. The arguments are checked first, so
    an unhashable seed is a DomainError, not a failed lookup."""
    _check_sampling(sample_cap, seed)
    memo = vars(g).setdefault("_sampled_reach", {})
    if (sample_cap, seed) not in memo:
        nodes = _sample_nodes(g.num_nodes, sample_cap, seed)
        memo[sample_cap, seed] = nodes, reachable_pair_count(
            g.num_nodes, g.src, g.dst, g.directed, nodes)
    return memo[sample_cap, seed]


def _endpoint_count(g, edges=slice(None)):
    """How many nodes of ``g`` are an endpoint of one of its ``edges``."""
    touched = np.zeros(g.num_nodes, dtype=bool)
    touched[g.src[edges]] = touched[g.dst[edges]] = True
    return int(np.count_nonzero(touched))


def reachability_ratio(g, bb, sample_cap=10000, seed=0):
    """Ratio of ordered reachable pairs in the backbone to those in the full
    graph; computed on a seeded random induced subgraph of ``sample_cap``
    (at least 1) nodes when the graph is larger than that."""
    _require_parent(g, bb)
    nodes, denom = _sampled_reach(g, sample_cap, seed)
    if denom == 0:
        raise DomainError("graph has no reachable pairs")
    num = reachable_pair_count(
        g.num_nodes, g.src[bb._members], g.dst[bb._members], g.directed, nodes
    )
    return num / denom


def summarize(g, bb, sample_cap=10000, seed=0):
    """Bundle of all backbone metrics; fields that are undefined come back
    as None: ``hellinger`` for an empty backbone, ``reachability`` for a
    graph without reachable pairs."""
    _require_parent(g, bb)
    E, W = g.num_edges, g.total_weight
    E_b, W_b = bb.num_edges, bb.total_weight
    memo = vars(g)  # the graph is immutable: its count is kept, as in _sampled_reach
    if "_nonisolated_count" not in memo:
        memo["_nonisolated_count"] = _endpoint_count(g)
    n_ref, retained = memo["_nonisolated_count"], _endpoint_count(g, bb._members)
    try:
        hell = hellinger_strength_distance(g, bb)
    except DomainError:
        hell = None
    # None when the graph has no reachable pairs; a bad sample_cap raises
    reach = None
    if _sampled_reach(g, sample_cap, seed)[1]:
        reach = reachability_ratio(g, bb, sample_cap=sample_cap, seed=seed)
    return BackboneMetrics(
        edge_fraction=E_b / E if E else 0.0,
        weight_fraction=W_b / W if W else 0.0,
        nonisolated_fraction=retained / n_ref if n_ref else 0.0,
        hellinger=hell,
        reachability=reach,
    )
