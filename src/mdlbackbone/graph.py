"""Weighted graph data model: edge-list ingestion, direction handling and
the out-neighborhood index.

Node labels are arbitrary strings mapped to dense indices 0..N-1 in order of
first appearance; all algorithms operate on the dense indices. Multi-edges
are merged by weight summation at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParseError

__all__ = [
    "WeightedGraph",
    "Backbone",
    "parse_edge_list",
    "serialize_edge_list",
    "directed_view",
    "directed_parents",
    "collapse_to_undirected",
    "neighborhoods",
    "backbone_from_flags",
    "backbone_from_edge_subset",
]


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable weighted graph stored as a dense-indexed edge list.

    ``src``, ``dst`` and ``weights`` are parallel arrays of length E. For
    ``weight_kind == "integer"`` the weights array has an integer dtype and
    every weight is >= 1; for ``"real"`` weights are positive floats.
    Undirected graphs store each edge once with ``src <= dst`` not enforced;
    duplication into both orientations happens in :func:`directed_view`.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray
    directed: bool
    weight_kind: str = "integer"
    labels: tuple = field(default=None)

    def __post_init__(self):
        if self.weight_kind not in ("integer", "real"):
            raise DomainError(f"unknown weight_kind {self.weight_kind!r}")
        if len(self.src) != len(self.dst) or len(self.src) != len(self.weights):
            raise DomainError("edge arrays must have equal length")
        if self.labels is None:
            object.__setattr__(
                self, "labels", tuple(str(i) for i in range(self.num_nodes))
            )
        for arr in (self.src, self.dst, self.weights):
            arr.setflags(write=False)

    @property
    def num_edges(self):
        return len(self.src)

    @property
    def total_weight(self):
        if self.num_edges == 0:
            return 0
        total = self.weights.sum()
        return int(total) if self.weight_kind == "integer" else float(total)

    def strengths(self):
        """Per-node strength: sum of incident weights (both endpoints for
        undirected graphs, out-edges only for directed ones; self-loops
        counted once)."""
        s = np.zeros(self.num_nodes, dtype=float)
        np.add.at(s, self.src, self.weights)
        if not self.directed:
            loop = self.src != self.dst
            np.add.at(s, self.dst[loop], self.weights[loop])
        return s

    def edge_index(self, src, dst):
        """Positions of the edges (src[i], dst[i]). For undirected graphs
        either orientation matches; where several edges match a pair, the
        last one wins. Raises DomainError for a pair not in the graph."""
        src = np.asarray(src, dtype=np.int64).reshape(-1)
        dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        n = self.num_nodes
        a = np.asarray(self.src, dtype=np.int64)
        b = np.asarray(self.dst, dtype=np.int64)
        qa, qb = src, dst
        if not self.directed:
            a, b = np.minimum(a, b), np.maximum(a, b)
            qa, qb = np.minimum(src, dst), np.maximum(src, dst)
        keys = a * n + b
        # key order, ties by position, so the last match sits rightmost
        order = np.lexsort((np.arange(self.num_edges), keys))
        sorted_keys = keys[order]
        query = qa * n + qb
        pos = np.searchsorted(sorted_keys, query, side="right") - 1
        hit = (src >= 0) & (src < n) & (dst >= 0) & (dst < n) & (pos >= 0)
        hit[hit] = sorted_keys[pos[hit]] == query[hit]
        if not hit.all():
            i = int(np.argmin(hit))
            raise DomainError(f"edge {(int(src[i]), int(dst[i]))} not in parent graph")
        return order[pos]

    def edge_set(self):
        """Set of (src, dst) index pairs; undirected edges normalized to
        (min, max)."""
        if self.directed:
            return {(int(i), int(j)) for i, j in zip(self.src, self.dst)}
        return {
            (min(int(i), int(j)), max(int(i), int(j)))
            for i, j in zip(self.src, self.dst)
        }


@dataclass(frozen=True)
class Backbone:
    """Subset of a parent graph's edges plus summary counts."""

    parent: WeightedGraph
    member_flags: np.ndarray

    def __post_init__(self):
        if len(self.member_flags) != self.parent.num_edges:
            raise DomainError("member_flags length must equal parent edge count")
        self.member_flags.setflags(write=False)

    @property
    def num_edges(self):
        return int(self.member_flags.sum())

    @property
    def total_weight(self):
        w = self.parent.weights[self.member_flags]
        if len(w) == 0:
            return 0
        total = w.sum()
        return int(total) if self.parent.weight_kind == "integer" else float(total)

    def retained_degrees(self):
        k = np.zeros(self.parent.num_nodes, dtype=int)
        src = self.parent.src[self.member_flags]
        np.add.at(k, src, 1)
        if not self.parent.directed:
            dst = self.parent.dst[self.member_flags]
            loop = src != dst
            np.add.at(k, dst[loop], 1)
        return k

    def retained_strengths(self):
        return self.subgraph().strengths()

    def edge_set(self):
        return self.subgraph().edge_set()

    def subgraph(self):
        """The backbone as a standalone WeightedGraph over the parent's nodes."""
        return WeightedGraph(
            num_nodes=self.parent.num_nodes,
            src=self.parent.src[self.member_flags].copy(),
            dst=self.parent.dst[self.member_flags].copy(),
            weights=self.parent.weights[self.member_flags].copy(),
            directed=self.parent.directed,
            weight_kind=self.parent.weight_kind,
            labels=self.parent.labels,
        )


def backbone_from_flags(parent, flags):
    return Backbone(parent=parent, member_flags=np.asarray(flags, dtype=bool).copy())


def backbone_from_edge_subset(parent, pairs):
    """Backbone whose members are the parent edges listed as (src, dst) index
    pairs, an iterable of pairs or an (n, 2) array. Raises DomainError for
    pairs not present in the parent."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    flags = np.zeros(parent.num_edges, dtype=bool)
    flags[parent.edge_index(pairs[:, 0], pairs[:, 1])] = True
    return Backbone(parent=parent, member_flags=flags)


def _merge_multi_edges(src, dst, weights):
    """Merge duplicate (src, dst) pairs by weight summation, keeping the
    first-occurrence order of the surviving pairs."""
    order = {}
    merged_w = []
    merged_src = []
    merged_dst = []
    for i, j, w in zip(src, dst, weights):
        key = (i, j)
        if key in order:
            merged_w[order[key]] += w
        else:
            order[key] = len(merged_w)
            merged_src.append(i)
            merged_dst.append(j)
            merged_w.append(w)
    return merged_src, merged_dst, merged_w


def parse_edge_list(text, directed, weight_kind="integer", round_weights=False):
    """Parse an edge-list stream with lines "src dst weight" (tabs or spaces).

    Lines starting with '#' and blank lines are ignored. Multi-edges are
    merged by summing weights. With ``round_weights`` non-integer weights are
    rounded to the nearest integer before validation (integer mode only).
    """
    if hasattr(text, "read"):
        text = text.read()
    label_to_idx = {}
    labels = []
    src, dst, weights = [], [], []

    def node_id(label):
        if label not in label_to_idx:
            label_to_idx[label] = len(labels)
            labels.append(label)
        return label_to_idx[label]

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'src dst weight', got {stripped!r}", line=lineno)
        try:
            w = float(parts[2])
        except ValueError:
            raise ParseError(f"bad weight {parts[2]!r}", line=lineno) from None
        if not np.isfinite(w) or w <= 0:
            raise DomainError(f"line {lineno}: weight must be positive, got {parts[2]}")
        src.append(node_id(parts[0]))
        dst.append(node_id(parts[1]))
        weights.append(w)

    if not src:
        raise DomainError("empty edge list")

    src, dst, weights = _merge_multi_edges(src, dst, weights)

    if weight_kind == "integer":
        if round_weights:
            weights = [max(1.0, round(w)) for w in weights]
        for w in weights:
            if w != int(w) or w < 1:
                raise DomainError(
                    f"integer weight mode requires whole weights >= 1, got {w}"
                )
        warr = np.array(weights, dtype=np.int64)
    else:
        warr = np.array(weights, dtype=float)

    return WeightedGraph(
        num_nodes=len(labels),
        src=np.array(src, dtype=np.int64),
        dst=np.array(dst, dtype=np.int64),
        weights=warr,
        directed=directed,
        weight_kind=weight_kind,
        labels=tuple(labels),
    )


def serialize_edge_list(g):
    """Serialize to the tab-separated exchange format with original labels,
    one edge per line, sorted by (src, dst) dense index."""
    order = np.lexsort((g.dst, g.src))
    lines = []
    for e in order:
        w = g.weights[e]
        wtxt = str(int(w)) if g.weight_kind == "integer" else repr(float(w))
        lines.append(f"{g.labels[g.src[e]]}\t{g.labels[g.dst[e]]}\t{wtxt}")
    return "\n".join(lines) + "\n"


def directed_view(g):
    """Directed version of ``g``: unchanged if already directed, otherwise
    each undirected edge appears once per orientation with equal weight.
    Self-loops appear once."""
    if g.directed:
        return g
    loop = g.src == g.dst
    rev = ~loop
    src = np.concatenate([g.src, g.dst[rev]])
    dst = np.concatenate([g.dst, g.src[rev]])
    weights = np.concatenate([g.weights, g.weights[rev]])
    return WeightedGraph(
        num_nodes=g.num_nodes,
        src=src,
        dst=dst,
        weights=weights,
        directed=True,
        weight_kind=g.weight_kind,
        labels=g.labels,
    )


def directed_parents(g):
    """Parent edge of each edge of ``directed_view(g)``: edge i < E is parent
    edge i, the rest are the reversed non-loop edges in order."""
    ids = np.arange(g.num_edges)
    if g.directed:
        return ids
    return np.concatenate([ids, ids[g.src != g.dst]])


def collapse_to_undirected(pairs, parent):
    """Backbone of an undirected ``parent`` whose member edges are those with
    at least one orientation present in ``pairs`` (an iterable of directed
    (src, dst) index pairs)."""
    if parent.directed:
        raise DomainError("parent graph must be undirected")
    return backbone_from_edge_subset(parent, pairs)


def neighborhood_order(g):
    """Edge permutation grouping out-edges by source node, each group sorted
    by weight descending with ties broken by destination index ascending."""
    if not g.directed:
        raise DomainError("neighborhoods are defined on directed graphs")
    # lexsort: last key is primary
    return np.lexsort((g.dst, -np.asarray(g.weights, dtype=float), g.src))


def neighborhoods(g):
    """Out-neighborhood index of a directed graph: ``(order, starts)`` with
    node i's out-edges, sorted as by :func:`neighborhood_order`, at
    ``order[starts[i]:starts[i + 1]]``."""
    order = neighborhood_order(g)
    degrees = np.bincount(g.src, minlength=g.num_nodes)
    starts = np.concatenate([[0], np.cumsum(degrees)])
    return order, starts
