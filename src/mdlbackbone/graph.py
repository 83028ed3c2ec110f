"""Weighted graph data model: edge-list ingestion, direction handling and
the out-neighborhood index.

Node labels are arbitrary strings mapped to dense indices 0..N-1 in order of
first appearance; all algorithms operate on the dense indices. Multi-edges
are merged by weight summation at parse time. Parsing works on the bytes
of the text and serializing on whole arrays; a per-line check runs only on
text with non-ASCII whitespace and to locate an input error.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

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
    ``weight_kind == "integer"`` the weights array has an integer dtype,
    every weight is >= 1 and the total weight of :func:`directed_view` (on
    an undirected graph every non-loop weight counts twice) is below 2**53,
    or construction raises DomainError. Below that bound every float sum of
    the weights is exact. For ``"real"`` weights are positive floats.
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
        if self.weight_kind == "integer" and len(self.weights):
            # the directed view's float total is exact below 2**53 and, as
            # rounding is monotone, not below 2**53 where the exact one is not
            w = self.weights
            if w.min() < 1:
                raise DomainError(f"integer weights must be >= 1, got {w.min()}")
            total = w.sum(dtype=float)
            if not self.directed:
                total += w.sum(dtype=float, where=self.src != self.dst)
            if total >= 2.0**53:
                raise DomainError("integer weights require the directed view's "
                                  f"total weight below 2**53, got {total:.17g}")
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
        counted once). Computed once per graph; the array is read-only."""
        return self._node_sums[1]

    @cached_property
    def _node_sums(self):
        """``(out_degrees, strengths)``: :func:`_out_sums` over every edge,
        without and with the weights. Built on first use, kept with the
        graph and read-only, like ``src``."""
        sums = _view_sums(self, None, None), _view_sums(self, None, self.weights)
        for arr in sums:
            arr.setflags(write=False)
        return sums

    @cached_property
    def _key_index(self):
        """``(order, sorted_keys)``: the packed (src, dst) key of every edge
        in its stored orientation, sorted with ties by position, so the last
        edge of a pair sits rightmost. Built on the first
        :meth:`edge_index` call and kept with the graph."""
        keys = np.asarray(self.src, dtype=np.int64) * self.num_nodes + self.dst
        order = np.argsort(keys, kind="stable")
        return order, keys[order]

    def edge_index(self, src, dst):
        """Positions of the edges (src[i], dst[i]), matched in their stored
        orientation; where several edges match a pair, the last one wins.
        For undirected graphs a pair with no stored match then matches the
        reverse orientation. Raises DomainError for a pair not in the
        graph."""
        src = np.asarray(src, dtype=np.int64).reshape(-1)
        dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        n = self.num_nodes
        order, sorted_keys = self._key_index
        inside = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)

        def lookup(a, b):
            query = a * n + b
            at = np.searchsorted(sorted_keys, query, side="right") - 1
            hit = inside & (at >= 0)
            hit[hit] = sorted_keys[at[hit]] == query[hit]
            return at, hit

        pos, hit = lookup(src, dst)
        if not self.directed and not hit.all():
            rev, rev_hit = lookup(dst, src)
            pos = np.where(hit, pos, rev)
            hit |= rev_hit
        if not hit.all():
            i = int(np.argmin(hit))
            raise DomainError(f"edge {(int(src[i]), int(dst[i]))} not in parent graph")
        return order[pos]


@dataclass(frozen=True)
class Backbone:
    """Subset of a parent graph's edges: one bool flag per parent edge."""

    parent: WeightedGraph
    member_flags: np.ndarray

    def __post_init__(self):
        flags = self.member_flags
        if not (isinstance(flags, np.ndarray) and flags.dtype == bool
                and flags.shape == (self.parent.num_edges,)):
            raise DomainError("member_flags must be a bool array with one "
                              "flag per parent edge")
        flags.setflags(write=False)

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

    def retained_strengths(self):
        return _out_sums(self.parent, self.member_flags, self.parent.weights)

    def edge_set(self):
        """Set of the members' (src, dst) index pairs; undirected edges
        normalized to (min, max)."""
        src = self.parent.src[self.member_flags]
        dst = self.parent.dst[self.member_flags]
        if not self.parent.directed:
            src, dst = np.minimum(src, dst), np.maximum(src, dst)
        return set(zip(src.tolist(), dst.tolist()))

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


def _out_sums(g, flags=None, weights=None):
    """Per-node sums, as floats, of ``weights`` (one value per edge of
    ``g``; without them, integer counts) over the out-neighborhoods of
    :func:`directed_view`, restricted to the edges ``flags`` marks. The view
    is not built: every src, then, for an undirected graph, every dst of a
    non-loop edge, is added in that order, the order of the view's edges.
    The out-degrees, without flags or weights, are the graph's own
    read-only array."""
    if flags is None and weights is None:
        return g._node_sums[0]
    return _view_sums(g, flags, weights)


def _view_sums(g, flags, weights):
    """:func:`_out_sums` without the graph's cache: the bincount itself."""
    src, dst = g.src, g.dst
    if flags is not None:
        src, dst = src[flags], dst[flags]
        if weights is not None:
            weights = weights[flags]
    if not g.directed:
        rev = src != dst
        src = np.concatenate([src, dst[rev]])
        if weights is not None:
            weights = np.concatenate([weights, weights[rev]])
    return np.bincount(src, weights=weights, minlength=g.num_nodes)


def _first_in_order(n, keys):
    """Flags of the first ``n`` edges in the lexicographic order of
    ``keys`` (equal-length arrays, primary key first), ties left by
    position. Only the boundary class, the edges whose primary key equals
    the n-th smallest, is sorted: every edge below it is kept whole."""
    primary = keys[0]
    flags = np.zeros(len(primary), dtype=bool)
    if n == 0:
        return flags
    bound = np.partition(primary, n - 1)[n - 1]
    below = primary < bound
    flags[below] = True
    tie = np.flatnonzero(primary == bound)
    # lexsort: last key is primary; it is stable, so ties stay by position
    ranked = np.lexsort([k[tie] for k in reversed(keys)])
    flags[tie[ranked[:n - np.count_nonzero(below)]]] = True
    return flags


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


# ASCII bytes that str.split() treats as whitespace and those at which
# str.splitlines() ends a line (\x1f is whitespace but ends no line), as
# bytes.translate tables: byte b maps to 1 if it is in the class, else to 0.
_SPACE_TABLE = bytes(int(b in b"\t\n\v\f\r\x1c\x1d\x1e\x1f ") for b in range(256))
_BREAK_TABLE = bytes(int(b in b"\n\v\f\r\x1c\x1d\x1e") for b in range(256))
# The non-ASCII characters that str.isspace() accepts; they include every
# non-ASCII line end (\x85, \u2028, \u2029).
_UNICODE_SPACES = (
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
    "\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


def _check_lines(text):
    """The per-line check of an edge list and the locator of its errors:
    raises ParseError or DomainError, with the line number, at the first
    line that is not a comment, blank or "src dst weight" with a positive
    finite weight. Returns the edge lines, their tokens one space apart."""
    lines = []
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
        lines.append(" ".join(parts))
    return "\n".join(lines)


def _edge_spans(text):
    """``(buf, starts, ends)``: the UTF-8 bytes of ``text`` between 8 spaces
    on either side, and the token ``buf[starts[i]:ends[i]]`` for each token
    of an edge line, src dst weight after each other. The bytes are checked
    as arrays: every line must hold 0 or 3 tokens unless its first token
    starts with '#'. Every byte of a multi-byte character is >= 0x80, so
    only text with non-ASCII whitespace, and text that fails the check, goes
    to :func:`_check_lines`."""
    if not text.isascii() and any(c in text for c in _UNICODE_SPACES):
        text = _check_lines(text)
    buf = b"        " + text.encode("utf-8") + b"        "
    space = np.frombuffer(buf.translate(_SPACE_TABLE), dtype=bool)
    # tokens start and end where the flag changes; buf begins and ends in spaces
    edges = np.flatnonzero(space[1:] != space[:-1])
    edges += 1
    del space
    starts, ends = edges[0::2], edges[1::2]
    # the tokens of line i are starts[bounds[i]:bounds[i + 1]]
    breaks = np.flatnonzero(np.frombuffer(buf.translate(_BREAK_TABLE), dtype=bool))
    bounds = np.concatenate([[0], np.searchsorted(starts, breaks), [len(starts)]])
    del breaks
    counts = np.diff(bounds)
    comment = counts > 0
    comment[comment] = (np.frombuffer(buf, dtype=np.uint8)[starts[bounds[:-1][comment]]]
                        == ord("#"))
    if not np.all((counts == 0) | (counts == 3) | comment):
        return _edge_spans(_check_lines(text))  # raises at the first bad line
    if comment.any():
        keep = np.repeat(~comment, counts)
        starts, ends = starts[keep], ends[keep]
    return buf, starts, ends


def _words(buf):
    """Every little-endian 8-byte word of ``buf``: word i is buf[i:i + 8]."""
    return np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))


def _bytes8(b):
    """The word whose 8 bytes are all ``b``."""
    return np.uint64(b * 0x0101010101010101)


def _span_floats(buf, starts, ends):
    """``float`` of each token ``buf[starts[i]:ends[i]]``, or None if it
    rejects one. A token of at most 8 ASCII digits is read from the 8-byte
    word that ends at it, by Lemire's SWAR conversion: its value is below
    1e8, so the double is exact. Every other token goes through ``float``."""
    length = ends - starts
    # bits of the bytes before the token in the word
    pad = np.uint64(8) * (np.uint64(8) - np.minimum(length, 8).astype(np.uint64))
    token = _bytes8(0xFF) << pad
    # the token fills the high bytes; the bytes before it become b"0"
    word = _words(buf)[ends - 8] & token | _bytes8(0x30) & ~token
    # a byte is a digit if its high nibble is 3, also after adding 6
    high = word & _bytes8(0xF0) | (word + _bytes8(0x06) & _bytes8(0xF0)) >> np.uint64(4)
    digits = (length <= 8) & (high == _bytes8(0x33))
    # the digits' values, combined into 4 pairs, 2 quads, then one number
    for mask, mul, shift in ((0x0F0F0F0F0F0F0F0F, 2561, 8),
                             (0x00FF00FF00FF00FF, 6553601, 16),
                             (0x0000FFFF0000FFFF, 42949672960001, 32)):
        word = (word & np.uint64(mask)) * np.uint64(mul) >> np.uint64(shift)
    w = word.astype(float)
    for i in np.flatnonzero(~digits).tolist():
        try:
            w[i] = float(buf[starts[i]:ends[i]].decode())
        except ValueError:
            return None
    return w


def _first_appearance(keys):
    """``(codes, first)`` for an integer array: ``codes[i]`` numbers
    ``keys[i]`` by the order in which the distinct keys first appear, and
    ``first[c]`` is the position where the key of code c first appears.
    One unstable sort: equal keys form a group whatever their order in it,
    and a group's first position is its minimum."""
    if len(keys) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    head = np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
    first = np.minimum.reduceat(order, np.flatnonzero(head))
    rank = np.empty(len(first), dtype=np.int64)
    by_first = np.argsort(first)
    rank[by_first] = np.arange(len(first))
    codes = np.empty(len(keys), dtype=np.int64)
    codes[order] = rank[np.cumsum(head) - 1]
    return codes, first[by_first]


def parse_edge_list(text, directed, weight_kind="integer", round_weights=False):
    """Parse an edge list: a string, or a file object that is read whole.

    Lines end where ``str.splitlines`` ends them: ``\\n``, ``\\r``,
    ``\\r\\n``, ``\\v``, ``\\f``, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028``
    and ``\\u2029``. Tokens are separated by any run of whitespace
    (``str.split``). A line that is blank, or whose first token starts with
    '#', is skipped; '#' elsewhere is part of a token. Every other line is
    "src dst weight", where the weight is any string Python's ``float``
    accepts and must be positive and finite. Node labels are numbered in
    order of first appearance, src before dst. Multi-edges (repeated
    (src, dst) pairs) are merged into the position of their first
    occurrence, their weights summed in the order they appear.

    With ``weight_kind="integer"`` the merged weights must be whole, >= 1
    and below 2**53, the bound up to which a double holds every integer,
    and so must the total weight of :func:`directed_view` (on undirected
    input it counts every non-loop weight twice), which
    :class:`WeightedGraph` checks. ``round_weights`` first rounds each to
    the nearest integer (half to even), with a floor of 1; it raises
    DomainError with ``"real"``, which keeps the merged float weights.

    A line without exactly three tokens, or with a weight ``float``
    rejects, raises ParseError; a weight that is not positive and finite
    raises DomainError. Both name the first offending line, counted from 1.
    An input without edge lines raises DomainError.

    The tokens are found once on the UTF-8 bytes. A weight of at most 8
    ASCII digits is read from those bytes, any other through ``float``.
    Labels of at most 8 bytes are numbered as 8-byte integer keys by one
    sort; if any label is longer, or the text holds a NUL byte, labels are
    numbered through a dict instead. Either way the result is the same.
    """
    if round_weights and weight_kind != "integer":
        raise DomainError("rounding weights requires integer weight mode")
    if hasattr(text, "read"):
        text = text.read()
    buf, starts, ends = _edge_spans(text)
    n = len(starts) // 3
    w = _span_floats(buf, starts[2::3], ends[2::3])
    if w is None or not np.all(np.isfinite(w) & (w > 0)):
        _check_lines(text)  # raises at the first bad line
    if n == 0:
        raise DomainError("empty edge list")
    del text  # a file's text is freed here; only buf is read from now on

    # src and dst interleaved, so labels number in order of first appearance
    label_starts = starts.reshape(n, 3)[:, :2].reshape(-1)
    label_ends = ends.reshape(n, 3)[:, :2].reshape(-1)
    del starts, ends
    length = label_ends - label_starts
    if length.max() <= 8 and b"\0" not in buf:
        # the key of a label is its bytes, zero-padded, as one word: without
        # NUL bytes, equal keys are equal labels
        pad = np.uint64(8) * (np.uint64(8) - length.astype(np.uint64))
        keys = _words(buf)[label_starts] & _bytes8(0xFF) >> pad
        del buf, label_starts, label_ends, length, pad
        codes, first = _first_appearance(keys)
        # S8 drops the zero padding
        labels = b"\n".join(keys[first].view("S8").tolist()).decode().split("\n")
        del keys, first
    else:
        # every byte outside the label tokens becomes a space, so that one
        # split gives the tokens: none holds a byte bytes.split() splits at
        inside = np.zeros(len(buf) + 1, dtype=np.int8)
        inside[label_starts] = 1
        inside[label_ends] = -1
        np.cumsum(inside, out=inside)
        tokens = np.where(inside[:-1].view(bool), np.frombuffer(buf, dtype=np.uint8),
                          np.uint8(ord(" "))).tobytes().split()
        del buf, label_starts, label_ends, length, inside
        # a label not yet seen gets the id len(ids) as it is inserted
        ids = defaultdict()
        ids.default_factory = ids.__len__
        codes = np.fromiter(map(ids.__getitem__, tokens), dtype=np.int64, count=2 * n)
        # The factory refers back to the dict, so that cycle is cut first.
        ids.default_factory = None
        labels = b"\n".join(ids).decode().split("\n")
        del tokens, ids
    num_nodes, labels = len(labels), tuple(labels)
    src, dst = codes[0::2], codes[1::2]

    # merged into the first occurrence; bincount adds in order of appearance
    pair, first = _first_appearance(src * num_nodes + dst)
    src, dst, w = src[first], dst[first], np.bincount(pair, weights=w)

    if weight_kind == "integer":
        if round_weights:
            w = np.maximum(1.0, np.round(w))
        bad = (w != np.floor(w)) | (w < 1) | (w >= 2.0**53)
        if bad.any():
            got = float(w[bad.argmax()])
            raise DomainError("integer weight mode requires whole weights >= 1 "
                              f"and below 2**53, got {got}")
        w = w.astype(np.int64)

    return WeightedGraph(
        num_nodes=num_nodes,
        src=src,
        dst=dst,
        weights=w,
        directed=directed,
        weight_kind=weight_kind,
        labels=labels,
    )


def serialize_edge_list(g):
    """Serialize to the tab-separated exchange format with original labels,
    one edge per line, sorted by (src, dst) dense index."""
    order = np.argsort(g.src * g.num_nodes + g.dst, kind="stable")
    labels = np.array(g.labels, dtype=object)
    w = g.weights[order]
    if g.weight_kind == "integer":
        wtxt = map(str, w.astype(np.int64).tolist())
    else:
        wtxt = map(repr, w.astype(float).tolist())
    rows = zip(labels[g.src[order]].tolist(), labels[g.dst[order]].tolist(), wtxt)
    return "\n".join(map("\t".join, rows)) + "\n"


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
    """Backbone of an undirected ``parent`` whose member edges are the ones
    :meth:`WeightedGraph.edge_index` matches to ``pairs`` (an iterable of
    directed (src, dst) index pairs), either orientation."""
    if parent.directed:
        raise DomainError("parent graph must be undirected")
    return backbone_from_edge_subset(parent, pairs)


def neighborhood_order(g):
    """Edge permutation grouping out-edges by source node, each group sorted
    by weight descending with ties broken by destination index ascending:
    the order of (src, -weight, dst, position), weights compared as floats.

    Two sorts of packed int64 keys. The first, by (src, dst), is unstable:
    it leaves only the runs of equal keys, the parallel edges, out of
    position order, and just those runs are sorted again by position. The
    second, by (src, weight rank), is stable over that order. Both keys are
    below N * max(N, E), so below 2**63 for N and E under 3e9."""
    if not g.directed:
        raise DomainError("neighborhoods are defined on directed graphs")
    src = np.asarray(g.src, dtype=np.int64)
    pair = src * g.num_nodes + g.dst
    by_dst = np.argsort(pair)
    sorted_pair = pair[by_dst]
    same = np.flatnonzero(sorted_pair[1:] == sorted_pair[:-1])
    if len(same):
        # every edge of a run of equal keys, runs in key order
        run = np.union1d(same, same + 1)
        by_dst[run] = by_dst[run][np.lexsort((by_dst[run], sorted_pair[run]))]
    # rank 0 is the heaviest weight
    w = np.asarray(g.weights, dtype=float)
    distinct = np.unique(w)
    rank = len(distinct) - 1 - np.searchsorted(distinct, w)
    key = (src * len(distinct) + rank)[by_dst]
    return by_dst[np.argsort(key, kind="stable")]


def neighborhoods(g):
    """Out-neighborhood index of a directed graph: ``(order, starts)`` with
    node i's out-edges, sorted as by :func:`neighborhood_order`, at
    ``order[starts[i]:starts[i + 1]]``."""
    order = neighborhood_order(g)
    degrees = np.bincount(g.src, minlength=g.num_nodes)
    starts = np.concatenate([[0], np.cumsum(degrees)])
    return order, starts
