"""Weighted graph data model: edge-list ingestion, direction handling and
the out-neighborhood index.

Node labels are arbitrary strings mapped to dense indices 0..N-1 in order of
first appearance; all algorithms operate on the dense indices. Multi-edges
are merged by weight summation at parse time. Parsing works on the UTF-8
bytes of the input, a str or bytes, and serializing on whole arrays; a
per-line check runs only on text with non-ASCII whitespace and to locate an
input error. Labels that are all canonical decimals are keyed by their
values, and keys below the number of label tokens are numbered through a
direct-address table, without a sort.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Immutable weighted graph stored as a dense-indexed edge list.

    ``src``, ``dst`` and ``weights`` are parallel arrays of length E;
    ``src`` and ``dst`` hold node indices in [0, num_nodes), in an integer
    dtype, and num_nodes is >= 0. The weights' dtype is the weight kind,
    :attr:`weight_kind`. Integer weights are each >= 1 and the total weight of
    :func:`directed_view` (on an undirected graph every non-loop weight
    counts twice) is below 2**53; below that bound every float sum of them
    is exact. Float ("real") weights are positive and finite. Arrays
    breaking these rules, or weights of any other dtype, raise DomainError.
    Undirected graphs store each edge once with ``src <= dst`` not enforced;
    duplication into both orientations happens in :func:`directed_view`.
    Graphs compare and hash by identity.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray
    directed: bool
    labels: tuple = field(default=None)

    def __post_init__(self):
        if self.num_nodes < 0:
            raise DomainError(f"num_nodes must be >= 0, got {self.num_nodes}")
        if len(self.src) != len(self.dst) or len(self.src) != len(self.weights):
            raise DomainError("edge arrays must have equal length")
        for name, idx in (("src", self.src), ("dst", self.dst)):
            if idx.dtype.kind not in "iu":
                raise DomainError(f"{name} needs an integer dtype, got {idx.dtype}")
            if len(idx) and (idx.min() < 0 or idx.max() >= self.num_nodes):
                bad = idx[(idx < 0) | (idx >= self.num_nodes)][0]
                raise DomainError(f"{name} holds node {bad}, "
                                  f"outside [0, {self.num_nodes})")
        w = self.weights
        if w.dtype.kind not in "iuf":
            raise DomainError(f"weights need an integer or float dtype, got {w.dtype}")
        if w.dtype.kind == "f":
            bad = ~((w > 0) & (w < np.inf))  # NaN fails both comparisons
            if bad.any():
                raise DomainError("real weights must be positive and finite, "
                                  f"got {w[bad][0]}")
        elif len(w):
            if w.min() < 1:
                raise DomainError(f"integer weights must be >= 1, got {w.min()}")
            if not _total_fits(w, self.src, self.dst, self.directed):
                raise DomainError("integer weights require the directed view's "
                                  "total weight below 2**53")
        if self.labels is None:
            object.__setattr__(
                self, "labels", tuple(str(i) for i in range(self.num_nodes))
            )
        for arr in (self.src, self.dst, self.weights):
            arr.setflags(write=False)

    @property
    def weight_kind(self):
        """``"integer"`` for integer weights, ``"real"`` for float ones."""
        return "real" if self.weights.dtype.kind == "f" else "integer"

    @property
    def num_edges(self):
        return len(self.src)

    @property
    def total_weight(self):
        return _weight_sum(self.weights)

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
        keys = _pair_key(self.src, self.dst, self.num_nodes)
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
            query = _pair_key(a, b, n)
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


@dataclass(frozen=True, eq=False)
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
        return _weight_sum(self.parent.weights[self.member_flags])

    def retained_strengths(self):
        return _out_sums(self.parent, self.member_flags, self.parent.weights)

    def edge_set(self):
        """Set of the members' (src, dst) index pairs; undirected edges
        normalized to (min, max). Parallel undirected edges, such as
        ``a b 3`` and ``b a 2``, fold into one pair, so ``len(edge_set())``
        can be below :attr:`num_edges`."""
        src = self.parent.src[self.member_flags]
        dst = self.parent.dst[self.member_flags]
        if not self.parent.directed:
            src, dst = np.minimum(src, dst), np.maximum(src, dst)
        return set(zip(src.tolist(), dst.tolist()))

    def subgraph(self):
        """The backbone as a standalone WeightedGraph over the parent's nodes."""
        g, flags = self.parent, self.member_flags
        return replace(g, src=g.src[flags], dst=g.dst[flags], weights=g.weights[flags])


def _pair_key(src, dst, n):
    """The int64 key src * n + dst of each pair of node indices below ``n``."""
    return np.asarray(src, dtype=np.int64) * n + np.asarray(dst, dtype=np.int64)


def _require_parent(g, bb):
    """Raise DomainError unless ``bb`` is a backbone of ``g`` itself."""
    if bb.parent is not g:
        raise DomainError("the backbone belongs to another graph")


def _total_fits(w, src, dst, directed):
    """Whether the total of the weights ``w`` over :func:`directed_view`
    (on an undirected graph every non-loop weight counts twice) is below
    2**53, where every float sum of integer weights is exact. The float
    total decides: as rounding is monotone, it is not below 2**53 where the
    exact one is not, and an overflow to inf is past the bound too."""
    with np.errstate(over="ignore"):
        total = w.sum(dtype=float)
        if not directed:
            total += w.sum(dtype=float, where=src != dst)
    return total < 2.0**53


def _weight_sum(w):
    """Sum of the weights ``w``: an int for integer weights, a float for
    real ones, 0 or 0.0 for none."""
    return w.sum().item()


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


def _sample_nodes(num_nodes, sample_cap, seed):
    """The sorted seeded draw of ``sample_cap`` (at least 1, or DomainError)
    distinct nodes, as a read-only array, or None where there are no more
    nodes than that."""
    if sample_cap < 1:
        raise DomainError(f"sample_cap must be at least 1, got {sample_cap}")
    if num_nodes <= sample_cap:
        return None
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.choice(num_nodes, size=sample_cap, replace=False))
    nodes.setflags(write=False)
    return nodes


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


def _decode(data):
    """The str of the UTF-8 bytes ``data``; an invalid byte raises
    ParseError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first invalid one decode; with one more
        # character, their last line is the line of that byte
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"invalid UTF-8 {data[exc.start:exc.end]!r}", line=line) from None


def _utf8(text):
    """The UTF-8 bytes of the edge list ``text``, a str or bytes. ASCII
    bytes are returned as they are. A text with non-ASCII whitespace is
    rewritten by :func:`_check_lines` first, so that only ASCII whitespace
    separates its tokens and ends its lines."""
    if isinstance(text, str):
        data = text.encode("utf-8")
    elif text.isascii():
        return text
    else:
        data, text = text, _decode(text)
    if not text.isascii() and any(c in text for c in _UNICODE_SPACES):
        return _check_lines(text).encode("utf-8")
    return data


def _check_lines(text):
    """The per-line check of an edge list, a str or UTF-8 bytes, and the
    locator of its errors: raises ParseError or DomainError, with the line
    number, at the first line that is not a comment, blank or "src dst
    weight" with a positive finite weight. Returns the edge lines, their
    tokens one space apart."""
    if not isinstance(text, str):
        text = _decode(text)
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
    """``(buf, starts, ends)``: the bytes :func:`_utf8` gives for ``text``
    between 8 spaces on either side, and the token ``buf[starts[i]:ends[i]]``
    for each token of an edge line, src dst weight after each other. The
    bytes are checked as arrays: every line must hold 0 or 3 tokens unless
    its first token starts with '#'. Where the line breaks sit one after
    every third token and nowhere else, the positions of the breaks show
    that at once; otherwise each line's tokens are counted. Every byte of a
    multi-byte character is >= 0x80, so only text with non-ASCII
    whitespace, and text that fails the check, goes to
    :func:`_check_lines`."""
    buf = b"        " + _utf8(text) + b"        "
    space = np.frombuffer(buf.translate(_SPACE_TABLE), dtype=bool)
    # tokens start and end where the flag changes; buf begins and ends in spaces
    edges = np.flatnonzero(space[1:] != space[:-1])
    edges += 1
    del space
    starts, ends = edges[0::2], edges[1::2]
    breaks = np.flatnonzero(np.frombuffer(buf.translate(_BREAK_TABLE), dtype=bool))
    # the usual layout: one line break after every third token, none
    # elsewhere (the last line may end the text), and no line starting
    # with '#'
    n = len(starts) // 3
    if (len(starts) == 3 * n and n - 1 <= len(breaks) <= n
            and np.all(ends[2::3][:len(breaks)] <= breaks)
            and np.all(breaks[:n - 1] < starts[3::3])
            and not np.any(np.frombuffer(buf, dtype=np.uint8)[starts[0::3]] == ord("#"))):
        return buf, starts, ends
    # the tokens of line i are starts[bounds[i]:bounds[i + 1]]
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


# tokens per block of :func:`_span_digits`: 64k tokens keep a block's
# 8-byte temporaries within 512 KiB each; on 2M labels and a 2-vCPU host a
# whole-array pass took 80 ms and blocks of 16k-64k tokens 45-48 ms
_SWAR_BLOCK = 1 << 16


def _words(buf):
    """Every little-endian 8-byte word of ``buf``: word i is buf[i:i + 8]."""
    return np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))


def _bytes8(b):
    """The word whose 8 bytes are all ``b``."""
    return np.uint64(b * 0x0101010101010101)


def _span_digits(buf, starts, ends):
    """``(value, digits)``: ``digits[i]`` tells whether the token
    ``buf[starts[i]:ends[i]]`` is at most 8 ASCII digits, and then
    ``value[i]`` (uint64) is its decimal value. The token is read from the
    8-byte word that starts at it by Lemire's SWAR conversion, a block of
    tokens at a time, so that the temporaries of a block stay in cache."""
    words = _words(buf)
    value = np.empty(len(starts), dtype=np.uint64)
    digits = np.empty(len(starts), dtype=bool)
    for lo in range(0, len(starts), _SWAR_BLOCK):
        block = slice(lo, lo + _SWAR_BLOCK)
        length = ends[block] - starts[block]
        ok = length <= 8
        # bits of the word that lie after the token
        pad = np.minimum(length, 8, out=length)
        pad *= -8
        pad += 64
        pad = pad.view(np.uint64)
        # the token moves to the high bytes, and zero bytes fill those below it
        word = words[starts[block]]
        word <<= pad
        # a byte is a digit if its high nibble is 3, also after adding 6; the
        # zero bytes below the token give 0, which is what they are matched to
        high = word + _bytes8(0x06)
        high &= _bytes8(0xF0)
        high >>= np.uint64(4)
        high |= word & _bytes8(0xF0)
        digits[block] = ok & (high == np.left_shift(_bytes8(0x33), pad, out=pad))
        # the digits' values, combined into 4 pairs, 2 quads, then one number
        for mask, mul, shift in ((0x0F0F0F0F0F0F0F0F, 2561, 8),
                                 (0x00FF00FF00FF00FF, 6553601, 16),
                                 (0x0000FFFF0000FFFF, 42949672960001, 32)):
            word &= np.uint64(mask)
            word *= np.uint64(mul)
            word >>= np.uint64(shift)
        value[block] = word
    return value, digits


def _span_floats(buf, starts, ends):
    """``float`` of each token ``buf[starts[i]:ends[i]]``, or None if it
    rejects one. A token of at most 8 ASCII digits is read by
    :func:`_span_digits`: its value is below 1e8, so the double is exact.
    Every other token goes through ``float``."""
    value, digits = _span_digits(buf, starts, ends)
    w = value.astype(float)
    for i in np.flatnonzero(~digits).tolist():
        try:
            w[i] = float(buf[starts[i]:ends[i]].decode())
        except ValueError:
            return None
    return w


def _decimal_keys(buf, starts, ends):
    """The decimal value (uint64) of every token ``buf[starts[i]:ends[i]]``
    where each is a canonical decimal: at most 8 ASCII digits, without a
    leading zero unless it is "0". Only then is ``str(value)`` the token
    itself, so "07" and "7" stay apart. None where a token is not."""
    lead = np.frombuffer(buf, dtype=np.uint8)[starts]
    # first bytes only, so that other labels skip the SWAR pass
    if not np.all((lead >= np.uint8(ord("1"))) & (lead <= np.uint8(ord("9")))
                  | (lead == np.uint8(ord("0"))) & (ends - starts == 1)):
        return None
    del lead
    value, digits = _span_digits(buf, starts, ends)
    return value if digits.all() else None


def _first_appearance(keys):
    """``(codes, first)`` for an integer array: ``codes[i]`` numbers
    ``keys[i]`` by the order in which the distinct keys first appear, and
    ``first[c]`` is the position where the key of code c first appears.

    Keys that all lie in [0, len(keys)) are numbered through a
    direct-address table of first positions, no longer than the keys, so
    without a sort. Any others take one unstable sort: equal keys form a
    group whatever their order in it, and a group's first position is its
    minimum."""
    n = len(keys)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if keys.min() >= 0 and keys.max() < n:
        # table[k] is the first position of the key k, n where k is absent
        table = np.full(n, n, dtype=np.int64)
        np.minimum.at(table, keys, np.arange(n))
        mark = np.zeros(n, dtype=bool)
        mark[table[table < n]] = True
        first = np.flatnonzero(mark)
        del mark
        # table[k] becomes the code of the key k
        table[keys[first]] = np.arange(len(first))
        return table[keys], first
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


def parse_edge_list(text, directed, round_weights=False):
    """Parse an edge list: a str, bytes, or a text or binary file object
    that is read whole. Bytes are decoded as UTF-8.

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

    The merged weights decide the weight kind. They are integer (int64)
    where every one is whole and the total weight of :func:`directed_view`
    (on undirected input it counts every non-loop weight twice) is below
    2**53, the rule :class:`WeightedGraph` holds integer weights to, and
    real (float64) otherwise. ``round_weights`` first rounds each to the
    nearest integer (half to even), with a floor of 1.

    A line without exactly three tokens, or with a weight ``float``
    rejects, raises ParseError; a weight that is not positive and finite
    raises DomainError. Both name the first offending line, counted from 1.
    So does the ParseError of bytes that are not valid UTF-8. An input
    without edge lines raises DomainError.

    The tokens are found once on the UTF-8 bytes: ASCII bytes are read as
    they are, a str is encoded. A weight of at most 8 ASCII digits is read
    from those bytes, any other through ``float``. Each label gets an
    integer key. Where every label is a canonical decimal, at most 8 ASCII
    digits without a leading zero unless it is "0", the key is its value,
    and ``str`` of the value gives the label back ("07" is not one, so it
    stays apart from "7"). Otherwise, where every label has at most 8 bytes
    and the text holds no NUL byte, the key is the label's bytes as one
    zero-padded 8-byte word. Keys that all lie below the number of label
    tokens are numbered through a direct-address table of first positions,
    other keys by one sort. If neither key fits, labels are numbered
    through a dict. Every path gives the same result.
    """
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
    keys = _decimal_keys(buf, label_starts, label_ends)
    decimal = keys is not None
    if not decimal:
        length = label_ends - label_starts
        if length.max() <= 8 and b"\0" not in buf:
            # the key of a label is its bytes, zero-padded, as one word:
            # without NUL bytes, equal keys are equal labels
            pad = np.uint64(8) * (np.uint64(8) - length.astype(np.uint64))
            keys = _words(buf)[label_starts] & _bytes8(0xFF) >> pad
            del pad
        del length
    if keys is not None:
        del buf, label_starts, label_ends
        codes, first = _first_appearance(keys)
        if decimal:
            labels = list(map(str, keys[first].tolist()))
        else:
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
        del buf, label_starts, label_ends, inside
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

    pair = _pair_key(src, dst, num_nodes)
    sorted_pair = np.sort(pair)
    if np.any(sorted_pair[1:] == sorted_pair[:-1]):
        # merged into the first occurrence; bincount adds in order of appearance
        pair, first = _first_appearance(pair)
        src, dst, w = src[first], dst[first], np.bincount(pair, weights=w)
    else:
        src, dst = np.ascontiguousarray(src), np.ascontiguousarray(dst)

    if round_weights:
        w = np.maximum(1.0, np.round(w))
    # positive whole weights are >= 1, and below 2**53 where their total is
    if np.all(w == np.floor(w)) and _total_fits(w, src, dst, directed):
        w = w.astype(np.int64)

    return WeightedGraph(num_nodes, src, dst, w, directed, labels)


def serialize_edge_list(g):
    """Serialize to the tab-separated exchange format with original labels,
    one edge per line, sorted by (src, dst) dense index; a graph without
    edges gives the empty string."""
    order = np.argsort(_pair_key(g.src, g.dst, g.num_nodes), kind="stable")
    labels = np.array(g.labels, dtype=object)
    rows = zip(labels[g.src[order]].tolist(), labels[g.dst[order]].tolist(),
               map(repr, g.weights[order].tolist()))
    return "\n".join(map("\t".join, rows)) + "\n" if g.num_edges else ""


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
    return replace(g, src=src, dst=dst, weights=weights, directed=True)


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
    lexsort is stable, so position breaks the last ties."""
    if not g.directed:
        raise DomainError("neighborhoods are defined on directed graphs")
    return np.lexsort((g.dst, -g.weights.astype(float), g.src))


def neighborhoods(g):
    """Out-neighborhood index of a directed graph: ``(order, starts)`` with
    node i's out-edges, sorted as by :func:`neighborhood_order`, at
    ``order[starts[i]:starts[i + 1]]``."""
    order = neighborhood_order(g)
    degrees = np.bincount(g.src, minlength=g.num_nodes)
    starts = np.concatenate([[0], np.cumsum(degrees)])
    return order, starts
