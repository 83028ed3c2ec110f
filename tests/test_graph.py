import io
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdlbackbone import graph
from mdlbackbone.errors import DomainError, ParseError
from mdlbackbone.graph import (
    _UNICODE_SPACES,
    Backbone,
    WeightedGraph,
    _first_appearance,
    _span_digits,
    backbone_from_edge_subset,
    backbone_from_flags,
    collapse_to_undirected,
    directed_view,
    neighborhoods,
    parse_edge_list,
    serialize_edge_list,
)
from mdlbackbone.solver import greedy_global
from mdlbackbone.synth import dirichlet_multinomial_weights

from conftest import assert_integer_objectives_refuse, make_graph


class TestParse:
    def test_basic(self):
        g = parse_edge_list("a b 3\nb c 1", directed=True)
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert g.total_weight == 4
        assert g.labels == ("a", "b", "c")

    def test_multi_edge_merge(self):
        g = parse_edge_list("a b 2\na b 3", directed=True)
        assert g.num_edges == 1
        assert g.total_weight == 5

    def test_round_weights(self):
        g = parse_edge_list("a b 1.6", directed=True, round_weights=True)
        assert g.weights[0] == 2

    def test_round_weights_floor_one(self):
        g = parse_edge_list("a b 0.2", directed=True, round_weights=True)
        assert g.weights[0] == 1

    def test_comments_and_blanks(self):
        g = parse_edge_list("# header\n\na b 1\n  # another\nb c 2\n",
                            directed=True)
        assert g.num_edges == 2

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("a b 1\na b\n", directed=True)
        assert "2" in str(err.value)

    def test_token_count_is_checked_per_line(self):
        # six tokens in all, but two on line 1
        with pytest.raises(ParseError) as err:
            parse_edge_list("1 2\n3 4 5 6", directed=True)
        assert err.value.line == 1

    def test_nonpositive_weight(self):
        with pytest.raises(DomainError):
            parse_edge_list("a b 0", directed=True)
        with pytest.raises(DomainError):
            parse_edge_list("a b -3", directed=True)

    def test_empty_input(self):
        with pytest.raises(DomainError):
            parse_edge_list("# nothing\n", directed=True)

    def test_fractional_weight_without_rounding(self):
        g = parse_edge_list("a b 1.5\na c 1", directed=True)
        assert (g.weight_kind, g.weights.tolist()) == ("real", [1.5, 1.0])
        assert_integer_objectives_refuse(g)

    def test_integer_weight_beyond_int64(self):
        g = parse_edge_list("a b 1e19", directed=True)
        assert (g.weight_kind, g.weights.tolist()) == ("real", [1e19])
        assert_integer_objectives_refuse(g)

    def test_directed_view_total_beyond_int64(self):
        # each weight fits int64, their total does not; each is past 2**53
        text = "a b 4611686018427387904\na c 4611686018427387904\na a 2"
        for directed in (True, False):
            g = parse_edge_list(text, directed=directed)
            assert g.weight_kind == "real"
            assert g.weights.tolist() == [2.0**62, 2.0**62, 2.0]
            assert_integer_objectives_refuse(g)

    def test_real_mode(self):
        g = parse_edge_list("a b 1.5", directed=True)
        assert g.weights.dtype == float
        assert g.total_weight == 1.5

    @pytest.mark.parametrize("source", [bytes, io.BytesIO, io.StringIO],
                             ids=["bytes", "binary-file", "text-file"])
    def test_bytes_and_files(self, source):
        text = "\u00e9 b 2\n# \u65e5\n10 b 1.5\n\u00e9 b 3\n"
        data = text.encode() if source is not io.StringIO else text
        g = parse_edge_list(source(data), directed=True)
        assert g.labels == ("\u00e9", "b", "10")
        assert (g.src.tolist(), g.dst.tolist(), g.weights.tolist()) == (
            [0, 2], [1, 1], [5.0, 1.5])

    @pytest.mark.parametrize("data, line", [
        (b"a b 1\n\xff c 2\n", 2),
        (b"\xfe", 1),
        (b"a b 1\r\n\xc3\xa9 c 2\r\n# \xc3", 3),
        # a lone \r ends a line; \x1c ends one too
        (b"a b 1\r\xe9 c 2", 2),
        (b"a b 1\x1c\n\xe9 c 2", 3),
    ])
    @pytest.mark.parametrize("source", [bytes, io.BytesIO], ids=["bytes", "binary-file"])
    def test_invalid_utf8_names_its_line(self, data, line, source):
        with pytest.raises(ParseError, match="invalid UTF-8") as err:
            parse_edge_list(source(data), directed=True)
        assert err.value.line == line

    def test_serialize_round_trip_stable(self):
        text = "c a 2\na b 5\nb c 1\n"
        g1 = parse_edge_list(text, directed=True)
        once = serialize_edge_list(g1)
        g2 = parse_edge_list(once, directed=True)
        twice = serialize_edge_list(g2)
        assert once == twice
        edges1 = {(g1.labels[i], g1.labels[j]) for i, j in zip(g1.src, g1.dst)}
        edges2 = {(g2.labels[i], g2.labels[j]) for i, j in zip(g2.src, g2.dst)}
        assert edges1 == edges2


class TestIntegerWeightBound:
    """Integer weights are whole and >= 1, and the directed view's total is
    below 2**53, where every float sum of them is exact. The graph type
    holds integer weights to that rule; the parser reads whole weights past
    it as real, which every integer objective refuses."""

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("weight", ["9007199254740993", "1e19", "1e308"])
    def test_weight_at_or_beyond_the_bound(self, weight, directed):
        # 2**53 + 1 reads as the double 2**53; 1e19 is beyond int64; 1e308
        # counted twice overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = parse_edge_list(f"a b {weight}", directed=directed)
        assert (g.weight_kind, g.weights.tolist()) == ("real", [float(weight)])
        assert_integer_objectives_refuse(g)

    def test_directed_total_at_the_bound(self):
        g = parse_edge_list("a b 9007199254740990\na c 1", directed=True)
        assert g.weight_kind == "integer"
        assert g.total_weight == 2**53 - 1
        assert g.strengths().tolist() == [2**53 - 1, 0, 0]
        g = parse_edge_list("a b 9007199254740990\na c 2", directed=True)
        assert (g.weight_kind, g.total_weight) == ("real", 2.0**53)
        assert_integer_objectives_refuse(g)

    def test_undirected_counts_non_loops_twice(self):
        half = "a b 4503599627370496"
        assert parse_edge_list(half, directed=True).total_weight == 2**52
        g = parse_edge_list(half, directed=False)
        assert (g.weight_kind, g.total_weight) == ("real", 2.0**52)
        assert_integer_objectives_refuse(g)
        # a self-loop counts once
        g = parse_edge_list("a a 4503599627370496\na b 1", directed=False)
        assert g.strengths().tolist() == [2**52 + 1, 1]

    def test_the_type_holds_the_bound(self):
        with pytest.raises(DomainError, match=r"total weight below 2\*\*53"):
            make_graph([0, 0], [1, 2], [2**52, 2**52])
        with pytest.raises(DomainError, match=r"total weight below 2\*\*53"):
            make_graph([0], [1], [2**52], directed=False)
        with pytest.raises(DomainError, match=">= 1"):
            make_graph([0, 0], [1, 2], [0, 3])
        with pytest.raises(DomainError, match=r"total weight below 2\*\*53"):
            dirichlet_multinomial_weights(3, 1, 2**53, 1.0, 1.0, seed=1)
        inst = dirichlet_multinomial_weights(3, 1, 2**53 - 1, 1.0, 1.0, seed=1)
        assert inst.graph.total_weight == 2**53 - 1
        assert make_graph([0], [1], [2**53], weight_kind="real").total_weight == 2.0**53


def _merge_multi_edges_reference(src, dst, weights):
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


def parse_edge_list_reference(text, directed, round_weights=False):
    """The per-line parser that the array parser replaced, kept as its
    oracle. It infers the weight kind in exact integer arithmetic."""
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

    src, dst, weights = _merge_multi_edges_reference(src, dst, weights)

    if round_weights:
        # a float, as the parser's np.round leaves it
        weights = [max(1.0, float(round(w))) for w in weights]
    # integer where every weight is whole and the directed view, which
    # counts the non-loop weights of an undirected graph twice, totals
    # below 2**53
    whole = all(w == int(w) for w in weights)
    if whole and sum(int(w) * (1 if directed or i == j else 2)
                     for i, j, w in zip(src, dst, weights)) < 2**53:
        warr = np.array(weights, dtype=np.int64)
    else:
        warr = np.array(weights, dtype=float)

    return WeightedGraph(
        num_nodes=len(labels),
        src=np.array(src, dtype=np.int64),
        dst=np.array(dst, dtype=np.int64),
        weights=warr,
        directed=directed,
        labels=tuple(labels),
    )


# "0007" to "123456789" sit at the 8-digit edge of the word conversion; the
# 16-digit ones are 2**53 - 1, 2**53, 2**53 + 1 and 10**16 - 1
GOOD_WEIGHTS = ["1", "2", "3", "1_0", "1.5", "0.5", "2e0", "\u0663", "0007",
                "99999999", "123456789", "9007199254740991", "9007199254740992",
                "9007199254740993", "9999999999999999"]
# "/" and ":" are the bytes either side of the digits
BAD_WEIGHTS = ["x", "nan", "inf", "0", "-1", "1/", "1:"]
LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"]
SEPARATORS = [" ", "\t", "\x1f", " \t ", "\t\t"]
MARGINS = ["", " ", "\t", "\x1f"]
# the non-ASCII characters str.isspace() accepts; \x85, \u2028 and \u2029
# also end a line
UNICODE_SPACES = [chr(c) for c in [0x85, 0xA0, 0x1680, *range(0x2000, 0x200B),
                                   0x2028, 0x2029, 0x202F, 0x205F, 0x3000]]


def test_unicode_spaces_are_every_non_ascii_space():
    assert _UNICODE_SPACES == "".join(UNICODE_SPACES)
    assert UNICODE_SPACES == [c for c in map(chr, range(0x80, 0x110000)) if c.isspace()]


# canonical decimals, whose values number them: at most 8 ASCII digits
# without a leading zero; the small ones fit the direct-address table
DECIMAL_LABELS = ["0", "1", "2", "3", "7", "10", "99999999"]
# decimal but not canonical ("07" and "7" are two labels), too long, or
# read by int() but not ASCII digits
NON_CANONICAL_LABELS = ["07", "007", "100000000", "+1", "1_0", "\u0663"]


@st.composite
def edge_texts(draw):
    """Edge-list texts over a few labels, ASCII and not: edge lines
    (repeated pairs are likely), blank and comment lines, every line end
    and whitespace byte that ends or splits a line, and in half of them one
    or two non-ASCII whitespace characters too; half of them also with
    malformed lines and bad weights. A third of them have word labels, half
    of those also labels the word keys cannot hold: over 8 bytes, or with a
    NUL byte. A third have canonical decimal labels only, and a third mix
    them with decimals that are not canonical."""
    valid = draw(st.booleans())
    label_kind = draw(st.sampled_from(["words", "decimal", "mixed"]))
    # "abcdefgh" and "\U0001f600\U0001f600" are 8 bytes long
    labels = ["a", "b", "c", "0", "00", "x#y", "#z", "\xe9", "\xfc1", "\u65e5\u672c",
              "\U0001f600", "abcdefgh", "\U0001f600\U0001f600"]
    if label_kind == "decimal":
        labels = DECIMAL_LABELS
    elif label_kind == "mixed":
        labels = DECIMAL_LABELS + NON_CANONICAL_LABELS
    elif draw(st.booleans()):
        # "\u65e5\u672c\u8a9e" is 9 bytes long
        labels += ["abcdefghi", "a\x00", "\x00", "\u65e5\u672c\u8a9e"]
    weights = GOOD_WEIGHTS + ([] if valid else BAD_WEIGHTS)
    kinds = ["edge"] * 6 + ["blank", "comment", "indented comment"]
    if not valid:
        kinds += ["two", "four"]
    separators, line_ends = SEPARATORS, LINE_ENDS
    if draw(st.booleans()):
        # one or two of them per text, so each is often the only one
        extra = draw(st.lists(st.sampled_from(UNICODE_SPACES), min_size=1,
                              max_size=2, unique=True))
        separators, line_ends = SEPARATORS + extra, LINE_ENDS + extra
    lines = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=8)):
        sep = draw(st.sampled_from(separators))
        if kind == "blank":
            body = sep
        elif kind == "comment":
            body = "#" + sep.join(draw(st.lists(st.sampled_from(labels), max_size=3)))
        elif kind == "indented comment":
            body = sep + "# a b 1"
        else:
            n = {"edge": 2, "two": 1, "four": 3}[kind]
            tokens = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
            body = sep.join(tokens + [draw(st.sampled_from(weights))])
        margin = draw(st.sampled_from(MARGINS))
        lines.append(margin + body + draw(st.sampled_from(MARGINS)))
        lines.append(draw(st.sampled_from(line_ends)))
    if lines and draw(st.booleans()):
        lines.pop()
    return "".join(lines)


def _parse_outcome(parse, *args):
    try:
        g = parse(*args)
    except (ParseError, DomainError) as exc:
        return type(exc), str(exc)
    return (g.labels, g.num_nodes, g.src.tolist(), g.dst.tolist(),
            g.weights.dtype, g.weights.tolist(), g.directed, g.weight_kind)


class TestParseOracle:
    @given(text=edge_texts(), directed=st.booleans(), round_weights=st.booleans())
    @example(text="1 2\n3 4 5 6", directed=True, round_weights=False)
    @example(text="a\ta 9007199254740993", directed=True, round_weights=True)
    @example(text="a b 1:", directed=True, round_weights=False)
    @example(text="a b 1/", directed=True, round_weights=False)
    # the directed view totals 2**53 - 1, then 2**53: integer, then real
    @example(text="a b 4503599627370495\nb b 1", directed=False, round_weights=False)
    @example(text="a b 4503599627370496\nb b 1", directed=False, round_weights=False)
    # 4 label tokens: the largest decimal is 3, in the table, then 4, past it
    @example(text="0 1 1\n1 3 1", directed=True, round_weights=False)
    @example(text="0 1 1\n1 4 1", directed=True, round_weights=False)
    @example(text="7 0 1\n07 0 2\n0 7 3\n1 2 1", directed=True, round_weights=False)
    # six tokens and two line breaks, as two edge lines have, but 4 + 2
    @example(text="a b 2 1\nd 1\n", directed=True, round_weights=False)
    @settings(max_examples=400, deadline=None)
    def test_matches_per_line_reference(self, text, directed, round_weights):
        expected = _parse_outcome(parse_edge_list_reference, text, directed, round_weights)
        # the same outcome from the str, its UTF-8 bytes and a binary file
        for source in (text, text.encode(), io.BytesIO(text.encode())):
            assert _parse_outcome(parse_edge_list, source, directed, round_weights) == expected


def _first_appearance_reference(keys):
    ids = {}
    codes = [ids.setdefault(k, len(ids)) for k in keys]
    first = {}
    for i, c in enumerate(codes):
        first.setdefault(c, i)
    return codes, list(first.values())


INT64 = np.iinfo(np.int64)
EXTREMES = [INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max]


@st.composite
def dense_keys(draw):
    """Non-negative keys at the edge of the direct-address table: repeats
    of 0..n-1, or keys whose maximum is exactly their count less one, or
    exactly their count."""
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        repeats = draw(st.integers(1, 4))
        return draw(st.permutations(list(range(n)) * repeats))
    top = n - draw(st.integers(0, 1))
    keys = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    keys[draw(st.integers(0, n - 1))] = top
    return keys


class TestFirstAppearance:
    @given(keys=st.one_of(
        st.lists(st.integers(INT64.min, INT64.max), max_size=50),
        dense_keys(),
        # small keys of either sign, some of them inside the table's range
        st.lists(st.integers(-8, 8), max_size=30),
        # heavy repeats, of the extremes among others
        st.lists(st.sampled_from(EXTREMES), max_size=200),
        # all keys equal
        st.builds(lambda k, n: [k] * n, st.sampled_from(EXTREMES), st.integers(1, 50)),
    ))
    @example(keys=[])
    @example(keys=[7])
    # the largest key is the count less one (the table), then the count
    @example(keys=[1, 1, 0])
    @example(keys=[3, 1, 0])
    # -2 and 0 would share a slot of a table of 2 if negative keys took it
    @example(keys=[-2, 0])
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_loop(self, keys):
        expected = _first_appearance_reference(keys)
        signed = np.array(keys, dtype=np.int64)
        # the parser's keys are unsigned; the view keeps which are equal
        for arr in (signed, signed.view(np.uint64)):
            codes, first = _first_appearance(arr)
            assert codes.dtype == first.dtype == np.int64
            assert (codes.tolist(), first.tolist()) == expected


class TestSpanDigits:
    # "/" and ":" are the bytes either side of the digits; 0xFA and 0xFF
    # carry out of their byte when 6 is added
    @given(tokens=st.lists(st.text("0123456789/:a\xfa\xff", min_size=1, max_size=10),
                           min_size=1, max_size=40),
           block=st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_matches_int_in_every_block(self, tokens, block):
        data = [t.encode("latin-1") for t in tokens]
        buf = b" " * 8 + b" ".join(data) + b" " * 8
        ends = np.cumsum([len(t) + 1 for t in data]) + 7
        starts = ends - [len(t) for t in data]
        with mock.patch.object(graph, "_SWAR_BLOCK", block):
            value, digits = _span_digits(buf, starts, ends)
        expected = [t.isdigit() and len(t) <= 8 for t in data]
        assert digits.tolist() == expected
        assert [int(t) for t, d in zip(data, expected) if d] == value[digits].tolist()


class TestGraph:
    def test_strengths_undirected(self):
        g = make_graph([0, 1], [1, 2], [3, 4], directed=False)
        assert list(g.strengths()) == [3, 7, 4]

    def test_strengths_self_loop_counted_once(self):
        g = make_graph([0, 0], [0, 1], [2, 3], directed=False)
        assert list(g.strengths()) == [5, 3]

    def test_directed_view_identity(self):
        g = make_graph([0, 1], [1, 2], [3, 4], directed=True)
        assert directed_view(g) is g

    def test_directed_view_duplicates(self):
        g = make_graph([0, 1, 2], [1, 2, 0], [1, 1, 1], directed=False)
        dg = directed_view(g)
        assert dg.num_edges == 6
        assert dg.total_weight == 2 * g.total_weight

    def test_directed_view_single_edge(self):
        g = make_graph([0], [1], [3], directed=False)
        dg = directed_view(g)
        assert set(zip(dg.src.tolist(), dg.dst.tolist())) == {(0, 1), (1, 0)}
        assert all(dg.weights == 3)

    def test_directed_view_self_loop_once(self):
        g = make_graph([0], [0], [2], directed=False)
        dg = directed_view(g)
        assert dg.num_edges == 1

    def test_collapse_to_undirected(self):
        g = make_graph([0, 1], [1, 2], [3, 4], directed=False)
        bb = collapse_to_undirected({(1, 0)}, g)
        assert bb.edge_set() == {(0, 1)}
        bb2 = collapse_to_undirected({(0, 1), (1, 0)}, g)
        assert bb2.edge_set() == {(0, 1)}
        assert collapse_to_undirected(set(), g).num_edges == 0

    def test_backbone_from_edge_subset_rejects_foreign(self):
        g = make_graph([0], [1], [3], directed=True)
        with pytest.raises(DomainError):
            backbone_from_edge_subset(g, [(1, 0)])

    def test_backbone_accessors(self):
        g = make_graph([0, 0, 1], [1, 2, 2], [5, 1, 2], directed=True)
        bb = backbone_from_flags(g, [True, False, True])
        assert bb.num_edges == 2
        assert bb.total_weight == 7
        sub = bb.subgraph()
        assert sub.num_edges == 2
        assert sub.num_nodes == g.num_nodes
        assert (sub.labels, sub.directed, sub.weight_kind) == (g.labels, True, "integer")

    def test_backbone_rejects_flags_not_one_bool_per_edge(self):
        # integer flags would index the parent's arrays as positions
        g = make_graph([0, 0, 1], [1, 2, 2], [5, 7, 11], directed=True)
        for flags in (
            np.array([1, 0, 0]),
            np.array([1.0, 0.0, 0.0]),
            [True, False, False],
            np.array([True, False]),
            np.ones((3, 1), dtype=bool),
        ):
            with pytest.raises(DomainError):
                Backbone(parent=g, member_flags=flags)


class TestWeightKind:
    """The weights' dtype is the weight kind; the constructor checks the
    weights against it."""

    def test_float_weights_are_real(self):
        g = WeightedGraph(3, np.array([0, 0]), np.array([1, 2]),
                          np.array([1.5, 2.25]), True)
        assert g.weight_kind == "real"
        assert g.total_weight == 3.75
        assert serialize_edge_list(g) == "0\t1\t1.5\n0\t2\t2.25\n"
        with pytest.raises(DomainError, match="requires integer weights"):
            greedy_global(g)
        und = make_graph(g.src, g.dst, g.weights, directed=False, weight_kind="real")
        for derived in (directed_view(und), backbone_from_flags(g, [True, False]).subgraph()):
            assert (derived.labels, derived.weight_kind) == (g.labels, "real")

    @pytest.mark.parametrize("weights, message", [
        *(pytest.param([1.5, bad], "positive and finite", id=str(bad))
          for bad in (0.0, -1.0, np.nan, np.inf)),
        *(pytest.param(np.array([1, 1], dtype=dtype), "integer or float dtype",
                       id=dtype.__name__) for dtype in (bool, object)),
    ])
    def test_weights_outside_their_kind_rejected(self, weights, message):
        with pytest.raises(DomainError, match=message):
            WeightedGraph(3, np.array([0, 0]), np.array([1, 2]), np.asarray(weights), True)


class TestNodeIndices:
    """``src`` and ``dst`` hold node indices of the graph in an integer dtype,
    and the graph has at least 0 nodes."""

    @pytest.mark.parametrize("src, dst, message", [
        ([0, -1], [1, 0], "src holds node -1, outside \\[0, 2\\)"),
        ([0, 3], [1, 0], "src holds node 3, outside \\[0, 2\\)"),
        ([0, 1], [2, 0], "dst holds node 2, outside \\[0, 2\\)"),
        (np.array([0.0, 1.0]), [1, 0], "src needs an integer dtype, got float64"),
        ([0, 1], np.array([True, False]), "dst needs an integer dtype, got bool"),
    ])
    def test_rejected(self, src, dst, message):
        with pytest.raises(DomainError, match=message):
            WeightedGraph(2, np.asarray(src), np.asarray(dst), np.array([1, 2]), True)

    @pytest.mark.parametrize("num_nodes", [-1, -5])
    def test_negative_node_count_rejected(self, num_nodes):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(DomainError, match=f"num_nodes must be >= 0, got {num_nodes}"):
            WeightedGraph(num_nodes, empty, empty, empty, True)

    def test_every_index_in_range_accepted(self):
        for dtype in (np.int32, np.int64, np.uint64):
            g = WeightedGraph(2, np.array([0, 1], dtype=dtype), np.array([1, 1], dtype=dtype),
                              np.array([1, 2]), False)
            assert serialize_edge_list(g) == "0\t1\t1\n1\t1\t2\n"
        empty = np.zeros(0, dtype=np.int64)
        assert WeightedGraph(0, empty, empty, empty, True).num_edges == 0

    def test_int32_indices_serialize_sorted(self):
        # 30000 * 100000 + 0 overflows int32; the sort key is packed in int64
        g = WeightedGraph(100000, np.array([30000, 1], dtype=np.int32),
                          np.array([0, 2], dtype=np.int32), np.array([1, 2]), True)
        assert serialize_edge_list(g) == "1\t2\t2\n30000\t0\t1\n"

    def test_no_edges_serialize_to_the_empty_string(self):
        empty = np.zeros(0, dtype=np.int64)
        assert serialize_edge_list(WeightedGraph(3, empty, empty, empty, True)) == ""


class TestNeighborhoods:
    def test_star_order(self, star_graph):
        order, starts = neighborhoods(star_graph)
        sel = order[starts[0]:starts[1]]
        assert len(sel) == 4
        assert star_graph.weights[sel].sum() == 8
        # weight-descending, ties by destination index
        assert list(star_graph.weights[sel]) == [5, 1, 1, 1]
        assert list(star_graph.dst[sel]) == [1, 2, 3, 4]

    def test_isolated_node(self):
        g = make_graph([0], [1], [2], num_nodes=3, directed=True)
        order, starts = neighborhoods(g)
        assert len(starts) == 4
        assert len(order[starts[2]:starts[3]]) == 0

    def test_self_loop_in_neighborhood(self):
        g = make_graph([0], [0], [2], num_nodes=1, directed=True)
        order, starts = neighborhoods(g)
        sel = order[starts[0]:starts[1]]
        assert len(sel) == 1
        assert list(g.weights[sel]) == [2]


class TestEdgeIndex:
    def test_undirected_either_orientation_last_wins(self):
        # a pair matches its stored orientation first: (0, 1) is edge 1 and
        # (1, 0) edge 0; the reverse is tried only where nothing is stored
        g = make_graph([1, 0], [0, 1], [3, 2], directed=False)
        assert list(g.edge_index([0, 1], [1, 0])) == [1, 0]
        g = make_graph([1, 1, 0], [0, 0, 2], [3, 2, 1], directed=False)
        assert list(g.edge_index([0, 2], [1, 0])) == [1, 2]

    def test_directed_positions(self):
        g = make_graph([0, 1, 1], [1, 0, 2], [3, 2, 1], directed=True)
        assert list(g.edge_index([1, 0, 1], [2, 1, 0])) == [2, 0, 1]

    def test_missing_pair_rejected(self):
        g = make_graph([0], [1], [3], directed=False)
        with pytest.raises(DomainError):
            g.edge_index([0], [0])

    def test_out_of_range_rejected(self):
        g = make_graph([0, 1], [1, 2], [3, 4], directed=True)
        # (2, -1) and (-1, 4) pack to the keys of edges (1, 2) and (0, 1)
        for src, dst in [(0, 3), (3, 0), (2, -1), (-1, 4)]:
            with pytest.raises(DomainError):
                g.edge_index([src], [dst])

    def test_backbone_files_share_one_parent_index(self, tmp_path):
        from mdlbackbone.cli import _backbone_from_file

        g = parse_edge_list("a b 3\nb c 1\nc a 2\nb a 4\n", directed=True)
        path = tmp_path / "bb.tsv"
        path.write_text("b\ta\t4\na\tb\t3\n")
        first = _backbone_from_file(g, path).member_flags
        second = _backbone_from_file(g, path).member_flags
        assert first.tolist() == second.tolist() == [True, False, False, True]

    def test_empty_subset(self):
        g = make_graph([0, 1], [1, 2], [3, 4], directed=False)
        assert backbone_from_edge_subset(g, []).num_edges == 0

    def test_uint64_indices_pack_into_int64_keys(self):
        # 2**26 * n + 1 is 2**53 + 2**26 + 1: as a float64 it rounds to the
        # key of (2**26, 0), and the two edges would share one key
        n, hub = 2**27 + 1, np.uint64(2**26)
        src, dst = np.array([hub, hub]), np.array([1, 0], dtype=np.uint64)
        g = WeightedGraph(n, src, dst, np.array([1, 2]), True, labels=())
        assert g.edge_index(src, dst).tolist() == [0, 1]
        assert g._key_index[1].dtype == np.int64
        assert graph._pair_key(src, dst, n).tolist() == [2**53 + 2**26 + 1, 2**53 + 2**26]
