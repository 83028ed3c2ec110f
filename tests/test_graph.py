import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdlbackbone.errors import DomainError, ParseError
from mdlbackbone.graph import (
    _UNICODE_SPACES,
    Backbone,
    WeightedGraph,
    _first_appearance,
    backbone_from_edge_subset,
    backbone_from_flags,
    collapse_to_undirected,
    directed_view,
    neighborhoods,
    parse_edge_list,
    serialize_edge_list,
)
from mdlbackbone.synth import dirichlet_multinomial_weights

from conftest import make_graph


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
        with pytest.raises(DomainError):
            parse_edge_list("a b 1.5", directed=True)

    def test_integer_weight_beyond_int64(self):
        with pytest.raises(DomainError, match=r"whole weights >= 1 and below 2\*\*53"):
            parse_edge_list("a b 1e19", directed=True)

    def test_directed_view_total_beyond_int64(self):
        # each weight fits int64, their total does not; each is past 2**53
        text = "a b 4611686018427387904\na c 4611686018427387904\na a 2"
        for directed in (True, False):
            with pytest.raises(DomainError, match=r"below 2\*\*53"):
                parse_edge_list(text, directed=directed)
        assert parse_edge_list(text, directed=True, weight_kind="real").num_edges == 3

    def test_real_mode(self):
        g = parse_edge_list("a b 1.5", directed=True, weight_kind="real")
        assert g.weights.dtype == float
        assert g.total_weight == 1.5

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
    below 2**53, where every float sum of them is exact. The parser bounds
    each weight, the graph type the total."""

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("weight", ["9007199254740993", "1e19"])
    def test_weight_at_or_beyond_the_bound(self, weight, directed):
        # 2**53 + 1 reads as the double 2**53; 1e19 is beyond int64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"below 2\*\*53, got"):
                parse_edge_list(f"a b {weight}", directed=directed)

    def test_directed_total_at_the_bound(self):
        g = parse_edge_list("a b 9007199254740990\na c 1", directed=True)
        assert g.total_weight == 2**53 - 1
        assert g.strengths().tolist() == [2**53 - 1, 0, 0]
        with pytest.raises(DomainError, match=(
            r"directed view's total weight below 2\*\*53, got 9007199254740992"
        )):
            parse_edge_list("a b 9007199254740990\na c 2", directed=True)

    def test_undirected_counts_non_loops_twice(self):
        half = "a b 4503599627370496"
        assert parse_edge_list(half, directed=True).total_weight == 2**52
        with pytest.raises(DomainError, match=r"total weight below 2\*\*53"):
            parse_edge_list(half, directed=False)
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


def parse_edge_list_reference(text, directed, weight_kind="integer", round_weights=False):
    """The per-line parser that the array parser replaced, kept as its oracle."""
    if round_weights and weight_kind != "integer":
        raise DomainError("rounding weights requires integer weight mode")
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

    if weight_kind == "integer":
        if round_weights:
            # a float, as the parser's np.round leaves it
            weights = [max(1.0, float(round(w))) for w in weights]
        for w in weights:
            if w != int(w) or w < 1 or w >= 2**53:
                raise DomainError(
                    f"integer weight mode requires whole weights >= 1 and below 2**53, got {w}"
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


@st.composite
def edge_texts(draw):
    """Edge-list texts over a few labels, ASCII and not: edge lines
    (repeated pairs are likely), blank and comment lines, every line end
    and whitespace byte that ends or splits a line, and in half of them one
    or two non-ASCII whitespace characters too; half of them also with
    malformed lines and bad weights. Half of them may also use labels the
    word keys cannot hold: over 8 bytes, or with a NUL byte."""
    valid = draw(st.booleans())
    # "abcdefgh" and "\U0001f600\U0001f600" are 8 bytes long
    labels = ["a", "b", "c", "0", "00", "x#y", "#z", "\xe9", "\xfc1", "\u65e5\u672c",
              "\U0001f600", "abcdefgh", "\U0001f600\U0001f600"]
    if draw(st.booleans()):
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
    @given(text=edge_texts(), directed=st.booleans(),
           weight_kind=st.sampled_from(["integer", "real"]),
           round_weights=st.booleans())
    @example(text="1 2\n3 4 5 6", directed=True, weight_kind="integer",
             round_weights=False)
    @example(text="a\ta 9007199254740993", directed=True, weight_kind="integer",
             round_weights=True)
    @example(text="a b 1:", directed=True, weight_kind="real", round_weights=False)
    @example(text="a b 1/", directed=True, weight_kind="real", round_weights=False)
    @settings(max_examples=400, deadline=None)
    def test_matches_per_line_reference(self, text, directed, weight_kind, round_weights):
        args = (text, directed, weight_kind, round_weights)
        assert _parse_outcome(parse_edge_list, *args) == _parse_outcome(
            parse_edge_list_reference, *args
        )


def _first_appearance_reference(keys):
    ids = {}
    codes = [ids.setdefault(k, len(ids)) for k in keys]
    first = {}
    for i, c in enumerate(codes):
        first.setdefault(c, i)
    return codes, list(first.values())


INT64 = np.iinfo(np.int64)
EXTREMES = [INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max]


class TestFirstAppearance:
    @given(keys=st.one_of(
        st.lists(st.integers(INT64.min, INT64.max), max_size=50),
        # heavy repeats, of the extremes among others
        st.lists(st.sampled_from(EXTREMES), max_size=200),
        # all keys equal
        st.builds(lambda k, n: [k] * n, st.sampled_from(EXTREMES), st.integers(1, 50)),
    ))
    @example(keys=[])
    @example(keys=[7])
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_loop(self, keys):
        expected = _first_appearance_reference(keys)
        signed = np.array(keys, dtype=np.int64)
        # the parser's keys are unsigned words; the view keeps which are equal
        for arr in (signed, signed.view(np.uint64)):
            codes, first = _first_appearance(arr)
            assert codes.dtype == first.dtype == np.int64
            assert (codes.tolist(), first.tolist()) == expected


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
