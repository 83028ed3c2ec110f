import numpy as np
import pytest

from mdlbackbone.errors import DomainError, ParseError
from mdlbackbone.graph import (
    backbone_from_edge_subset,
    backbone_from_flags,
    collapse_to_undirected,
    directed_view,
    neighborhoods,
    parse_edge_list,
    serialize_edge_list,
)

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
        g = make_graph([1, 0], [0, 1], [3, 2], directed=False)
        assert list(g.edge_index([0, 1], [1, 0])) == [1, 1]

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

    def test_empty_subset(self):
        g = make_graph([0, 1], [1, 2], [3, 4], directed=False)
        assert backbone_from_edge_subset(g, []).num_edges == 0
