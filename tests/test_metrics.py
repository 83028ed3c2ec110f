import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlbackbone import metrics
from mdlbackbone.cli import _backbone_from_file
from mdlbackbone.errors import DomainError
from mdlbackbone.graph import backbone_from_flags, parse_edge_list
from mdlbackbone.metrics import (
    hellinger_strength_distance,
    jaccard_similarity,
    reachability_ratio,
    summarize,
)
from mdlbackbone.objectives import ObjectiveSpec, description_length, dl_local_micro
from mdlbackbone.solver import greedy_global

from conftest import make_graph


PATH_GRAPH = make_graph([0, 1, 2], [1, 2, 3], [1, 1, 1])


def path_backbone(*members):
    """Backbone of PATH_GRAPH whose members are the edges (i, i + 1)."""
    flags = np.zeros(PATH_GRAPH.num_edges, dtype=bool)
    flags[list(members)] = True
    return backbone_from_flags(PATH_GRAPH, flags)


@st.composite
def graphs_with_backbone_files(draw):
    """Edge-list text read either way, always with a reciprocal pair and a
    self-loop, and two backbone files as lists of (a, b) label pairs of the
    graph's edges; undirected files list either orientation."""
    directed = draw(st.booleans())
    node = st.sampled_from("abcde")
    extra = draw(st.lists(st.tuples(node, node, st.integers(1, 9)), max_size=10))
    lines = [("a", "b", 3), ("b", "a", 2), ("c", "c", 1)] + extra
    g = parse_edge_list(
        "".join(f"{a} {b} {w}\n" for a, b, w in lines), directed=directed
    )
    pairs = sorted({(a, b) for a, b, _ in lines})
    files = []
    for _ in range(2):
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=8))
        if not directed:
            chosen = [(b, a) if draw(st.booleans()) else (a, b) for a, b in chosen]
        files.append(chosen)
    return g, files


class TestJaccard:
    def test_identity(self):
        bb = path_backbone(0, 1)
        assert jaccard_similarity(bb, bb) == 1.0

    def test_disjoint(self):
        assert jaccard_similarity(path_backbone(0), path_backbone(1)) == 0.0

    def test_partial(self):
        assert jaccard_similarity(path_backbone(0, 1), path_backbone(1, 2)) \
            == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard_similarity(path_backbone(), path_backbone()) == 1.0

    def test_different_parents_rejected(self):
        other = make_graph([0, 1, 2], [1, 2, 3], [1, 1, 1])
        bb = backbone_from_flags(other, [True, False, False])
        with pytest.raises(DomainError):
            jaccard_similarity(path_backbone(0), bb)

    @given(graphs_with_backbone_files())
    @settings(max_examples=200, deadline=None)
    def test_matches_pair_set_oracle(self, case):
        # each file line names the graph's (src, dst) edge if it is stored,
        # else, undirected, the stored (dst, src) one: flag Jaccard on the
        # loaded backbones must equal that of the sets of named edges
        g, files = case
        index = {lab: i for i, lab in enumerate(g.labels)}
        stored = set(zip(g.src.tolist(), g.dst.tolist()))
        backbones, edge_sets = [], []
        with tempfile.TemporaryDirectory() as tmp:
            for k, chosen in enumerate(files):
                path = Path(tmp) / f"bb{k}.tsv"
                path.write_text("".join(f"{a}\t{b}\t1\n" for a, b in chosen))
                backbones.append(_backbone_from_file(g, path))
                edges = {(index[a], index[b]) for a, b in chosen}
                edge_sets.append({e if e in stored else e[::-1] for e in edges})
        s1, s2 = edge_sets
        union = s1 | s2
        expect = len(s1 & s2) / len(union) if union else 1.0
        assert jaccard_similarity(*backbones) == expect
        assert [bb.num_edges for bb in backbones] == [len(s) for s in edge_sets]
        if not g.directed:
            edge_sets = [{(min(e), max(e)) for e in s} for s in edge_sets]
        assert [bb.edge_set() for bb in backbones] == edge_sets


class TestHellinger:
    def test_full_backbone_zero(self, star_graph):
        bb = backbone_from_flags(star_graph, [True] * 4)
        assert hellinger_strength_distance(star_graph, bb) == 0.0

    def test_disjoint_support(self):
        g = make_graph([0, 1], [2, 3], [5, 5], num_nodes=4)
        bb = backbone_from_flags(g, [False, True])
        # all graph out-strength sits on nodes 0/1, backbone only node 1
        d = hellinger_strength_distance(g, bb)
        p = np.array([0.5, 0.5, 0, 0])
        q = np.array([0, 1.0, 0, 0])
        expect = np.sqrt(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))
        assert d == pytest.approx(expect, abs=1e-12)
        assert d == pytest.approx(0.5412, abs=1e-4)

    def test_empty_backbone_rejected(self, star_graph):
        bb = backbone_from_flags(star_graph, [False] * 4)
        with pytest.raises(DomainError):
            hellinger_strength_distance(star_graph, bb)


class TestReachability:
    def test_identity(self):
        g = make_graph([0, 1, 2], [1, 2, 0], [1, 1, 1])
        bb = backbone_from_flags(g, [True] * 3)
        assert reachability_ratio(g, bb) == 1.0

    def test_empty_backbone(self):
        g = make_graph([0, 1, 2], [1, 2, 0], [1, 1, 1])
        bb = backbone_from_flags(g, [False] * 3)
        assert reachability_ratio(g, bb) == 0.0

    def test_three_cycle_two_edges(self):
        # cycle a->b->c->a keeps a->b and b->c: reachable ordered pairs are
        # (a,b), (a,c), (b,c), out of 6 in the full cycle
        g = make_graph([0, 1, 2], [1, 2, 0], [1, 1, 1])
        bb = backbone_from_flags(g, [True, True, False])
        assert reachability_ratio(g, bb) == pytest.approx(3 / 6)

    def test_undirected_components(self):
        g = make_graph([0, 1, 2], [1, 2, 3], [1, 1, 1], directed=False)
        bb = backbone_from_flags(g, [True, False, True])
        # components {0,1} and {2,3}: 2+2 ordered pairs of 12
        assert reachability_ratio(g, bb) == pytest.approx(4 / 12)

    def test_no_pairs_rejected(self):
        g = make_graph([0], [0], [1], num_nodes=1)
        bb = backbone_from_flags(g, [True])
        with pytest.raises(DomainError):
            reachability_ratio(g, bb)

    def test_sampled_subgraph_deterministic(self):
        rng = np.random.default_rng(0)
        n = 200
        src = rng.integers(0, n, 600)
        dst = rng.integers(0, n, 600)
        keep = src != dst
        g = make_graph(src[keep][:400], dst[keep][:400],
                       np.ones(400, dtype=np.int64), num_nodes=n)
        bb = backbone_from_flags(g, rng.random(g.num_edges) < 0.5)
        a = reachability_ratio(g, bb, sample_cap=50, seed=9)
        b = reachability_ratio(g, bb, sample_cap=50, seed=9)
        assert a == b


    @pytest.mark.parametrize("sample_cap", [0, -1])
    def test_sample_cap_below_one_rejected(self, star_graph, sample_cap):
        bb = backbone_from_flags(star_graph, [True] * 4)
        with pytest.raises(DomainError, match="sample_cap"):
            reachability_ratio(star_graph, bb, sample_cap=sample_cap)
        with pytest.raises(DomainError, match="sample_cap"):
            summarize(star_graph, bb, sample_cap=sample_cap)

    def test_full_graph_counted_once(self, monkeypatch):
        g = make_graph([0, 1, 2, 3], [1, 2, 0, 2], [1, 1, 1, 1])
        calls = []
        count = metrics.reachable_pair_count
        monkeypatch.setattr(metrics, "reachable_pair_count",
                            lambda *a: calls.append(a) or count(*a))
        ratios = [summarize(g, backbone_from_flags(g, flags)).reachability
                  for flags in ([True] * 4, [True, True, False, False], [False] * 4)]
        assert ratios == [1.0, 3 / 9, 0.0]
        # one count of the full graph, one per backbone
        assert len(calls) == 4


class TestSummarize:
    def test_full_backbone(self, star_graph):
        bb = backbone_from_flags(star_graph, [True] * 4)
        m = summarize(star_graph, bb)
        assert m.edge_fraction == 1.0
        assert m.weight_fraction == 1.0
        assert m.nonisolated_fraction == 1.0
        assert m.hellinger == 0.0
        assert m.reachability == 1.0

    def test_empty_backbone(self, star_graph):
        bb = backbone_from_flags(star_graph, [False] * 4)
        m = summarize(star_graph, bb)
        assert m.edge_fraction == 0.0
        assert m.weight_fraction == 0.0
        assert m.hellinger is None
        assert m.reachability == 0.0

    def test_star_mdl_backbone(self, star_graph):
        res = greedy_global(star_graph)
        m = summarize(star_graph, res.backbone)
        assert m.edge_fraction == pytest.approx(0.25)
        assert m.weight_fraction == pytest.approx(0.625)


class TestForeignBackbone:
    """Every scorer of a backbone of ``g`` refuses a backbone of another
    graph, of the same edge count as ``g`` or of fewer edges."""

    SCORERS = {
        "summarize": summarize,
        "hellinger": hellinger_strength_distance,
        "reachability": reachability_ratio,
        "dl-global": partial(description_length,
                             spec=ObjectiveSpec("global", "microcanonical")),
        "dl-local": partial(description_length,
                            spec=ObjectiveSpec("local", "geometric")),
        "dl-local-micro": dl_local_micro,
    }

    @pytest.mark.parametrize("name", SCORERS)
    @pytest.mark.parametrize("other", [
        make_graph([0, 1, 2], [1, 2, 3], [5, 2, 2]),
        make_graph([0, 1], [1, 2], [2, 2]),
    ], ids=["3-edges", "2-edges"])
    def test_refused(self, name, other):
        bb = backbone_from_flags(other, [True] * other.num_edges)
        with pytest.raises(DomainError, match="another graph"):
            self.SCORERS[name](PATH_GRAPH, bb)
