import numpy as np
import pytest
from scipy.integrate import quad

from mdlbackbone.baselines import (
    disparity_filter,
    disparity_filter_top_e,
    disparity_pvalue,
    edge_disparity_pvalues,
    high_salience_skeleton,
    percolation_backbone,
    salience_table,
)
from mdlbackbone.errors import DomainError
from mdlbackbone.graph import parse_edge_list

from conftest import make_graph


class TestDisparity:
    def test_reference_values(self):
        assert disparity_pvalue(3, 4, 2) == pytest.approx(0.25, abs=1e-12)
        assert disparity_pvalue(2, 4, 2) == pytest.approx(0.5, abs=1e-12)
        assert disparity_pvalue(3, 3, 1) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            disparity_pvalue(5, 4, 2)
        with pytest.raises(DomainError):
            disparity_pvalue(1, 4, 0)

    def test_matches_integral(self):
        # p-value = 1 - (k-1) * Int_0^{w/s} (1-x)^(k-2) dx
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(2, 20))
            s = float(rng.uniform(1, 100))
            w = float(rng.uniform(0.01, 1.0)) * s
            integral, _ = quad(lambda x: (1 - x) ** (k - 2), 0, w / s)
            assert disparity_pvalue(w, s, k) == pytest.approx(
                1 - (k - 1) * integral, abs=1e-9
            )

    def test_heavy_star_edge_retained(self):
        w = [97] + [1] * 9  # 0.97 of the strength on one edge, k = 10
        g = make_graph([0] * 10, range(1, 11), w, num_nodes=11)
        bb = disparity_filter(g, alpha=0.05)
        assert bool(bb.member_flags[0])
        assert bb.num_edges == 1

    def test_uniform_neighborhood_nothing_retained(self):
        g = make_graph([0] * 10, range(1, 11), [3] * 10, num_nodes=11)
        bb = disparity_filter(g, alpha=0.05)
        assert bb.num_edges == 0

    def test_alpha_near_one_keeps_k_ge_2(self):
        g = make_graph([0, 0, 1], [1, 2, 2], [5, 1, 2], num_nodes=3)
        bb = disparity_filter(g, alpha=0.999999)
        # node 1 has out-degree 1, so its edge keeps p = 1 and is dropped
        assert bb.num_edges == 2

    def test_alpha_validation(self):
        g = make_graph([0], [1], [2])
        with pytest.raises(DomainError):
            disparity_filter(g, alpha=0.0)
        with pytest.raises(DomainError):
            disparity_filter(g, alpha=1.0)

    def test_undirected_uses_both_orientations(self):
        # a-b carries most of a's strength but little of b's; the minimum
        # over the two incident neighborhoods is what counts
        g = make_graph([0, 0, 1, 1], [1, 2, 2, 3], [9, 1, 9, 9],
                       directed=False)
        pvals = edge_disparity_pvalues(g)
        assert pvals[0] == pytest.approx(min((1 - 9 / 10), (1 - 9 / 27)),
                                         abs=1e-12)

    def test_undirected_parallel_orientations_each_scored(self):
        # "a b" and "b a" are two parallel undirected edges; each gets the
        # minimum over its own two directed copies (a: k=3, s=9; b: k=3,
        # s=6; c: k=2, s=5)
        g = parse_edge_list("a b 3\nb a 2\nb c 1\na c 4", directed=False)
        p = disparity_pvalue
        expected = [
            min(p(3, 9, 3), p(3, 6, 3)),
            min(p(2, 6, 3), p(2, 9, 3)),
            min(p(1, 6, 3), p(1, 5, 2)),
            min(p(4, 9, 3), p(4, 5, 2)),
        ]
        assert edge_disparity_pvalues(g) == pytest.approx(expected, rel=1e-12)


class TestDisparityTopE:
    def test_sizes(self, star_graph):
        assert disparity_filter_top_e(star_graph, 0).num_edges == 0
        assert disparity_filter_top_e(star_graph, 4).num_edges == 4
        bb = disparity_filter_top_e(star_graph, 1)
        assert bool(bb.member_flags[0])  # the weight-5 edge has smallest p

    def test_out_of_range(self, star_graph):
        with pytest.raises(DomainError):
            disparity_filter_top_e(star_graph, 5)
        with pytest.raises(DomainError):
            disparity_filter_top_e(star_graph, -1)


class TestSalience:
    def test_path_graph_all_salient(self):
        g = make_graph([0, 1], [1, 2], [1, 1], directed=False)
        table = salience_table(g)
        assert np.allclose(table.saliency, 1.0)
        assert high_salience_skeleton(g).num_edges == 2

    def test_triangle_drops_weakest(self):
        g = make_graph([0, 1, 0], [1, 2, 2], [3, 3, 1], directed=False)
        table = salience_table(g)
        bb = high_salience_skeleton(g)
        assert table.saliency[2] == 0.0
        assert bb.edge_set() == {(0, 1), (1, 2)}

    def test_star_everything_salient(self, star_graph):
        g = make_graph([0, 0, 0, 0], [1, 2, 3, 4], [5, 1, 1, 1],
                       num_nodes=5, directed=False)
        assert high_salience_skeleton(g).num_edges == 4

    def test_sampling_cap_deterministic(self):
        rng = np.random.default_rng(1)
        n = 30
        src, dst = np.triu_indices(n, k=1)
        keep = rng.random(len(src)) < 0.2
        g = make_graph(src[keep], dst[keep],
                       rng.integers(1, 10, size=int(keep.sum())),
                       num_nodes=n, directed=False)
        t1 = salience_table(g, sample_cap=10, seed=3)
        t2 = salience_table(g, sample_cap=10, seed=3)
        assert np.array_equal(t1.saliency, t2.saliency)
        assert t1.trees_sampled == 10


class TestPercolationBackbone:
    def test_path_graph_all_bridges(self):
        g = make_graph([0, 1, 2], [1, 2, 3], [3, 1, 2], directed=False)
        assert percolation_backbone(g).num_edges == 3

    def test_triangle(self):
        g = make_graph([0, 1, 0], [1, 2, 2], [3, 2, 1], directed=False)
        bb = percolation_backbone(g)
        assert bb.edge_set() == {(0, 1), (1, 2)}

    def test_two_components(self):
        g = make_graph([0, 0, 2, 2], [1, 1, 3, 3], [2, 2, 5, 1],
                       num_nodes=4, directed=False)
        # simple graph variant: two disjoint edges plus parallel weights merged
        g = make_graph([0, 2, 2, 3], [1, 3, 4, 4], [2, 5, 1, 1],
                       num_nodes=5, directed=False)
        bb = percolation_backbone(g)
        # non-isolated nodes end up in the same number of weak components
        assert bb.retained_degrees()[:2].sum() > 0
        assert bb.retained_degrees()[2:].sum() > 0

    def test_weight_classes_added_whole(self):
        # two weight-3 edges: both must enter together
        g = make_graph([0, 0, 1], [1, 2, 2], [3, 3, 1], directed=False)
        bb = percolation_backbone(g)
        assert bb.edge_set() == {(0, 1), (0, 2)}
