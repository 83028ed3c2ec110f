from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlbackbone import cli, percolation
from mdlbackbone.errors import DomainError
from mdlbackbone.graph import backbone_from_flags
from mdlbackbone.percolation import (
    HalfEdgeSystem,
    backbone_percolation_study,
    contact_transmission,
    critical_probability,
    message_passing_cluster,
    nb_leading_eigenvalue,
)

from conftest import make_graph

CONTACT = Path(__file__).resolve().parents[1] / "datasets" / "contact-1000.tsv"


def complete_graph(n, weight=1):
    src, dst = np.triu_indices(n, k=1)
    return make_graph(src, dst, [weight] * len(src), num_nodes=n,
                      directed=False)


def path_graph(n):
    return make_graph(range(n - 1), range(1, n), [1] * (n - 1),
                      directed=False)


def grid_graph(rows, cols):
    node = np.arange(rows * cols).reshape(rows, cols)
    src = np.concatenate([node[:, :-1].ravel(), node[:-1, :].ravel()])
    dst = np.concatenate([node[:, 1:].ravel(), node[1:, :].ravel()])
    return make_graph(src, dst, [1] * len(src), num_nodes=rows * cols,
                      directed=False)


def bipartite_complete(m, n):
    src, dst = np.divmod(np.arange(m * n), n)
    return make_graph(src, dst + m, [1] * (m * n), num_nodes=m + n,
                      directed=False)


def dense_nb_radius(g, p):
    """Spectral radius of the explicit 2E x 2E weighted non-backtracking
    matrix: B[h, h'] = phi_h when h' leaves the head of h and is not the
    reverse of h."""
    sys_ = HalfEdgeSystem.build(g)
    m = sys_.num_half_edges
    phi = contact_transmission(sys_.weights, p)
    follows = sys_.src[None, :] == sys_.dst[:, None]
    follows[np.arange(m), sys_.rev] = False
    return float(np.max(np.abs(np.linalg.eigvals(phi[:, None] * follows))))


NB_GRAPHS = {
    "grid-3x3": grid_graph(3, 3),
    "grid-4x5": grid_graph(4, 5),
    "weighted-6-cycle": make_graph(range(6), [1, 2, 3, 4, 5, 0],
                                   [1, 3, 1, 2, 5, 1], directed=False),
    "K2,3": bipartite_complete(2, 3),
    "K3,3": bipartite_complete(3, 3),
    "K4": complete_graph(4),
    "4-cycle-with-tail": make_graph([0, 1, 2, 3, 3, 4], [1, 2, 3, 0, 4, 5],
                                    [1, 2, 1, 1, 3, 1], directed=False),
    "path": path_graph(7),
    "star": make_graph([0, 0, 0, 0], [1, 2, 3, 4], [1, 2, 3, 4],
                       directed=False),
    "forest": make_graph([0, 1, 3, 3], [1, 2, 4, 5], [2, 1, 1, 4],
                         num_nodes=7, directed=False),
}
TREES = ("path", "star", "forest")


@st.composite
def messages_on_graphs(draw):
    """A small undirected multigraph (self-loops, parallel edges, degree-1
    and isolated nodes) and one message per half-edge, each 0 or in
    (0, 1], so nodes carry 0, 1, 2 or more zero messages."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 12))
    node = st.integers(0, n - 1)
    src = draw(st.lists(node, min_size=m, max_size=m))
    dst = draw(st.lists(node, min_size=m, max_size=m))
    sys_ = HalfEdgeSystem.build(
        make_graph(src, dst, [1] * m, num_nodes=n, directed=False)
    )
    value = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    k = sys_.num_half_edges
    values = np.array(draw(st.lists(value, min_size=k, max_size=k)), dtype=float)
    return sys_, values


class TestContactTransmission:
    def test_values(self):
        assert contact_transmission(5, 0.0) == 0.0
        assert contact_transmission(1, 0.3) == pytest.approx(0.3)
        assert contact_transmission(2, 0.5) == pytest.approx(0.75)

    def test_vectorized(self):
        out = contact_transmission(np.array([1, 2]), 0.5)
        assert out == pytest.approx([0.5, 0.75])

    def test_p_validation(self):
        with pytest.raises(DomainError):
            contact_transmission(1, 1.5)
        with pytest.raises(DomainError):
            contact_transmission(1, -0.1)


class TestMessagePassing:
    def test_k4_fixed_point(self):
        g = complete_graph(4)
        S, s_i, state = message_passing_cluster(g, 0.8, seed=0)
        assert state.converged
        assert S == pytest.approx(0.984375, abs=1e-6)
        assert np.allclose(s_i, S, atol=1e-6)

    def test_tree_zero(self):
        for p in (0.2, 0.7, 1.0):
            S, _, _ = message_passing_cluster(path_graph(6), p, seed=1)
            assert S == pytest.approx(0.0, abs=1e-8)

    def test_p_zero(self):
        S, _, _ = message_passing_cluster(complete_graph(5), 0.0, seed=0)
        assert S == 0.0

    def test_directed_rejected(self):
        g = make_graph([0, 1], [1, 2], [1, 1], directed=True)
        with pytest.raises(DomainError):
            message_passing_cluster(g, 0.5)

    def test_bad_init(self):
        with pytest.raises(DomainError):
            message_passing_cluster(complete_graph(3), 0.5, init="sideways")
        with pytest.raises(DomainError):
            message_passing_cluster(complete_graph(3), 0.5, init="warm")


class TestLeaveOneOut:
    @given(messages_on_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_half_edge_product(self, case):
        sys_, values = case
        expected = np.ones(sys_.num_half_edges)
        for h in range(sys_.num_half_edges):
            j = sys_.dst[h]
            others = np.arange(sys_.starts[j], sys_.starts[j + 1])
            expected[h] = np.prod(values[others[others != sys_.rev[h]]])
        got = sys_.leave_one_out_products(values)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_zero_counts(self):
        # star: node 0 sends 0.2, 0.3, 0.1 to nodes 1, 2, 3 of degree 1
        sys_ = HalfEdgeSystem.build(
            make_graph([0, 0, 0], [1, 2, 3], [1, 1, 1], directed=False)
        )
        out_of_0 = np.arange(sys_.starts[0], sys_.starts[1])
        for zeros, expected in [
            ([], [0.03, 0.02, 0.06]),
            ([0], [0.03, 0.0, 0.0]),
            ([0, 1], [0.0, 0.0, 0.0]),
        ]:
            for leaf_value in (0.0, 0.5):
                values = np.full(sys_.num_half_edges, leaf_value)
                values[out_of_0] = [0.2, 0.3, 0.1]
                values[out_of_0[zeros]] = 0.0
                got = sys_.leave_one_out_products(values)
                np.testing.assert_allclose(got[sys_.rev[out_of_0]], expected,
                                           rtol=1e-12, atol=0)
                # a leaf's only message leaves the empty product
                assert np.array_equal(got[out_of_0], [1.0, 1.0, 1.0])


class TestEigenvalue:
    def test_triangle(self):
        g = complete_graph(3)
        for p in (0.2, 0.5, 0.9):
            assert nb_leading_eigenvalue(g, p) == pytest.approx(p, abs=1e-7)

    def test_k4(self):
        g = complete_graph(4)
        assert nb_leading_eigenvalue(g, 0.3) == pytest.approx(0.6, abs=1e-7)

    def test_tree_zero(self):
        assert nb_leading_eigenvalue(path_graph(5), 0.9) == 0.0

    def test_weights_enter_through_phi(self):
        g = complete_graph(4, weight=2)
        phi = 1 - (1 - 0.3) ** 2
        assert nb_leading_eigenvalue(g, 0.3) == pytest.approx(
            2 * phi, abs=1e-7
        )

    @pytest.mark.parametrize("name", sorted(NB_GRAPHS))
    def test_matches_dense_operator(self, name):
        g = NB_GRAPHS[name]
        for p in (0.05, 0.3, 0.7, 1.0):
            expected = dense_nb_radius(g, p)
            assert nb_leading_eigenvalue(g, p) == pytest.approx(expected, abs=1e-6)
            if name in TREES:
                assert nb_leading_eigenvalue(g, p) == 0.0

    def test_non_convergence_reports_last_change(self):
        with pytest.raises(DomainError, match="did not converge") as info:
            nb_leading_eigenvalue(grid_graph(3, 3), 0.5, max_iters=3)
        assert "0.000e+00" not in str(info.value)


class TestCriticalProbability:
    def test_k4_unit(self):
        assert critical_probability(complete_graph(4)) == pytest.approx(
            0.5, abs=1e-6
        )

    def test_k4_weight2(self):
        assert critical_probability(complete_graph(4, weight=2)) \
            == pytest.approx(1 - np.sqrt(0.5), abs=1e-6)

    def test_tree_none(self):
        assert critical_probability(path_graph(8)) is None

    def test_bipartite_grid(self):
        g = grid_graph(3, 3)
        p_c = critical_probability(g)
        assert 0.0 < p_c < 1.0
        assert dense_nb_radius(g, p_c) == pytest.approx(1.0, abs=1e-6)


class TestStudy:
    def test_full_graph_reference(self):
        g = complete_graph(5)
        bb = backbone_from_flags(g, np.ones(g.num_edges, dtype=bool))
        reports = backbone_percolation_study(g, [bb], [0.3, 0.6, 0.9])
        assert len(reports) == 2
        full, same = reports
        assert full.label == "full"
        assert same.mean_abs_error == pytest.approx(0.0, abs=1e-7)
        assert same.p_crit_error == pytest.approx(0.0, abs=1e-6)

    def test_empty_backbone(self):
        g = complete_graph(4)
        bb = backbone_from_flags(g, np.zeros(g.num_edges, dtype=bool))
        reports = backbone_percolation_study(g, [bb], [0.5])
        assert reports[1].p_crit is None
        assert np.allclose(reports[1].S, 0.0)

    def test_non_convergence_raises(self, monkeypatch):
        one_sweep = message_passing_cluster

        def fake(sys_, p, seed):
            return one_sweep(sys_, p, max_iters=1, seed=seed)

        monkeypatch.setattr(percolation, "message_passing_cluster", fake)
        with pytest.raises(DomainError, match=r"full .*p=.*max_delta \d"):
            backbone_percolation_study(complete_graph(5), [], [0.3, 0.6])

    def test_every_point_matches_a_fresh_solve(self):
        with open(CONTACT) as fh:
            g = cli.parse_edge_list(fh, directed=False)
        grid = cli._parse_pgrid(
            cli.build_parser().parse_args(["percolation", "x"]).pgrid
        )
        (report,) = backbone_percolation_study(g, [], grid, seed=1)
        sys_ = HalfEdgeSystem.build(g)
        fresh = [
            message_passing_cluster(sys_, p, init="random", seed=1)[0]
            for p in report.p_grid
        ]
        assert report.S.tolist() == fresh
        assert max(report.S) > 0.5
