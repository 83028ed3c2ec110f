from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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
    if m == 0:
        return 0.0
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


@st.composite
def random_undirected_graphs(draw, connected=False):
    """A small undirected multigraph with weights 1..4, with or without a
    random spanning tree that makes it connected. Bipartite in half the
    draws: the edges inside each side are dropped (with a tree, the sides
    are its depth parities)."""
    n = draw(st.integers(2, 9))
    m = draw(st.integers(1, 16))
    node = st.integers(0, n - 1)
    src = draw(st.lists(node, min_size=m, max_size=m))
    dst = draw(st.lists(node, min_size=m, max_size=m))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if connected:
        for v in range(1, n):
            parent = draw(st.integers(0, v - 1))
            side[v] = not side[parent]
            src.append(parent)
            dst.append(v)
    edges = list(zip(src, dst))
    if draw(st.booleans()):
        edges = [(a, b) for a, b in edges if side[a] != side[b]]
    w = draw(st.lists(st.integers(1, 4), min_size=len(edges), max_size=len(edges)))
    return make_graph([a for a, _ in edges], [b for _, b in edges], w,
                      num_nodes=n, directed=False)


def two_cores(n1, w1, n2, w2, path):
    """K_n1 with weight w1 and K_n2 with weight w2, their first nodes
    joined by a path of ``path`` unit-weight edges (none: two
    components)."""
    src1, dst1 = np.triu_indices(n1, k=1)
    src2, dst2 = np.triu_indices(n2, k=1)
    chain = [0, *range(n1 + n2, n1 + n2 + path - 1), n1] if path else []
    src = [*src1, *(src2 + n1), *chain[:-1]]
    dst = [*dst1, *(dst2 + n1), *chain[1:]]
    w = [w1] * len(src1) + [w2] * len(src2) + [1] * (len(chain) - 1)
    return make_graph(src, dst, w, num_nodes=n1 + n2 + max(path - 1, 0),
                      directed=False)


def bisection_threshold(g, tolerance=1e-7):
    """The bisection ``critical_probability`` used before the regula falsi,
    on the dense radius: power iteration converges slowly where the
    spectrum crowds its circle (one cycle) or two components' radii are
    close, and from ones it did not always converge."""
    if dense_nb_radius(g, 1.0) < 1.0:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo >= 1e-15:
        mid = 0.5 * (lo + hi)
        lam = dense_nb_radius(g, mid)
        if abs(lam - 1.0) < tolerance:
            return mid
        if lam < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def leave_one_out_with_zero_counts(sys_, values):
    """The zero-counting path of ``leave_one_out_products``."""
    zero = values == 0.0
    nonzero_prods = sys_.segment_products(np.where(zero, 1.0, values))
    zeros = np.bincount(sys_.src[zero], minlength=sys_.num_nodes)
    rev_zero = zero[sys_.rev]
    out = nonzero_prods[sys_.dst] / np.where(rev_zero, 1.0, values[sys_.rev])
    out[zeros[sys_.dst] > rev_zero] = 0.0
    return out


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
        assert state.max_delta < 1e-10
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
        with pytest.raises(DomainError, match="shape"):
            message_passing_cluster(complete_graph(3), 0.5, init=np.zeros(5))

    def test_array_init(self):
        g = complete_graph(4)
        start = np.zeros(12)
        S, _, state = message_passing_cluster(g, 0.8, init=start)
        assert state.max_delta < 1e-10
        assert S == pytest.approx(0.984375, abs=1e-9)
        assert not start.any()  # the start is copied, not updated

    def test_non_convergence_raises(self):
        # one sweep from random messages leaves K4 at p = 1/2, its
        # threshold, far from the fixed point
        with pytest.raises(DomainError, match=r"p=0\.5 in 1 sweeps") as info:
            message_passing_cluster(complete_graph(4), 0.5, max_iters=1)
        last = float(str(info.value).split("last max_delta ")[1].rstrip(")"))
        assert last > 0.0

    def test_no_half_edges(self):
        # isolated nodes and a self-loop: no message, so S = 0 after the
        # first sweep's empty update
        g = make_graph([1], [1], [2], num_nodes=3, directed=False)
        S, s_i, state = message_passing_cluster(g, 0.7, max_iters=1)
        assert S == 0.0 and s_i.tolist() == [0.0, 0.0, 0.0]
        assert (state.u.size, state.iterations, state.max_delta) == (0, 1, 0.0)


class TestSegmentReductions:
    @given(messages_on_graphs())
    @settings(max_examples=100, deadline=None)
    def test_match_per_node_reduceat(self, case):
        # bit for bit: each node's half-edges reduced on their own, in
        # order; a node without half-edges reads 0 and 1
        sys_, values = case
        for method, ufunc, empty in [(sys_.segment_sums, np.add, 0.0),
                                     (sys_.segment_products, np.multiply, 1.0)]:
            expected = np.array([
                ufunc.reduceat(values[a:b], [0])[0] if b > a else empty
                for a, b in zip(sys_.starts[:-1], sys_.starts[1:])
            ])
            assert method(values).tobytes() == expected.tobytes()

    def test_nodes_without_half_edges(self):
        # node 0 has one self-loop, node 3 nothing: neither has a half-edge
        sys_ = HalfEdgeSystem.build(
            make_graph([0, 1], [0, 2], [1, 1], num_nodes=4, directed=False)
        )
        values = np.array([0.25, 0.5])
        assert sys_.segment_sums(values).tolist() == [0.0, 0.25, 0.5, 0.0]
        assert sys_.segment_products(values).tolist() == [1.0, 0.25, 0.5, 1.0]


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

    @given(messages_on_graphs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_zero_free_path_is_bit_identical(self, case, seed):
        sys_, _ = case
        values = np.random.default_rng(seed).uniform(1e-3, 1.0, sys_.num_half_edges)
        expected = leave_one_out_with_zero_counts(sys_, values)
        assert sys_.leave_one_out_products(values).tobytes() == expected.tobytes()

    def test_zero_free_path_on_contact_graph(self):
        with open(CONTACT) as fh:
            sys_ = HalfEdgeSystem.build(cli.parse_edge_list(fh, directed=False))
        values = np.random.default_rng(3).uniform(size=sys_.num_half_edges)
        expected = leave_one_out_with_zero_counts(sys_, values)
        assert sys_.leave_one_out_products(values).tobytes() == expected.tobytes()

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

    def test_no_transmission_zero(self):
        # at p = 0 every bond is closed, so B is the zero operator
        assert nb_leading_eigenvalue(complete_graph(3), 0.0) == 0.0

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
        with pytest.raises(DomainError, match="did not converge at p=0.5 in 3 ") as info:
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

    @pytest.mark.parametrize("n", range(3, 9))
    def test_one_cycle_is_critical_at_one(self, n):
        # a unit-weight n-cycle with a pendant path of 0-3 edges: its 2-core
        # is the cycle, lambda(p) = p, and the threshold is 1 however the
        # power iteration rounds lambda(1); a path alone never percolates
        for pendant in range(4):
            chain = [0, *range(n, n + pendant)]
            g = make_graph([*range(n), *chain[:-1]],
                           [*range(1, n), 0, *chain[1:]],
                           [1] * (n + pendant), directed=False)
            p_c = critical_probability(g)
            assert p_c is not None and 1.0 - 1e-4 < p_c <= 1.0
        assert critical_probability(path_graph(n)) is None

    def test_stops_on_the_bracket(self):
        # a 4-cycle with a pendant edge: lambda is the cycle's geometric mean
        # of phi, which reaches 1 only at p = 1; under a tolerance no step
        # meets, the search narrows the bracket below 1e-15 and returns its
        # midpoint
        g = make_graph([0, 1, 2, 3, 3], [1, 2, 3, 0, 4], [2, 1, 3, 1, 7],
                       directed=False)
        assert 1.0 - 1e-15 < critical_probability(g, tolerance=1e-300) < 1.0

    @pytest.mark.parametrize("tolerance", [0.0, -1e-7, float("nan")])
    def test_tolerance_must_be_positive(self, tolerance):
        # the two solvers refuse it before the first sweep: max_iters=1
        # keeps an accepted tolerance, which no step goes below, from
        # running long
        g = complete_graph(3)
        with pytest.raises(DomainError, match="tolerance must be positive"):
            critical_probability(g, tolerance=tolerance)
        with pytest.raises(DomainError, match="tolerance must be positive"):
            message_passing_cluster(g, 0.5, tolerance=tolerance, max_iters=1)
        with pytest.raises(DomainError, match="tolerance must be positive"):
            nb_leading_eigenvalue(g, 1.0, tolerance=tolerance, max_iters=1)

    def test_bipartite_grid(self):
        g = grid_graph(3, 3)
        p_c = critical_probability(g)
        assert 0.0 < p_c < 1.0
        assert dense_nb_radius(g, p_c) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("path", [0, 10])
    def test_core_hidden_by_the_warm_start(self, path):
        # At p = 1 the K5 core dominates (radius 3 against 2) and holds
        # nearly all of the eigenvector; near p_c the K4 core of weight 2
        # dominates (at p = 1/3 the radii are 1 and 1.11). Started from
        # that eigenvector alone, the power iteration settles on the K5
        # radius and returns p_c = 1/3.
        g = two_cores(5, 1, 4, 2, path)
        p_c = critical_probability(g)
        assert dense_nb_radius(g, p_c) == pytest.approx(1.0, abs=1e-6)
        if not path:
            assert p_c == pytest.approx(1 - np.sqrt(0.5), abs=1e-6)
        assert p_c == pytest.approx(bisection_threshold(g), abs=1e-6)

    @given(st.integers(4, 5), st.integers(1, 2), st.integers(1, 3),
           st.integers(1, 4), st.sampled_from([0, *range(6, 15)]))
    @settings(max_examples=60, deadline=None)
    def test_two_cores_match_bisection(self, n, extra, w, extra_w, path):
        # a larger, lighter core leads at p = 1 and a smaller, heavier one
        # may lead at p_c, in separate components or at the ends of a path
        # long enough to keep the second core's share small
        g = two_cores(n + extra, w, n, w + extra_w, path)
        p_c = critical_probability(g)
        assert dense_nb_radius(g, p_c) == pytest.approx(1.0, abs=1e-6)
        assert p_c == pytest.approx(bisection_threshold(g), abs=1e-6)

    @given(random_undirected_graphs())
    @settings(max_examples=100, deadline=None)
    def test_matches_bisection(self, g):
        p_c = critical_probability(g)
        expected = bisection_threshold(g)
        # only a forest never percolates (self-loops do not count): a
        # parallel pair or any other cycle gives more edges than the N - C
        # of a spanning forest
        pair = g.src != g.dst
        adj = csr_matrix((np.ones(pair.sum()), (g.src[pair], g.dst[pair])),
                         (g.num_nodes,) * 2)
        n_comp = connected_components(adj, directed=False)[0]
        assert (p_c is None) == (pair.sum() == g.num_nodes - n_comp)
        if p_c is None or expected is None:
            # the bisection may round a graph critical at p = 1 itself (its
            # 2-core one cycle) to "never percolates"
            assert p_c is expected or abs(dense_nb_radius(g, 1.0) - 1.0) < 1e-9
            return
        assert dense_nb_radius(g, p_c) == pytest.approx(1.0, abs=1e-6)
        # Both stop where |lambda - 1| < 1e-7. Where lambda is flat at the
        # crossing (two parallel edges of weight 2: lambda(p) = 1 - (1-p)^2
        # touches 1 at p = 1 with slope 0) that band is wider than 1e-6 in
        # p; lambda is monotone, so both ends inside it means all of it is.
        assert p_c == pytest.approx(expected, abs=1e-6) or (
            abs(dense_nb_radius(g, expected) - 1.0) < 1e-7
            and abs(dense_nb_radius(g, p_c) - 1.0) < 1e-7
        )


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

        def fake(sys_, p, init):
            return one_sweep(sys_, p, max_iters=1, init=init)

        monkeypatch.setattr(percolation, "message_passing_cluster", fake)
        with pytest.raises(DomainError, match=r"full .*p=.*max_delta \d"):
            backbone_percolation_study(complete_graph(5), [], [0.3, 0.6])

    def test_every_point_matches_a_fresh_solve(self):
        # the downward chain reaches the same fixed points as seeded cold
        # starts, to within the solves' tolerance
        with open(CONTACT) as fh:
            g = cli.parse_edge_list(fh, directed=False)
        grid = cli._parse_pgrid(
            cli.build_parser().parse_args(["percolation", "x"]).pgrid
        )
        (report,) = backbone_percolation_study(g, [], grid)
        sys_ = HalfEdgeSystem.build(g)
        fresh = [
            message_passing_cluster(sys_, p, init="random", seed=1)[0]
            for p in grid
        ]
        np.testing.assert_allclose(report.S, fresh, rtol=0, atol=1e-9)
        assert max(report.S) > 0.5

    @given(random_undirected_graphs(connected=True), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_cold_starts_across_threshold(self, g, seed):
        # Grid points well below the threshold (radius <= 0.6) and at twice
        # it or more, none near it: there the sweeps converge too slowly for
        # either solve's stopping rule to bound its error by 1e-9 (a graph
        # whose 2-core is one cycle is critical at p = 1). The graphs are
        # connected, as each component has a threshold of its own.
        p_c = critical_probability(g)
        candidates = [0.05, 0.2, 0.6, 1.0]
        if p_c is not None:
            candidates += [0.25 * p_c, 0.6 * p_c, 2 * p_c]
        grid = [
            p for p in candidates
            if p <= 1.0 and (nb_leading_eigenvalue(g, p) <= 0.6
                             or p_c is not None and p >= 2 * p_c)
        ]
        (report,) = backbone_percolation_study(g, [], grid)
        sys_ = HalfEdgeSystem.build(g)
        cold = [
            message_passing_cluster(sys_, p, init="random", seed=seed)[0]
            for p in sorted(grid)
        ]
        np.testing.assert_allclose(report.S, cold, rtol=0, atol=1e-9)
