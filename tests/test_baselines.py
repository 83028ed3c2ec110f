from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from mdlbackbone.baselines import (
    _arcs_on_shortest_paths,
    _pair_matrix,
    disparity_filter,
    disparity_filter_top_e,
    edge_disparity_pvalues,
    high_salience_skeleton,
    percolation_backbone,
    salience_table,
)
from mdlbackbone.errors import DomainError
from mdlbackbone.graph import (
    _out_sums,
    directed_parents,
    directed_view,
    parse_edge_list,
)

from conftest import make_graph, real_star


class TestDisparity:
    def test_reference_values(self):
        assert edge_disparity_pvalues(real_star([3.0, 1.0])) == pytest.approx(
            [0.25, 0.75], abs=1e-12)
        assert edge_disparity_pvalues(real_star([2.0, 2.0])) == pytest.approx(
            [0.5, 0.5], abs=1e-12)
        # degree-one edges get p = 1
        assert edge_disparity_pvalues(real_star([3.0])).tolist() == [1.0]

    def test_matches_integral(self):
        # p-value = 1 - (k-1) * Int_0^{w/s} (1-x)^(k-2) dx
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(2, 20))
            s = float(rng.uniform(1, 100))
            w = float(rng.uniform(0.01, 1.0)) * s
            g = real_star([w] + [(s - w) / (k - 1)] * (k - 1))
            s = g.strengths()[0]
            integral, _ = quad(lambda x: (1 - x) ** (k - 2), 0, w / s)
            assert edge_disparity_pvalues(g)[0] == pytest.approx(
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
        def p(w, s, k):  # a uniform split of s over k edges puts >= w on one
            return (1 - w / s) ** (k - 1)

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
        saliency = salience_table(g)
        assert np.allclose(saliency, 1.0)
        assert high_salience_skeleton(g).num_edges == 2

    def test_triangle_drops_weakest(self):
        g = make_graph([0, 1, 0], [1, 2, 2], [3, 3, 1], directed=False)
        saliency = salience_table(g)
        bb = high_salience_skeleton(g)
        assert saliency[2] == 0.0
        assert bb.edge_set() == {(0, 1), (1, 2)}

    def test_star_everything_salient(self, star_graph):
        g = make_graph([0, 0, 0, 0], [1, 2, 3, 4], [5, 1, 1, 1],
                       num_nodes=5, directed=False)
        assert high_salience_skeleton(g).num_edges == 4

    def test_parallel_edges_heaviest_is_the_distance(self):
        # "a b 3" and "b a 2" are parallel undirected edges: a-b is 1/3 long,
        # not 1/3 + 1/2, so the heavier one is on every tree
        g = parse_edge_list("a b 3\nb a 2\nb c 1", directed=False)
        assert salience_table(g).tolist() == [1.0, 0.0, 1.0]

    @pytest.mark.parametrize("src, dst, weights, saliency", [
        ([0, 1, 2], [1, 2, 1], [1.0, 9.12e14, 1e15], [1.0, 0.0, 1.0]),
        ([0, 2, 1], [1, 1, 2], [1.0, 1e15, 9.12e14], [1.0, 1.0, 0.0]),
    ], ids=["longer-first", "shorter-first"])
    def test_longer_parallel_arc_joins_no_tree(self, src, dst, weights, saliency):
        # behind the unit edge 1 + 1/9.12e14 and 1 + 1/1e15 round to one
        # float, so the longer parallel arc ties the shorter one there
        g = make_graph(src, dst, weights, directed=False, weight_kind="real")
        assert salience_table(g).tolist() == saliency

    def test_view_past_the_float_range(self):
        # the graph's total is finite; its directed view, counting the edge
        # twice, would not be
        g = parse_edge_list("a b 1.5e308\n", directed=False)
        assert salience_table(g).tolist() == [1.0]
        assert high_salience_skeleton(g).num_edges == 1

    def test_loop_joins_no_tree(self):
        # 1 + 1e-17 rounds to 1, so the loop at node 0 ties the arc 2 -> 0
        g = make_graph([2, 0, 0], [0, 0, 1], [1.0, 1e17, 1.0], weight_kind="real")
        assert salience_table(g).tolist() == [1 / 3, 0.0, 2 / 3]

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
        assert np.array_equal(t1, t2)

    @pytest.mark.parametrize("sample_cap", [0, -1])
    def test_sample_cap_below_one_rejected(self, star_graph, sample_cap):
        with pytest.raises(DomainError, match="sample_cap"):
            salience_table(star_graph, sample_cap=sample_cap)

    @pytest.mark.parametrize("seed", [[1, 2], -1, 1.5, "1"])
    def test_seed_outside_the_rule_rejected(self, star_graph, seed):
        with pytest.raises(DomainError, match="seed must be None or an integer"):
            salience_table(star_graph, seed=seed)


def salience_reference(g, sample_cap=10000, seed=0):
    """The per-root loop of ``salience_table`` over every arc of the
    directed view that stands for its pair, without the landmark pruning,
    kept as its reference. Of parallel arcs only the shortest, the first
    by position among equals, stands for the pair; a loop stands for
    none."""
    dg = directed_view(g)
    n = g.num_nodes
    d_edge = 1.0 / np.asarray(dg.weights, dtype=float)
    dist_mat = _pair_matrix(n, dg.src, dg.dst, d_edge)
    if n <= sample_cap:
        roots = np.arange(n)
    else:
        rng = np.random.default_rng(seed)
        roots = np.sort(rng.choice(n, size=sample_cap, replace=False))
    # in-edges of each node in the directed view, sorted by (dst, src) so the
    # first feasible predecessor within a segment is the smallest-index one;
    # an arc that does not stand for its pair is never feasible
    in_key = np.asarray(dg.dst, dtype=np.int64) * n + dg.src
    by_length = np.lexsort((np.arange(dg.num_edges), d_edge, in_key))
    stands = np.zeros(dg.num_edges, dtype=bool)
    stands[by_length] = np.diff(in_key[by_length], prepend=-1) != 0
    stands &= dg.src != dg.dst
    in_order = np.argsort(in_key, kind="stable")
    in_dst = dg.dst[in_order]
    in_starts = np.searchsorted(in_dst, np.arange(n + 1))
    in_src = dg.src[in_order]
    in_d = d_edge[in_order]
    in_stands = stands[in_order]
    M = dg.num_edges
    to_parent_edge = directed_parents(g)[in_order]
    has_in = in_starts[1:] > in_starts[:-1]
    starts_nz = in_starts[:-1][has_in]
    nodes_nz = np.nonzero(has_in)[0]
    positions = np.arange(M)

    counts = np.zeros(g.num_edges)
    for lo in range(0, len(roots), 256):
        chunk = roots[lo:lo + 256]
        dist = np.atleast_2d(dijkstra(dist_mat, directed=True, indices=chunk))
        for r, drow in zip(chunk, dist):
            feas = ((drow[in_src] + in_d) == drow[in_dst]) & in_stands
            fpos = np.where(feas, positions, M)
            first = np.minimum.reduceat(fpos, starts_nz) if len(starts_nz) else fpos[:0]
            valid = (first < M) & (nodes_nz != r) & np.isfinite(drow[nodes_nz])
            np.add.at(counts, to_parent_edge[first[valid]], 1.0)
    return counts / len(roots)


@st.composite
def salience_graphs(draw):
    """Graphs for the salience oracle: exact ties (weights 1, 2 and 4), or
    real weights up to 1e15 whose distances 1/w vanish in float sums with
    longer ones; several parts, parallel edges, self-loops, and a root
    sample that may leave nodes out."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 80))
    # node i lies in part i % parts, and each edge stays in its src's part
    parts = draw(st.integers(1, 3))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    hop = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = []
    for s, h in zip(src, hop):
        part = range(s % parts, n, parts)
        dst.append(part[h % len(part)])
    if draw(st.booleans()):
        w = draw(st.lists(st.sampled_from([1, 2, 4]), min_size=m, max_size=m))
        kind = "integer"
    else:
        weight = st.one_of(st.sampled_from([1.0, 3.0, 1e15]), st.floats(1.0, 1e15))
        w = draw(st.lists(weight, min_size=m, max_size=m))
        kind = "real"
    g = make_graph(src, dst, w, num_nodes=n, directed=draw(st.booleans()),
                   weight_kind=kind)
    return g, draw(st.integers(1, n + 1)), draw(st.integers(0, 3))


def floyd_warshall(g):
    """Dense all-pairs distances of the directed view, d = 1/w."""
    dg = directed_view(g)
    n = g.num_nodes
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    np.minimum.at(dist, (dg.src, dg.dst), 1.0 / np.asarray(dg.weights, dtype=float))
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


class TestSalienceMatchesUnprunedLoop:
    @given(salience_graphs())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, case):
        g, sample_cap, seed = case
        assert np.array_equal(salience_table(g, sample_cap=sample_cap, seed=seed),
                              salience_reference(g, sample_cap=sample_cap, seed=seed))

    @given(salience_graphs())
    @settings(max_examples=200, deadline=None)
    def test_salient_edges_are_shortest_paths(self, case):
        g, sample_cap, seed = case
        saliency = salience_table(g, sample_cap=sample_cap, seed=seed)
        dist = floyd_warshall(g)
        on_tree = saliency > 0
        d = 1.0 / np.asarray(g.weights, dtype=float)
        # weights 1, 2 and 4 sum exactly; otherwise Dijkstra's float sums can
        # tie a path longer by their rounding, n eps times the longest path
        n = g.num_nodes
        slack = 0.0 if g.weight_kind == "integer" else (
            4 * n * np.finfo(float).eps * n * d.max(initial=0.0))
        assert np.all(d[on_tree] <= dist[g.src[on_tree], g.dst[on_tree]] + slack)

    def test_arc_shorter_in_float_sums_kept(self):
        # 1 -> 2 is longer than 1 -> 3 -> 2 (1/4.9e14 against 2e-15), but
        # behind root 0's unit arc the float sums round it shorter
        g = make_graph([0, 1, 1, 3], [1, 2, 3, 2], [1, 4.9e14, 1e15, 1e15],
                       weight_kind="real")
        saliency = salience_table(g)
        assert saliency[1] > 0
        assert np.array_equal(saliency, salience_reference(g))

    @pytest.mark.parametrize("directed", [True, False])
    def test_contact_graph(self, directed):
        path = Path(__file__).resolve().parents[1] / "datasets" / "contact-1000.tsv"
        with open(path) as fh:
            g = parse_edge_list(fh, directed=directed)
        assert np.array_equal(salience_table(g, seed=1), salience_reference(g, seed=1))

    def test_contact_graph_pruned(self):
        # the light contacts are longer than a detour through heavy ones:
        # the undirected search keeps 3,000 of the 15,000 arcs
        path = Path(__file__).resolve().parents[1] / "datasets" / "contact-1000.tsv"
        with open(path) as fh:
            dg = directed_view(parse_edge_list(fh, directed=False))
        d = 1.0 / np.asarray(dg.weights, dtype=float)
        dist_mat = _pair_matrix(dg.num_nodes, dg.src, dg.dst, d)
        keep = _arcs_on_shortest_paths(dist_mat, dg.src, dg.dst, d, [0], True)
        assert keep.sum() == 3000


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
        degrees = _out_sums(g, bb.member_flags)
        assert degrees[:2].sum() > 0
        assert degrees[2:].sum() > 0

    def test_weight_classes_added_whole(self):
        # two weight-3 edges: both must enter together
        g = make_graph([0, 0, 1], [1, 2, 2], [3, 3, 1], directed=False)
        bb = percolation_backbone(g)
        assert bb.edge_set() == {(0, 1), (0, 2)}

    @pytest.mark.parametrize("weight_kind", ["integer", "real"])
    def test_no_edges(self, weight_kind):
        g = make_graph([], [], [], num_nodes=3, weight_kind=weight_kind)
        assert percolation_backbone(g).num_edges == 0


class _DisjointSet:
    def __init__(self, n):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def percolation_flags_reference(g):
    """Flags of the per-edge union-find loop that ``percolation_backbone``
    replaced, kept as its reference."""
    n = g.num_nodes
    adj = csr_matrix(
        (np.ones(g.num_edges), (g.src, g.dst)), shape=(n, n)
    )
    n_comp_target, comp = connected_components(adj, directed=True, connection="weak")
    nonisolated = np.zeros(n, dtype=bool)
    nonisolated[g.src] = True
    nonisolated[g.dst] = True
    # components consisting solely of isolated nodes don't count
    target = len(np.unique(comp[nonisolated])) if nonisolated.any() else 0
    n_nonisolated = int(nonisolated.sum())

    order = np.argsort(-np.asarray(g.weights, dtype=float), kind="stable")
    w_sorted = np.asarray(g.weights, dtype=float)[order]
    dsu = _DisjointSet(n)
    covered = np.zeros(n, dtype=bool)
    n_covered = 0
    n_comp = n_nonisolated
    flags = np.zeros(g.num_edges, dtype=bool)

    pos = 0
    E = g.num_edges
    while pos < E:
        wclass = w_sorted[pos]
        while pos < E and w_sorted[pos] == wclass:
            e = order[pos]
            flags[e] = True
            for node in (int(g.src[e]), int(g.dst[e])):
                if not covered[node]:
                    covered[node] = True
                    n_covered += 1
            if dsu.union(int(g.src[e]), int(g.dst[e])):
                n_comp -= 1
            pos += 1
        # uncovered non-isolated nodes each still count as their own component
        if n_covered == n_nonisolated and n_comp == target:
            break
    return flags


@st.composite
def weighted_multigraphs(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 14))
    node = st.integers(0, n - 1)
    src = draw(st.lists(node, min_size=m, max_size=m))
    dst = draw(st.lists(node, min_size=m, max_size=m))
    real = draw(st.booleans())
    # thirds are not dyadic, so real classes are floats that tie only when equal
    weight = st.integers(1, 4).map(lambda x: x / 3) if real else st.integers(1, 4)
    w = draw(st.lists(weight, min_size=m, max_size=m))
    return make_graph(src, dst, w, num_nodes=n, directed=draw(st.booleans()),
                      weight_kind="real" if real else "integer")


class TestPercolationBackboneMatchesLoop:
    @given(weighted_multigraphs())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, g):
        bb = percolation_backbone(g)
        assert np.array_equal(bb.member_flags, percolation_flags_reference(g))

    def test_contact_graph(self):
        path = Path(__file__).resolve().parents[1] / "datasets" / "contact-1000.tsv"
        with open(path) as fh:
            g = parse_edge_list(fh, directed=False)
        bb = percolation_backbone(g)
        assert np.array_equal(bb.member_flags, percolation_flags_reference(g))
