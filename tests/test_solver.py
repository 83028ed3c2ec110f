from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdlbackbone import objectives, solver
from mdlbackbone.errors import DomainError
from mdlbackbone.graph import _out_sums, directed_view, parse_edge_list
from mdlbackbone.objectives import (
    ObjectiveSpec,
    _dl_curve,
    _log2_factorial,
    description_length,
    dl_local_micro,
)
from mdlbackbone.solver import (
    _curve,
    empty_backbone_dls,
    greedy_global,
    greedy_local,
    inverse_compression_ratio,
    result_to_dict,
)

import oracles
from conftest import (
    INTEGER_RULE,
    assert_integer_objectives_refuse,
    lexsort_global_flags,
    lexsort_local_flags,
    make_graph,
    mean_weight_ordering_holds,
    random_multigraph_free,
    small_graphs,
)
from oracles import ENUMERATION_EDGE_CAP, enumerate_optimal, strength_prior_bits

MICRO_G = ObjectiveSpec("global", "microcanonical")
MICRO_L = ObjectiveSpec("local", "microcanonical")
GEOM_G = ObjectiveSpec("global", "canonical", "geometric")
GEOM_L = ObjectiveSpec("local", "canonical", "geometric")
POIS_G = ObjectiveSpec("global", "canonical", "poisson")


class TestGreedyGlobal:
    def test_star_example(self, star_graph):
        res = greedy_global(star_graph, MICRO_G)
        assert res.dl == pytest.approx(6.6439, abs=1e-4)
        assert res.backbone.num_edges == 1
        assert res.backbone.total_weight == 5

    def test_homogeneous_weights_empty(self):
        g = make_graph([0, 0, 0, 0], [1, 2, 3, 4], [2, 2, 2, 2], num_nodes=5)
        res = greedy_global(g, MICRO_G)
        assert res.backbone.num_edges == 0
        assert res.dl == pytest.approx(9.7731, abs=1e-4)

    def test_single_edge(self):
        g = make_graph([0], [1], [7])
        res = greedy_global(g, MICRO_G)
        assert res.backbone.num_edges == 0

    def test_empty_graph_rejected(self):
        g = make_graph([], [], [], num_nodes=3)
        with pytest.raises(DomainError):
            greedy_global(g, MICRO_G)

    def test_eta_star(self, star_selfloops):
        res = greedy_global(star_selfloops, MICRO_G)
        assert res.dl_empty_global == pytest.approx(9.7731, abs=1e-4)
        assert res.dl_empty_local == pytest.approx(9.7731, abs=1e-4)
        assert res.eta == pytest.approx(6.6439 / 9.7731, abs=1e-3)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_multigraph_free(rng)
            res = greedy_global(g, MICRO_G)
            perm = rng.permutation(g.num_edges)
            g2 = make_graph(
                g.src[perm], g.dst[perm], g.weights[perm],
                num_nodes=g.num_nodes,
            )
            res2 = greedy_global(g2, MICRO_G)
            assert res.dl == pytest.approx(res2.dl, abs=1e-9)
            assert res.backbone.edge_set() == res2.backbone.edge_set()

    def test_trace_covers_full_range(self):
        g = make_graph([0, 0, 0, 0], [1, 2, 3, 4], [9, 5, 2, 1], num_nodes=5)
        res = greedy_global(g, MICRO_G)
        values, starts = res.curves
        assert list(starts) == [0, g.num_edges + 1]
        assert len(values) == g.num_edges + 1
        # the empty and the full backbone are one bit-flip apart
        assert values[0] == values[g.num_edges]
        assert np.argmin(values) == res.backbone.num_edges == 1
        assert values[res.backbone.num_edges] == res.dl


class TestGreedyLocal:
    def test_star_neighborhood(self, star_selfloops):
        res = greedy_local(star_selfloops, MICRO_L)
        assert res.backbone.num_edges == 1
        assert res.backbone.total_weight == 5
        assert res.dl == pytest.approx(6.6439, abs=1e-4)

    def test_dl_matches_objective_evaluation(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_multigraph_free(rng)
            res = greedy_local(g, MICRO_L)
            assert res.dl == pytest.approx(
                dl_local_micro(g, res.backbone), abs=1e-9
            )

    def test_degree_one_neighborhoods_empty(self):
        g = make_graph([0, 1, 2], [1, 2, 3], [9, 9, 9], num_nodes=4)
        res = greedy_local(g, MICRO_L)
        assert res.backbone.num_edges == 0

    def test_undirected_dedup(self):
        g = make_graph([0, 0, 1], [1, 2, 2], [5, 1, 5], directed=False)
        res = greedy_local(g, MICRO_L)
        # membership comes from either orientation, each parent edge once
        assert res.backbone.num_edges <= g.num_edges
        assert res.backbone.parent is g

    def test_node_traces(self, star_selfloops):
        res = greedy_local(star_selfloops, MICRO_L)
        values, starts = res.curves
        assert list(starts) == [0, 5]
        assert np.argmin(values) == res.backbone.num_edges == 1
        prior = strength_prior_bits(1, 4, 8)
        assert values.min() + prior == pytest.approx(res.dl, abs=1e-12)


class TestGlobalMatchesLocalOnOneNeighborhood:
    """One out-neighborhood is one sweep segment for both scopes: the same
    backbone, the same DL up to the local strength prior, and the same
    curve."""

    def check(self, g, family, model=None):
        glob = greedy_global(g, ObjectiveSpec("global", family, model))
        loc = greedy_local(g, ObjectiveSpec("local", family, model))
        assert np.array_equal(loc.backbone.member_flags,
                              glob.backbone.member_flags)
        prior = 0.0
        if family == "microcanonical":
            prior = strength_prior_bits(g.num_nodes, g.num_edges, g.total_weight)
        assert loc.dl - prior == pytest.approx(glob.dl, abs=1e-9)
        values, starts = loc.curves
        np.testing.assert_allclose(values[starts[0]:starts[1]],
                                   glob.curves[0], rtol=0, atol=1e-9)

    @given(small_graphs(one_neighborhood=True))
    @settings(max_examples=60, deadline=None)
    def test_micro(self, g):
        self.check(g, "microcanonical")

    @pytest.mark.parametrize("model", ["geometric", "poisson"])
    @given(g=small_graphs(one_neighborhood=True))
    @settings(max_examples=60, deadline=None)
    def test_canonical(self, model, g):
        self.check(g, "canonical", model)

    @given(small_graphs(real=True, one_neighborhood=True))
    @settings(max_examples=60, deadline=None)
    def test_exponential_real_weights(self, g):
        self.check(g, "canonical", "exponential")


OBJECTIVES = [("microcanonical", None), ("canonical", "geometric"),
              ("canonical", "poisson"), ("canonical", "exponential")]


class TestTraceIsTheCurve:
    """``curves`` holds the curves the greedy minimizes: in every segment of
    both scopes the first minimum is the returned backbone size and DL."""

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("family, model", OBJECTIVES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_global(self, family, model, directed, data):
        g = data.draw(small_graphs(directed, real=model == "exponential"))
        res = greedy_global(g, ObjectiveSpec("global", family, model))
        values, starts = res.curves
        assert list(starts) == [0, g.num_edges + 1]
        assert len(values) == g.num_edges + 1
        assert np.argmin(values) == res.backbone.num_edges
        assert values[res.backbone.num_edges] == res.dl

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("family, model", OBJECTIVES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_local(self, family, model, directed, data):
        g = data.draw(small_graphs(directed, real=model == "exponential"))
        res = greedy_local(g, ObjectiveSpec("local", family, model))
        values, starts = res.curves
        N = g.num_nodes
        assert len(starts) == N + 1
        slices = [values[starts[i]:starts[i + 1]] for i in range(N)]
        if directed:
            kept = np.bincount(g.src[res.backbone.member_flags], minlength=N)
            assert [int(np.argmin(v)) for v in slices] == list(kept)
        dl = sum(v.min() for v in slices)
        if family == "microcanonical":
            dg = directed_view(g)
            dl += strength_prior_bits(N, dg.num_edges, dg.total_weight)
        assert dl == pytest.approx(res.dl, abs=1e-9)


class TestNonDyadicRealWeights:
    """Weights in tenths are not exact in binary, so the sums the sweep
    forms round; the empty and the full backbone tie exactly all the same,
    and the empty one wins."""

    EXP_G = ObjectiveSpec("global", "canonical", "exponential")
    EXP_L = ObjectiveSpec("local", "canonical", "exponential")

    @given(st.lists(st.integers(10, 200), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_degree_one_neighborhoods_keep_nothing(self, tenths):
        # a chain 0 -> 1 -> ... -> m: every out-neighborhood has one edge
        m = len(tenths)
        g = make_graph(range(m), range(1, m + 1), [t / 10 for t in tenths],
                       weight_kind="real")
        res = greedy_local(g, self.EXP_L)
        assert res.backbone.num_edges == 0
        values, starts = res.curves
        head = starts[:-1][np.diff(starts) == 2]
        assert np.array_equal(values[head], values[head + 1])

    @pytest.mark.parametrize("directed", [True, False])
    @given(m=st.integers(1, 24), tenths=st.integers(10, 200))
    @settings(max_examples=60, deadline=None)
    def test_equal_weights_give_empty_backbone(self, directed, m, tenths):
        g = make_graph([0] * m, range(1, m + 1), [tenths / 10] * m,
                       directed=directed, weight_kind="real")
        res = greedy_global(g, self.EXP_G)
        values = res.curves[0]
        assert res.backbone.num_edges == np.argmin(values) == 0
        assert values[0] == values[m]
        assert greedy_local(g, self.EXP_L).backbone.num_edges == 0


class TestAgainstEnumeration:
    @pytest.mark.parametrize("spec", [MICRO_G, GEOM_G, POIS_G])
    def test_global(self, spec):
        rng = np.random.default_rng(int(1000 * spec.lam) + len(spec.family))
        for _ in range(40):
            g = random_multigraph_free(rng)
            greedy = greedy_global(g, spec)
            exact = enumerate_optimal(g, spec)
            assert greedy.dl == pytest.approx(exact.dl, abs=1e-9)

    @pytest.mark.parametrize(
        "spec", [MICRO_L, GEOM_L, ObjectiveSpec("local", "canonical", "poisson")]
    )
    def test_local(self, spec):
        rng = np.random.default_rng(99)
        for _ in range(40):
            g = random_multigraph_free(rng, max_nodes=5, max_edges=10)
            greedy = greedy_local(g, spec)
            exact = enumerate_optimal(g, spec)
            assert greedy.dl == pytest.approx(exact.dl, abs=1e-9)

    @staticmethod
    def heavy_first(rng, m):
        """A third of the weights heavy, the rest light, heaviest first: the
        heavy prefixes lie in the first chunk of masks the oracle scores,
        and the later chunks fold without improving."""
        w = np.concatenate([rng.integers(100, 1000, m // 3),
                            rng.integers(1, 20, m - m // 3)])
        return np.sort(w)[::-1]

    @pytest.mark.parametrize("m", [17, 18])
    @pytest.mark.parametrize("spec", [MICRO_G, GEOM_G, POIS_G])
    def test_global_across_mask_chunks(self, spec, m):
        # 2**16 masks per chunk: 2 or 4 chunks
        rng = np.random.default_rng(m)
        w = self.heavy_first(rng, m)
        g = make_graph(rng.integers(0, 6, m), rng.integers(0, 6, m), w, num_nodes=6)
        greedy = greedy_global(g, spec)
        exact = enumerate_optimal(g, spec)
        assert greedy.dl == pytest.approx(exact.dl, abs=1e-9)
        assert greedy.backbone.num_edges == exact.backbone.num_edges

    @pytest.mark.parametrize("m", [13, 14])
    @pytest.mark.parametrize(
        "spec", [MICRO_L, GEOM_L, ObjectiveSpec("local", "canonical", "poisson")]
    )
    def test_local_across_mask_chunks(self, spec, m):
        # 2**12 masks per chunk: 2 or 4 chunks
        rng = np.random.default_rng(m)
        w = self.heavy_first(rng, m)
        g = make_graph(rng.integers(0, 4, m), rng.integers(0, 4, m), w, num_nodes=4)
        greedy = greedy_local(g, spec)
        exact = enumerate_optimal(g, spec)
        assert greedy.dl == pytest.approx(exact.dl, abs=1e-9)
        # a neighborhood's heavy prefix and its light complement have one DL
        # (bit-flip symmetry); the two solvers may keep either
        k = np.bincount(g.src, minlength=4)
        kept = np.bincount(g.src[greedy.backbone.member_flags], minlength=4)
        kept_exact = np.bincount(g.src[exact.backbone.member_flags], minlength=4)
        assert ((kept_exact == kept) | (kept_exact == k - kept)).all()

    def test_undirected_parallel_orientations(self):
        # "a b 3" and "b a 2" are parallel edges. b's neighborhood keeps its
        # heaviest edge, the b->a copy of edge 0, which must map back to edge
        # 0, not to the later parallel edge 1. Node c (weights 4 and 1) has
        # an exact bit-flip tie that the greedy and the enumeration break
        # differently, so edge 2 is not compared.
        g = parse_edge_list("a b 3\nb a 2\nb c 1\na c 4", directed=False)
        greedy = greedy_local(g, MICRO_L)
        exact = enumerate_optimal(g, MICRO_L)
        assert greedy.dl == pytest.approx(exact.dl, abs=1e-9)
        for res in (greedy, exact):
            assert list(res.backbone.member_flags[[0, 1, 3]]) == [True, False, True]

    def test_undirected_global(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_multigraph_free(rng, directed=False)
            greedy = greedy_global(g, MICRO_G)
            exact = enumerate_optimal(g, MICRO_G)
            assert greedy.dl == pytest.approx(exact.dl, abs=1e-9)

    def test_cap(self):
        g = make_graph(
            np.zeros(ENUMERATION_EDGE_CAP + 1, dtype=np.int64),
            np.arange(1, ENUMERATION_EDGE_CAP + 2),
            np.ones(ENUMERATION_EDGE_CAP + 1, dtype=np.int64),
        )
        with pytest.raises(DomainError):
            enumerate_optimal(g, MICRO_G)


class TestOracleGlobalMatchesLocalOnOneNeighborhood:
    """The oracle's counterpart of TestGlobalMatchesLocalOnOneNeighborhood:
    where every edge leaves node 0, the enumeration at local scope scores
    one non-empty segment, the edge list, as it does at global scope."""

    @pytest.mark.parametrize("family, model", OBJECTIVES)
    @given(g=small_graphs(one_neighborhood=True))
    @settings(max_examples=30, deadline=None)
    def test_same_flags_and_dl(self, family, model, g):
        glob = enumerate_optimal(g, ObjectiveSpec("global", family, model))
        loc = enumerate_optimal(g, ObjectiveSpec("local", family, model))
        assert np.array_equal(loc.backbone.member_flags, glob.backbone.member_flags)
        prior = 0.0
        if family == "microcanonical":
            prior = strength_prior_bits(g.num_nodes, g.num_edges, g.total_weight)
        assert loc.dl - prior == pytest.approx(glob.dl, abs=1e-9)

    def test_ties_go_to_the_fewest_edges_then_the_first_mask(self):
        # 17 edges: the oracle scores two chunks of masks at global scope.
        # Every mask of one or two edges scores 0 bits and every other mask
        # 1 bit, so the winner is mask 1, edge 0 alone, from the first chunk.
        def zero_at_one_or_two(k, s, k_b, s_b, spec, wf):
            return np.where((k_b == 1) | (k_b == 2), 0.0, 1.0)

        g = make_graph([0] * 17, range(1, 18), [1] * 17)
        with mock.patch.object(oracles, "_dl_curve", zero_at_one_or_two):
            res = enumerate_optimal(g, MICRO_G)
        assert list(np.flatnonzero(res.backbone.member_flags)) == [0]
        assert res.dl == 0.0


class TestCompareByIdentity:
    """Graphs, backbones and results hold arrays, which have no truth value:
    they compare and hash by identity."""

    def test_equal_contents_compare_false(self):
        text = "a b 3\nb c 1\na c 2\n"
        g, h = parse_edge_list(text, directed=True), parse_edge_list(text, directed=True)
        r, s = greedy_global(g), greedy_global(g)
        for x, y in ((g, h), (r, s), (r.backbone, s.backbone)):
            assert x == x
            assert not x == y
            assert x != y
        assert len({g, h, g}) == 2


INTEGER_SPECS = [ObjectiveSpec(scope, family, model) for scope in ("global", "local")
                 for family, model in OBJECTIVES[:3]]


@st.composite
def dp_graphs(draw, scope):
    """Up to 150 edges, weights up to 30, many of them 1; self-loops
    and parallel edges allowed. Global scope: up to 20 nodes, either
    direction. Local scope: directed, on up to 4 nodes, so that the
    out-neighborhoods are long."""
    n = draw(st.integers(1, 20 if scope == "global" else 4))
    m = draw(st.integers(1, 150))
    node = st.integers(0, n - 1)
    src = draw(st.lists(node, min_size=m, max_size=m))
    dst = draw(st.lists(node, min_size=m, max_size=m))
    w = draw(st.lists(st.one_of(st.just(1), st.integers(1, 30)), min_size=m, max_size=m))
    directed = scope == "local" or draw(st.booleans())
    return make_graph(src, dst, w, num_nodes=n, directed=directed)


class TestAgainstDP:
    """Past the enumeration's 24 edges, the subset-sum DP oracle gives the
    least DL over every backbone: the greedy reaches it, and the backbone
    it returns scores it."""

    @pytest.mark.parametrize("spec", INTEGER_SPECS, ids=objectives._objective_name)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_greedy_reaches_the_dp_minimum(self, spec, data):
        g = data.draw(dp_graphs(spec.scope))
        res = (greedy_global if spec.scope == "global" else greedy_local)(g, spec)
        best = oracles.dp_optimal(g, spec)
        assert res.dl == pytest.approx(best, abs=1e-9)
        assert description_length(g, res.backbone, spec) == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("spec", INTEGER_SPECS, ids=objectives._objective_name)
    @given(g=small_graphs())
    @settings(max_examples=20, deadline=None)
    def test_dp_matches_enumeration(self, spec, g):
        assert oracles.dp_optimal(g, spec) == pytest.approx(
            enumerate_optimal(g, spec).dl, abs=1e-9)


def random_graph(rng, directed, real):
    """Up to 40 nodes and 300 edges, self-loops and parallel edges allowed,
    a random share of the weights about 50 times heavier than the rest, so
    that most backbones are neither empty nor full. Real weights are all
    distinct."""
    n, m = int(rng.integers(2, 41)), int(rng.integers(1, 301))
    heavy = rng.random(m) < rng.random()
    if real:
        w = np.where(heavy, 50.0, 1.0) * (1.0 + rng.exponential(1.0, m))
    else:
        w = np.where(heavy, rng.integers(50, 500, m), rng.integers(1, 6, m))
    return make_graph(rng.integers(0, n, m), rng.integers(0, n, m), w, num_nodes=n,
                      directed=directed, weight_kind="real" if real else "integer")


class TestRelabelAndPermute:
    """Relabeling the nodes and permuting the lines moves no result: the
    same kept weights (per relabeled node at directed local scope) and the
    same DL. Undirected local scope is left out: which of two equal-weight
    edges a neighborhood keeps follows input position there, and whether
    both endpoints keep the same one changes the union."""

    @staticmethod
    def relabeled(g, rng):
        perm, order = rng.permutation(g.num_nodes), rng.permutation(g.num_edges)
        h = make_graph(perm[g.src[order]], perm[g.dst[order]], g.weights[order],
                       num_nodes=g.num_nodes, directed=g.directed,
                       weight_kind=g.weight_kind)
        return h, perm

    @staticmethod
    def kept(res, node_of=None):
        """Sorted (node, weight) pairs of the kept edges; nodes through
        ``node_of``, or all 0."""
        bb = res.backbone
        src = bb.parent.src[bb.member_flags]
        nodes = node_of[src] if node_of is not None else np.zeros_like(src)
        return sorted(zip(nodes.tolist(), bb.parent.weights[bb.member_flags].tolist()))

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("family, model", OBJECTIVES)
    def test_global(self, family, model, directed):
        rng = np.random.default_rng(len(family) + len(model or "") + directed)
        spec = ObjectiveSpec("global", family, model)
        for _ in range(40):
            g = random_graph(rng, directed, real=model == "exponential")
            h, _ = self.relabeled(g, rng)
            a, b = greedy_global(g, spec), greedy_global(h, spec)
            assert a.backbone.num_edges == b.backbone.num_edges
            assert self.kept(a) == self.kept(b)
            assert b.dl == pytest.approx(a.dl, rel=0, abs=1e-9)

    @pytest.mark.parametrize("family, model", OBJECTIVES)
    def test_directed_local(self, family, model):
        rng = np.random.default_rng(len(family) + len(model or ""))
        spec = ObjectiveSpec("local", family, model)
        for _ in range(40):
            g = random_graph(rng, True, real=model == "exponential")
            h, perm = self.relabeled(g, rng)
            a, b = greedy_local(g, spec), greedy_local(h, spec)
            assert self.kept(a, perm) == self.kept(b, np.arange(h.num_nodes))
            assert b.dl == pytest.approx(a.dl, rel=0, abs=1e-9)


class TestDisjointUnion:
    """At directed local scope every out-neighborhood is its own segment,
    and the strength prior does not depend on the backbone: the flags of
    G1 + G2, side by side, are G1's flags followed by G2's."""

    @pytest.mark.parametrize("family, model", OBJECTIVES)
    def test_flags_concatenate(self, family, model):
        rng = np.random.default_rng(3 + len(family) + len(model or ""))
        spec = ObjectiveSpec("local", family, model)
        real = model == "exponential"
        for _ in range(40):
            g1, g2 = (random_graph(rng, True, real) for _ in range(2))
            n = g1.num_nodes
            union = make_graph(np.concatenate([g1.src, g2.src + n]),
                               np.concatenate([g1.dst, g2.dst + n]),
                               np.concatenate([g1.weights, g2.weights]),
                               num_nodes=n + g2.num_nodes, weight_kind=g1.weight_kind)
            flags = [greedy_local(x, spec).backbone.member_flags for x in (g1, g2)]
            assert np.array_equal(greedy_local(union, spec).backbone.member_flags,
                                  np.concatenate(flags))


class TestInvariants:
    def test_mean_weight_ordering(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            g = random_multigraph_free(rng)
            w = np.sort(np.asarray(g.weights))[::-1]
            assert mean_weight_ordering_holds(w)

    def test_mean_weight_ordering_violated_by_bad_order(self):
        assert not mean_weight_ordering_holds(np.array([1, 9, 9, 9]))

    def test_inverse_compression_ratio(self):
        assert inverse_compression_ratio(5.0, 5.0, 4.0) == 1.0
        with pytest.raises(DomainError):
            inverse_compression_ratio(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("solve, scope", [(greedy_global, "global"),
                                              (greedy_local, "local")])
    def test_nonpositive_empty_dl_names_both_values(self, solve, scope):
        # the exponential model is a differential code: on small real
        # weights both empty-backbone DLs are -0.119 bits
        g = make_graph([0] * 5, [1, 2, 3, 4, 5], [0.125] * 5, weight_kind="real")
        with pytest.raises(DomainError, match=(
            r"eta is undefined: .* -0\.119\d* bits \(global\) "
            r"and -0\.119\d* bits \(local\)"
        )):
            solve(g, ObjectiveSpec(scope, "canonical", "exponential"))


# Graphs whose totals pass 2**53, where float sums of integer weights round:
# the solvers would score states no integer weights reach, and the local
# scorer would refuse a valid backbone. Each as text and as exact weights.
BEYOND_THE_BOUND = [
    ("a b 4611686018427387904\na c 1\na d 1\n", True,
     [0, 0, 0], [1, 2, 3], [2**62, 1, 1]),
    ("a b 1152921504606846976\nc d 1\nc e 1\nc f 5\n", True,
     [0, 2, 2, 2], [1, 3, 4, 5], [2**60, 1, 1, 5]),
    ("a b 9007199254740993\na c 1\na d 2\nc d 1\n", False,
     [0, 0, 0, 2], [1, 2, 3, 3], [2**53 + 1, 1, 2, 1]),
]


@st.composite
def graphs_near_the_bound(draw):
    """Directed integer graph on up to 5 nodes: one or two heavy weights
    that sum to 2**52 or more, up to eight small ones, total below 2**53."""
    n = draw(st.integers(1, 5))
    small = draw(st.lists(st.integers(1, 9), max_size=8))
    room = 2**53 - 1 - sum(small)
    n_heavy = draw(st.integers(1, 2))
    heavy = draw(st.lists(st.integers(2**52 // n_heavy, room // n_heavy),
                          min_size=n_heavy, max_size=n_heavy))
    w = draw(st.permutations(heavy + small))
    node = st.integers(0, n - 1)
    src = draw(st.lists(node, min_size=len(w), max_size=len(w)))
    dst = draw(st.lists(node, min_size=len(w), max_size=len(w)))
    return make_graph(src, dst, w, num_nodes=n)


class TestIntegerWeightBound:
    """Integer weights total below 2**53, where every float sum of them is
    exact: strengths, prefix weights and neighborhood totals."""

    @pytest.mark.parametrize("text, directed, src, dst, w", BEYOND_THE_BOUND, ids=[
        "unreachable_states", "small_neighborhood_after_a_heavy_one", "node_totals",
    ])
    def test_graphs_beyond_the_bound_are_refused(self, text, directed, src, dst, w):
        g = parse_edge_list(text, directed=directed)
        assert (g.weight_kind, g.weights.tolist()) == ("real", [float(x) for x in w])
        assert_integer_objectives_refuse(g)
        with pytest.raises(DomainError, match=r"total weight below 2\*\*53"):
            make_graph(src, dst, w, directed=directed)

    @given(g=graphs_near_the_bound(), model=st.sampled_from([None, "geometric", "poisson"]))
    @settings(max_examples=60, deadline=None)
    def test_local_scope_is_exact_near_the_bound(self, g, model):
        exact = [0] * g.num_nodes
        for i, w in zip(g.src.tolist(), g.weights.tolist()):
            exact[i] += w
        assert g.strengths().tolist() == exact

        family = "microcanonical" if model is None else "canonical"
        spec = ObjectiveSpec("local", family, model)
        glob_spec = ObjectiveSpec("global", family, model)
        # Here one ulp of ln Gamma(W + 1) is 32 or 64 nats, and the two
        # empty-backbone DLs can both round below 0, where eta is undefined
        # and raises. Eta enters none of the values checked below.
        with mock.patch.object(solver, "inverse_compression_ratio", lambda *dls: np.nan):
            res = greedy_local(g, spec)
            values, starts = res.curves
            wfact = np.zeros(g.num_nodes)
            if model == "poisson":
                wfact = _out_sums(g, weights=_log2_factorial(g.weights))
            for i in range(g.num_nodes):
                w = sorted(g.weights[g.src == i].tolist(), reverse=True)
                if not w:
                    continue
                # the closed form at the exact states: prefix weights and
                # total as Python ints
                prefix = np.array([sum(w[:j]) for j in range(len(w) + 1)], dtype=float)
                want = _dl_curve(len(w), float(exact[i]), np.arange(len(w) + 1),
                                 prefix, spec, wfact[i])
                want[-1] = want[0]
                got = values[starts[i]:starts[i + 1]]
                assert got.tobytes() == want.tobytes()
                # and the global sweep scores the same edges alone alike, in
                # edge order, the order its poisson constant is added in
                star_w = g.weights[g.src == i]
                star = make_graph([0] * len(w), range(1, len(w) + 1), star_w)
                glob = greedy_global(star, glob_spec)
                assert got.tobytes() == glob.curves[0].tobytes()
        # the scorer accepts the backbone and gives it the solver's DL
        dl = description_length(g, res.backbone, spec)
        assert dl == pytest.approx(res.dl, abs=1e-9)

    def test_poisson_star_global_curve_is_its_local_curve(self):
        # From 8 terms on a pairwise sum adds sum_e log2 w_e! in another
        # order than the node's edge order; here that shows in the first byte.
        star = make_graph([0] * 8, range(1, 9), [2**52, 1, 1, 1, 1, 1, 2, 8])
        with mock.patch.object(solver, "inverse_compression_ratio", lambda *dls: np.nan):
            loc = greedy_local(star, ObjectiveSpec("local", "canonical", "poisson"))
            glob = greedy_global(star, ObjectiveSpec("global", "canonical", "poisson"))
        values, starts = loc.curves
        assert values[starts[0]:starts[1]].tobytes() == glob.curves[0].tobytes()


class TestRoundedWeightSums:
    """The graphs on which float weight sums rounded, beyond 2**53, read as
    real weights, which the integer objectives refuse; the same shapes just
    below the bound, where every sum is exact, are scored at the states
    integer weights reach."""

    @pytest.mark.parametrize("spec", [MICRO_G, MICRO_L, GEOM_G, GEOM_L])
    def test_unreachable_states_never_win(self, spec):
        # On (2**62, 1, 1) the prefixes of size 1 and 2 left the rest lighter
        # than its edge count, a state no integer weights reach.
        solve = greedy_global if spec.scope == "global" else greedy_local
        beyond = parse_edge_list("a b 4611686018427387904\na c 1\na d 1\n", directed=True)
        with pytest.raises(DomainError, match=INTEGER_RULE):
            solve(beyond, spec)
        g = parse_edge_list(f"a b {2**53 - 3}\na c 1\na d 1\n", directed=True)
        res = solve(g, spec)
        # node a's curve, the first segment in both scopes
        curve = res.curves[0][:4]
        assert np.isfinite(curve).all()
        assert curve[0] == curve[3]
        assert np.isfinite(res.eta)
        assert res.dl == enumerate_optimal(g, spec).dl

    @pytest.mark.parametrize("spec", [
        MICRO_L, GEOM_L, ObjectiveSpec("local", "canonical", "poisson"),
    ])
    def test_small_neighborhood_after_a_heavy_one(self, spec):
        # The prefix sums of c's neighborhood are differences of a running
        # total that has passed the heavy edge; they must stay exact.
        beyond = parse_edge_list("a b 1152921504606846976\nc d 1\nc e 1\nc f 5\n",
                                 directed=True)
        with pytest.raises(DomainError, match=INTEGER_RULE):
            greedy_local(beyond, spec)
        heavy = parse_edge_list(f"a b {2**53 - 8}\nc d 1\nc e 1\nc f 5\n",
                                directed=True)
        alone = parse_edge_list("c d 1\nc e 1\nc f 5\n", directed=True)
        kept = greedy_local(heavy, spec).backbone.member_flags
        assert kept[1:].tolist() == greedy_local(alone, spec).backbone.member_flags.tolist()
        keeps_heaviest = spec.family == "microcanonical" or spec.weight_model == "geometric"
        assert kept[1:].tolist() == [False, False, keeps_heaviest]

    @pytest.mark.parametrize("spec", [
        MICRO_L, GEOM_L, ObjectiveSpec("local", "canonical", "poisson"),
    ])
    @pytest.mark.parametrize("exact", [False, True])
    def test_node_totals_from_the_prefix_sums(self, spec, exact):
        # Node a's strength is 2**52 - 2 on an undirected graph whose
        # directed view totals 2**53 - 2. Parsed or built from exact weights,
        # every node must score its neighborhood against its exact total, as
        # the global sweep scores the same edges alone.
        heavy = 2**52 - 5
        if exact:
            g = make_graph([0, 0, 0, 2], [1, 2, 3, 3], [heavy, 1, 2, 1],
                           directed=False)
        else:
            g = parse_edge_list(f"a b {heavy}\na c 1\na d 2\nc d 1\n",
                                directed=False)
        assert g.weights.tolist() == [heavy, 1, 2, 1]
        assert g.strengths().tolist() == [heavy + 3, heavy, 2, 3]
        res = greedy_local(g, spec)
        assert np.isfinite(res.dl)
        values, starts = res.curves
        dg = directed_view(g)
        glob_spec = ObjectiveSpec("global", spec.family, spec.weight_model)
        for i in range(g.num_nodes):
            out = dg.src == i
            star = make_graph(np.zeros(out.sum()), np.arange(1, out.sum() + 1),
                              dg.weights[out])
            glob = greedy_global(star, glob_spec)
            assert values[starts[i]:starts[i + 1]].tobytes() == glob.curves[0].tobytes()


@st.composite
def sweep_segments(draw, real, fits):
    """Heaviest-first segments of up to ~100 weights, some empty, reals or
    integers. ``fits`` picks the side of the sweep's table rule for integer
    weights: True draws weights up to 60 and pads with a segment of ones
    until every segment strength is below the curve's length; False draws
    weights up to 1e10, small ones likely, and adds one of 10**10, far
    beyond it."""
    if real:
        weight = st.floats(0.01, 1e6)
    elif fits:
        weight = st.integers(1, 60)
    else:
        weight = st.one_of(st.integers(1, 60), st.integers(1, 10**10))
    segs = draw(st.lists(st.lists(weight, max_size=100), min_size=1, max_size=4))
    if not real and fits:
        # a segment of n ones has strength n and adds n + 1 sizes
        short = max(sum(seg) for seg in segs) - sum(len(seg) + 1 for seg in segs)
        if short >= 0:
            segs.append([1] * (short + 1))
    elif not real:
        segs[draw(st.integers(0, len(segs) - 1))].append(10**10)
    return [sorted(seg, reverse=True) for seg in segs]


class TestSweepTable:
    """The sweep reads ln n! from a table: of every edge count, and of every
    weight where the segment strengths are below the curve's length. Its
    curve must be the bits of the closed form evaluated through gammaln,
    state by state, on both sides of that rule."""

    @pytest.mark.parametrize("family, model, real", [
        *((family, model, False) for family, model in OBJECTIVES),
        ("canonical", "exponential", True),
    ])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_gammaln(self, family, model, real, data):
        spec = ObjectiveSpec("local", family, model)
        for fits in (True,) if real else (True, False):
            self.check_curve(data.draw(sweep_segments(real, fits)), spec, real, fits)

    @staticmethod
    def check_curve(segs, spec, real, fits):
        dtype = float if real else np.int64
        w = np.array([x for seg in segs for x in seg], dtype=dtype)
        k = np.array([len(seg) for seg in segs])
        starts = np.concatenate([[0], np.cumsum(k)])
        # exact totals for integer weights
        strength = np.array([np.sum(seg) for seg in segs], dtype=float)
        wfact = np.array([np.sum(_log2_factorial(seg)) for seg in segs])
        curve, curve_starts = _curve(w, (k, strength, wfact, 0.0), spec, k)
        if not real:
            assert (strength.max() < len(curve)) == fits

        # the sweep's states: prefix weights off one running total
        cum = np.concatenate([[0], np.cumsum(w)])
        for i, seg in enumerate(segs):
            W_b = (cum[starts[i]:starts[i + 1] + 1] - cum[starts[i]]).astype(float)
            E_b = np.arange(len(seg) + 1, dtype=float)
            want = _dl_curve(float(len(seg)), strength[i], E_b, W_b, spec, wfact[i])
            # the sweep gives the full segment the empty backbone's value
            want[-1] = want[0]
            got = curve[curve_starts[i]:curve_starts[i + 1]]
            assert got.tobytes() == want.tobytes()


def exact_dl_powers(weights, model):
    """2**DL of the heavy prefix of every size 0..k of ``weights``, heaviest
    first, as integers: under the microcanonical objective (``model`` None)
    or the canonical geometric one, C(-1, -1) = 1 as in the closed form."""
    k, W = len(weights), sum(weights)
    powers, W_b = [], 0
    for j in range(k + 1):
        W_b += weights[j - 1] if j else 0
        Wt, Et = W - W_b, k - j
        if model is None:
            p = ((k + 1) * (W - k + 1) * comb(k, j) * comb(max(W_b - 1, 0), max(j - 1, 0))
                 * comb(max(Wt - 1, 0), max(Et - 1, 0)))
        else:
            p = (k + 1) * comb(k, j) * (W_b + 1) * (Wt + 1) * comb(W_b, j) * comb(Wt, Et)
        powers.append(p)
    return powers


class TestWeightOneTail:
    """Inside a segment's tail of u weight-1 edges the DL is strictly
    concave in the size, so every size strictly inside the tail scores
    strictly above the minimum over sizes 0..k - u, the sizes the sweep
    scores."""

    heavy = st.lists(st.integers(2, 10**5), max_size=9)
    tail = st.integers(1, 40)

    @pytest.mark.parametrize("model", [None, "geometric"])
    @given(heavy=heavy, u=tail)
    @example(heavy=[], u=25)
    @settings(max_examples=150, deadline=None)
    def test_exact(self, model, heavy, u):
        weights = sorted(heavy, reverse=True) + [1] * u
        k = len(weights)
        powers = exact_dl_powers(weights, model)
        # the full segment and the empty backbone are one bit-flip apart
        assert powers[k] == powers[0]
        scored = min(powers[:k - u + 1])
        assert all(p > scored for p in powers[k - u + 1:k])

    @pytest.mark.parametrize("model", ["poisson", "exponential"])
    @given(heavy=heavy, u=tail, lam=st.floats(0.05, 20.0))
    @example(heavy=[], u=25, lam=1.0)
    @settings(max_examples=150, deadline=None)
    def test_float(self, model, heavy, u, lam):
        weights = sorted(heavy, reverse=True) + [1] * u
        k, W = len(weights), float(sum(weights))
        assert W <= 1e6
        prefix = np.concatenate([[0.0], np.cumsum(weights, dtype=float)])
        spec = ObjectiveSpec("global", "canonical", model, lam)
        curve = _dl_curve(k, W, np.arange(k + 1), prefix, spec)
        assert (curve[k - u + 1:k] > curve[:k - u + 1].min()).all()


@st.composite
def graphs_with_ones(draw, directed, real):
    """Graph on up to 6 nodes whose out-edges are drawn node by node: none,
    all of weight 1, none of weight 1, or mostly of weight 1. Real weights
    add 0.25 and 0.5, lighter than 1, which can follow a run of 1.0."""
    n = draw(st.integers(1, 6))
    if real:
        kinds = {"ones": st.just(1.0), "free": st.sampled_from([0.25, 0.5, 2.5, 4.0]),
                 "mostly": st.sampled_from([0.25, 0.5, 1.0, 1.0, 1.0, 2.5, 4.0])}
    else:
        kinds = {"ones": st.just(1), "free": st.integers(2, 9),
                 "mostly": st.one_of(st.just(1), st.integers(1, 9))}
    src, dst, w = [], [], []
    for node in range(n):
        kind = draw(st.sampled_from(["none", *kinds]))
        m = 0 if kind == "none" else draw(st.integers(1, 6))
        src += [node] * m
        dst += draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        w += draw(st.lists(kinds.get(kind, st.just(1)), min_size=m, max_size=m))
    if not src:
        src, dst, w = [0], [0], [1]
    return make_graph(src, dst, w, num_nodes=n, directed=directed,
                      weight_kind="real" if real else "integer")


class TestSolversAgainstFullCurves:
    """The sweep scores sizes 0..k - u of every segment, u its tail of
    weight-1 edges (integer weights only); what it returns is what the full
    curves, over sizes 0..k, give."""

    @staticmethod
    def scored_values(solve, g, spec):
        """The result of ``solve`` and the number of values its sweep scored."""
        counts = []

        def counting(E, W, E_b, W_b, *args):
            counts.append(np.broadcast(E, W, E_b, W_b).size)
            return _dl_curve(E, W, E_b, W_b, *args)

        with (mock.patch.object(solver, "_dl_curve", counting),
              mock.patch.object(solver, "inverse_compression_ratio", lambda *dls: np.nan)):
            res = solve(g, spec)
        return res, sum(counts)

    @pytest.mark.parametrize("scope", ["global", "local"])
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("family, model, real", [
        *((family, model, False) for family, model in OBJECTIVES),
        ("canonical", "exponential", True),
    ])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_result(self, scope, directed, family, model, real, data):
        g = data.draw(graphs_with_ones(directed, real))
        spec = ObjectiveSpec(scope, family, model)
        solve = greedy_global if scope == "global" else greedy_local
        res, scored = self.scored_values(solve, g, spec)

        dg = directed_view(g)
        if scope == "global":
            segs = [np.sort(g.weights)[::-1]]
        else:
            segs = [np.sort(dg.weights[dg.src == i])[::-1] for i in range(g.num_nodes)]
        k = np.array([len(seg) for seg in segs])
        u = np.array([np.count_nonzero(seg == 1) for seg in segs]) * (not real)
        assert scored == np.sum(k - u + 1)

        values, starts = res.curves
        assert np.diff(starts).tolist() == (k + 1).tolist()
        mins = np.minimum.reduceat(values, starts[:-1])
        ties = [np.count_nonzero(values[a:b] == low)
                for a, b, low in zip(starts[:-1], starts[1:], mins)]
        assert res.tie_counts.tolist() == ties
        prior = 0.0
        if scope == "local" and family == "microcanonical":
            prior = strength_prior_bits(g.num_nodes, dg.num_edges, dg.total_weight)
        assert res.dl == float(np.sum(mins[k > 0])) + prior
        flags = res.backbone.member_flags
        if scope == "local":
            assert flags.tolist() == lexsort_local_flags(g, res.curves).tolist()
            return
        n_keep = int(np.argmin(values))
        assert flags.tolist() == lexsort_global_flags(g, n_keep).tolist()
        assert result_to_dict(res)["trace"] == {
            "length": g.num_edges + 1, "argmin": n_keep, "min_bits": values[n_keep],
            "tie_count": ties[0]}

    @pytest.mark.parametrize("spec", [MICRO_G, GEOM_G, POIS_G])
    def test_tail_scored_where_rounding_could_reach_its_margin(self, spec):
        # At 2**53 one ulp of ln Gamma(W + 1) is 64 nats, far above the
        # exact margin of the tail's inner size: it is scored.
        for heavy, scored in ((1000, 2), (2**53 - 3, 4)):
            g = make_graph([0, 0, 0], [1, 2, 3], [heavy, 1, 1])
            res, n = self.scored_values(greedy_global, g, spec)
            assert n == scored
            assert res.dl == res.curves[0].min()

    def test_benchmark_counter_sees_the_drop(self, star_graph):
        # the microcanonical sweep scores through dl_global_micro_arr, which
        # the benchmark counts; the empty-backbone DLs add one value per
        # non-empty segment of each scope
        counts = []
        real = objectives.dl_global_micro_arr

        def counting(E, W, E_b, W_b, *args):
            counts.append(np.broadcast(E, W, E_b, W_b).size)
            return real(E, W, E_b, W_b, *args)

        with mock.patch.object(objectives, "dl_global_micro_arr", counting):
            greedy_global(star_graph, MICRO_G)
        # weights (5, 1, 1, 1) on one node: sizes 0 and 1 are scored
        assert sum(counts) == 2 + 1 + 1


class TestReporting:
    def test_result_to_dict_keys(self, star_graph):
        res = greedy_global(star_graph, MICRO_G)
        doc = result_to_dict(res)
        for key in ("method", "objective", "N", "E", "W", "E_b", "W_b",
                    "dl_bits", "dl_empty_global_bits", "dl_empty_local_bits",
                    "eta", "trace"):
            assert key in doc
        assert "edges" not in doc
        assert doc["E_b"] == 1
        assert doc["method"] == "mdl-global"
        assert doc["trace"] == {"length": 5, "argmin": 1,
                                "min_bits": res.dl, "tie_count": 1}
        assert "trace" not in result_to_dict(greedy_local(star_graph, MICRO_L))

    def test_empty_backbone_dls_poisson_constant(self, star_graph):
        # poisson DLs include the per-graph sum of log2 w_e! so empty DLs
        # are comparable with optimized ones
        dl_g, dl_l = empty_backbone_dls(star_graph, POIS_G)
        res = greedy_global(star_graph, POIS_G)
        assert res.dl <= dl_g + 1e-9

    @pytest.mark.parametrize("spec", [MICRO_G, MICRO_L, GEOM_G, POIS_G])
    def test_empty_backbone_dls_refuses_real_weights(self, spec):
        # W = 1 < E = 2: the microcanonical DL would take log2(0)
        g = make_graph([0, 1], [0, 1], [0.5, 0.5], weight_kind="real")
        with pytest.raises(DomainError, match="requires integer weights"):
            empty_backbone_dls(g, spec)
