from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlbackbone import solver
from mdlbackbone.errors import DomainError
from mdlbackbone.graph import _out_sums, directed_view, parse_edge_list
from mdlbackbone.objectives import (
    ObjectiveSpec,
    _dl_curve,
    _log2_factorial,
    dl_local_canonical,
    dl_local_micro,
    strength_prior_bits,
)
from mdlbackbone.solver import (
    ENUMERATION_EDGE_CAP,
    _sweep,
    empty_backbone_dls,
    enumerate_optimal,
    greedy_global,
    greedy_local,
    inverse_compression_ratio,
    result_to_dict,
)

from conftest import (
    make_graph,
    mean_weight_ordering_holds,
    random_multigraph_free,
    small_graphs,
)

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
        with pytest.raises(DomainError, match=r"below 2\*\*53"):
            parse_edge_list(text, directed=directed)
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
        if model is None:
            dl = dl_local_micro(g, res.backbone)
        else:
            dl = dl_local_canonical(g, res.backbone, spec)
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
    """The graphs on which float weight sums rounded, beyond 2**53, are
    refused; the same shapes just below the bound, where every sum is exact,
    are scored at the states integer weights reach."""

    @pytest.mark.parametrize("spec", [MICRO_G, MICRO_L, GEOM_G, GEOM_L])
    def test_unreachable_states_never_win(self, spec):
        # On (2**62, 1, 1) the prefixes of size 1 and 2 left the rest lighter
        # than its edge count, a state no integer weights reach.
        with pytest.raises(DomainError, match=r"below 2\*\*53"):
            parse_edge_list("a b 4611686018427387904\na c 1\na d 1\n", directed=True)
        g = parse_edge_list(f"a b {2**53 - 3}\na c 1\na d 1\n", directed=True)
        solve = greedy_global if spec.scope == "global" else greedy_local
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
        with pytest.raises(DomainError, match=r"below 2\*\*53"):
            parse_edge_list("a b 1152921504606846976\nc d 1\nc e 1\nc f 5\n",
                            directed=True)
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
        _, _, curve, curve_starts = _sweep(w, starts, strength, wfact, spec)
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
