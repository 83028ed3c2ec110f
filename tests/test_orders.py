"""Edge orders and per-node sums against the expressions they replaced.

The package sorts only what each answer depends on: packed int64 keys for
the local sweep, and the boundary class alone for the first n edges of the
global and local sweeps and the disparity ranking. The multi-key lexsorts
over the whole edge array (for the local sweep, over the directed view,
both in ``conftest.py``) and the ``np.add.at`` loops they replaced are the
oracles.
``neighborhood_order`` is itself that lexsort; its tests pin it to the
definition written out here.
"""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlbackbone import solver
from mdlbackbone.baselines import disparity_filter_top_e, edge_disparity_pvalues
from mdlbackbone.graph import (
    WeightedGraph,
    _first_in_order,
    _out_sums,
    backbone_from_flags,
    directed_parents,
    directed_view,
    neighborhood_order,
    neighborhoods,
)
from mdlbackbone.objectives import MODELS, ObjectiveSpec
from mdlbackbone.percolation import HalfEdgeSystem
from mdlbackbone.solver import greedy_global, greedy_local

from conftest import (
    lexsort_global_flags,
    lexsort_local_flags,
    lexsort_neighborhood_order,
    make_graph,
    small_graphs,
)

def graphs(directed=None, real=None):
    """small_graphs in either direction, with integer or real weights."""
    return st.tuples(
        st.booleans() if directed is None else st.just(directed),
        st.booleans() if real is None else st.just(real),
    ).flatmap(lambda dr: small_graphs(*dr))


class TestNeighborhoodOrder:
    @given(graphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_lexsort(self, g):
        dg = directed_view(g)
        assert (neighborhood_order(dg).tolist()
                == lexsort_neighborhood_order(dg).tolist())

    @given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_long_runs_of_parallel_edges(self, seed, n_pairs, n_weights):
        # the small graphs above hold runs of at most 12 equal keys, and
        # numpy may sort arrays that short stably; here >= 20k edges on few
        # (src, dst) pairs, at random positions and with tied weights, make
        # long runs of equal keys through numpy's large-array sort
        rng = np.random.default_rng(seed)
        E = 20_000 + int(rng.integers(0, 5_000))
        N = 60
        pairs = rng.integers(0, N, size=(n_pairs, 2))
        src, dst = pairs[rng.integers(0, n_pairs, size=E)].T
        w = rng.integers(1, n_weights + 1, size=E)
        g = make_graph(src, dst, w, num_nodes=N)
        assert neighborhood_order(g).tolist() == lexsort_neighborhood_order(g).tolist()


class TestGlobalFlags:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_first_n_keep_of_lexsort(self, data):
        model = data.draw(st.sampled_from(MODELS))
        g = data.draw(graphs(real=model == "exponential"))
        res = greedy_global(g, ObjectiveSpec("global", model))
        flags = res.backbone.member_flags
        oracle = lexsort_global_flags(g, int(np.argmin(res.curves[0])))
        assert flags.tolist() == oracle.tolist()


class TestLocalFlags:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_first_n_keep_of_lexsort(self, data):
        model = data.draw(st.sampled_from(MODELS))
        real = model == "exponential" and data.draw(st.booleans())
        g = data.draw(graphs(real=real))
        res = greedy_local(g, ObjectiveSpec("local", model))
        flags = res.backbone.member_flags
        assert flags.tolist() == lexsort_local_flags(g, res.curves).tolist()

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_many_small_components(self, seed, directed):
        # 400 disjoint graphs on 5 nodes with 12 edges each, weights 1-9:
        # under the microcanonical objective over 200 nodes cut inside a
        # class of tied weights, and read undirected, dozens of them between
        # the two orientations of a reciprocal pair
        rng = np.random.default_rng(seed)
        blocks, n, m = 400, 5, 12
        base = n * np.arange(blocks)[:, None]
        src, dst = (rng.integers(0, n, size=(2, blocks, m)) + base).reshape(2, -1)
        w = rng.integers(1, 10, size=blocks * m)
        g = make_graph(src, dst, w, num_nodes=blocks * n, directed=directed)
        for model in MODELS:
            res = greedy_local(g, ObjectiveSpec("local", model))
            flags = res.backbone.member_flags
            assert flags.tolist() == lexsort_local_flags(g, res.curves).tolist()


def test_greedy_local_builds_no_directed_view(monkeypatch):
    refused = (directed_view, directed_parents, neighborhood_order, neighborhoods)

    def refuse(*args, **kwargs):
        raise AssertionError("the directed view or its neighborhood order was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("mdlbackbone"):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in refused):
                    monkeypatch.setattr(module, attr, refuse)
    for directed in (True, False):
        g = make_graph([0, 1, 1, 0, 2, 2], [1, 0, 2, 2, 2, 0], [3, 2, 1, 4, 2, 3],
                       num_nodes=3, directed=directed)
        for model in MODELS:
            greedy_local(g, ObjectiveSpec("local", model))


class TestDisparityTopE:
    @given(graphs())
    @settings(max_examples=300, deadline=None)
    def test_every_size_matches_lexsort(self, g):
        w = np.asarray(g.weights, dtype=float)
        order = np.lexsort((g.dst, g.src, -w, edge_disparity_pvalues(g)))
        for e in range(g.num_edges + 1):
            oracle = np.zeros(g.num_edges, dtype=bool)
            oracle[order[:e]] = True
            assert disparity_filter_top_e(g, e).member_flags.tolist() == oracle.tolist()


def add_at_sums(g, flags, values):
    """The per-node sums as two np.add.at passes: src, then the dst of the
    non-loop edges of an undirected graph."""
    out = np.zeros(g.num_nodes, dtype=values.dtype)
    src, dst, v = g.src[flags], g.dst[flags], values[flags]
    np.add.at(out, src, v)
    if not g.directed:
        rev = src != dst
        np.add.at(out, dst[rev], v[rev])
    return out


class TestEndpointSums:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_strengths_and_degrees_match_add_at(self, data):
        g = data.draw(graphs())
        E = g.num_edges
        # arbitrary reals, so the summation order shows in the last bit
        w = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=E, max_size=E)))
        g = make_graph(g.src, g.dst, w, num_nodes=g.num_nodes, directed=g.directed,
                       weight_kind="real")
        flags = np.array(data.draw(st.lists(st.booleans(), min_size=E, max_size=E)))
        assert g.strengths().tobytes() == add_at_sums(g, np.ones(E, bool), w).tobytes()
        bb = backbone_from_flags(g, flags)
        assert bb.retained_strengths().tobytes() == add_at_sums(g, flags, w).tobytes()
        ones = np.ones(E, dtype=np.int64)
        assert _out_sums(g, flags).tobytes() == add_at_sums(g, flags, ones).tobytes()


class TestHalfEdgeOrder:
    @given(graphs(directed=False))
    @settings(max_examples=100, deadline=None)
    def test_grouped_by_src_then_dst(self, g):
        h = HalfEdgeSystem.build(g)
        keep = g.src != g.dst
        src = np.concatenate([g.src[keep], g.dst[keep]])
        dst = np.concatenate([g.dst[keep], g.src[keep]])
        order = np.lexsort((dst, src))
        assert h.src.tolist() == src[order].tolist()
        assert h.dst.tolist() == dst[order].tolist()


class TestPackedKeysAt63Bits:
    """Node ids near 2**31 and real weights up to 2**62: the packed keys
    reach 2**62, and 2**60 - 1 and 2**57 + 1, as doubles, tie with 2**60
    and 2**57. (Integer weights total below 2**53.)"""

    N = 2**31
    SRC = [N - 1, N - 1, N - 1, N - 1, N - 2, N - 2, N - 2, 5, 5, 5, N - 1, 0]
    DST = [N - 3, N - 2, N - 2, N - 1, N - 1, 0, 7, N - 1, N - 1, 5, 0, N - 1]
    W = [2**62, 2**60, 2**60 - 1, 2**60 - 1, 2**57, 2**57 + 1, 2**57,
         7, 7, 1, 2**58, 2**58]

    def graph(self):
        # labels are never read here; the default would be 2**31 strings
        return WeightedGraph(
            num_nodes=self.N, src=np.array(self.SRC, dtype=np.int64),
            dst=np.array(self.DST, dtype=np.int64),
            weights=np.array(self.W, dtype=float), directed=True, labels=(),
        )

    def test_neighborhood_order(self):
        g = self.graph()
        assert neighborhood_order(g).tolist() == lexsort_neighborhood_order(g).tolist()

    def test_greedy_global(self, monkeypatch):
        # the empty-backbone local DL bins by node, over 2**31 bins; eta
        # does not enter the flags
        monkeypatch.setattr(solver, "empty_backbone_dls", lambda g, spec: (1.0, 1.0))
        g = self.graph()
        w = np.asarray(g.weights, dtype=float)
        for n in range(g.num_edges + 1):
            flags = _first_in_order(n, (-w, g.src, g.dst))
            assert flags.tolist() == lexsort_global_flags(g, n).tolist()
        res = greedy_global(g, ObjectiveSpec("global", "exponential"))
        assert 0 < res.backbone.num_edges < g.num_edges
        assert res.backbone.member_flags.tolist() == lexsort_global_flags(
            g, res.backbone.num_edges).tolist()
