import numpy as np
import pytest
from hypothesis import strategies as st

from mdlbackbone.errors import DomainError
from mdlbackbone.graph import WeightedGraph, directed_parents, directed_view
from mdlbackbone.objectives import ObjectiveSpec
from mdlbackbone.solver import greedy_global, greedy_local

# what an integer objective says to weights outside the integer rule
INTEGER_RULE = (r"requires integer weights: whole, with the directed view's "
                r"total weight below 2\*\*53")


def make_graph(src, dst, weights, num_nodes=None, directed=True,
               weight_kind="integer"):
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if weight_kind == "integer":
        weights = np.asarray(weights, dtype=np.int64)
    else:
        weights = np.asarray(weights, dtype=float)
    if num_nodes is None:
        num_nodes = int(max(src.max(), dst.max())) + 1 if len(src) else 0
    return WeightedGraph(
        num_nodes=num_nodes, src=src, dst=dst, weights=weights,
        directed=directed,
    )


def assert_integer_objectives_refuse(g):
    """Every objective but the exponential one, at either scope, refuses
    the real weights of ``g`` and states the integer rule."""
    for model in ("microcanonical", "geometric", "poisson"):
        for scope, solve in (("global", greedy_global), ("local", greedy_local)):
            with pytest.raises(DomainError, match=INTEGER_RULE):
                solve(g, ObjectiveSpec(scope, model))


def real_star(weights):
    """Node 0 with one out-edge of each real weight."""
    k = len(weights)
    return make_graph([0] * k, range(1, k + 1), weights, num_nodes=k + 1,
                      weight_kind="real")


def mean_weight_ordering_holds(weights):
    """Check W_b/E_b >= W/E >= (W - W_b)/(E - E_b) at every greedy prefix,
    in exact integer arithmetic. ``weights`` are the integer edge weights in
    the order the greedy adds them."""
    w = [int(x) for x in weights]
    E = len(w)
    W = sum(w)
    Wb = 0
    for Eb in range(1, E):
        Wb += w[Eb - 1]
        if Wb * E < W * Eb:
            return False
        if (W - Wb) * E > W * (E - Eb):
            return False
    return True


def first_of_lexsort(n, keys):
    """Flags of the first n edges of ``np.lexsort(keys)`` (last key primary)."""
    flags = np.zeros(len(keys[0]), dtype=bool)
    flags[np.lexsort(keys)[:n]] = True
    return flags


def lexsort_neighborhood_order(g):
    return np.lexsort((g.dst, -np.asarray(g.weights, dtype=float), g.src))


def lexsort_global_flags(g, n_keep):
    w = np.asarray(g.weights, dtype=float)
    return first_of_lexsort(n_keep, (g.dst, g.src, -w))


def lexsort_local_flags(g, curves):
    """Flags of each node's first n_i out-edges in the lexsort order of the
    directed view, mapped to their parent edges; n_i is the first minimum
    of the node's segment of ``curves``."""
    dg = directed_view(g)
    parents = directed_parents(g)[lexsort_neighborhood_order(dg)]
    values, starts = curves
    degrees = np.bincount(dg.src, minlength=g.num_nodes)
    assert np.diff(starts).tolist() == (degrees + 1).tolist()
    edge_starts = np.concatenate([[0], np.cumsum(degrees)])
    flags = np.zeros(g.num_edges, dtype=bool)
    for i in range(g.num_nodes):
        n = int(np.argmin(values[starts[i]:starts[i + 1]]))
        flags[parents[edge_starts[i]:edge_starts[i] + n]] = True
    return flags


@st.composite
def small_graphs(draw, directed=True, real=False, one_neighborhood=False):
    """Graph on up to 5 nodes, self-loops and parallel edges allowed; with
    ``one_neighborhood`` only node 0 has out-edges. Real weights are
    multiples of 1/8, so their sums are exact whichever order the solvers
    add them in, and at least 1, where every empty-backbone DL is positive
    and eta is defined."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 12))
    if one_neighborhood:
        src = [0] * m
    else:
        src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    if real:
        w = draw(st.lists(st.integers(8, 80).map(lambda x: x / 8),
                          min_size=m, max_size=m))
    else:
        w = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    return make_graph(src, dst, w, num_nodes=n, directed=directed,
                      weight_kind="real" if real else "integer")


@st.composite
def graphs_with_backbones(draw, real=False):
    """Graph on up to 5 nodes in either direction, self-loops and parallel
    edges allowed, with a random backbone membership per edge."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    src = draw(st.lists(node, min_size=m, max_size=m))
    dst = draw(st.lists(node, min_size=m, max_size=m))
    if real:
        w = draw(st.lists(st.floats(0.1, 20.0), min_size=m, max_size=m))
    else:
        w = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    flags = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    g = make_graph(src, dst, w, num_nodes=n, directed=draw(st.booleans()),
                   weight_kind="real" if real else "integer")
    return g, flags


def random_multigraph_free(rng, max_nodes=6, max_edges=12, max_weight=10,
                           directed=True):
    """Random simple graph with integer weights for oracle comparisons."""
    n = rng.integers(2, max_nodes + 1)
    if directed:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
    rng.shuffle(pairs)
    m = int(rng.integers(1, min(max_edges, len(pairs)) + 1))
    chosen = pairs[:m]
    w = rng.integers(1, max_weight + 1, size=m)
    src = [p[0] for p in chosen]
    dst = [p[1] for p in chosen]
    return make_graph(src, dst, w, num_nodes=n, directed=directed)


@pytest.fixture
def star_graph():
    # a -> {b, c, d, e} with weights 5, 1, 1, 1
    return make_graph([0, 0, 0, 0], [1, 2, 3, 4], [5, 1, 1, 1], num_nodes=5)


@pytest.fixture
def star_selfloops():
    # one node with four self-loops, weights 5, 1, 1, 1
    return make_graph([0] * 4, [0] * 4, [5, 1, 1, 1], num_nodes=1)
