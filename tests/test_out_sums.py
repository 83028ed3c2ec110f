"""Per-node sums against the directed-view expressions they replaced.

The local description lengths, the disparity p-values and the strengths see
each out-neighborhood of the directed view only through per-node sums, and
``graph._out_sums`` adds those up from the edge list without building the
view. The expressions over ``directed_view`` that it replaced are kept here
as the oracles, and compared bit for bit.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlbackbone.baselines import edge_disparity_pvalues
from mdlbackbone.errors import DomainError
from mdlbackbone.graph import (
    _out_sums,
    backbone_from_flags,
    directed_parents,
    directed_view,
    parse_edge_list,
)
from mdlbackbone.objectives import (
    ObjectiveSpec,
    _check_global_args,
    _dl_curve,
    _log2_factorial,
    description_length,
)
from mdlbackbone.solver import empty_backbone_dls, greedy_global

from conftest import graphs_with_backbones
from oracles import strength_prior_bits

SPECS = [ObjectiveSpec("local", "microcanonical")] + [
    ObjectiveSpec("local", "canonical", model, lam=0.7)
    for model in ("geometric", "poisson", "exponential")
]


def either_weights():
    return st.booleans().flatmap(lambda real: graphs_with_backbones(real=real))


def outcome(f, *args):
    """f(*args), or DomainError when it raises one."""
    try:
        return f(*args)
    except DomainError:
        return DomainError


def view_local_dl(g, flags, spec):
    """The local DL as bincounts over the directed view's edges."""
    dg = directed_view(g)
    member = np.asarray(flags, dtype=bool)[directed_parents(g)]
    n = dg.num_nodes
    w = np.asarray(dg.weights, dtype=float)
    k = np.bincount(dg.src, minlength=n)
    nz = k > 0
    s = np.bincount(dg.src, weights=w, minlength=n)[nz]
    k_b = np.bincount(dg.src[member], minlength=n)[nz]
    s_b = np.bincount(dg.src[member], weights=w[member], minlength=n)[nz]
    k = k[nz]
    _check_global_args(k, s, k_b, s_b, integer=not spec.continuous)
    wfact = 0.0
    if spec.weight_model == "poisson":
        wfact = np.bincount(dg.src, weights=_log2_factorial(w), minlength=n)[nz]
    terms = np.sum(_dl_curve(k, s, k_b, s_b, spec, wfact))
    if spec.family == "canonical":
        return float(terms)
    prior = strength_prior_bits(n, dg.num_edges, dg.total_weight)
    return float(prior + terms)


def view_disparity_pvalues(g):
    """The p-values over the directed view, minimum per parent edge."""
    dg = directed_view(g)
    w = np.asarray(dg.weights, dtype=float)
    k = np.bincount(dg.src, minlength=dg.num_nodes)[dg.src]
    s = np.bincount(dg.src, weights=w, minlength=dg.num_nodes)[dg.src]
    p = np.where(k > 1, (1.0 - w / s) ** (k - 1), 1.0)
    pvals = np.ones(g.num_edges)
    np.minimum.at(pvals, directed_parents(g), p)
    return pvals


def local_dl(g, flags, spec):
    return description_length(g, backbone_from_flags(g, flags), spec)


class TestMatchesDirectedView:
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_local_dl(self, data):
        # only the exponential model takes real weights
        real = data.draw(st.booleans())
        g, flags = data.draw(graphs_with_backbones(real=real))
        spec = data.draw(st.sampled_from(SPECS[-1:] if real else SPECS))
        assert outcome(local_dl, g, flags, spec) == outcome(view_local_dl, g, flags, spec)

    @given(graphs_with_backbones(real=True), st.sampled_from(SPECS[:-1]))
    @settings(max_examples=50, deadline=None)
    def test_local_dl_refuses_real_weights(self, case, spec):
        g, flags = case
        assert outcome(local_dl, g, flags, spec) is DomainError

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_empty_backbone_local_dl(self, data):
        # the global DL of real weights is defined for the exponential model only
        real = data.draw(st.booleans())
        g, _ = data.draw(graphs_with_backbones(real=real))
        spec = data.draw(st.sampled_from(SPECS[-1:] if real else SPECS))
        empty = np.zeros(g.num_edges, dtype=bool)
        got = outcome(lambda: empty_backbone_dls(g, spec)[1])
        assert got == outcome(local_dl, g, empty, spec)
        assert got == outcome(view_local_dl, g, empty, spec)

    @given(either_weights())
    @settings(max_examples=300, deadline=None)
    def test_disparity_pvalues(self, case):
        g, _ = case
        assert edge_disparity_pvalues(g).tobytes() == view_disparity_pvalues(g).tobytes()

    @given(either_weights())
    @settings(max_examples=300, deadline=None)
    def test_retained_strengths(self, case):
        g, flags = case
        bb = backbone_from_flags(g, flags)
        assert bb.retained_strengths().tobytes() == bb.subgraph().strengths().tobytes()


class TestCachedNodeSums:
    """The graph computes its out-degrees and strengths once; the arrays it
    keeps must be the directed view's bincounts and read-only."""

    @given(either_weights())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_directed_view(self, case):
        g, _ = case
        dg = directed_view(g)
        degrees = np.bincount(dg.src, minlength=g.num_nodes)
        strengths = np.bincount(dg.src, weights=np.asarray(dg.weights, dtype=float),
                                minlength=g.num_nodes)
        for _ in range(2):  # computed, then cached
            assert _out_sums(g).dtype == degrees.dtype
            assert _out_sums(g).tobytes() == degrees.tobytes()
            assert g.strengths().dtype == strengths.dtype
            assert g.strengths().tobytes() == strengths.tobytes()
        assert _out_sums(g) is _out_sums(g)
        assert g.strengths() is g.strengths()

    @given(either_weights())
    @settings(max_examples=50, deadline=None)
    def test_read_only(self, case):
        g, _ = case
        for sums in (_out_sums(g), g.strengths()):
            with pytest.raises(ValueError):
                sums[0] = 1


def test_sums_build_no_directed_view(monkeypatch):
    def refuse(g):
        raise AssertionError("directed_view called")

    for name, module in list(sys.modules.items()):
        if (name.startswith("mdlbackbone")
                and getattr(module, "directed_view", None) is directed_view):
            monkeypatch.setattr(module, "directed_view", refuse)
    g = parse_edge_list("a b 3\nb a 2\nb c 1\na c 4\nc c 2", directed=False)
    bb = backbone_from_flags(g, [True, False, False, True, False])
    for spec in SPECS:
        local_dl(g, bb.member_flags, spec)
        empty_backbone_dls(g, spec)
        greedy_global(g, ObjectiveSpec("global", spec.family, spec.weight_model))
    edge_disparity_pvalues(g)
