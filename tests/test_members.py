"""A backbone read through its member positions, against the same reads
over its member mask (``oracles.mask_reads`` and
``oracles.mask_description_length``), bit for bit."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlbackbone.errors import DomainError
from mdlbackbone.graph import backbone_from_flags
from mdlbackbone.metrics import summarize
from mdlbackbone.objectives import ObjectiveSpec, description_length

from conftest import graphs_with_backbones
from oracles import mask_description_length, mask_reads

SPECS = [ObjectiveSpec(scope, "microcanonical") for scope in ("global", "local")] + [
    ObjectiveSpec(scope, model, lam=0.7)
    for scope in ("global", "local")
    for model in ("geometric", "poisson", "exponential")
]


def outcome(f, *args):
    """repr(f(*args)), exact for floats, or DomainError when it raises one."""
    try:
        return repr(f(*args))
    except DomainError:
        return DomainError


@st.composite
def graphs_and_masks(draw):
    """A graph in either direction, with integer or real weights, and a
    member mask: drawn per edge, empty or full."""
    g, flags = draw(graphs_with_backbones(real=draw(st.booleans())))
    fill = draw(st.sampled_from(["drawn", "empty", "full"]))
    if fill != "drawn":
        flags = [fill == "full"] * g.num_edges
    return g, np.array(flags, dtype=bool), draw(st.integers(1, 6))


class TestMembersMatchTheMask:
    @given(graphs_and_masks())
    @settings(max_examples=300, deadline=None)
    def test_reads_are_bit_identical(self, case):
        g, flags, sample_cap = case
        bb = backbone_from_flags(g, flags)
        ref = mask_reads(g, flags, sample_cap=sample_cap)
        assert bb.num_edges == ref.num_edges
        assert repr(bb.total_weight) == repr(ref.total_weight)
        assert bb.retained_strengths().tobytes() == ref.retained_strengths.tobytes()
        sub = bb.subgraph()
        for got, want in zip((sub.src, sub.dst, sub.weights), ref.subgraph):
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
        assert bb.edge_set() == ref.edge_set
        assert repr(astuple(summarize(g, bb, sample_cap=sample_cap))) == repr(ref.summary)
        for spec in SPECS:
            assert (outcome(description_length, g, bb, spec)
                    == outcome(mask_description_length, g, flags, spec))

    @given(graphs_and_masks())
    @settings(max_examples=100, deadline=None)
    def test_members_ascending_and_read_only(self, case):
        g, flags, _ = case
        members = backbone_from_flags(g, flags)._members
        assert members.tolist() == [i for i, f in enumerate(flags) if f]
        with pytest.raises(ValueError):
            members[:1] = 0
