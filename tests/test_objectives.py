import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlbackbone.errors import DomainError
from mdlbackbone.graph import backbone_from_flags
from mdlbackbone.objectives import (
    ObjectiveSpec,
    _check_global_args,
    _dl_curve,
    _log2_binom_raw,
    _log2_factorial,
    _strength_prior_bits,
    description_length,
    dl_global_micro,
    dl_local_micro,
)
from mdlbackbone.solver import empty_backbone_dls

from conftest import graphs_with_backbones, make_graph
from oracles import dl_global_canonical, log2_binomial, strength_prior_bits

GEOM = ObjectiveSpec("global", "canonical", "geometric")
POIS = ObjectiveSpec("global", "canonical", "poisson")
EXPO = ObjectiveSpec("global", "canonical", "exponential")
MICRO = ObjectiveSpec("global", "microcanonical")


def valid_tuples(rng, count, max_e=30, max_excess=60):
    """Random (E, W, E_b, W_b) with 1 <= E_b <= E-1 and valid weight splits."""
    out = []
    while len(out) < count:
        E = int(rng.integers(2, max_e))
        W = E + int(rng.integers(0, max_excess))
        E_b = int(rng.integers(1, E))
        W_b = int(rng.integers(E_b, W - (E - E_b) + 1))
        out.append((E, W, E_b, W_b))
    return out


class TestLog2Binomial:
    def test_values(self):
        assert log2_binomial(4, 2) == pytest.approx(np.log2(6), abs=1e-12)
        assert log2_binomial(35, 1) == pytest.approx(np.log2(35), abs=1e-12)

    def test_conventions(self):
        assert log2_binomial(7, 0) == 0.0
        assert log2_binomial(0, 0) == 0.0
        assert log2_binomial(-1, -1) == 0.0

    def test_domain_errors(self):
        for n, k in [(3, 4), (3, -1), (-2, 0), (-1, 0)]:
            with pytest.raises(DomainError):
                log2_binomial(n, k)

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_matches_exact_integer_arithmetic(self, n, k):
        if k > n:
            return
        import math
        assert log2_binomial(n, k) == pytest.approx(
            np.log2(float(math.comb(n, k))), abs=1e-9
        )


class TestMicroGlobal:
    def test_reference_values(self):
        assert dl_global_micro(4, 8, 1, 5) == pytest.approx(6.6439, abs=1e-4)
        assert dl_global_micro(4, 8, 0, 0) == pytest.approx(9.7731, abs=1e-4)
        assert dl_global_micro(4, 8, 3, 3) == pytest.approx(
            dl_global_micro(4, 8, 1, 5), abs=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            dl_global_micro(4, 8, 0, 1)
        with pytest.raises(DomainError):
            dl_global_micro(4, 8, 5, 5)
        with pytest.raises(DomainError):
            dl_global_micro(4, 3, 1, 1)  # W < E
        with pytest.raises(DomainError):
            dl_global_micro(4, 8, 1, 6)  # leaves < 1 per non-backbone edge
        with pytest.raises(DomainError, match="full backbone"):
            dl_global_micro(4, 8, 4, 7)  # the full backbone carries all of W
        with pytest.raises(DomainError, match="full backbone"):
            dl_global_canonical(4, 8, 4, 7, GEOM)

    def test_bit_flip_symmetry_random(self):
        rng = np.random.default_rng(0)
        for E, W, E_b, W_b in valid_tuples(rng, 300):
            a = dl_global_micro(E, W, E_b, W_b)
            b = dl_global_micro(E, W, E - E_b, W - W_b)
            assert a == pytest.approx(b, abs=1e-9)

    def test_neigh_is_same_formula(self):
        # one out-neighborhood: k edges of strength s, k_b of them kept with s_b
        k, s = 2, 4
        assert dl_global_micro(k, s, 1, 3) == pytest.approx(4.1699, abs=1e-4)
        assert dl_global_micro(0, 0, 0, 0) == 0.0
        assert dl_global_micro(k, s, 1, 1) == pytest.approx(
            dl_global_micro(k, s, 1, 3), abs=1e-12
        )

    def test_normalization_small_cases(self):
        # sum of 2^-DL over all (backbone assignment, weight composition)
        # states; the uniform code for the backbone weight spends
        # log2(W - E + 1) bits even at the forced boundary sizes, so the sum
        # falls short of 1 by exactly 2(W-E)/((E+1)(W-E+1))
        from itertools import combinations

        def compositions(total, parts):
            if parts == 0:
                if total == 0:
                    yield ()
                return
            for first in range(1, total - parts + 2):
                for rest in compositions(total - first, parts - 1):
                    yield (first,) + rest

        for E in range(1, 4):
            for W in range(E, 7):
                Z = 0.0
                for comp in compositions(W, E):
                    for r in range(E + 1):
                        for b in combinations(range(E), r):
                            Wb = sum(comp[e] for e in b)
                            Z += 2.0 ** (-dl_global_micro(E, W, r, Wb))
                expected = 1.0 - 2.0 * (W - E) / ((E + 1) * (W - E + 1))
                assert Z == pytest.approx(expected, abs=1e-9)


def oracle_binom(n, k):
    """log2 C(n, k) with C(n, 0) = 1 for n >= 0 and C(-1, -1) = 1 masked in,
    +inf outside the domain: the evaluator the clamps replaced."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    empty = ((k == 0) & (n >= 0)) | ((n == -1) & (k == -1))
    bad = ~empty & ((k < 0) | (n < 0) | (k > n))
    safe_n = np.where(empty | bad, 0.0, n)
    safe_k = np.where(empty | bad, 0.0, k)
    out = _log2_binom_raw(safe_n, safe_k)
    out = np.where(empty, 0.0, out)
    out = np.where(bad, np.inf, out)
    return out


def oracle_curve(E, W, E_b, W_b, spec, log2_wfact):
    """Every family's closed form, each binomial through ``oracle_binom``."""
    E, W, E_b, W_b = (np.asarray(x, dtype=float) for x in (E, W, E_b, W_b))
    Et, Wt = E - E_b, W - W_b
    if spec.family == "microcanonical":
        return (
            np.log2(E + 1.0) + np.log2(W - E + 1.0) + oracle_binom(E, E_b)
            + oracle_binom(W_b - 1.0, E_b - 1.0) + oracle_binom(Wt - 1.0, Et - 1.0)
        )
    base = np.log2(E + 1.0) + oracle_binom(E, E_b)
    lam = spec.lam
    if spec.weight_model == "geometric":
        return (
            base + np.log2(W_b + 1.0) + np.log2(Wt + 1.0)
            + oracle_binom(W_b, E_b) + oracle_binom(Wt, Et)
        )
    if spec.weight_model == "poisson":
        return (
            base - 2.0 * np.log2(lam)
            + (W_b + 1.0) * np.log2(E_b + lam) - _log2_factorial(W_b)
            + (Wt + 1.0) * np.log2(Et + lam) - _log2_factorial(Wt)
            + log2_wfact
        )
    return (
        base - 2.0 * np.log2(lam)
        + (E_b + 1.0) * np.log2(W_b + lam) - _log2_factorial(E_b)
        + (Et + 1.0) * np.log2(Wt + lam) - _log2_factorial(Et)
    )


@st.composite
def valid_states(draw, real):
    """One valid (E, W, E_b, W_b) with E in [0, 40]: E_b anywhere in [0, E]
    with both boundaries likely, W_b at either end of its range or inside."""
    E = draw(st.integers(0, 40))
    E_b = draw(st.one_of(st.sampled_from([0, E]), st.integers(0, E)))
    if real:
        W = draw(st.floats(0.01, 1e6)) if E else 0.0
        lo, hi, inside = 0.0, W, st.floats(0.0, W)
    else:
        W = E + draw(st.one_of(st.integers(0, 50), st.integers(0, 10**9))) if E else 0
        lo, hi = E_b, W - (E - E_b)
        inside = st.integers(lo, hi)
    if E_b == 0:
        W_b = lo
    elif E_b == E:
        W_b = hi
    else:
        W_b = draw(st.one_of(st.sampled_from([lo, hi]), inside))
    return E, W, E_b, W_b


ORACLE_SPECS = [
    (MICRO, False),
    (GEOM, False),
    (ObjectiveSpec("global", "canonical", "poisson", lam=0.7), False),
    (ObjectiveSpec("global", "canonical", "exponential", lam=0.7), True),
]


class TestCurveMatchesMaskOracle:
    @pytest.mark.parametrize("spec, real", ORACLE_SPECS)
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bit_identical(self, spec, real, data):
        states = data.draw(st.lists(valid_states(real), min_size=1, max_size=8))
        E, W, E_b, W_b = (np.array(x) for x in zip(*states))
        _check_global_args(E, W, E_b, W_b, integer=not real)
        wfact = data.draw(st.floats(0.0, 1e3))
        got = _dl_curve(E, W, E_b, W_b, spec, wfact)
        want = oracle_curve(E, W, E_b, W_b, spec, wfact)
        assert got.tobytes() == want.tobytes()
        i = data.draw(st.integers(0, len(states) - 1))
        assert _dl_curve(E[i], W[i], E_b[i], W_b[i], spec, wfact) == got[i]


def global_scalar(g, flags, spec):
    """The global DL of the backbone ``flags`` through the scalar
    evaluators on (E, W, E_b, W_b), the poisson constant added up one edge
    after another."""
    bb = backbone_from_flags(g, flags)
    state = (g.num_edges, g.total_weight, bb.num_edges, bb.total_weight)
    if spec.family == "microcanonical":
        return dl_global_micro(*state)
    wfact = 0.0
    if spec.weight_model == "poisson":
        for term in _log2_factorial(g.weights):
            wfact += term
    return dl_global_canonical(*state, spec, wfact)


# every objective on integer weights, the exponential one also on real weights
SCOPE_SPECS = [(spec, False) for spec, _ in ORACLE_SPECS] + [ORACLE_SPECS[-1]]
# from 8 terms on np.sum adds the poisson constant in another order than the
# edges', and here the last bits of the DL show it
ORDER_STAR = make_graph([0] * 8, range(1, 9), [2**52, 1, 1, 1, 1, 1, 2, 8])


class TestGlobalScopeDL:
    """At global scope a backbone DL is the one segment of
    ``objectives._segments``: it must match the scalar evaluators bit for
    bit, on graphs of either direction."""

    @pytest.mark.parametrize("spec, real", SCOPE_SPECS)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_scope_dl_matches_scalar(self, spec, real, data):
        g, flags = data.draw(graphs_with_backbones(real=real))
        flags = np.array(flags)
        got = description_length(g, backbone_from_flags(g, flags), spec)
        assert got.hex() == global_scalar(g, flags, spec).hex()

    @pytest.mark.parametrize("spec, real", SCOPE_SPECS)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_empty_backbone_matches_scalar(self, spec, real, data):
        g, _ = data.draw(graphs_with_backbones(real=real))
        empty = np.zeros(g.num_edges, dtype=bool)
        want = global_scalar(g, empty, spec)
        for scope in ("global", "local"):
            dl = empty_backbone_dls(g, replace(spec, scope=scope))[0]
            assert dl.hex() == want.hex()

    def test_poisson_constant_in_edge_order(self):
        spec = ORACLE_SPECS[2][0]
        empty = np.zeros(ORDER_STAR.num_edges, dtype=bool)
        terms = _log2_factorial(ORDER_STAR.weights)
        pairwise = dl_global_canonical(8, ORDER_STAR.total_weight, 0, 0, spec, np.sum(terms))
        want = global_scalar(ORDER_STAR, empty, spec)
        assert pairwise != want
        assert empty_backbone_dls(ORDER_STAR, spec)[0] == want
        assert description_length(ORDER_STAR, backbone_from_flags(ORDER_STAR, empty),
                                  spec) == want


class TestStrengthPrior:
    def test_values(self):
        # the oracle and the package's own prior, which description_length adds
        for prior in (strength_prior_bits, _strength_prior_bits):
            assert prior(1, 4, 8) == 0.0
            assert prior(2, 8, 16) == pytest.approx(np.log2(9), abs=1e-9)
            assert prior(2, 8, 16) == strength_prior_bits(2, 8, 16)
            assert prior(10, 5, 5) == 0.0
            with pytest.raises(DomainError):
                prior(0, 0, 0)  # no nodes to carry a strength


class TestLocalMicro:
    def test_single_node_star(self, star_selfloops):
        bb = backbone_from_flags(star_selfloops, [True, False, False, False])
        assert dl_local_micro(star_selfloops, bb) == pytest.approx(
            6.6439, abs=1e-4
        )

    def test_two_identical_stars(self):
        g = make_graph(
            [0, 0, 0, 0, 1, 1, 1, 1],
            [0, 0, 0, 0, 1, 1, 1, 1],
            [5, 1, 1, 1, 5, 1, 1, 1],
            num_nodes=2,
        )
        bb = backbone_from_flags(
            g, [True, False, False, False, True, False, False, False]
        )
        assert dl_local_micro(g, bb) == pytest.approx(16.4576, abs=1e-4)


def local_dl_reference(g, flags, spec=None):
    """Per-node sum of the global formulas, with neighborhood symbols, over
    the out-neighborhoods of the directed view (microcanonical with the
    strength prior when ``spec`` is None)."""
    edges = [
        (int(i), int(j), w.item(), bool(f))
        for i, j, w, f in zip(g.src, g.dst, g.weights, flags)
    ]
    if not g.directed:
        edges += [(j, i, w, f) for i, j, w, f in edges if i != j]
    total = 0.0
    if spec is None:
        total = strength_prior_bits(g.num_nodes, len(edges), sum(e[2] for e in edges))
    for node in range(g.num_nodes):
        ws = [w for i, _, w, _ in edges if i == node]
        bs = [w for i, _, w, f in edges if i == node and f]
        if spec is None:
            total += dl_global_micro(len(ws), sum(ws), len(bs), sum(bs))
        else:
            wfact = sum(math.lgamma(w + 1) for w in ws) / math.log(2)
            total += dl_global_canonical(len(ws), sum(ws), len(bs), sum(bs), spec, wfact)
    return total


class TestLocalMatchesPerNodeLoop:
    @given(graphs_with_backbones())
    @settings(max_examples=60, deadline=None)
    def test_micro(self, case):
        g, flags = case
        got = dl_local_micro(g, backbone_from_flags(g, flags))
        assert got == pytest.approx(local_dl_reference(g, flags), rel=1e-9)

    @pytest.mark.parametrize("model", ["geometric", "poisson", "exponential"])
    @given(case=graphs_with_backbones())
    @settings(max_examples=40, deadline=None)
    def test_canonical(self, model, case):
        g, flags = case
        spec = ObjectiveSpec("local", "canonical", model, lam=0.7)
        got = description_length(g, backbone_from_flags(g, flags), spec)
        assert got == pytest.approx(local_dl_reference(g, flags, spec), rel=1e-9)

    @given(graphs_with_backbones(real=True))
    @settings(max_examples=40, deadline=None)
    def test_exponential_real_weights(self, case):
        g, flags = case
        spec = ObjectiveSpec("local", "canonical", "exponential")
        got = description_length(g, backbone_from_flags(g, flags), spec)
        assert got == pytest.approx(local_dl_reference(g, flags, spec), rel=1e-9)

    def test_invalid_neighborhood_rejected(self):
        # node 0: k=2, s=3 and a backbone of weight 3 leaves the other edge
        # weight 0; the graph type refuses the zero weight, so no local DL
        # ever sees that state
        with pytest.raises(DomainError, match=">= 1"):
            g = make_graph([0, 0], [1, 0], [0, 3], num_nodes=2)
            dl_local_micro(g, backbone_from_flags(g, [False, True]))


class TestCanonical:
    def test_geometric_reference(self):
        assert dl_global_canonical(4, 8, 1, 5, GEOM) == pytest.approx(
            11.2288, abs=1e-4
        )

    def test_appendix_identity_reference(self):
        lm = dl_global_micro(4, 8, 1, 5)
        assert dl_global_canonical(4, 8, 1, 5, GEOM) == pytest.approx(
            lm + np.log2(24), abs=1e-4
        )

    def test_exponential_reference(self):
        spec = ObjectiveSpec("global", "canonical", "exponential", lam=1.0)
        got = dl_global_canonical(2, 3.0, 0, 0.0, spec)
        expect = np.log2(3) + 3 * np.log2(4) - np.log2(2)
        assert got == pytest.approx(expect, abs=1e-9)
        assert got == pytest.approx(6.585, abs=1e-3)

    def test_neigh_geometric(self):
        # (k, s, k_b, s_b) of one out-neighborhood in the global formula
        assert dl_global_canonical(4, 8, 1, 5, GEOM) == pytest.approx(
            11.2288, abs=1e-4
        )
        assert dl_global_canonical(0, 0, 0, 0, GEOM) == 0.0
        assert dl_global_canonical(2, 2, 0, 0, GEOM) == pytest.approx(
            2 * np.log2(3), abs=1e-9
        )

    def test_local_canonical_sums_neighborhoods(self, star_selfloops):
        spec = ObjectiveSpec("local", "canonical", "geometric")
        bb = backbone_from_flags(star_selfloops, [True, False, False, False])
        assert description_length(star_selfloops, bb, spec) == pytest.approx(
            11.2288, abs=1e-4
        )

    def test_geometric_identity_random(self):
        rng = np.random.default_rng(1)
        for E, W, E_b, W_b in valid_tuples(rng, 500):
            lc = dl_global_canonical(E, W, E_b, W_b, GEOM)
            lm = dl_global_micro(E, W, E_b, W_b)
            delta = np.log2(
                (W_b + 1.0) * (W - W_b + 1.0) * W_b * (W - W_b)
                / ((W - E + 1.0) * E_b * (E - E_b))
            )
            assert lc == pytest.approx(lm + delta, abs=1e-9)

    def test_geometric_identity_empty(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            E = int(rng.integers(1, 30))
            W = E + int(rng.integers(0, 60))
            lc = dl_global_canonical(E, W, 0, 0, GEOM)
            lm = dl_global_micro(E, W, 0, 0)
            delta = np.log2((W + 1.0) * W / ((W - E + 1.0) * E))
            assert lc == pytest.approx(lm + delta, abs=1e-9)

    def test_bit_flip_symmetry_all_models(self):
        rng = np.random.default_rng(3)
        for spec in (GEOM, POIS):
            for E, W, E_b, W_b in valid_tuples(rng, 200):
                a = dl_global_canonical(E, W, E_b, W_b, spec)
                b = dl_global_canonical(E, W, E - E_b, W - W_b, spec)
                assert a == pytest.approx(b, abs=1e-9)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            ObjectiveSpec("global", "canonical")
        with pytest.raises(DomainError):
            ObjectiveSpec("global", "microcanonical", "geometric")
        with pytest.raises(DomainError):
            ObjectiveSpec("sideways", "canonical", "geometric")
        with pytest.raises(DomainError):
            ObjectiveSpec("global", "canonical", "poisson", lam=0.0)
        with pytest.raises(DomainError, match="lam must be finite and positive"):
            ObjectiveSpec("global", "microcanonical", lam=math.nan)
        with pytest.raises(DomainError):
            dl_global_canonical(4, 8, 1, 5, MICRO)

    @pytest.mark.parametrize("model", ["poisson", "exponential"])
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lam_rejected(self, model, lam):
        with pytest.raises(DomainError, match="lam must be finite and positive"):
            ObjectiveSpec("global", "canonical", model, lam=lam)


@st.composite
def interior_states(draw):
    """(spec, E, W, E_b, W_b) with 1 <= E_b <= E - 1, W <= 1e6 and both
    W_b - 1 and W_b + 1 valid backbone weights; poisson and exponential
    take a random lam, and the exponential model a real W_b."""
    model = draw(st.sampled_from([None, "geometric", "poisson", "exponential"]))
    lam = draw(st.floats(1e-3, 1e3))
    spec = (MICRO if model is None
            else ObjectiveSpec("global", "canonical", model, lam=lam))
    E = draw(st.integers(2, 1000))
    E_b = draw(st.integers(1, E - 1))
    W = draw(st.integers(E + 2, 10**6))
    if spec.continuous:
        W_b = draw(st.floats(1.0, W - 1.0))
    else:
        W_b = draw(st.integers(E_b + 1, W - (E - E_b) - 1))
    return spec, E, W, E_b, W_b


class TestDelta:
    """The change of the DL with the backbone weight at a fixed size, as
    differences of the evaluators the greedy sweep runs."""

    @staticmethod
    def dl(spec, E, W, E_b, W_b):
        if spec.family == "microcanonical":
            return dl_global_micro(E, W, E_b, W_b)
        return dl_global_canonical(E, W, E_b, W_b, spec)

    @settings(max_examples=300, deadline=None)
    @given(interior_states())
    def test_concave_in_backbone_weight(self, state):
        # the greedy's premise: at a fixed size every family's DL is concave
        # in W_b, so the optimum sits at the heaviest or lightest edges
        spec, E, W, E_b, W_b = state
        lo, mid, hi = (self.dl(spec, E, W, E_b, W_b + d) for d in (-1, 0, 1))
        assert lo - 2 * mid + hi <= 1e-6

    def test_reference_micro(self):
        # a unit weight increment at E=4, W=10, E_b=1, W_b=5
        got = dl_global_micro(4, 10, 1, 6) - dl_global_micro(4, 10, 1, 5)
        assert got == pytest.approx(np.log2((5 / 5) * (1 / 2)), abs=1e-9)
        assert got == pytest.approx(-1.0, abs=1e-9)

    def test_negative_increment_condition(self):
        # W_b > (E_b - 1)(W - 1)/(E - 2) implies a negative increment
        E, W, E_b, W_b = 4, 10, 2, 6
        assert W_b > (E_b - 1) * (W - 1) / (E - 2)
        assert dl_global_micro(E, W, E_b, W_b + 1) < dl_global_micro(E, W, E_b, W_b)
