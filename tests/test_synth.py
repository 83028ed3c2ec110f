import hashlib
from dataclasses import replace

import numpy as np
import pytest

from mdlbackbone.errors import DomainError
from mdlbackbone.graph import serialize_edge_list
from mdlbackbone.synth import (
    dirichlet_multinomial_weights,
    plant_weights_canonical,
    random_regular_directed,
)


class TestRandomRegular:
    def test_degrees(self):
        g = random_regular_directed(4, 2, seed=0)
        assert g.num_edges == 8
        assert np.all(np.bincount(g.src, minlength=4) == 2)
        # targets distinct within each neighborhood
        for i in range(4):
            targets = g.dst[g.src == i]
            assert len(set(targets.tolist())) == 2

    def test_single_self_loop(self):
        g = random_regular_directed(1, 1, seed=0)
        assert g.num_edges == 1
        assert g.src[0] == g.dst[0] == 0

    def test_complete_neighborhoods(self):
        g = random_regular_directed(100, 100, seed=0)
        assert g.num_edges == 100 * 100
        for i in (0, 57):
            assert sorted(g.dst[g.src == i].tolist()) == list(range(100))

    def test_k_too_large(self):
        with pytest.raises(DomainError):
            random_regular_directed(3, 4)

    def test_determinism(self):
        a = random_regular_directed(50, 5, seed=7)
        b = random_regular_directed(50, 5, seed=7)
        assert np.array_equal(a.dst, b.dst)

    def test_sparse_regime_distinct_targets(self):
        g = random_regular_directed(1000, 4, seed=3)
        for i in range(0, 1000, 97):
            targets = g.dst[g.src == i]
            assert len(set(targets.tolist())) == 4


class TestPlanted:
    def test_instance_shape(self):
        base = random_regular_directed(50, 10, seed=0)
        inst = plant_weights_canonical(base, gamma=0.01, scope="global", seed=1)
        g = inst.graph
        assert g.num_edges == base.num_edges
        assert np.all(g.weights >= 1)
        assert inst.planted.parent is g
        assert inst.params["gamma"] == 0.01
        assert (g.labels, g.directed, g.weight_kind) == (base.labels, True, "integer")

    def test_determinism(self):
        base = random_regular_directed(30, 5, seed=0)
        a = plant_weights_canonical(base, 0.1, "global", seed=5)
        b = plant_weights_canonical(base, 0.1, "global", seed=5)
        assert np.array_equal(a.graph.weights, b.graph.weights)
        assert np.array_equal(a.planted.member_flags, b.planted.member_flags)

    def test_member_weights_heavier_small_gamma(self):
        base = random_regular_directed(100, 50, seed=2)
        inst = plant_weights_canonical(base, gamma=1e-3, scope="global", seed=8)
        flags = inst.planted.member_flags
        if flags.any() and (~flags).any():
            ratio = inst.graph.weights[flags].mean() / \
                inst.graph.weights[~flags].mean()
            assert ratio > 10

    def test_geometric_sample_mean(self):
        # non-member weights should have mean 1/theta0 (3 standard errors)
        base = random_regular_directed(500, 400, seed=11)
        for seed in range(5):
            inst = plant_weights_canonical(base, 0.5, "global", seed=seed)
            theta0 = None
            # recover theta0 by replaying the generator's draw sequence
            rng = np.random.default_rng(seed)
            pi_b = rng.uniform()
            theta0 = rng.uniform()
            flags = inst.planted.member_flags
            non = inst.graph.weights[~flags]
            if len(non) < 1e4:
                continue
            mean = non.mean()
            se = non.std() / np.sqrt(len(non))
            assert abs(mean - 1 / theta0) < 3 * se + 1e-9

    def test_local_scope(self):
        base = random_regular_directed(40, 10, seed=0)
        inst = plant_weights_canonical(base, 0.01, "local", seed=2)
        assert inst.graph.num_edges == 400
        assert inst.params["scope"] == "local"

    def test_gamma_validation(self):
        base = random_regular_directed(5, 2, seed=0)
        with pytest.raises(DomainError):
            plant_weights_canonical(base, 0.0, "global")
        with pytest.raises(DomainError):
            plant_weights_canonical(base, 1.5, "global")

    def test_unknown_scope_rejected(self):
        base = random_regular_directed(5, 2, seed=0)
        with pytest.raises(DomainError, match="unknown scope 'middle'"):
            plant_weights_canonical(base, 0.5, "middle")

    def test_undirected_graph_rejected(self):
        base = random_regular_directed(5, 2, seed=0)
        undirected = replace(base, directed=False)
        with pytest.raises(DomainError, match="planted instances use directed graphs"):
            plant_weights_canonical(undirected, 0.5, "global")


class TestDirichletMultinomial:
    def test_conservation(self):
        inst = dirichlet_multinomial_weights(100, 10, 50000, 0.1, 0.1, seed=0)
        assert inst.graph.total_weight == 50000
        assert np.all(inst.graph.weights >= 1)

    def test_minimum_weight(self):
        inst = dirichlet_multinomial_weights(20, 5, 100, 1.0, 1.0, seed=0)
        assert inst.graph.total_weight == 100
        assert np.all(inst.graph.weights == 1)

    def test_w_below_minimum(self):
        with pytest.raises(DomainError):
            dirichlet_multinomial_weights(10, 5, 49, 1.0, 1.0)

    def test_canary_bytes(self):
        # the 20k-edge instance whose serialized bytes the benchmark pins
        inst = dirichlet_multinomial_weights(2000, 10, 200_000, 0.1, 0.1, seed=1)
        digest = hashlib.sha256(serialize_edge_list(inst.graph).encode()).hexdigest()
        assert digest == (
            "2a0957378e23a5d592472c49d693a66cc11aa4b529a5528fe37500c292aa71d5"
        )

    def test_determinism(self):
        a = dirichlet_multinomial_weights(50, 5, 10000, 0.1, 0.1, seed=4)
        b = dirichlet_multinomial_weights(50, 5, 10000, 0.1, 0.1, seed=4)
        assert np.array_equal(a.graph.weights, b.graph.weights)

    def test_high_concentration_homogeneous(self):
        inst = dirichlet_multinomial_weights(
            200, 10, 200 * 10 * 100, 1e7, 1e7, seed=1
        )
        w = inst.graph.weights
        assert w.std() / w.mean() < 0.15

    def test_low_neighborhood_concentration_concentrates(self):
        inst = dirichlet_multinomial_weights(
            200, 10, 200 * 10 * 100, 10.0, 1e-7, seed=1
        )
        g = inst.graph
        # within each neighborhood nearly all excess on one edge
        top_share = []
        for i in range(0, 200, 13):
            w = np.sort(g.weights[g.src == i])[::-1].astype(float)
            excess = w - 1
            if excess.sum() > 0:
                top_share.append(excess[0] / excess.sum())
        assert np.mean(top_share) > 0.95
