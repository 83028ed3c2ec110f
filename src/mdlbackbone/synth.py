"""Synthetic instance generators: random regular directed graphs, planted
geometric-weight backbones, and Dirichlet-multinomial weight networks."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .graph import Backbone, WeightedGraph, backbone_from_flags


CONCENTRATION_FLOOR = 1e-6
CONCENTRATION_CAP = 1e6


@dataclass(frozen=True, eq=False)
class PlantedInstance:
    graph: WeightedGraph
    planted: Backbone
    params: dict


@dataclass(frozen=True, eq=False)
class DmInstance:
    graph: WeightedGraph
    params: dict


def random_regular_directed(N, k, seed=None):
    """Directed graph with exactly k out-edges per node, targets sampled
    uniformly without replacement from all N nodes (self-loops allowed).
    All weights 1."""
    if k < 0:
        raise DomainError(f"k={k} out-targets: k must be non-negative")
    if k > N:
        raise DomainError(f"k={k} out-targets impossible with N={N} nodes")
    rng = np.random.default_rng(seed)
    if k > N // 8:
        # dense regime: per-row random permutation
        keys = rng.random((N, N))
        dst = np.argsort(keys, axis=1)[:, :k]
    else:
        dst = rng.integers(0, N, size=(N, k))
        dst.sort(axis=1)
        bad = np.nonzero((dst[:, 1:] == dst[:, :-1]).any(axis=1))[0]
        for row in bad:
            seen = set()
            for c in range(k):
                while int(dst[row, c]) in seen:
                    dst[row, c] = rng.integers(0, N)
                seen.add(int(dst[row, c]))
    src = np.repeat(np.arange(N, dtype=np.int64), k)
    return WeightedGraph(
        num_nodes=N,
        src=src,
        dst=dst.reshape(-1).astype(np.int64),
        weights=np.ones(N * k, dtype=np.int64),
        directed=True,
    )


def plant_weights_canonical(g, gamma, scope="global", seed=None):
    """Plant a backbone and geometric weights on a unit-weight directed graph.

    Global scope draws a single (pi_b, theta0) with theta1 = gamma * theta0;
    local scope draws them independently per out-neighborhood. Backbone edges
    get geometric weights with the smaller success probability theta1 (larger
    mean)."""
    if not 0.0 < gamma <= 1.0:
        raise DomainError("gamma must lie in (0, 1]")
    if not g.directed:
        raise DomainError("planted instances use directed graphs")
    rng = np.random.default_rng(seed)
    E = g.num_edges
    weights = np.empty(E, dtype=np.int64)
    member = np.empty(E, dtype=bool)
    if scope == "global":
        pi_b = rng.uniform()
        theta0 = rng.uniform()
        theta1 = gamma * theta0
        member[:] = rng.uniform(size=E) < pi_b
        weights[member] = rng.geometric(theta1, size=int(member.sum()))
        weights[~member] = rng.geometric(theta0, size=int((~member).sum()))
    elif scope == "local":
        pi_b = rng.uniform(size=g.num_nodes)
        theta0 = rng.uniform(size=g.num_nodes)
        theta1 = gamma * theta0
        member[:] = rng.uniform(size=E) < pi_b[g.src]
        theta_e = np.where(member, theta1[g.src], theta0[g.src])
        weights[:] = rng.geometric(theta_e)
    else:
        raise DomainError(f"unknown scope {scope!r}")
    graph = replace(g, weights=weights)
    return PlantedInstance(
        graph=graph,
        planted=backbone_from_flags(graph, member),
        params={"N": g.num_nodes, "gamma": gamma, "scope": scope, "seed": seed},
    )


def _dirichlet_rows(rng, concentration, n_rows, n_cells):
    """Symmetric Dirichlet draws via normalized gammas. For very small
    concentrations the gammas can all underflow to zero; such rows collapse
    to a single uniformly chosen cell, which is the correct limit."""
    conc = min(max(concentration, CONCENTRATION_FLOOR), CONCENTRATION_CAP)
    raw = rng.gamma(conc, size=(n_rows, n_cells))
    sums = raw.sum(axis=1)
    dead = sums == 0.0
    if dead.any():
        raw[dead] = 0.0
        raw[dead, rng.integers(0, n_cells, size=int(dead.sum()))] = 1.0
        sums = raw.sum(axis=1)
    return raw / sums[:, None]


def _rowwise_multinomial(rng, totals, probs):
    """Multinomial draws with per-row totals and probabilities, via the chain
    of binomials over columns."""
    n_rows, n_cols = probs.shape
    out = np.zeros((n_rows, n_cols), dtype=np.int64)
    remaining = totals.astype(np.int64).copy()
    p_left = np.ones(n_rows)
    for c in range(n_cols - 1):
        frac = np.divide(probs[:, c], p_left, out=np.zeros(n_rows), where=p_left > 0)
        draw = rng.binomial(remaining, np.clip(frac, 0.0, 1.0))
        out[:, c] = draw
        remaining -= draw
        p_left -= probs[:, c]
    out[:, -1] = remaining
    return out


def dirichlet_multinomial_weights(N, k, W, h_str, h_neig, seed=None):
    """Random k-regular directed graph whose excess weight W - Nk is spread
    over nodes with concentration ``h_str`` and within each out-neighborhood
    with concentration ``h_neig``. Total weight is exactly W. Concentrations
    must be finite and positive; they are clipped to [CONCENTRATION_FLOOR,
    CONCENTRATION_CAP]."""
    for name, h in (("h_str", h_str), ("h_neig", h_neig)):
        if not 0 < h < np.inf:
            raise DomainError(f"{name}={h}: concentrations must be finite and positive")
    if W < N * k:
        raise DomainError(f"W={W} below the minimum N*k={N * k}")
    if W > 0 and N * k == 0:
        raise DomainError(f"W={W} but N*k=0: no edges to carry the weight")
    rng = np.random.default_rng(seed)
    g = random_regular_directed(N, k, seed=rng.integers(2**63))
    excess = int(W - N * k)
    weights = np.ones(N * k, dtype=np.int64)
    if excess > 0:
        node_excess = rng.multinomial(excess, _dirichlet_rows(rng, h_str, 1, N)[0])
        probs = _dirichlet_rows(rng, h_neig, N, k)
        per_edge = _rowwise_multinomial(rng, node_excess, probs)
        weights += per_edge.reshape(-1)
    graph = replace(g, weights=weights)
    return DmInstance(
        graph=graph,
        params={"N": N, "k": k, "W": W, "h_str": h_str, "h_neig": h_neig, "seed": seed},
    )
