"""Exact optimizers the greedy solvers are tested against.

- :func:`enumerate_optimal` scores every one of the 2^E backbones, up to
  24 (directed-view) edges, at either scope; it is the anchor of
  acceptance criterion 01.
- :func:`dp_optimal` reaches past that cap on integer weights: every DL
  here is a function of each segment's (E_b, W_b) alone, so the optimum
  over all subsets is the least DL over the reachable pairs, which a
  subset-sum DP finds.

Both add up their own segment totals, so neither shares the solvers'
:func:`objectives._segments`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from mdlbackbone.errors import DomainError
from mdlbackbone.graph import Backbone, directed_parents, directed_view
from mdlbackbone.objectives import (
    _dl_curve,
    _log2_factorial,
    _require_weights,
    strength_prior_bits,
)

ENUMERATION_EDGE_CAP = 24


class Optimum(NamedTuple):
    backbone: Backbone
    dl: float


def _enumerate_masks(n_edges, chunk):
    """Every mask of ``n_edges`` bits in order, as 0/1 float rows, ``chunk`` at a time."""
    total = 1 << n_edges
    for lo in range(0, total, chunk):
        masks = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        yield ((masks[:, None] >> np.arange(n_edges)) & 1).astype(float)


def enumerate_optimal(g, spec):
    """Exhaustive minimization over all 2^E backbones of ``g`` under
    ``spec``, as an :class:`Optimum`. Refuses graphs beyond 24
    (directed-view) edges. It scores the sweep's segments (the edge list at
    global scope, each out-neighborhood of the directed view at local
    scope) by its own one-hot sums. Ties: the least DL, then the fewest
    edges, then the first mask."""
    if g.num_edges == 0:
        raise DomainError("cannot backbone an empty graph")
    _require_weights(g, spec)
    local = spec.scope == "local"
    scope_g = directed_view(g) if local else g
    m = scope_g.num_edges
    if m > ENUMERATION_EDGE_CAP:
        raise DomainError(
            f"enumeration over 2^{m} backbones refused (cap {ENUMERATION_EDGE_CAP} edges)"
        )

    w = np.asarray(scope_g.weights, dtype=float)
    seg = scope_g.src if local else np.zeros(m, dtype=np.int64)
    onehot = np.zeros((m, scope_g.num_nodes if local else 1))
    onehot[np.arange(m), seg] = 1.0
    n_seg, w_onehot = onehot.shape[1], w[:, None] * onehot
    # each segment's totals, added in edge order whatever the other segments
    k, s = onehot.sum(axis=0), np.bincount(seg, w, n_seg)
    poisson = spec.family == "canonical" and spec.weight_model == "poisson"
    wf = np.bincount(seg, _log2_factorial(scope_g.weights), n_seg) if poisson else 0.0

    best_dl, best_Eb, best_bits = np.inf, np.inf, None
    for bits in _enumerate_masks(m, chunk=1 << (12 if local else 16)):
        dls = _dl_curve(k, s, bits @ onehot, bits @ w_onehot, spec, wf).sum(axis=1)
        Eb = bits.sum(axis=1)
        i = int(np.lexsort((Eb, dls))[0])
        if (dls[i], Eb[i]) < (best_dl, best_Eb):
            best_dl, best_Eb, best_bits = float(dls[i]), Eb[i], bits[i].astype(bool)
    if local and spec.family == "microcanonical":
        # a constant, added after the minimum as greedy_local adds it
        best_dl += strength_prior_bits(scope_g.num_nodes, m, scope_g.total_weight)
    parents = directed_parents(g) if local else np.arange(m)
    flags = np.zeros(g.num_edges, dtype=bool)
    flags[parents[best_bits]] = True
    return Optimum(Backbone(g, flags), best_dl)


def _reachable(weights):
    """``(E_b, W_b)``: every (size, total weight) pair that some subset of
    the positive integer ``weights`` reaches, by one bitset per size:
    bit W of ``reach[j]`` is set when some j of the weights sum to W."""
    reach = [1] + [0] * len(weights)
    for n, w in enumerate(weights, start=1):
        for j in range(n, 0, -1):
            reach[j] |= reach[j - 1] << w
    nbytes = (sum(weights) + 8) // 8
    E_b, W_b = [], []
    for j, r in enumerate(reach):
        bits = np.unpackbits(np.frombuffer(r.to_bytes(nbytes, "little"), np.uint8),
                             bitorder="little")
        totals = np.flatnonzero(bits)
        E_b.append(np.full(len(totals), j))
        W_b.append(totals)
    return np.concatenate(E_b).astype(float), np.concatenate(W_b).astype(float)


def dp_optimal(g, spec):
    """The least DL in bits over every backbone of ``g`` under ``spec``,
    found by a subset-sum DP over the reachable (E_b, W_b) pairs of each
    segment: the edge list at global scope, in either direction, and each
    node's out-edges at local scope, which needs a directed graph. Integer
    weights only: the microcanonical, geometric and poisson objectives."""
    if spec.continuous:
        raise DomainError("the DP oracle needs an objective of integer weights")
    _require_weights(g, spec)
    local = spec.scope == "local"
    if local and not g.directed:
        raise DomainError("the DP oracle splits local scope only on directed graphs")
    seg = g.src if local else np.zeros(g.num_edges, dtype=np.int64)
    poisson = spec.family == "canonical" and spec.weight_model == "poisson"
    dl = 0.0
    for i in np.unique(seg).tolist():
        w = g.weights[seg == i].tolist()
        E_b, W_b = _reachable(w)
        wf = float(np.sum(_log2_factorial(np.array(w)))) if poisson else 0.0
        dl += float(np.min(_dl_curve(float(len(w)), float(sum(w)), E_b, W_b, spec, wf)))
    if local and spec.family == "microcanonical":
        dl += strength_prior_bits(g.num_nodes, g.num_edges, g.total_weight)
    return dl
