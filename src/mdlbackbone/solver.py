"""Greedy backbone optimization, the exhaustive enumeration oracle, and
inverse compression ratios.

One greedy sweep serves both scopes: it orders the weights descending,
evaluates the chosen description length of every heavy prefix and every
light suffix of size 0..floor(E/2) and keeps the argmin. Global scope runs it
once over the whole edge list, local scope once in every out-neighborhood of
the directed view. Both are exact minimizers for the microcanonical
objectives and for canonical geometric/poisson/exponential weights
(asymptotically for the latter two).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .graph import (
    Backbone,
    backbone_from_flags,
    directed_parents,
    directed_view,
    neighborhoods,
)
from .objectives import (
    ObjectiveSpec,
    _dl_curve,
    _log2_factorial,
    _poisson_wfact,
    dl_local_canonical,
    dl_local_micro,
    strength_prior_bits,
)

__all__ = [
    "DlTrace",
    "BackboneResult",
    "greedy_global",
    "greedy_local",
    "enumerate_optimal",
    "inverse_compression_ratio",
    "empty_backbone_dls",
    "mean_weight_ordering_holds",
    "backbone_to_dict",
    "result_to_dict",
]

ENUMERATION_EDGE_CAP = 24


@dataclass(frozen=True)
class DlTrace:
    """Description-length values per candidate backbone size 0..floor(E/2)."""

    values: np.ndarray
    argmin: int
    tie_count: int


@dataclass
class BackboneResult:
    backbone: Backbone
    dl: float
    eta: float
    dl_empty_global: float
    dl_empty_local: float
    method: str
    objective: str
    trace: DlTrace = None
    node_traces: list = field(default=None, repr=False)


def _objective_name(spec):
    if spec.family == "microcanonical":
        return f"micro-{spec.scope}"
    return f"canonical-{spec.weight_model}-{spec.scope}"


def _require_weights(g, spec):
    if spec.continuous:
        return
    if g.weight_kind != "integer":
        raise DomainError(
            f"{_objective_name(spec)} requires integer weights; "
            "use the exponential model for real weights"
        )


def empty_backbone_dls(g, spec):
    """(global, local) description lengths of the empty backbone under the
    family/weight-model of ``spec``. The global value uses the graph's own
    edge list; the local value uses the directed view."""
    E, W = g.num_edges, g.total_weight
    if E == 0:
        raise DomainError("empty graph has no description length")
    wf = _poisson_wfact(spec, g.weights)
    g_spec = ObjectiveSpec("global", spec.family, spec.weight_model, spec.lam)
    dl_g = float(_dl_curve(E, W, 0, 0, g_spec, wf))

    empty = backbone_from_flags(g, np.zeros(E, dtype=bool))
    if spec.family == "microcanonical":
        dl_l = dl_local_micro(g, empty)
    else:
        dl_l = dl_local_canonical(g, empty, spec)
    return dl_g, dl_l


def inverse_compression_ratio(dl_opt, dl_empty_global, dl_empty_local):
    """dl_opt / max(empty-backbone DLs); <= 1 means the backbone compresses.
    Raises DomainError when neither empty-backbone DL is positive, as the
    exponential model's differential code gives for small real weights."""
    denom = max(dl_empty_global, dl_empty_local)
    if denom <= 0:
        raise DomainError(
            f"eta is undefined: the empty-backbone description lengths are "
            f"{dl_empty_global:.6g} bits (global) and {dl_empty_local:.6g} bits "
            f"(local), and neither is positive"
        )
    return float(dl_opt / denom)


def _weight_sort_order(g):
    # weight descending, ties by (src, dst) index ascending
    return np.lexsort((g.dst, g.src, -np.asarray(g.weights, dtype=float)))


def _sweep(w, starts, strength, wfact, spec):
    """The greedy sweep over every segment ``w[starts[i]:starts[i + 1]]`` of
    the weights ``w``, each segment sorted heaviest first. ``strength`` and
    ``wfact`` (sum of log2 w! for the poisson model, else 0) are the
    segment totals: an array with one entry per segment, or a scalar that
    holds for every segment.

    A segment of k edges is scored under ``spec``'s family at its heavy
    prefixes and its light suffixes of sizes 0..floor(k/2). At fixed size
    the DL is concave in the backbone weight for every supported family, so
    the per-size optimum sits at an extreme: the heaviest or the lightest
    edges, and light suffixes of size <= k/2 stand in for heavy prefixes of
    size > k/2 via the bit-flip symmetry. Ties: the empty backbone beats a
    prefix, a prefix beats a suffix, a suffix wins only with a strictly
    smaller DL, and the smallest minimizing size wins within each curve. When
    a light suffix wins, the complementary heavy prefix (equal DL by the
    bit-flip symmetry) is kept: the backbone is the heavy side.

    Returns ``(n_keep, dl, curve, curve_starts)``: per segment the number of
    heaviest edges kept and the winning DL, and the prefix DLs over sizes
    0..floor(k/2) of segment i at ``curve[curve_starts[i]:curve_starts[i + 1]]``.
    """
    k = np.diff(starts)
    sizes = k // 2 + 1
    curve_starts = np.concatenate([[0], np.cumsum(sizes)])
    at = curve_starts[:-1]
    seg = np.repeat(np.arange(len(k)), sizes)
    j = np.arange(curve_starts[-1]) - at[seg]
    cum = np.concatenate([[0.0], np.cumsum(w)])
    E = k[seg]
    W = strength[seg] if np.ndim(strength) else strength
    wf = wfact[seg] if np.ndim(wfact) else wfact

    def dl_at(backbone_weight):
        return np.asarray(_dl_curve(E, W, j, backbone_weight, spec, wf))

    curve = dl_at(cum[starts[seg] + j] - cum[starts[seg]])
    light = dl_at(cum[starts[seg + 1]] - cum[starts[seg + 1] - j])

    best_p = np.minimum.reduceat(curve, at)
    size_p = np.minimum.reduceat(np.where(curve == best_p[seg], j, len(j)), at)
    best_s = np.minimum.reduceat(light, at)
    size_s = np.minimum.reduceat(np.where(light == best_s[seg], j, len(j)), at)
    take_s = best_s < best_p
    n_keep = np.where(take_s, k - size_s, size_p)
    return n_keep, np.where(take_s, best_s, best_p), curve, curve_starts


def _trace(values):
    ties = np.nonzero(values == values.min())[0]
    return DlTrace(values=values, argmin=int(ties[0]), tie_count=len(ties))


def greedy_global(g, spec=None):
    """MDL-optimal global backbone: the greedy sweep over the whole edge
    list, heaviest first."""
    if spec is None:
        spec = ObjectiveSpec("global", "microcanonical")
    if spec.scope != "global":
        raise DomainError("greedy_global needs a global-scope spec")
    if g.num_edges == 0:
        raise DomainError("cannot backbone an empty graph")
    _require_weights(g, spec)

    order = _weight_sort_order(g)
    n_keep, dl, curve, _ = _sweep(
        np.asarray(g.weights, dtype=float)[order],
        np.array([0, g.num_edges]),
        float(g.total_weight),
        _poisson_wfact(spec, g.weights),
        spec,
    )
    flags = np.zeros(g.num_edges, dtype=bool)
    flags[order[:n_keep[0]]] = True
    bb = backbone_from_flags(g, flags)
    dl = float(dl[0])
    dl_eg, dl_el = empty_backbone_dls(g, spec)
    return BackboneResult(
        backbone=bb,
        dl=dl,
        eta=inverse_compression_ratio(dl, dl_eg, dl_el),
        dl_empty_global=dl_eg,
        dl_empty_local=dl_el,
        method="mdl-global",
        objective=_objective_name(spec),
        trace=_trace(curve),
    )


def greedy_local(g, spec=None, store_traces=False):
    """MDL-optimal local backbone: the greedy sweep applied independently to
    every out-neighborhood of the directed view, union of the neighborhood
    backbones, deduplicated back to undirected form when the input is
    undirected."""
    if spec is None:
        spec = ObjectiveSpec("local", "microcanonical")
    if spec.scope != "local":
        raise DomainError("greedy_local needs a local-scope spec")
    if g.num_edges == 0:
        raise DomainError("cannot backbone an empty graph")
    _require_weights(g, spec)

    dg = directed_view(g)
    order, starts = neighborhoods(dg)
    src_sorted = dg.src[order]
    w_sorted = np.asarray(dg.weights, dtype=float)[order]
    N = dg.num_nodes
    s = np.bincount(src_sorted, weights=w_sorted, minlength=N)
    wfact = 0.0
    if spec.family == "canonical" and spec.weight_model == "poisson":
        wfact = np.bincount(
            src_sorted, weights=_log2_factorial(w_sorted), minlength=N
        )
    n_keep, node_dl, curve, curve_starts = _sweep(w_sorted, starts, s, wfact, spec)

    k = np.diff(starts)
    # isolated nodes contribute 0 bits
    dl = float(np.sum(node_dl[k > 0]))
    if spec.family == "microcanonical":
        dl += strength_prior_bits(N, dg.num_edges, dg.total_weight)

    pos = np.arange(dg.num_edges) - np.repeat(starts[:-1], k)
    selected = pos < np.repeat(n_keep, k)
    flags = np.zeros(g.num_edges, dtype=bool)
    flags[directed_parents(g)[order[selected]]] = True
    bb = backbone_from_flags(g, flags)

    dl_eg, dl_el = empty_backbone_dls(g, spec)
    result = BackboneResult(
        backbone=bb,
        dl=dl,
        eta=inverse_compression_ratio(dl, dl_eg, dl_el),
        dl_empty_global=dl_eg,
        dl_empty_local=dl_el,
        method="mdl-local",
        objective=_objective_name(spec),
    )
    if store_traces:
        result.node_traces = [
            _trace(curve[curve_starts[i]:curve_starts[i + 1]]) for i in range(N)
        ]
    return result


def _enumerate_masks(n_edges, chunk=1 << 16):
    total = 1 << n_edges
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        masks = np.arange(lo, hi, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n_edges)) & 1
        yield masks, bits.astype(float)


def enumerate_optimal(g, spec):
    """Exhaustive minimization over all 2^E backbones; the test oracle for
    the greedy solvers. Refuses graphs beyond 24 (directed-view) edges."""
    if g.num_edges == 0:
        raise DomainError("cannot backbone an empty graph")
    _require_weights(g, spec)

    if spec.scope == "global":
        scope_g = g
    else:
        scope_g = directed_view(g)
    m = scope_g.num_edges
    if m > ENUMERATION_EDGE_CAP:
        raise DomainError(
            f"enumeration over 2^{m} backbones refused (cap {ENUMERATION_EDGE_CAP} edges)"
        )

    w = np.asarray(scope_g.weights, dtype=float)
    best_dl = np.inf
    best_Eb = None
    best_mask_bits = None

    if spec.scope == "global":
        E, W = float(m), float(scope_g.total_weight)
        wf = _poisson_wfact(spec, scope_g.weights)
        for masks, bits in _enumerate_masks(m):
            Eb = bits.sum(axis=1)
            Wb = bits @ w
            dls = np.asarray(_dl_curve(E, W, Eb, Wb, spec, wf))
            best_dl, best_Eb, best_mask_bits = _fold_best(
                dls, Eb, bits, best_dl, best_Eb, best_mask_bits
            )
        flags = best_mask_bits.astype(bool)
        bb = backbone_from_flags(g, flags)
    else:
        N = scope_g.num_nodes
        onehot = np.zeros((m, N))
        onehot[np.arange(m), scope_g.src] = 1.0
        k = onehot.sum(axis=0)
        s = w @ onehot
        prior = (
            strength_prior_bits(N, m, scope_g.total_weight)
            if spec.family == "microcanonical"
            else 0.0
        )
        family_spec = ObjectiveSpec("global", spec.family, spec.weight_model, spec.lam)
        if spec.family == "canonical" and spec.weight_model == "poisson":
            wf_nodes = np.asarray(_log2_factorial(scope_g.weights)) @ onehot
        else:
            wf_nodes = 0.0
        w_onehot = w[:, None] * onehot
        for masks, bits in _enumerate_masks(m, chunk=1 << 12):
            Kb = bits @ onehot
            Sb = bits @ w_onehot
            terms = np.asarray(
                _dl_curve(k[None, :], s[None, :], Kb, Sb, family_spec, wf_nodes)
            )
            dls = prior + terms.sum(axis=1)
            Eb = bits.sum(axis=1)
            best_dl, best_Eb, best_mask_bits = _fold_best(
                dls, Eb, bits, best_dl, best_Eb, best_mask_bits
            )
        flags = np.zeros(g.num_edges, dtype=bool)
        flags[directed_parents(g)[best_mask_bits.astype(bool)]] = True
        bb = backbone_from_flags(g, flags)

    dl_eg, dl_el = empty_backbone_dls(g, spec)
    return BackboneResult(
        backbone=bb,
        dl=float(best_dl),
        eta=inverse_compression_ratio(best_dl, dl_eg, dl_el),
        dl_empty_global=dl_eg,
        dl_empty_local=dl_el,
        method="enumerate",
        objective=_objective_name(spec),
    )


def _fold_best(dls, Eb, bits, best_dl, best_Eb, best_bits):
    i = int(np.lexsort((Eb, dls))[0])
    if dls[i] < best_dl or (dls[i] == best_dl and Eb[i] < best_Eb):
        return float(dls[i]), float(Eb[i]), bits[i].copy()
    return best_dl, best_Eb, best_bits


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


def backbone_to_dict(bb):
    """JSON-ready sizes of a backbone and its parent, with its edges as
    [src label, dst label, weight] rows in parent edge order."""
    g = bb.parent
    kept = bb.member_flags
    labels = np.array(g.labels, dtype=object)
    return {
        "N": g.num_nodes,
        "E": g.num_edges,
        "W": g.total_weight,
        "E_b": bb.num_edges,
        "W_b": bb.total_weight,
        "edges": list(map(list, zip(
            labels[g.src[kept]].tolist(),
            labels[g.dst[kept]].tolist(),
            g.weights[kept].astype(float).tolist(),
        ))),
    }


def result_to_dict(result, include_trace=False):
    """JSON-ready summary of a BackboneResult."""
    doc = backbone_to_dict(result.backbone)
    doc.update({
        "method": result.method,
        "objective": result.objective,
        "dl_bits": result.dl,
        "dl_empty_global_bits": result.dl_empty_global,
        "dl_empty_local_bits": result.dl_empty_local,
        "eta": result.eta,
    })
    if include_trace and result.trace is not None:
        doc["trace"] = np.asarray(result.trace.values, dtype=float).tolist()
    return doc
