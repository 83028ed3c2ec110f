"""Greedy backbone optimization, the exhaustive enumeration oracle, and
inverse compression ratios.

The greedy sweep adds edges in weight-descending order, evaluates the chosen
description length at every candidate size 0..floor(E/2) and keeps the
argmin prefix. For the local objectives the same sweep runs independently in
every out-neighborhood of the directed view. Both are exact minimizers for
the microcanonical objectives and for canonical geometric/poisson/exponential
weights (asymptotically for the latter two).
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


def _trace_argmin(values):
    best = values.min()
    ties = np.nonzero(values == best)[0]
    return int(ties[0]), len(ties)


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
    """dl_opt / max(empty-backbone DLs); <= 1 means the backbone compresses."""
    denom = max(dl_empty_global, dl_empty_local)
    if denom <= 0:
        raise DomainError("empty-backbone description length is zero")
    return float(dl_opt / denom)


def _weight_sort_order(g):
    # weight descending, ties by (src, dst) index ascending
    return np.lexsort((g.dst, g.src, -np.asarray(g.weights, dtype=float)))


def greedy_global(g, spec=None):
    """MDL-optimal global backbone via the weight-descending greedy sweep."""
    if spec is None:
        spec = ObjectiveSpec("global", "microcanonical")
    if spec.scope != "global":
        raise DomainError("greedy_global needs a global-scope spec")
    if g.num_edges == 0:
        raise DomainError("cannot backbone an empty graph")
    _require_weights(g, spec)

    order = _weight_sort_order(g)
    w_sorted = np.asarray(g.weights, dtype=float)[order]
    E, W = g.num_edges, g.total_weight
    half = E // 2
    sizes = np.arange(half + 1, dtype=float)
    prefix_w = np.concatenate([[0.0], np.cumsum(w_sorted)[:half]])
    wf = _poisson_wfact(spec, g.weights)
    values = np.asarray(_dl_curve(float(E), float(W), sizes, prefix_w, spec, wf))
    argmin, ties = _trace_argmin(values)

    # the DL at fixed backbone size is concave in W_b for every supported
    # family, so the per-size optimum sits at an extreme: either the heaviest
    # edges (the prefix curve above) or the lightest ones. Light suffixes of
    # size <= E/2 stand in for heavy prefixes of size > E/2 via the bit-flip
    # symmetry, completing the candidate set.
    suffix_w = np.concatenate([[0.0], np.cumsum(w_sorted[::-1])[:half]])
    suf_values = np.asarray(
        _dl_curve(float(E), float(W), sizes, suffix_w, spec, wf)
    )
    suf_argmin, _ = _trace_argmin(suf_values)

    # when a light suffix wins, report the complementary heavy prefix (equal
    # DL by the bit-flip symmetry): the backbone is the heavy side
    flags = np.zeros(E, dtype=bool)
    if suf_values[suf_argmin] < values[argmin]:
        flags[order[:E - suf_argmin]] = True
        dl = float(suf_values[suf_argmin])
    else:
        flags[order[:argmin]] = True
        dl = float(values[argmin])
    bb = backbone_from_flags(g, flags)
    dl_eg, dl_el = empty_backbone_dls(g, spec)
    return BackboneResult(
        backbone=bb,
        dl=dl,
        eta=inverse_compression_ratio(dl, dl_eg, dl_el),
        dl_empty_global=dl_eg,
        dl_empty_local=dl_el,
        method="mdl-global",
        objective=_objective_name(spec),
        trace=DlTrace(values=values, argmin=argmin, tie_count=ties),
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
    M = dg.num_edges
    k = (starts[1:] - starts[:-1]).astype(float)
    s = np.bincount(src_sorted, weights=w_sorted, minlength=N)

    pos = np.arange(M) - np.repeat(starts[:-1], (starts[1:] - starts[:-1]))
    cand_Eb = pos + 1.0
    cumw0 = np.concatenate([[0.0], np.cumsum(w_sorted)])
    cand_Wb = cumw0[1:] - np.repeat(cumw0[starts[:-1]], (starts[1:] - starts[:-1]))

    k_edge = k[src_sorted]
    s_edge = s[src_sorted]
    family_spec = ObjectiveSpec("global", spec.family, spec.weight_model, spec.lam)
    if spec.family == "canonical" and spec.weight_model == "poisson":
        wf_node = np.bincount(
            src_sorted, weights=np.asarray(_log2_factorial(w_sorted)), minlength=N
        )
        wf_edge = wf_node[src_sorted]
    else:
        wf_node = np.zeros(N)
        wf_edge = 0.0

    cand_dl = np.asarray(
        _dl_curve(k_edge, s_edge, cand_Eb, cand_Wb, family_spec, wf_edge)
    )
    cand_dl[cand_Eb > np.floor(k_edge / 2.0)] = np.inf
    # light-suffix candidates: backbone = the lightest edges of the
    # neighborhood, covering per-size optima at the low-W_b extreme (see
    # greedy_global)
    suf_Eb = k_edge - cand_Eb + 1.0
    suf_Wb = s_edge - cand_Wb + w_sorted
    suf_dl = np.asarray(
        _dl_curve(k_edge, s_edge, suf_Eb, suf_Wb, family_spec, wf_edge)
    )
    suf_dl[suf_Eb > np.floor(k_edge / 2.0)] = np.inf
    zero_dl = np.asarray(_dl_curve(k, s, 0.0, 0.0, family_spec, wf_node))

    n_keep = np.zeros(N, dtype=np.int64)
    big = np.iinfo(np.int64).max
    nz = np.nonzero(starts[1:] > starts[:-1])[0]
    if len(nz):
        starts_nz = starts[:-1][nz]
        counts_nz = (starts[1:] - starts[:-1])[nz]
        seg_min_p = np.minimum.reduceat(cand_dl, starts_nz)
        hit_p = np.where(
            cand_dl == np.repeat(seg_min_p, counts_nz), pos, big
        )
        first_p = np.minimum.reduceat(hit_p, starts_nz)
        seg_min_s = np.minimum.reduceat(suf_dl, starts_nz)
        hit_s = np.where(
            suf_dl == np.repeat(seg_min_s, counts_nz), pos, -1
        )
        last_s = np.maximum.reduceat(hit_s, starts_nz)
        eb_s = counts_nz - last_s

        node_dl = zero_dl[nz]
        mode = np.zeros(len(nz), dtype=np.int64)
        node_eb = np.zeros(len(nz))
        take_p = seg_min_p < node_dl
        node_dl = np.where(take_p, seg_min_p, node_dl)
        node_eb = np.where(take_p, first_p + 1.0, node_eb)
        mode = np.where(take_p, 1, mode)
        take_s = (seg_min_s < node_dl) | (
            (seg_min_s == node_dl) & (eb_s < node_eb)
        )
        node_dl = np.where(take_s, seg_min_s, node_dl)
        mode = np.where(take_s, 2, mode)

        # mode 2 (light suffix wins): keep the complementary heavy prefix,
        # which has the same DL by the bit-flip symmetry — the backbone is
        # the heavy side of the neighborhood
        n_keep[nz] = np.where(
            mode == 1, first_p + 1, np.where(mode == 2, last_s, 0)
        )
    else:
        node_dl = np.array([])

    selected = pos < n_keep[src_sorted]
    dl = float(np.sum(node_dl)) if len(nz) else 0.0
    # isolated nodes contribute 0 bits
    if spec.family == "microcanonical":
        dl += strength_prior_bits(N, M, dg.total_weight)

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
        traces = []
        for i in range(N):
            lo, hi = starts[i], starts[i + 1]
            half = int(k[i]) // 2
            vals = np.concatenate([[zero_dl[i]], cand_dl[lo:lo + half]])
            argmin, ties = _trace_argmin(vals)
            traces.append(DlTrace(values=vals, argmin=argmin, tie_count=ties))
        result.node_traces = traces
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
    return {
        "N": g.num_nodes,
        "E": g.num_edges,
        "W": g.total_weight,
        "E_b": bb.num_edges,
        "W_b": bb.total_weight,
        "edges": [
            [g.labels[int(g.src[e])], g.labels[int(g.dst[e])], float(g.weights[e])]
            for e in np.nonzero(bb.member_flags)[0]
        ],
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
        doc["trace"] = [float(v) for v in result.trace.values]
    return doc
