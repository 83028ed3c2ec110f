"""Greedy backbone optimization, the exhaustive enumeration oracle, and
inverse compression ratios.

One greedy sweep serves both scopes: it orders the weights descending,
evaluates the chosen description length of the heavy prefix of every size
0..E and keeps the first minimum. Global scope runs it once over the whole
edge list, local scope once in every out-neighborhood of the directed view.
Both are exact minimizers for the microcanonical objectives and for
canonical geometric/poisson/exponential weights (asymptotically for the
latter two).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .graph import (
    Backbone,
    _first_in_order,
    _out_sums,
    backbone_from_flags,
    directed_parents,
    directed_view,
    neighborhoods,
)
from .objectives import (
    ObjectiveSpec,
    _dl_curve,
    _ln_factorial,
    _local_dl,
    _log2_factorial,
    _poisson_wfact,
    strength_prior_bits,
)

__all__ = [
    "BackboneResult",
    "greedy_global",
    "greedy_local",
    "enumerate_optimal",
    "inverse_compression_ratio",
    "empty_backbone_dls",
    "backbone_to_dict",
    "result_to_dict",
]

ENUMERATION_EDGE_CAP = 24


@dataclass
class BackboneResult:
    backbone: Backbone
    dl: float
    eta: float
    dl_empty_global: float
    dl_empty_local: float
    method: str
    objective: str
    # (values, starts): the DL curves the greedy minimized, segment i's over
    # sizes 0..k_i at values[starts[i]:starts[i + 1]]; one segment over the
    # edge list for mdl-global, one per out-neighborhood for mdl-local
    curves: tuple = field(default=None, repr=False)


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
    _require_weights(g, spec)
    dl_g = float(_dl_curve(E, W, 0, 0, spec, _poisson_wfact(spec, g.weights)))
    return dl_g, _local_dl(g, np.zeros(E, dtype=bool), spec)


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


def _result(g, flags, dl, spec, method, curves=None):
    """BackboneResult of the parent-edge membership ``flags`` with DL ``dl``."""
    dl_eg, dl_el = empty_backbone_dls(g, spec)
    return BackboneResult(
        backbone=backbone_from_flags(g, flags),
        dl=dl,
        eta=inverse_compression_ratio(dl, dl_eg, dl_el),
        dl_empty_global=dl_eg,
        dl_empty_local=dl_el,
        method=method,
        objective=_objective_name(spec),
        curves=curves,
    )


# Curve values evaluated per _dl_curve call: bounds the sweep's temporaries
# on graphs with millions of edges and keeps them cache-sized.
_CURVE_BLOCK = 1 << 16


def _sweep(w, starts, strength, wfact, spec):
    """The greedy sweep over every segment ``w[starts[i]:starts[i + 1]]`` of
    the weights ``w``, each segment sorted heaviest first. ``strength`` and
    ``wfact`` (sum of log2 w! for the poisson model, else 0) are the
    segment totals: an array with one entry per segment, or a scalar that
    holds for every segment.

    Prefix weights are differences of one float cumulative sum. Integer
    weights total below 2**53 (:class:`WeightedGraph`), so every such sum
    is exact, and every prefix state is valid.

    Log-factorials are read from one table of ln n! over n in 0..m, built
    here and never longer than the curve. With integer weights and every
    segment strength below the curve's length, m is the largest strength
    and the prefix weights stay integers, so every count and weight
    log-factorial reads the table (no count exceeds its segment's
    strength). Otherwise, and for the exponential model, m is the largest
    segment size: only the counts read the table, and the float prefix
    weights go through gammaln.

    A segment of k edges is scored under ``spec``'s family at its heavy
    prefixes of every size 0..k. At fixed size the DL is concave in the
    backbone weight for every supported family, so the per-size optimum
    sits at an extreme: the heaviest or the lightest edges. The light
    suffix of size j has the DL of the heavy prefix of size k - j (bit-flip
    symmetry), so the prefix curve covers both. Ties: the smallest
    minimizing size wins. Size k is given size 0's value exactly, so the
    full segment never beats the empty backbone by rounding.

    Returns ``(n_keep, dl, curve, curve_starts)``: per segment the number of
    heaviest edges kept and its DL, and the DLs over sizes 0..k of segment i
    at ``curve[curve_starts[i]:curve_starts[i + 1]]``.
    """
    k = np.diff(starts)
    curve_starts = np.concatenate([[0], np.cumsum(k + 1)])
    if (not spec.continuous and w.dtype.kind in "iu"
            and np.max(strength) < curve_starts[-1]):
        strength = np.asarray(strength, dtype=np.int64)
        m, cum = np.max(strength), np.cumsum(w, dtype=np.int64)
    else:
        m, cum = k.max(), np.cumsum(w, dtype=float)
    cum = np.concatenate([[0], cum])
    table = _ln_factorial(np.arange(m + 1))
    curve = np.empty(curve_starts[-1])
    for lo in range(0, len(curve), _CURVE_BLOCK):
        hi = min(lo + _CURVE_BLOCK, len(curve))
        # the segments the block overlaps, each repeated over its overlap
        first, last = np.searchsorted(curve_starts, [lo, hi - 1], side="right") - 1
        overlap = np.diff(np.clip(curve_starts[first:last + 2], lo, hi))
        seg = np.repeat(np.arange(first, last + 1), overlap)
        j = np.arange(lo, hi) - curve_starts[seg]
        W = strength[seg] if np.ndim(strength) else strength
        wf = wfact[seg] if np.ndim(wfact) else wfact
        w_b = cum[starts[seg] + j] - cum[starts[seg]]
        curve[lo:hi] = _dl_curve(k[seg], W, j, w_b, spec, wf, table)

    at = curve_starts[:-1]
    # the full segment has the empty backbone's DL (bit-flip symmetry); copy
    # it so rounding never ranks the full segment below the empty backbone
    curve[(at + k)[k > 0]] = curve[at[k > 0]]
    dl = np.minimum.reduceat(curve, at)
    # the first minimizing size of each segment
    ties = np.flatnonzero(curve == np.repeat(dl, k + 1))
    return ties[np.searchsorted(ties, at)] - at, dl, curve, curve_starts


def greedy_global(g, spec=None):
    """MDL-optimal global backbone: the greedy sweep over the whole edge
    list, heaviest first. The backbone of size E_b is the first E_b edges
    in the order of (-weight, src, dst, position), weights compared as
    floats. ``curves`` holds the one DL curve, over sizes 0..E."""
    if spec is None:
        spec = ObjectiveSpec("global", "microcanonical")
    if spec.scope != "global":
        raise DomainError("greedy_global needs a global-scope spec")
    if g.num_edges == 0:
        raise DomainError("cannot backbone an empty graph")
    _require_weights(g, spec)

    w = np.asarray(g.weights, dtype=float)
    n_keep, dl, curve, curve_starts = _sweep(
        np.sort(g.weights)[::-1],
        np.array([0, g.num_edges]),
        float(g.total_weight),
        _poisson_wfact(spec, g.weights),
        spec,
    )
    flags = _first_in_order(int(n_keep[0]), (-w, g.src, g.dst))
    return _result(g, flags, float(dl[0]), spec, "mdl-global", (curve, curve_starts))


def greedy_local(g, spec=None):
    """MDL-optimal local backbone: the greedy sweep applied independently to
    every out-neighborhood of the directed view, union of the neighborhood
    backbones, deduplicated back to undirected form when the input is
    undirected. ``curves`` holds every node's DL curve."""
    if spec is None:
        spec = ObjectiveSpec("local", "microcanonical")
    if spec.scope != "local":
        raise DomainError("greedy_local needs a local-scope spec")
    if g.num_edges == 0:
        raise DomainError("cannot backbone an empty graph")
    _require_weights(g, spec)

    dg = directed_view(g)
    order, starts = neighborhoods(dg)
    wfact = 0.0
    if spec.family == "canonical" and spec.weight_model == "poisson":
        wfact = _out_sums(g, weights=_log2_factorial(g.weights))
    n_keep, node_dl, curve, curve_starts = _sweep(dg.weights[order], starts,
                                                  g.strengths(), wfact, spec)

    k = np.diff(starts)
    # isolated nodes contribute 0 bits
    dl = float(np.sum(node_dl[k > 0]))
    if spec.family == "microcanonical":
        dl += strength_prior_bits(g.num_nodes, dg.num_edges, dg.total_weight)

    pos = np.arange(dg.num_edges) - np.repeat(starts[:-1], k)
    selected = pos < np.repeat(n_keep, k)
    flags = np.zeros(g.num_edges, dtype=bool)
    flags[directed_parents(g)[order[selected]]] = True
    return _result(g, flags, dl, spec, "mdl-local", (curve, curve_starts))


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
            dls = _dl_curve(E, W, Eb, Wb, spec, wf)
            best_dl, best_Eb, best_mask_bits = _fold_best(
                dls, Eb, bits, best_dl, best_Eb, best_mask_bits
            )
        flags = best_mask_bits.astype(bool)
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
        if spec.family == "canonical" and spec.weight_model == "poisson":
            wf_nodes = np.asarray(_log2_factorial(scope_g.weights)) @ onehot
        else:
            wf_nodes = 0.0
        w_onehot = w[:, None] * onehot
        for masks, bits in _enumerate_masks(m, chunk=1 << 12):
            Kb = bits @ onehot
            Sb = bits @ w_onehot
            terms = _dl_curve(k[None, :], s[None, :], Kb, Sb, spec, wf_nodes)
            dls = prior + terms.sum(axis=1)
            Eb = bits.sum(axis=1)
            best_dl, best_Eb, best_mask_bits = _fold_best(
                dls, Eb, bits, best_dl, best_Eb, best_mask_bits
            )
        flags = np.zeros(g.num_edges, dtype=bool)
        flags[directed_parents(g)[best_mask_bits.astype(bool)]] = True
    return _result(g, flags, float(best_dl), spec, "enumerate")


def _fold_best(dls, Eb, bits, best_dl, best_Eb, best_bits):
    i = int(np.lexsort((Eb, dls))[0])
    if dls[i] < best_dl or (dls[i] == best_dl and Eb[i] < best_Eb):
        return float(dls[i]), float(Eb[i]), bits[i].copy()
    return best_dl, best_Eb, best_bits


def backbone_to_dict(bb):
    """JSON-ready sizes of a backbone and its parent. The edges themselves
    go to the edge-list file only."""
    g = bb.parent
    return {
        "N": g.num_nodes,
        "E": g.num_edges,
        "W": g.total_weight,
        "E_b": bb.num_edges,
        "W_b": bb.total_weight,
    }


def result_to_dict(result):
    """JSON-ready summary of a BackboneResult; the curve of an mdl-global
    result is summarized as ``trace``: its length, argmin (E_b), minimum
    (the DL) and the number of sizes that reach the minimum."""
    doc = backbone_to_dict(result.backbone)
    doc.update({
        "method": result.method,
        "objective": result.objective,
        "dl_bits": result.dl,
        "dl_empty_global_bits": result.dl_empty_global,
        "dl_empty_local_bits": result.dl_empty_local,
        "eta": result.eta,
    })
    if result.method == "mdl-global":
        values = result.curves[0]
        doc["trace"] = {"length": len(values), "argmin": doc["E_b"], "min_bits": result.dl,
                        "tie_count": int(np.count_nonzero(values == result.dl))}
    return doc
