"""Greedy backbone optimization and inverse compression ratios.

One greedy sweep serves both scopes: it orders the weights descending,
evaluates the chosen description length of the heavy prefix at the sizes
0..E that can win and keeps the first minimum. Inside a tail of weight-1
edges the description length is strictly concave in the size, so the sweep
skips the sizes strictly inside it; the full curves, every size 0..E, are
computed only when ``BackboneResult.curves`` is read (see :func:`_sweep`
for the proof and its float bound). Global scope runs the sweep once over
the whole edge list, local scope once in every out-neighborhood of the
directed view.
Both are exact minimizers for the microcanonical objectives and for
canonical geometric/poisson/exponential weights (asymptotically for the
latter two). The segments' totals come from :func:`objectives._segments`,
as for every backbone DL.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DomainError
from .graph import Backbone, _first_in_order, backbone_from_flags
from .objectives import (
    ObjectiveSpec,
    _dl_curve,
    _ln_factorial,
    _objective_name,
    _require_weights,
    _segments,
    description_length,
)

__all__ = [
    "BackboneResult",
    "greedy_global",
    "greedy_local",
    "inverse_compression_ratio",
    "empty_backbone_dls",
    "backbone_to_dict",
    "result_to_dict",
]


@dataclass(eq=False)
class BackboneResult:
    backbone: Backbone
    dl: float
    eta: float
    dl_empty_global: float
    dl_empty_local: float
    method: str
    objective: str
    # per segment of the greedy sweep (the edge list for mdl-global, each
    # out-neighborhood for mdl-local): how many of its sizes 0..k_i reach
    # the minimum of its DL curve
    tie_counts: np.ndarray = field(repr=False)
    # computes ``curves`` when it is first read
    _curves: object = field(repr=False)

    @cached_property
    def curves(self):
        """(values, starts): the DL curves the greedy minimized, segment i's
        over sizes 0..k_i at values[starts[i]:starts[i + 1]]; one segment
        over the edge list for mdl-global, one per out-neighborhood for
        mdl-local. The sweep scores only the sizes that can win, so the
        curves are computed when first read."""
        return self._curves()


def _checked_spec(g, spec, scope):
    """``spec``, by default the microcanonical objective, checked to be of
    ``scope`` and to take the weights of ``g``, which must have edges."""
    if spec is None:
        spec = ObjectiveSpec(scope, "microcanonical")
    if spec.scope != scope:
        raise DomainError(f"needs a {scope}-scope spec, got scope {spec.scope!r}")
    if g.num_edges == 0:
        raise DomainError("cannot backbone an empty graph")
    _require_weights(g, spec)
    return spec


def empty_backbone_dls(g, spec):
    """(global, local) description lengths of the empty backbone under the
    family/weight-model of ``spec``, whatever its scope. The global value
    uses the graph's own edge list; the local value uses the directed
    view."""
    if g.num_edges == 0:
        raise DomainError("empty graph has no description length")
    return tuple(description_length(g, None, replace(spec, scope=scope))
                 for scope in ("global", "local"))


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


def _result(g, flags, dl, spec, method, tie_counts, curves):
    """BackboneResult of the parent-edge membership ``flags`` with DL ``dl``
    and the sweep's per-segment ``tie_counts``; ``curves`` computes the
    result's curves."""
    dl_eg, dl_el = empty_backbone_dls(g, spec)
    return BackboneResult(
        backbone=backbone_from_flags(g, flags),
        dl=dl,
        eta=inverse_compression_ratio(dl, dl_eg, dl_el),
        dl_empty_global=dl_eg,
        dl_empty_local=dl_el,
        method=method,
        objective=_objective_name(spec),
        tie_counts=tie_counts,
        _curves=curves,
    )


# Curve values evaluated per _dl_curve call: bounds the sweep's temporaries
# on graphs with millions of edges and keeps them cache-sized.
_CURVE_BLOCK = 1 << 16


def _curve(w, segments, spec, last):
    """The DLs under ``spec`` of the heavy prefixes of sizes 0..last[i] of
    every segment i of ``(k, strength, wfact, const)``, as
    ``(curve, curve_starts)``: segment i's at
    ``curve[curve_starts[i]:curve_starts[i + 1]]``. Segment i holds the
    k[i] weights ``w[starts[i]:starts[i + 1]]``, sorted heaviest first,
    where ``starts`` is the cumulative sum of ``k`` from 0.

    Prefix weights are differences of one float cumulative sum. Integer
    weights total below 2**53 (:class:`WeightedGraph`), so every such sum
    is exact, and every prefix state is valid.

    Log-factorials are read from one table of ln n! over n in 0..m, built
    here. With integer weights and every segment strength below the
    curve's length, m is the largest strength and the prefix weights stay
    integers, so every count and weight log-factorial reads the table (no
    count exceeds its segment's strength). Otherwise, and for the
    exponential model, m is the largest segment size: only the counts read
    the table, and the float prefix weights go through gammaln. Both give
    the same bits. The counts read there are at most the longest scored
    size or, in a longer segment, at least the length of its unscored tail
    less 1; the table holds those, and NaN between them.

    Size k, where it is scored, is given size 0's value exactly.
    """
    k, strength, wfact, _ = segments
    starts = np.concatenate([[0], np.cumsum(k)])
    curve_starts = np.concatenate([[0], np.cumsum(last + 1)])
    if (not spec.continuous and w.dtype.kind in "iu"
            and np.max(strength) < curve_starts[-1]):
        strength = np.asarray(strength, dtype=np.int64)
        m, cum = np.max(strength), np.zeros(len(w) + 1, dtype=np.int64)
        n = np.arange(m + 1)
    else:
        m, cum = k.max(), np.zeros(len(w) + 1)
        a = last.max()
        b = max(a + 1, np.min(k - last - 1, where=k > a, initial=m + 1))
        n = np.r_[0:a + 1, b:m + 1]
    np.cumsum(w, dtype=cum.dtype, out=cum[1:])
    table = np.full(m + 1, np.nan)
    table[n] = _ln_factorial(n)
    curve = np.empty(curve_starts[-1])
    for lo in range(0, len(curve), _CURVE_BLOCK):
        hi = min(lo + _CURVE_BLOCK, len(curve))
        # the segments the block overlaps, each repeated over its overlap
        first, last_seg = np.searchsorted(curve_starts, [lo, hi - 1], side="right") - 1
        overlap = np.diff(np.clip(curve_starts[first:last_seg + 2], lo, hi))
        seg = np.repeat(np.arange(first, last_seg + 1), overlap)
        j = np.arange(lo, hi) - curve_starts[seg]
        w_b = cum[starts[seg] + j] - cum[starts[seg]]
        curve[lo:hi] = _dl_curve(k[seg], strength[seg], j, w_b, spec, wfact[seg], table)
    # the full segment has the empty backbone's DL (bit-flip symmetry); copy
    # it so rounding never ranks the full segment below the empty backbone
    at, full = curve_starts[:-1], (last == k) & (k > 0)
    curve[(at + k)[full]] = curve[at[full]]
    return curve, curve_starts


def _sweep(w, segments, spec):
    """The greedy sweep over the segments ``(k, strength, wfact, const)``
    of :func:`objectives._segments`, the weights ``w`` laid out as in
    :func:`_curve`; global scope is the case of one segment.

    A segment of k edges is scored under ``spec``'s family at its heavy
    prefixes. At fixed size the DL is concave in the backbone weight for
    every supported family, so the per-size optimum sits at an extreme: the
    heaviest or the lightest edges. The light suffix of size j has the DL
    of the heavy prefix of size k - j (bit-flip symmetry), so the prefix
    curve f over sizes 0..k covers both. Ties: the smallest minimizing size
    wins. f(k) is f(0) exactly (:func:`_curve`), so the full segment never
    beats the empty backbone by rounding.

    Only sizes 0..k - u are scored, u the segment's tail of weight-1 edges:
    with integer weights, which are >= 1, all its weight-1 edges. Along
    the tail each size adds one edge of weight 1, and every term of the DL
    is concave in the size j: log2 C(k, j) strictly (binomial coefficients
    are log-concave); the microcanonical and geometric weight compositions,
    the backbone's log2 C(d + j, j) up to a shift of j, d its fixed excess
    weight, and the rest's, which is fixed; and the poisson and exponential
    weight terms, because psi'(x) > 1/x. So every size strictly inside the
    tail scores strictly above min(f(k - u), f(k)), and f(k) = f(0): the
    minimum and its first size are among the scored sizes, and size k ties
    with size 0.

    That holds in exact arithmetic, where the inner sizes score at least
    (u - 1) log2(1 + 2/k) above the tail's ends: half the least curvature
    of log2 C(k, j), times (u - 1). Each float value of the curve is off by
    less than 2**-44 ``scale`` bits, where ``scale`` bounds the magnitudes
    of the DL's terms with room to spare. Where the margin does not
    exceed 2**-40 ``scale``, eight times what two values' errors can add up
    to, the whole segment is scored; that takes segment strengths in the
    billions, or a tail of under a hundred edges in a segment of a million
    edges. So the sweep keeps the full curve's result, bit for bit. Real
    weights are scored in full: their prefix sums round, so the sizes of a
    run of 1.0 need not be one weight apart. Runs of heavier equal weights
    are scored too: inside them the microcanonical curve can be convex,
    e.g. for weights (2 x 10, 1 x 3).

    Returns ``(n_keep, dl, ties)``: per segment the number of heaviest
    edges kept; the DL of the backbone they make, the sum of the non-empty
    segments' minima plus ``const``; and per segment the number of sizes
    0..k whose DL is the minimum, size k among them where it is not scored
    (u >= 1) and size 0 reaches the minimum.
    """
    k, strength, wfact, const = segments
    u = np.zeros(len(k), dtype=np.int64)
    if w.dtype.kind in "iu":
        nz = k > 0
        u[nz] = np.add.reduceat(w == 1, (np.cumsum(k) - k)[nz], dtype=np.int64)
        # the inner sizes' margin against the curve's float error
        margin = np.log2(1.0 + 2.0 / np.maximum(k, 1)) * (u - 1)
        n = strength + k + 2.0
        scale = n * (np.log2(n) + 2.0 * abs(np.log2(spec.lam)) + 2.0) + np.abs(wfact)
        u[(u > 1) & (margin <= scale * 2.0**-40)] = 0
    curve, curve_starts = _curve(w, segments, spec, k - u)
    at = curve_starts[:-1]
    dl = np.minimum.reduceat(curve, at)
    # the first minimizing size of each segment
    ties = np.flatnonzero(curve == np.repeat(dl, k - u + 1))
    n_keep = ties[np.searchsorted(ties, at)] - at
    n_ties = np.diff(np.searchsorted(ties, curve_starts)) + ((u > 0) & (curve[at] == dl))
    return n_keep, float(np.sum(dl[k > 0])) + const, n_ties


def greedy_global(g, spec=None):
    """MDL-optimal global backbone: the greedy sweep over the whole edge
    list, heaviest first. The backbone of size E_b is the first E_b edges
    in the order of (-weight, src, dst, position), weights compared as
    floats. ``curves`` holds the one DL curve, over sizes 0..E."""
    spec = _checked_spec(g, spec, "global")
    w = np.asarray(g.weights, dtype=float)
    w_sorted, segments = np.sort(g.weights)[::-1], _segments(g, spec)
    n_keep, dl, ties = _sweep(w_sorted, segments, spec)
    flags = _first_in_order(int(n_keep[0]), (-w, g.src, g.dst))
    return _result(g, flags, dl, spec, "mdl-global", ties,
                   lambda: _curve(w_sorted, segments, spec, segments[0]))


def greedy_local(g, spec=None):
    """MDL-optimal local backbone: the greedy sweep applied independently to
    every out-neighborhood of the directed view, union of the neighborhood
    backbones, deduplicated back to undirected form when the input is
    undirected. Node i keeps the first n_i of its out-edges in the order of
    (-weight, dst, position in the directed view), weights compared as
    floats. ``curves`` holds every node's DL curve.

    The view is not built. Its edges are keyed node * R + class, with R
    weight classes, class 0 the heaviest, and the keys sorted as values:
    each node's weights, heaviest first. The keys are below N * R <= N * E,
    so below 2**63 for N and E under 3e9. Every edge of a class
    heavier than node i's n_i-th is kept; only the edges of that boundary
    class are sorted by (node, other endpoint), stably, which leaves the
    ties in directed-view order."""
    spec = _checked_spec(g, spec, "local")

    distinct, cls = np.unique(g.weights, return_inverse=True)
    R = len(distinct)
    distinct, cls = distinct[::-1], R - 1 - cls
    # the view's edges: every src, then every dst of a non-loop undirected edge
    rev = np.zeros(0, dtype=int) if g.directed else np.flatnonzero(g.src != g.dst)
    keys = np.empty(g.num_edges + len(rev), dtype=np.int64)
    keys[:g.num_edges], keys[g.num_edges:] = g.src, g.dst[rev]
    keys *= R
    keys[:g.num_edges] += cls
    keys[g.num_edges:] += cls[rev]
    keys.sort()

    segments = _segments(g, spec)
    starts = np.concatenate([[0], np.cumsum(segments[0])])
    w = distinct[keys % R]
    n_keep, dl, ties = _sweep(w, segments, spec)

    # per node: the boundary class (-1 keeps nothing) and how many of its
    # edges are kept, after every edge of a heavier class
    node = np.flatnonzero(n_keep)
    bound = np.full(g.num_nodes, -1, dtype=np.int64)
    bound[node] = keys[starts[node] + n_keep[node] - 1] % R
    need = np.zeros(g.num_nodes, dtype=np.int64)
    need[node] = n_keep[node] - (np.searchsorted(keys, node * R + bound[node])
                                 - starts[node])
    del keys

    # below 0: a heavier class than the node's boundary, kept; 0: a tie
    fwd, back = cls - bound[g.src], cls[rev] - bound[g.dst[rev]]
    flags = fwd < 0
    flags[rev[back < 0]] = True
    tie, rev_tie = np.flatnonzero(fwd == 0), rev[back == 0]
    parent = np.concatenate([tie, rev_tie])
    at = np.concatenate([g.src[tie], g.dst[rev_tie]])
    other = np.concatenate([g.dst[tie], g.src[rev_tie]])
    # lexsort is stable: ties stay in directed-view order
    ranked = np.lexsort((other, at))
    at, parent = at[ranked], parent[ranked]
    rank = np.arange(len(at)) - np.searchsorted(at, at)
    flags[parent[rank < need[at]]] = True
    return _result(g, flags, dl, spec, "mdl-local", ties,
                   lambda: _curve(w, segments, spec, segments[0]))


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
        doc["trace"] = {"length": doc["E"] + 1, "argmin": doc["E_b"], "min_bits": result.dl,
                        "tie_count": int(result.tie_counts[0])}
    return doc
