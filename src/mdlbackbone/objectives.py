"""Closed-form description-length evaluators.

An objective is one of four models at global (whole edge list) or local
(per out-neighborhood) scope: the microcanonical code fixes the total weight
exactly, the canonical weight models (geometric, poisson, exponential) in
expectation. The poisson and exponential models carry a rate hyperparameter
``lam`` for their maximum-entropy exponential prior. All values are in bits
(base-2 logs), and all combinatorics go through ln n! = gammaln(n + 1),
which :func:`_ln_factorial` alone evaluates: an integer array n whose
entries are all >= 0 and below both 2 * n.size and 2**20 is read from a
read-only table of gammaln over 0..m - 1, m the least power of two above
its largest entry, built once per process for each m; any other argument
goes through gammaln. Both give the same doubles.
Against exact integer arithmetic the global microcanonical curve is off by
up to about 6e-7 bits at W ~ 1e7, 8e-6 at 1e8, 9e-5 at 1e9 and 1e-2 at 1e11
(random curves of up to 14 edges), so from W ~ 3e7 on, two backbone sizes
whose exact DLs nearly tie can swap order.
Integer weights total below 2**53, which WeightedGraph enforces: every float
sum of them is exact, and at 2**53 one ulp of ln Gamma(W + 1) is 64 nats.
A DL is a sum over segments: the edge list at global scope, each
out-neighborhood of the directed view at local scope. Their totals come from
:func:`_segments` alone, for :func:`description_length` and for the greedy
sweep.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .graph import _out_sums, _require_parent

_LN2 = np.log(2.0)

MODELS = ("microcanonical", "geometric", "poisson", "exponential")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which description length to optimize.

    scope: "global" or "local"; model: one of :data:`MODELS`, the
    microcanonical code (the total weight fixed exactly) or a canonical
    weight model; lam: a finite positive real number in every spec, which
    only the poisson and exponential models read."""

    scope: str
    model: str
    lam: float = 1.0

    def __post_init__(self):
        if self.scope not in ("global", "local"):
            raise DomainError(f"unknown scope {self.scope!r}")
        if self.model not in MODELS:
            raise DomainError(f"unknown model {self.model!r}; use one of {MODELS}")
        if not (isinstance(self.lam, numbers.Real) and 0 < self.lam < np.inf):
            raise DomainError(f"lam must be finite and positive, got {self.lam}")

    @property
    def continuous(self):
        return self.model == "exponential"


def _objective_label(model):
    """The objective's name without its scope: "micro" or "canonical-<model>"."""
    return "micro" if model == "microcanonical" else f"canonical-{model}"


def _objective_name(spec):
    return f"{_objective_label(spec.model)}-{spec.scope}"


def _require_weights(g, spec):
    """Raise DomainError unless ``spec`` takes the weights of ``g``: only
    the exponential model takes real weights."""
    if not spec.continuous and g.weight_kind != "integer":
        raise DomainError(f"{_objective_name(spec)} requires integer weights: "
                          "whole, with the directed view's total weight below "
                          "2**53; use the exponential model for real weights")


@functools.cache
def _ln_factorial_table(size):
    """ln n! over n in 0..size - 1, read-only: built once per size."""
    values = gammaln(np.arange(size) + 1.0)
    values.setflags(write=False)
    return values


def _ln_factorial(n):
    """ln n! = gammaln(n + 1), by the rule of the module docstring: gammaln
    of an integer-valued double is one double, so a table read gives the
    same bits. Negative integers give inf, as gammaln does."""
    n = np.asarray(n)
    if n.dtype.kind in "iu" and n.size and n.min() >= 0:
        top = int(n.max())
        if top < min(2 * n.size, 2**20):
            return _ln_factorial_table(1 << top.bit_length())[n]
    return gammaln(np.asarray(n, dtype=float) + 1.0)


def _log2_binom_raw(n, k):
    """The bare log2 C(n, k)."""
    return (_ln_factorial(n) - _ln_factorial(k) - _ln_factorial(n - k)) / _LN2


def _log2_factorial(n):
    return _ln_factorial(n) / _LN2


def _check_global_args(E, W, E_b, W_b, integer=True):
    """Raise DomainError unless (E, W, E_b, W_b) is a valid state. Each
    argument is a scalar or an array holding one state per entry; the
    message names the first invalid state under the first rule it breaks."""
    E, W, E_b, W_b = np.broadcast_arrays(E, W, E_b, W_b)
    rules = [
        ((E < 1) & ((E_b != 0) | (W_b != 0)), "no edges but nonempty backbone"),
        (~((0 <= E_b) & (E_b <= E)), "E_b={E_b} outside [0, {E}]"),
    ]
    if integer:
        rules += [
            (W < E, "W={W} < E={E} impossible for integer weights"),
            (
                (E_b != 0) & ~((E_b <= W_b) & (W_b <= W - (E - E_b))),
                "W_b={W_b} outside [{E_b}, {W_max}] for E_b={E_b}",
            ),
        ]
    else:
        rules += [((W_b < 0) | (W_b > W), "W_b={W_b} outside [0, {W}]")]
    rules += [
        ((E_b == 0) & (W_b != 0), "empty backbone must have zero weight"),
        ((E_b == E) & (W_b != W), "full backbone must carry the full weight"),
    ]
    for bad, message in rules:
        if bad.any():
            i = np.flatnonzero(bad)[0]
            e, w, e_b, w_b = (x.flat[i] for x in (E, W, E_b, W_b))
            raise DomainError(
                message.format(E=e, W=w, E_b=e_b, W_b=w_b, W_max=w - (e - e_b))
            )


def dl_global_micro_arr(E, W, E_b, W_b):
    """Vectorized microcanonical global description length in bits. The
    edge counts E and E_b are integers; the weights W and W_b are integers
    below 2**53 or floats."""
    E, W, E_b, W_b = map(np.asarray, (E, W, E_b, W_b))
    # the compositions of the backbone and of the rest: at sizes 0 and E one
    # side is empty, (W_x, E_x) = (0, 0), and the clamp turns C(-1, -1) into
    # C(0, 0) = 1; on every other valid state both arguments are >= 0
    return (
        np.log2(E + 1.0)
        + np.log2(W - E + 1.0)
        + _log2_binom_raw(E, E_b)
        + _log2_binom_raw(np.maximum(W_b - 1, 0), np.maximum(E_b - 1, 0))
        + _log2_binom_raw(np.maximum(W - W_b - 1, 0), np.maximum(E - E_b - 1, 0))
    )


def dl_global_micro(E, W, E_b, W_b):
    """Microcanonical global description length (bits).

    Over all states (weight compositions of W into E positive parts times
    backbone subsets), sum 2^-L = 1 - 2(W - E)/((E + 1)(W - E + 1)). The
    shortfall comes only from the forced boundary sizes E_b = 0 and E_b = E,
    where the uniform code for W_b still spends log2(W - E + 1) bits; each
    interior size carries mass exactly 1/(E + 1). Acceptance criterion 03
    and ``TestMicroGlobal.test_normalization_small_cases`` check this.

    With (E, W, E_b, W_b) -> (k, s, k_b, s_b) it is the term of one
    out-neighborhood in the local DL, so its sum 2^-L over one
    neighborhood's states is 1 - 2(s - k)/((k + 1)(s - k + 1)), short of 1
    only through the forced boundary sizes k_b = 0 and k_b = k.

    Kept for the benchmark harness in ``perfbench/``, which reads it.
    """
    _check_global_args(E, W, E_b, W_b)
    if E == 0:
        return 0.0
    return float(dl_global_micro_arr(E, float(W), E_b, float(W_b)))


def _strength_prior_bits(N, E, W):
    """log2 C(N + W - E - 1, W - E): cost of a uniform prior over node
    strength sequences with total excess weight W - E."""
    n, k = N + W - E - 1, W - E
    if not 0 <= k <= n:
        raise DomainError(f"binomial ({n}, {k}) outside domain")
    return float(_log2_binom_raw(float(n), float(k)))


def dl_local_micro(g, bb):
    """:func:`description_length` of ``bb`` under the microcanonical local
    objective. The benchmark harness in ``perfbench/`` reads it."""
    return description_length(g, bb, ObjectiveSpec("local", "microcanonical"))


def _segments(g, spec):
    """``(k, s, wfact, const)`` of ``spec``'s scope over ``g``, after
    :func:`_require_weights`. Per segment (the edge list at global scope,
    each node's out-neighborhood in the directed view at local scope): the
    edge count, the strength and the poisson constant sum_e log2(w_e!),
    added in edge order (0 under the other models). ``const``: the bits
    every backbone pays besides its segments, the microcanonical local
    strength prior, else 0."""
    _require_weights(g, spec)
    local = spec.scope == "local"
    k = _out_sums(g) if local else np.array([g.num_edges])
    s = g.strengths() if local else np.array([float(g.total_weight)])
    wfact, const = np.zeros(len(k)), 0.0
    if spec.model == "poisson":
        # added in edge order: np.sum's pairwise order would move the last bits
        terms = _log2_factorial(g.weights)
        wfact = (_out_sums(g, weights=terms) if local
                 else np.bincount(np.zeros(len(terms), dtype=np.intp), terms, 1))
    if local and spec.model == "microcanonical":
        # the directed view's edge count and total weight, both exact
        const = _strength_prior_bits(g.num_nodes, int(k.sum()), int(s.sum()))
    return k, s, wfact, const


def description_length(g, backbone, spec):
    """Description length in bits under ``spec`` of ``backbone``, a
    :class:`Backbone` of ``g``, or None for the empty backbone: the sum
    over the non-empty segments of :func:`_segments`, plus its constant."""
    k, s, wfact, const = _segments(g, spec)
    nz = k > 0
    k, s, wfact = k[nz], s[nz], wfact[nz]
    # the empty backbone is a valid state of every non-empty segment
    k_b = s_b = 0
    if backbone is not None:
        _require_parent(g, backbone)
        bb = backbone
        if spec.scope == "local":
            k_b, s_b = _out_sums(g, bb._members)[nz], bb.retained_strengths()[nz]
        else:
            k_b, s_b = np.array([bb.num_edges]), np.array([bb.total_weight])
        _check_global_args(k, s, k_b, s_b, integer=not spec.continuous)
    return float(const + np.sum(_dl_curve(k, s, k_b, s_b, spec, wfact)))


def _dl_curve(E, W, E_b, W_b, spec, log2_wfact=0.0):
    """Vectorized description length of ``spec``'s model; scope is up to
    the caller. ``log2_wfact`` is the poisson constant sum_e log2(w_e!)
    over all edges in scope; the other models ignore it. Every state must
    be valid (:func:`_check_global_args`): an invalid one comes back as a
    finite value of nothing or as -inf, not as an error, and a minimum
    would pick it."""
    if spec.model == "microcanonical":
        return dl_global_micro_arr(E, W, E_b, W_b)
    E, W, E_b, W_b = map(np.asarray, (E, W, E_b, W_b))
    Et = E - E_b
    Wt = W - W_b
    base = np.log2(E + 1.0) + _log2_binom_raw(E, E_b)
    model = spec.model
    if model == "geometric":
        return (
            base
            + np.log2(W_b + 1.0)
            + np.log2(Wt + 1.0)
            + _log2_binom_raw(W_b, E_b)
            + _log2_binom_raw(Wt, Et)
        )
    lam = spec.lam
    if model == "poisson":
        return (
            base
            - 2.0 * np.log2(lam)
            + (W_b + 1.0) * np.log2(E_b + lam)
            - _log2_factorial(W_b)
            + (Wt + 1.0) * np.log2(Et + lam)
            - _log2_factorial(Wt)
            + log2_wfact
        )
    # exponential, the last of the MODELS
    return (
        base
        - 2.0 * np.log2(lam)
        + (E_b + 1.0) * np.log2(W_b + lam)
        - _log2_factorial(E_b)
        + (Et + 1.0) * np.log2(Wt + lam)
        - _log2_factorial(Et)
    )
