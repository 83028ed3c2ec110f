"""Weighted bond-percolation message passing and non-backtracking critical
threshold estimation on undirected weighted graphs.

The per-contact transmission probability p turns an edge of weight w into an
open bond with probability 1 - (1-p)^w. Messages live on the 2E directed
half-edges; the cluster size follows from their converged fixed point, and
the percolation threshold from the leading eigenvalue of the weighted
non-backtracking operator crossing 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import DomainError
from .graph import _pair_key


def contact_transmission(w, p):
    """Probability that at least one of w independent contacts transmits:
    1 - (1-p)^w."""
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    return 1.0 - (1.0 - p) ** np.asarray(w, dtype=float)


@dataclass(eq=False)
class MessageState:
    u: np.ndarray
    iterations: int
    max_delta: float
    converged: bool


@dataclass(eq=False)
class HalfEdgeSystem:
    """Half-edge indexing for an undirected graph: arrays of length 2E with
    reverse-pointer, source grouping, and per-half-edge weight. Self-loops
    are excluded (they never connect a node to anything new)."""

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray
    rev: np.ndarray
    starts: np.ndarray  # segment boundaries of half-edges grouped by src
    nonempty: np.ndarray  # nodes with at least one half-edge
    seg_starts: np.ndarray  # starts of the nonempty segments, for reduceat
    acyclic: bool  # cycle rank E - N + C is 0, so the NB operator is nilpotent

    @classmethod
    def build(cls, g):
        if g.directed:
            raise DomainError("percolation analysis requires an undirected graph")
        keep = g.src != g.dst
        u, v, w = g.src[keep], g.dst[keep], np.asarray(g.weights, dtype=float)[keep]
        E = len(u)
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        weights = np.concatenate([w, w])
        rev = np.concatenate([np.arange(E, 2 * E), np.arange(E)])
        order = np.argsort(_pair_key(src, dst, g.num_nodes), kind="stable")
        inv = np.empty(2 * E, dtype=np.int64)
        inv[order] = np.arange(2 * E)
        src, dst, weights = src[order], dst[order], weights[order]
        rev = inv[rev[order]]
        starts = np.searchsorted(src, np.arange(g.num_nodes + 1))
        nonempty = starts[:-1] < starts[1:]
        adj = csr_matrix((np.ones(E), (u, v)), shape=(g.num_nodes, g.num_nodes))
        n_comp = connected_components(adj, directed=False)[0]
        return cls(
            num_nodes=g.num_nodes, src=src, dst=dst, weights=weights,
            rev=rev, starts=starts, nonempty=nonempty,
            seg_starts=starts[:-1][nonempty],
            acyclic=E - g.num_nodes + n_comp == 0,
        )

    @property
    def num_half_edges(self):
        return len(self.src)

    def segment_products(self, values):
        """Product of ``values`` over each node's outgoing half-edges (1 for
        a node with none)."""
        prods = np.ones(self.num_nodes)
        if len(self.seg_starts):
            prods[self.nonempty] = np.multiply.reduceat(values, self.seg_starts)
        return prods

    def leave_one_out_products(self, values):
        """For each half-edge h = (i -> j): product of values over half-edges
        leaving j, excluding the reverse half-edge (j -> i). Without zeros
        this is the node product over the reverse value. Otherwise zeros are
        counted per node apart from the product of the nonzero values, so
        the reverse value is divided out only where it is nonzero."""
        if values.all():
            return self.segment_products(values)[self.dst] / values[self.rev]
        zero = values == 0.0
        nonzero_prods = self.segment_products(np.where(zero, 1.0, values))
        zeros = np.bincount(self.src[zero], minlength=self.num_nodes)
        rev_zero = zero[self.rev]
        out = nonzero_prods[self.dst] / np.where(rev_zero, 1.0, values[self.rev])
        out[zeros[self.dst] > rev_zero] = 0.0
        return out

    def segment_sums(self, values):
        sums = np.zeros(self.num_nodes)
        if len(self.seg_starts):
            sums[self.nonempty] = np.add.reduceat(values, self.seg_starts)
        return sums


def message_passing_cluster(
    g, p, tolerance=1e-10, max_iters=1000000, init="random", seed=None
):
    """Iterate the half-edge message equations u <- 1 - phi + phi * (product
    of the messages into the head, less the reverse one) at transmission
    probability p until the largest update falls below ``tolerance``.
    ``init`` is "random", messages drawn uniformly with ``seed``, or an
    array of starting messages, one per half-edge. The map is monotone in
    u, so a start below the least fixed point (u = 0, or the solution at a
    larger p) rises to it. ``max_iters`` allows for the threshold itself,
    where the updates shrink only like 1/t^2 (K4 at p = 1/2 takes 141,408
    sweeps).

    Returns (S, per-node S_i, MessageState)."""
    sys_ = g if isinstance(g, HalfEdgeSystem) else HalfEdgeSystem.build(g)
    m = sys_.num_half_edges
    if isinstance(init, str):
        if init != "random":
            raise DomainError(f"unknown init {init!r}")
        u = np.random.default_rng(seed).uniform(size=m)
    else:
        u = np.array(init, dtype=float)
        if u.shape != (m,):
            raise DomainError(f"init has shape {u.shape}, expected ({m},)")
    phi = contact_transmission(sys_.weights, p)

    max_delta = 0.0
    iterations = 0
    converged = m == 0
    for iterations in range(1, int(max_iters) + 1):
        prod = sys_.leave_one_out_products(u)
        new_u = 1.0 - phi + phi * prod
        max_delta = float(np.max(np.abs(new_u - u))) if m else 0.0
        u = new_u
        if max_delta < tolerance:
            converged = True
            break

    node_prod = sys_.segment_products(u)
    s_i = 1.0 - node_prod
    S = float(np.mean(s_i))
    state = MessageState(
        u=u, iterations=iterations, max_delta=max_delta, converged=converged,
    )
    return S, s_i, state


def _power_iteration(sys_, p, x, tolerance=1e-10, max_iters=10000):
    """Power iteration of B + cI at transmission probability p from the
    start vector ``x``, until the eigenvalue estimate moves less than
    ``tolerance``. Returns (radius of B, unit eigenvector, upper bound on
    the radius). The bound is Collatz-Wielandt's max_h ((B + cI)x)_h / x_h
    minus c on the last iterate, which holds for nonnegative B whatever
    the start; the estimate does not. A half-edge with x_h = 0 that the
    others feed makes it inf; one they do not feed is skipped, as all it
    leads to is 0 too (on a cycle, only where underflow zeroed a whole
    component)."""
    phi = contact_transmission(sys_.weights, p)
    c = float(np.mean(phi))
    lam, delta = 0.0, float("inf")
    for _ in range(int(max_iters)):
        sums = sys_.segment_sums(x)
        y = phi * (sums[sys_.dst] - x[sys_.rev]) + c * x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0, x, 0.0
        new_lam = norm / float(np.linalg.norm(x)) - c
        delta = abs(new_lam - lam)
        if delta < tolerance:
            live = x > 0.0
            bound = np.inf if y[~live].any() else np.max(y[live] / x[live])
            return new_lam, y / norm, float(bound) - c
        x = y / norm
        lam = new_lam
    raise DomainError(
        f"power iteration did not converge (last |delta lambda| {delta:.3e})"
    )


def nb_leading_eigenvalue(g, p, tolerance=1e-8, max_iters=10000):
    """Spectral radius of the weighted non-backtracking operator B at
    transmission probability p, by matrix-free power iteration over the 2E
    half-edges, started from ones. It iterates B + cI with c the mean
    transmission probability: B is nonnegative, so the shift leaves rho + c
    as the only eigenvalue of largest modulus even where the spectrum also
    holds -rho (bipartite graphs). B is nilpotent when the graph has no
    cycle; its radius is 0."""
    sys_ = g if isinstance(g, HalfEdgeSystem) else HalfEdgeSystem.build(g)
    if sys_.acyclic:
        return 0.0
    x = np.ones(sys_.num_half_edges)
    return _power_iteration(sys_, p, x, tolerance, max_iters)[0]


def critical_probability(g, tolerance=1e-7):
    """The p at which the non-backtracking radius lambda(p) crosses 1, by
    Illinois regula falsi (Dowell & Jarratt, BIT 11, 168, 1971) on
    lambda(p) - 1 over [0, 1]: lambda(0) = 0 and lambda rises with p. Each
    power iteration starts from the previous step's eigenvector, which can
    carry almost no weight on a core that leads only at the new p (in
    another component, or at the end of a long path); the estimate then
    settles below the radius. A step reading lambda < 1 + ``tolerance`` is
    trusted only where the iteration's upper bound agrees, or else solved
    again from the eigenvector plus ones / sqrt(2E), half of a cold start's
    share of the leading eigenvector at least. The solve at p = 1 is a cold
    start, from ones, and a reading above 1 only rises with a hidden core:
    neither takes the check. Stops when |lambda(p) - 1| < ``tolerance``
    (positive), when the bracket is below 1e-15, or at p = 1 if lambda(1) <
    1 + ``tolerance`` (a cycle gives lambda(1) >= 1). None means no cycle."""
    if not tolerance > 0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    sys_ = g if isinstance(g, HalfEdgeSystem) else HalfEdgeSystem.build(g)
    if sys_.acyclic:
        return None
    lam, x, _ = _power_iteration(sys_, 1.0, np.ones(sys_.num_half_edges))
    if lam < 1.0 + tolerance:
        return 1.0
    lo, f_lo, hi, f_hi = 0.0, -1.0, 1.0, lam - 1.0
    side = 0  # the end that moved last: -1 lo, +1 hi
    while hi - lo >= 1e-15:
        p = min(hi, lo + (hi - lo) * f_lo / (f_lo - f_hi))
        lam, x, bound = _power_iteration(sys_, p, x)
        if lam < 1.0 + tolerance <= bound:
            lam, x, _ = _power_iteration(sys_, p, x + 1.0 / np.sqrt(len(x)))
        f = lam - 1.0
        if abs(f) < tolerance:
            return p
        # Illinois: when one end moves twice running, halve the other end's
        # value so the secant point leaves it
        if f < 0.0:
            lo, f_lo = p, f
            if side == -1:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = p, f
            if side == 1:
                f_lo *= 0.5
            side = 1
    return 0.5 * (lo + hi)


@dataclass(eq=False)
class PercolationReport:
    """Cluster curve over the study's sorted grid, and threshold, of one
    graph. ``iterations`` holds the message-passing sweeps of each grid point.
    ``eig_seconds`` is the wall time of its whole threshold search
    (:func:`critical_probability`: the check at p = 1 and the regula falsi);
    ``runtime_ratio`` is that time over the full graph's."""

    label: str
    S: np.ndarray
    p_crit: float  # None when the graph has no cycle
    iterations: list = field(default_factory=list)
    eig_seconds: float = None
    mean_abs_error: float = None
    p_crit_error: float = None
    runtime_ratio: float = None


def backbone_percolation_study(g, backbones, p_grid):
    """Run the message-passing cluster curve and threshold estimate for the
    full graph ``g`` and each of its ``backbones`` (``Backbone`` objects of
    ``g``); report errors and runtime ratios relative to the full graph.
    The grid is solved from its largest p downward: the first point starts
    from u = 0, each later one from the previous point's messages, a
    sub-solution at the smaller p, so every point reaches its least fixed
    point (the physical solution). A solve that does not converge raises."""
    p_grid = np.sort(np.asarray(p_grid, dtype=float))
    named = [("full", g)] + [
        (f"backbone-{i}", bb.subgraph()) for i, bb in enumerate(backbones)
    ]
    reports = []
    S_full = None
    for label, graph in named:
        sys_ = HalfEdgeSystem.build(graph)
        S_vals = np.zeros(len(p_grid))
        iters = [0] * len(p_grid)
        u = np.zeros(sys_.num_half_edges)
        for i in reversed(range(len(p_grid))):
            p = p_grid[i]
            S, _, state = message_passing_cluster(sys_, p, init=u)
            if not state.converged:
                raise DomainError(
                    f"message passing on {label} did not converge at p={p:.6g} "
                    f"(last max_delta {state.max_delta:.3e})"
                )
            S_vals[i] = S
            iters[i] = state.iterations
            u = state.u
        t0 = time.perf_counter()
        p_c = critical_probability(sys_)
        eig_sec = time.perf_counter() - t0
        rep = PercolationReport(
            label=label, S=S_vals, p_crit=p_c,
            iterations=iters, eig_seconds=eig_sec,
        )
        if S_full is None:
            S_full = rep
        else:
            rep.mean_abs_error = float(np.mean(np.abs(S_vals - S_full.S)))
            if p_c is not None and S_full.p_crit is not None:
                rep.p_crit_error = abs(p_c - S_full.p_crit)
            rep.runtime_ratio = (
                eig_sec / S_full.eig_seconds if S_full.eig_seconds else None
            )
        reports.append(rep)
    return reports
