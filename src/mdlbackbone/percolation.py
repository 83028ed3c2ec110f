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

from .errors import DomainError

__all__ = [
    "MessageState",
    "PercolationReport",
    "HalfEdgeSystem",
    "contact_transmission",
    "message_passing_cluster",
    "nb_leading_eigenvalue",
    "critical_probability",
    "backbone_percolation_study",
]


def contact_transmission(w, p):
    """Probability that at least one of w independent contacts transmits:
    1 - (1-p)^w."""
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    return 1.0 - (1.0 - p) ** np.asarray(w, dtype=float)


@dataclass
class MessageState:
    u: np.ndarray
    iterations: int
    max_delta: float
    converged: bool
    seed: object = None


@dataclass
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
        order = np.lexsort((dst, src))
        inv = np.empty(2 * E, dtype=np.int64)
        inv[order] = np.arange(2 * E)
        src, dst, weights = src[order], dst[order], weights[order]
        rev = inv[rev[order]]
        starts = np.searchsorted(src, np.arange(g.num_nodes + 1))
        nonempty = starts[:-1] < starts[1:]
        return cls(
            num_nodes=g.num_nodes, src=src, dst=dst, weights=weights,
            rev=rev, starts=starts, nonempty=nonempty,
            seg_starts=starts[:-1][nonempty],
        )

    @property
    def num_half_edges(self):
        return len(self.src)

    def segment_products(self, values):
        """Product of ``values`` over each node's outgoing half-edges, then
        the leave-one-out product for every half-edge (j -> i): product over
        N(j) minus the (j -> i) entry itself."""
        prods = np.ones(self.num_nodes)
        if len(self.seg_starts):
            prods[self.nonempty] = np.multiply.reduceat(values, self.seg_starts)
        return prods

    def leave_one_out_products(self, values):
        """For each half-edge h = (i -> j): product of values over half-edges
        leaving j, excluding the reverse half-edge (j -> i)."""
        prods = self.segment_products(values)
        v_rev = values[self.rev]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = prods[self.dst] / v_rev
        bad = ~np.isfinite(out)
        if bad.any():
            for h in np.nonzero(bad)[0]:
                j = self.dst[h]
                lo, hi = self.starts[j], self.starts[j + 1]
                mask = np.arange(lo, hi) != self.rev[h]
                out[h] = np.prod(values[lo:hi][mask])
        return out

    def segment_sums(self, values):
        sums = np.zeros(self.num_nodes)
        if len(self.seg_starts):
            sums[self.nonempty] = np.add.reduceat(values, self.seg_starts)
        return sums


def message_passing_cluster(
    g, p, tolerance=1e-10, max_iters=100000, init="random", seed=None, warm_state=None
):
    """Iterate the half-edge message equations at transmission probability p
    until the largest update falls below ``tolerance``.

    Returns (S, per-node S_i, MessageState). ``init`` may be "random" or
    "warm" (which requires ``warm_state`` from a previous run)."""
    sys_ = g if isinstance(g, HalfEdgeSystem) else HalfEdgeSystem.build(g)
    phi = contact_transmission(sys_.weights, p)
    m = sys_.num_half_edges
    if init == "warm":
        if warm_state is None:
            raise DomainError("warm init requires a previous MessageState")
        u = warm_state.u.copy()
    elif init == "random":
        u = np.random.default_rng(seed).uniform(size=m)
    else:
        raise DomainError(f"unknown init {init!r}")

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
        u=u, iterations=iterations, max_delta=max_delta,
        converged=converged, seed=seed,
    )
    return S, s_i, state


def nb_leading_eigenvalue(g, p, tolerance=1e-8, max_iters=10000):
    """Spectral radius of the weighted non-backtracking operator at
    transmission probability p, by matrix-free power iteration over the 2E
    half-edges."""
    sys_ = g if isinstance(g, HalfEdgeSystem) else HalfEdgeSystem.build(g)
    m = sys_.num_half_edges
    if m == 0:
        return 0.0
    phi = contact_transmission(sys_.weights, p)
    x = np.ones(m)
    lam = 0.0
    for _ in range(int(max_iters)):
        sums = sys_.segment_sums(x)
        y = phi * (sums[sys_.dst] - x[sys_.rev])
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        new_lam = norm / float(np.linalg.norm(x))
        x = y / norm
        if abs(new_lam - lam) < tolerance:
            return new_lam
        lam = new_lam
    raise DomainError(
        f"power iteration did not converge (last residual {abs(new_lam - lam):.3e})"
    )


def critical_probability(g, tolerance=1e-7, eig_tolerance=1e-10, max_bisections=200):
    """Binary search for the p at which the non-backtracking leading
    eigenvalue crosses 1. Returns None when the graph never percolates
    (eigenvalue below 1 even at p = 1)."""
    sys_ = g if isinstance(g, HalfEdgeSystem) else HalfEdgeSystem.build(g)
    if nb_leading_eigenvalue(sys_, 1.0, tolerance=eig_tolerance) < 1.0:
        return None
    lo, hi = 0.0, 1.0
    for _ in range(int(max_bisections)):
        mid = 0.5 * (lo + hi)
        lam = nb_leading_eigenvalue(sys_, mid, tolerance=eig_tolerance)
        if abs(lam - 1.0) < tolerance:
            return mid
        if lam < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


@dataclass
class PercolationReport:
    """Cluster curve and threshold of one graph. ``eig_seconds`` is the
    wall time of its whole threshold search (:func:`critical_probability`);
    ``runtime_ratio`` is that time over the full graph's."""

    label: str
    p_grid: np.ndarray
    S: np.ndarray
    p_crit: float  # None when the graph never percolates
    iterations: list = field(default_factory=list)
    eig_seconds: float = None
    mean_abs_error: float = None
    p_crit_error: float = None
    runtime_ratio: float = None


def backbone_percolation_study(
    g, backbones, p_grid, tolerance=1e-10, seed=0, warm_start=True,
    p_crit_tolerance=1e-7,
):
    """Run the message-passing cluster curve and threshold estimate for the
    full graph and each backbone; report errors and runtime ratios relative
    to the full graph."""
    p_grid = np.asarray(p_grid, dtype=float)
    named = [("full", g)] + [
        (f"backbone-{i}", bb.subgraph() if hasattr(bb, "subgraph") else bb)
        for i, bb in enumerate(backbones)
    ]
    reports = []
    S_full = None
    for label, graph in named:
        sys_ = HalfEdgeSystem.build(graph)
        S_vals = np.zeros(len(p_grid))
        iters = []
        state = None
        for i, p in enumerate(np.sort(p_grid)):
            init = "warm" if (warm_start and state is not None) else "random"
            S, _, state = message_passing_cluster(
                sys_, p, tolerance=tolerance, init=init, seed=seed, warm_state=state
            )
            S_vals[i] = S
            iters.append(state.iterations)
        t0 = time.perf_counter()
        p_c = critical_probability(sys_, tolerance=p_crit_tolerance)
        eig_sec = time.perf_counter() - t0
        rep = PercolationReport(
            label=label, p_grid=np.sort(p_grid), S=S_vals, p_crit=p_c,
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
