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
        order = np.lexsort((dst, src))
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
        leaving j, excluding the reverse half-edge (j -> i). Zeros are counted
        per node apart from the product of the nonzero values, so the reverse
        value is divided out only where it is nonzero."""
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
    """Iterate the half-edge message equations at transmission probability p,
    from messages drawn uniformly with ``seed``, until the largest update
    falls below ``tolerance``. ``max_iters`` allows for the threshold
    itself, where the updates shrink only like 1/t^2 (K4 at p = 1/2 takes
    141,408 sweeps).

    Returns (S, per-node S_i, MessageState). ``init`` must be "random"."""
    sys_ = g if isinstance(g, HalfEdgeSystem) else HalfEdgeSystem.build(g)
    if init != "random":
        raise DomainError(f"unknown init {init!r}")
    phi = contact_transmission(sys_.weights, p)
    m = sys_.num_half_edges
    u = np.random.default_rng(seed).uniform(size=m)

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
    """Spectral radius of the weighted non-backtracking operator B at
    transmission probability p, by matrix-free power iteration over the 2E
    half-edges. It iterates B + cI with c the mean transmission probability:
    B is nonnegative, so the shift leaves rho + c as the only eigenvalue of
    largest modulus even where the spectrum also holds -rho (bipartite
    graphs). B is nilpotent when the graph has no cycle; its radius is 0."""
    sys_ = g if isinstance(g, HalfEdgeSystem) else HalfEdgeSystem.build(g)
    if sys_.acyclic:
        return 0.0
    phi = contact_transmission(sys_.weights, p)
    c = float(np.mean(phi))
    x = np.ones(sys_.num_half_edges)
    lam, delta = 0.0, float("inf")
    for _ in range(int(max_iters)):
        sums = sys_.segment_sums(x)
        y = phi * (sums[sys_.dst] - x[sys_.rev]) + c * x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        new_lam = norm / float(np.linalg.norm(x)) - c
        x = y / norm
        delta = abs(new_lam - lam)
        if delta < tolerance:
            return new_lam
        lam = new_lam
    raise DomainError(
        f"power iteration did not converge (last |delta lambda| {delta:.3e})"
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


def backbone_percolation_study(g, backbones, p_grid, seed=0):
    """Run the message-passing cluster curve and threshold estimate for the
    full graph and each backbone; report errors and runtime ratios relative
    to the full graph. Every grid point is solved from the random start
    drawn with ``seed``; a solve that does not converge raises."""
    p_grid = np.sort(np.asarray(p_grid, dtype=float))
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
        for i, p in enumerate(p_grid):
            S, _, state = message_passing_cluster(sys_, p, seed=seed)
            if not state.converged:
                raise DomainError(
                    f"message passing on {label} did not converge at p={p:.6g} "
                    f"(last max_delta {state.max_delta:.3e})"
                )
            S_vals[i] = S
            iters.append(state.iterations)
        t0 = time.perf_counter()
        p_c = critical_probability(sys_)
        eig_sec = time.perf_counter() - t0
        rep = PercolationReport(
            label=label, p_grid=p_grid, S=S_vals, p_crit=p_c,
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
