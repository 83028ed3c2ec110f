"""Benchmark inputs: a seeded Dirichlet-multinomial (DM) edge list generated
by the benchmark's own numpy code, and the bundled contact-1000 dataset.

The generator is kept here rather than taken from ``mdlbackbone.synth`` so
that changes to the package's generators cannot change what the benchmark
measures. ``PINNED_SHA256`` records the bytes of every input the benchmark
knows in advance; a run whose inputs hash differently fails.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# DM instance of the benchmark: N nodes with k out-edges each, total weight W,
# strength and neighborhood concentrations h_str = h_neig = 0.1.
DM_PARAMS = {"N": 100_000, "k": 10, "W": 10_000_000, "h_str": 0.1, "h_neig": 0.1}
# A 20k-edge instance of the same generator, hashed on every run whatever the
# seed, so that a change in the generator or in numpy's streams shows at once.
CANARY_PARAMS = {"N": 2_000, "k": 10, "W": 200_000, "h_str": 0.1, "h_neig": 0.1}
CANARY_SEED = 1

CONTACT_PATH = Path("datasets") / "contact-1000.tsv"

PINNED_SHA256 = {
    "dm-seed1": "13d705c50bde5af5107d9114162fa68f6b2990ff107f4cd61e185d3d342bd0be",
    "dm-canary": "2a0957378e23a5d592472c49d693a66cc11aa4b529a5528fe37500c292aa71d5",
    "contact-1000": "53a26436356ff7d591f35fe31927aaee2fb794685ddcd7584c8b45b8b9f77218",
}


def _regular_targets(rng, N, k):
    """k distinct out-targets per node drawn uniformly from all N nodes
    (self-loops allowed), each row sorted ascending before repair."""
    dst = rng.integers(0, N, size=(N, k))
    dst.sort(axis=1)
    bad = np.nonzero((dst[:, 1:] == dst[:, :-1]).any(axis=1))[0]
    for row in bad:
        seen = set()
        for c in range(k):
            while int(dst[row, c]) in seen:
                dst[row, c] = rng.integers(0, N)
            seen.add(int(dst[row, c]))
    return dst


def _dirichlet_rows(rng, conc, n_rows, n_cells):
    raw = rng.gamma(conc, size=(n_rows, n_cells))
    sums = raw.sum(axis=1)
    dead = sums == 0.0
    if dead.any():
        raw[dead] = 0.0
        raw[dead, rng.integers(0, n_cells, size=int(dead.sum()))] = 1.0
        sums = raw.sum(axis=1)
    return raw / sums[:, None]


def _rowwise_multinomial(rng, totals, probs):
    """Per-row multinomial draws as a chain of binomials over the columns."""
    n_rows, n_cols = probs.shape
    out = np.zeros((n_rows, n_cols), dtype=np.int64)
    remaining = totals.astype(np.int64).copy()
    p_left = np.ones(n_rows)
    for c in range(n_cols - 1):
        frac = np.zeros(n_rows)
        np.divide(probs[:, c], p_left, out=frac, where=p_left > 0)
        draw = rng.binomial(remaining, np.clip(frac, 0.0, 1.0))
        out[:, c] = draw
        remaining -= draw
        p_left -= probs[:, c]
    out[:, -1] = remaining
    return out


def dm_edges(seed, N, k, W, h_str, h_neig):
    """(src, dst, weight) int64 arrays of a k-regular directed DM graph,
    sorted by (src, dst). Excess weight W - N*k is spread over nodes with
    concentration h_str and within each out-neighborhood with h_neig."""
    rng = np.random.default_rng(seed)
    dst = _regular_targets(np.random.default_rng(rng.integers(2**63)), N, k)
    src = np.repeat(np.arange(N, dtype=np.int64), k)
    p_node = _dirichlet_rows(rng, h_str, 1, N)[0]
    node_excess = rng.multinomial(W - N * k, p_node)
    probs = _dirichlet_rows(rng, h_neig, N, k)
    weights = 1 + _rowwise_multinomial(rng, node_excess, probs).reshape(-1)
    dst = dst.reshape(-1).astype(np.int64)
    order = np.lexsort((dst, src))
    return src[order], dst[order], weights[order]


def edge_list_bytes(src, dst, weights):
    """Tab-separated "src dst weight" lines with decimal node labels."""
    lines = map("{}\t{}\t{}".format, src.tolist(), dst.tolist(), weights.tolist())
    return ("\n".join(lines) + "\n").encode("ascii")


def sha256(data):
    return hashlib.sha256(data).hexdigest()
