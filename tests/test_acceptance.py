"""Acceptance suite: one test per criterion, each printing a single
pass/fail line (the -s flag in pyproject keeps the lines visible)."""

import os
import time
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from mdlbackbone.baselines import (
    disparity_filter_top_e,
    edge_disparity_pvalues,
    high_salience_skeleton,
    percolation_backbone,
)
from mdlbackbone.graph import parse_edge_list
from mdlbackbone.metrics import jaccard_similarity
from mdlbackbone.objectives import ObjectiveSpec, dl_global_micro
from mdlbackbone.percolation import (
    HalfEdgeSystem,
    backbone_percolation_study,
    critical_probability,
    message_passing_cluster,
    nb_leading_eigenvalue,
)
from mdlbackbone.solver import greedy_global, greedy_local
from mdlbackbone.synth import (
    dirichlet_multinomial_weights,
    plant_weights_canonical,
    random_regular_directed,
)

from conftest import (
    make_graph,
    mean_weight_ordering_holds,
    random_multigraph_free,
    real_star,
)
from oracles import dl_global_canonical, enumerate_optimal

MICRO_G = ObjectiveSpec("global", "microcanonical")
MICRO_L = ObjectiveSpec("local", "microcanonical")
GEOM_G = ObjectiveSpec("global", "canonical", "geometric")
GEOM_L = ObjectiveSpec("local", "canonical", "geometric")
POIS_G = ObjectiveSpec("global", "canonical", "poisson")

DATASET = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "datasets",
    "contact-1000.tsv",
)


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def criterion_graphs(count=200, seed=42):
    rng = np.random.default_rng(seed)
    return [random_multigraph_free(rng) for _ in range(count)]


def test_criterion_01_greedy_exactness():
    t0 = time.perf_counter()
    graphs = criterion_graphs()
    worst = 0.0
    for g in graphs:
        for spec in (MICRO_G, GEOM_G, POIS_G):
            diff = abs(greedy_global(g, spec).dl - enumerate_optimal(g, spec).dl)
            worst = max(worst, diff)
        for spec in (MICRO_L, GEOM_L):
            diff = abs(greedy_local(g, spec).dl - enumerate_optimal(g, spec).dl)
            worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60
    report(1, "greedy exactness vs enumeration", ok,
           f"200 graphs x 5 objectives, max |dDL| {worst:.2e} bits, "
           f"{elapsed:.1f} s")


def test_criterion_02_canonical_micro_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    n = 0
    while n < 10**4:
        E = int(rng.integers(2, 40))
        W = E + int(rng.integers(0, 80))
        E_b = int(rng.integers(0, E))
        if E_b == 0:
            W_b = 0
            delta = np.log2((W + 1.0) * W / ((W - E + 1.0) * E))
        else:
            W_b = int(rng.integers(E_b, W - (E - E_b) + 1))
            delta = np.log2(
                (W_b + 1.0) * (W - W_b + 1.0) * W_b * (W - W_b)
                / ((W - E + 1.0) * E_b * (E - E_b))
            )
        lc = dl_global_canonical(E, W, E_b, W_b, GEOM_G)
        lm = dl_global_micro(E, W, E_b, W_b)
        worst = max(worst, abs(lc - (lm + delta)))
        n += 1
    ok = worst <= 1e-9
    report(2, "L_C = L_M + delta identity", ok,
           f"10^4 tuples, max deviation {worst:.2e} bits")


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_criterion_03_micro_normalization():
    # The code sends E_b uniformly over E + 1 values, then W_b uniformly over
    # its W - E + 1 values, even at the forced boundary sizes E_b = 0 and
    # E_b = E. So each interior size carries mass 1/(E + 1), each boundary
    # size 1/((E + 1)(W - E + 1)), and Z = 1 - 2(W - E)/((E + 1)(W - E + 1)):
    # a valid prefix code (Kraft sum <= 1) that is not complete.
    Z_of = {}
    total_err = {}
    size_err = {}
    for E in range(1, 4):
        for W in range(E, 7):
            mass = [0.0] * (E + 1)
            for comp in _compositions(W, E):
                for r in range(E + 1):
                    for b in combinations(range(E), r):
                        W_b = sum(comp[e] for e in b)
                        mass[r] += 2.0 ** (-dl_global_micro(E, W, r, W_b))
            Z = Z_of[E, W] = sum(mass)
            total_err[E, W] = abs(Z - (1.0 - 2.0 * (W - E) / ((E + 1) * (W - E + 1))))
            for r in range(E + 1):
                boundary_states = W - E + 1 if r in (0, E) else 1
                size_err[E, W, r] = abs(mass[r] - 1.0 / ((E + 1) * boundary_states))
    at_Z = max(Z_of, key=Z_of.get)
    at_total = max(total_err, key=total_err.get)
    at_size = max(size_err, key=size_err.get)
    ok = (Z_of[at_Z] <= 1.0 + 1e-12 and total_err[at_total] <= 1e-9
          and size_err[at_size] <= 1e-9)
    report(3, "microcanonical normalization", ok,
           f"max Z = {Z_of[at_Z]:.15f} at (E, W) = {at_Z} (need <= 1 + 1e-12); "
           f"max |Z - (1 - 2(W - E)/((E + 1)(W - E + 1)))| = "
           f"{total_err[at_total]:.3e} at (E, W) = {at_total}; "
           f"max per-size mass error = {size_err[at_size]:.3e} at "
           f"(E, W, E_b) = {at_size} (need <= 1e-9 each)")


def test_criterion_04_planted_reconstruction():
    t0 = time.perf_counter()
    means = {}
    for gamma in (1e-3, 1.0):
        js = []
        for seed in range(20):
            base = random_regular_directed(100, 100, seed=1000 + seed)
            inst = plant_weights_canonical(base, gamma, "global", seed=seed)
            res = greedy_global(inst.graph, MICRO_G)
            js.append(jaccard_similarity(res.backbone, inst.planted))
        means[gamma] = float(np.mean(js))
    elapsed = time.perf_counter() - t0
    ok = means[1e-3] >= 0.95 and means[1.0] <= 0.10 and elapsed < 120
    report(4, "planted reconstruction trends", ok,
           f"mean Jaccard {means[1e-3]:.3f} at gamma=1e-3 (need >= 0.95), "
           f"{means[1.0]:.1e} at gamma=1 (need <= 0.10), {elapsed:.1f} s")


def test_criterion_05_compression_ordering():
    from scipy.stats import binomtest

    results = {}
    for scope in ("global", "local"):
        wins = 0
        for seed in range(20):
            base = random_regular_directed(100, 50, seed=500 + seed)
            inst = plant_weights_canonical(base, 0.05, scope, seed=seed)
            eta_g = greedy_global(inst.graph, MICRO_G).eta
            eta_l = greedy_local(inst.graph, MICRO_L).eta
            wins += (eta_g < eta_l) if scope == "global" else (eta_l < eta_g)
        results[scope] = (wins, binomtest(wins, 20, alternative="greater").pvalue)
    ok = all(p < 0.05 for _, p in results.values())
    report(5, "compression ordering sign test", ok,
           f"planted-global: global method wins {results['global'][0]}/20 "
           f"(p = {results['global'][1]:.1e}); planted-local: local wins "
           f"{results['local'][0]}/20 (p = {results['local'][1]:.1e})")


def test_criterion_06_homogeneity_collapse():
    fracs = {}
    for h_neig in (0.1, 10.0):
        inst = dirichlet_multinomial_weights(
            1000, 50, 1000 * 1000, 0.1, h_neig, seed=0
        )
        res = greedy_local(inst.graph, MICRO_L)
        fracs[h_neig] = res.backbone.num_edges / inst.graph.num_edges
    ratio = fracs[10.0] / fracs[0.1]
    ok = ratio <= 0.20
    report(6, "homogeneity collapse of local edge fraction", ok,
           f"edge fraction {fracs[0.1]:.4f} at h_neig=0.1, "
           f"{fracs[10.0]:.4f} at h_neig=10, ratio {ratio:.3f} (need <= 0.20)")


def test_criterion_07_mean_weight_invariant():
    violations = 0
    checked = 0
    for g in criterion_graphs():
        w = np.sort(np.asarray(g.weights, dtype=np.int64))[::-1]
        checked += 1
        if not mean_weight_ordering_holds(w):
            violations += 1
    ok = violations == 0
    report(7, "mean-weight greedy invariant", ok,
           f"{checked} instances, {violations} violations")


def test_criterion_08_percolation_analytics():
    src, dst = np.triu_indices(4, k=1)
    k4 = make_graph(src, dst, np.ones(6, dtype=np.int64), directed=False)
    p_c = critical_probability(k4, tolerance=1e-9)
    S, _, _ = message_passing_cluster(k4, 0.8, seed=0)
    tree = make_graph(range(5), range(1, 6), [1] * 5, directed=False)
    S_tree, _, _ = message_passing_cluster(tree, 0.9, seed=0)
    p_c_tree = critical_probability(tree)
    ok = (
        abs(p_c - 0.5) <= 1e-6
        and abs(S - 0.984375) <= 1e-6
        and abs(S_tree) <= 1e-8
        and p_c_tree is None
    )
    report(8, "percolation analytics (K4, trees)", ok,
           f"K4 p_c = {p_c:.8f} (target 0.5), S(0.8) = {S:.8f} "
           f"(target 0.984375), tree S = {S_tree:.1e}, tree p_c = {p_c_tree}")


def test_criterion_09_threshold_preservation():
    with open(DATASET) as fh:
        g = parse_edge_list(fh, directed=False)
    res_g = greedy_global(g, MICRO_G)
    res_l = greedy_local(g, MICRO_L)
    bb_d = disparity_filter_top_e(g, res_g.backbone.num_edges)
    backbones = [res_g.backbone, res_l.backbone, bb_d]
    p_grid = np.geomspace(2e-4, 2e-3, 8)
    reports = backbone_percolation_study(g, backbones, p_grid)
    errs = [rep.p_crit_error for rep in reports[1:]]

    # eigenvalue-evaluation runtime compared at identical p values so both
    # sides solve the same problems (bisection paths differ per graph). Each
    # p is timed as the median of 5 repeats, and every repeat times all four
    # graphs in turn, so neither one slow reading nor the host's drift
    # between graphs moves the ratios.
    systems = [HalfEdgeSystem.build(h) for h in [g] + [bb.subgraph() for bb in backbones]]
    times = np.zeros((len(systems), len(p_grid), 5))
    for j, p in enumerate(p_grid):
        for r in range(5):
            for i, sys_ in enumerate(systems):
                t0 = time.perf_counter()
                nb_leading_eigenvalue(sys_, p, tolerance=1e-10)
                times[i, j, r] = time.perf_counter() - t0
    mean_eval_seconds = np.median(times, axis=2).mean(axis=1)
    ratios = mean_eval_seconds[1:] / mean_eval_seconds[0]
    ok = max(errs) <= 1e-3 and float(np.mean(ratios)) < 0.5
    report(9, "percolation-threshold preservation", ok,
           f"N = {g.num_nodes}, E = {g.num_edges}, "
           f"max |dp_c| {max(errs):.2e} (need <= 1e-3), "
           f"mean runtime ratio {np.mean(ratios):.3f} (need < 0.5)")


def test_criterion_10_scaling():
    # Each size is timed as the median of 3 repeats, and every repeat times
    # the global and the local solve in turn, so one pause during a solve of
    # a few ms does not move the fitted slope.
    sizes = [10**3, 10**4, 10**5, 10**6]
    solves = {
        "global": lambda g: greedy_global(g, MICRO_G),
        "local": lambda g: greedy_local(g, MICRO_L),
    }
    times = {m: [] for m in solves}
    for N in sizes:
        inst = dirichlet_multinomial_weights(N, 10, 100 * N, 0.1, 0.1, seed=1)
        reps = {m: [] for m in solves}
        for _ in range(3):
            for m, solve in solves.items():
                t0 = time.perf_counter()
                solve(inst.graph)
                reps[m].append(time.perf_counter() - t0)
        for m, ts in reps.items():
            times[m].append(float(np.median(ts)))
    logN = np.log10(sizes)
    slopes = {
        m: float(np.polyfit(logN, np.log10(ts), 1)[0])
        for m, ts in times.items()
    }
    ok = all(0.9 <= s <= 1.3 for s in slopes.values())
    report(10, "near-linear runtime scaling", ok,
           f"log-log slope global {slopes['global']:.2f}, "
           f"local {slopes['local']:.2f} (need within [0.9, 1.3])")


def _weak_components_nonisolated(num_nodes, src, dst):
    used = np.zeros(num_nodes, dtype=bool)
    used[src] = True
    used[dst] = True
    nodes = np.nonzero(used)[0]
    relabel = -np.ones(num_nodes, dtype=np.int64)
    relabel[nodes] = np.arange(len(nodes))
    mat = csr_matrix(
        (np.ones(len(src)), (relabel[src], relabel[dst])),
        shape=(len(nodes), len(nodes)),
    )
    n_comp, _ = connected_components(mat, directed=True, connection="weak")
    return n_comp


def test_criterion_11_baseline_sanity():
    rng = np.random.default_rng(17)
    perc_ok = True
    tried = 0
    while tried < 50:
        g = random_multigraph_free(rng, max_nodes=8, max_edges=16)
        if _weak_components_nonisolated(g.num_nodes, g.src, g.dst) != 1:
            continue
        tried += 1
        bb = percolation_backbone(g)
        flags = bb.member_flags
        n_comp = _weak_components_nonisolated(
            g.num_nodes, g.src[flags], g.dst[flags]
        )
        perc_ok = perc_ok and n_comp == 1

    tri = make_graph([0, 1, 0], [1, 2, 2], [3, 3, 1], directed=False)
    hss = high_salience_skeleton(tri)
    hss_ok = (
        hss.num_edges == 2
        and not hss.member_flags[2]  # the weight-1 edge is dropped
    )

    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 30))
        s = float(rng.uniform(1.0, 100.0))
        w = float(rng.uniform(1e-6, s * 0.999))
        # a star whose other k - 1 edges share the rest of the strength
        star = real_star([w] + [(s - w) / (k - 1)] * (k - 1))
        s = star.strengths()[0]
        closed = edge_disparity_pvalues(star)[0]
        brute, _ = quad(lambda x: (k - 1) * (1 - x) ** (k - 2), w / s, 1.0)
        worst = max(worst, abs(closed - brute))
    disp_ok = worst <= 1e-8

    ok = perc_ok and hss_ok and disp_ok
    report(11, "baseline sanity", ok,
           f"percolation backbone connected on 50 graphs: {perc_ok}; "
           f"HSS drops weight-1 triangle edge: {hss_ok}; "
           f"disparity p-value max deviation from the integral {worst:.1e}")
