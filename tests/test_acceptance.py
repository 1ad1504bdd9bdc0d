"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Expected values come from independent oracles (closed forms,
exhaustive enumeration, brute-force matching), never from the code paths
under test.
"""
import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from dirlap import (
    BandModel,
    DirectedGraph,
    ExperimentConfig,
    GraphSignal,
    RankDeficientError,
    decompose,
    directed_laplacian,
    energy_identity,
    forward,
    gen_directed_cycle,
    gen_perturbed_cycle,
    henrici_departure,
    noise_certificate,
    normality_departure,
    plan_sampling,
    recover,
    run_noise_sweep,
    select_sampling_set,
    synthesize_bandlimited,
    tv_bounds,
)


def report(num, desc, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def graph_family():
    """Cycles, the symmetric 2-cycle, and perturbed cycles; all kappa <= 1e6."""
    graphs = [("cycle", gen_directed_cycle(n)) for n in (2, 3, 5, 8, 12, 20, 30)]
    graphs += [
        (f"perturbed-seed{s}", gen_perturbed_cycle(20, 0.2, 0.8, s)) for s in (0, 1, 2, 7)
    ]
    return graphs


def complex_gaussian(rng, size):
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


def test_criterion_1_circulant_oracle():
    worst = 0.0
    for n in range(3, 31):
        dec = decompose(directed_laplacian(gen_directed_cycle(n)))
        oracle = 1.0 - np.exp(2j * np.pi * np.arange(n) / n)
        cost = np.abs(dec.lambdas[:, None] - oracle[None, :])
        rows, cols = linear_sum_assignment(cost)
        worst = max(worst, float(cost[rows, cols].max()))
    report(1, "cycle spectra match 1 - exp(2*pi*i*k/n) for n=3..30", worst < 1e-9,
           f"worst multiset distance {worst:.2e}")


def test_criterion_2_normality_trichotomy():
    lap = directed_laplacian(gen_directed_cycle(20))
    dec = decompose(lap)
    delta = normality_departure(lap)
    henrici = henrici_departure(dec)
    ok = henrici <= 1e-6 and delta <= 1e-10 and dec.kappa <= 1 + 1e-6
    report(2, "directed cycle N=20 is normal (Henrici, commutator, kappa)", ok,
           f"Henrici {henrici:.2e}, delta {delta:.2e}, kappa-1 {dec.kappa - 1:.2e}")


def test_criterion_3_non_normal_regime():
    hits, strong = 0, 0
    for seed in range(100):
        lap = directed_laplacian(gen_perturbed_cycle(20, 0.2, 0.8, seed))
        dec = decompose(lap)
        if henrici_departure(dec) > 0.5 and dec.kappa > 10:
            hits += 1
        if dec.kappa > 50:
            strong += 1
    ok = hits >= 95 and strong >= 1
    report(3, "perturbed cycle N=20 is non-normal for >=95/100 seeds", ok,
           f"{hits}/100 with Henrici>0.5 and kappa>10; {strong} with kappa>50")


def test_criterion_4_biorthogonality_and_round_trip():
    rng = np.random.default_rng(4)
    worst_bio, worst_rt = 0.0, 0.0
    for _, g in graph_family():
        dec = decompose(directed_laplacian(g))
        assert dec.kappa <= 1e6
        n = dec.n
        bio = np.linalg.norm(dec.u.conj().T @ dec.v - np.eye(n), "fro") / (n * 1e-10)
        worst_bio = max(worst_bio, float(bio))
        signals = complex_gaussian(rng, (n, 1000))
        back = dec.v @ (dec.u.conj().T @ signals)
        errs = np.linalg.norm(back - signals, axis=0) / np.linalg.norm(signals, axis=0)
        worst_rt = max(worst_rt, float(errs.max() / (dec.kappa * n * 1e-12)))
    ok = worst_bio <= 1.0 and worst_rt <= 1.0
    report(4, "biorthogonality within n*1e-10 and round trip within kappa*n*1e-12", ok,
           f"worst tolerance fractions {worst_bio:.2e}, {worst_rt:.2e}")


def test_criterion_5_energy_identity():
    rng = np.random.default_rng(5)
    worst, worst_parseval = 0.0, 0.0
    for _, g in graph_family():
        lap = directed_laplacian(g)
        dec = decompose(lap)
        parseval = henrici_departure(dec) <= 1e-8
        for _ in range(1000):
            x = GraphSignal(complex_gaussian(rng, dec.n))
            vertex_e, gram_e = energy_identity(x, dec)
            worst = max(worst, abs(vertex_e - gram_e) / (1e-8 * vertex_e))
            if parseval:
                xhat_e = forward(x, dec).norm() ** 2
                worst_parseval = max(worst_parseval, abs(xhat_e - vertex_e) / (1e-8 * vertex_e))
    ok = worst <= 1.0 and worst_parseval <= 1.0
    report(5, "energy identity over 1000 signals/graph, Parseval when normal", ok,
           f"worst tolerance fractions {worst:.2e}, {worst_parseval:.2e}")


def test_criterion_6_tv_sandwich():
    rng = np.random.default_rng(6)
    violations = 0
    worst_eq = 0.0
    for name, g in graph_family():
        dec = decompose(directed_laplacian(g))
        for _ in range(1000):
            b = tv_bounds(GraphSignal(complex_gaussian(rng, dec.n)), dec)
            scale = max(b.actual, 1e-30)
            if b.lower > b.actual * (1 + 1e-10) + 1e-12 * scale:
                violations += 1
            if b.actual > b.upper * (1 + 1e-10) + 1e-12 * scale:
                violations += 1
            if name == "cycle" and b.actual > 0:
                worst_eq = max(
                    worst_eq,
                    abs(b.lower - b.actual) / b.actual,
                    abs(b.upper - b.actual) / b.actual,
                )
    ok = violations == 0 and worst_eq <= 1e-8
    report(6, "TV sandwich holds for 1000 signals/graph; equality on cycles", ok,
           f"{violations} violations, cycle equality defect {worst_eq:.2e}")


def test_criterion_7_exact_recovery():
    rng = np.random.default_rng(7)
    pool = [decompose(directed_laplacian(g)) for _, g in graph_family()]
    pool = [d for d in pool if d.n >= 3]
    worst = 0.0
    for _ in range(500):
        dec = pool[rng.integers(len(pool))]
        k = int(rng.integers(1, min(8, dec.n) + 1))
        band = BandModel(dec, k)
        plan = None
        while plan is None or plan.gamma <= 1e-6 * plan.b_norm:
            m = int(rng.integers(k, dec.n + 1))
            plan = plan_sampling(band, rng.choice(dec.n, size=m, replace=False))
        c = complex_gaussian(rng, k)
        x = synthesize_bandlimited(band, c)
        x_rec = recover(plan, x.values[plan.sample_set])
        worst = max(worst, np.linalg.norm(x_rec.values - x.values) / x.norm())
    refused = 0
    for _ in range(50):
        dec = pool[rng.integers(len(pool))]
        k = int(rng.integers(2, min(8, dec.n) + 1))
        band = BandModel(dec, k)
        m = int(rng.integers(1, k))
        plan = plan_sampling(band, rng.choice(dec.n, size=m, replace=False))
        with pytest.raises(RankDeficientError):
            recover(plan, np.zeros(m, dtype=complex))
        refused += 1
    ok = worst <= 1e-9 and refused == 50
    report(7, "500 random full-rank recoveries exact; all m<K refused", ok,
           f"worst rel error {worst:.2e}, {refused}/50 refusals")


def test_criterion_8_noise_bounds():
    rng = np.random.default_rng(8)
    graphs = {
        "cycle": decompose(directed_laplacian(gen_directed_cycle(20))),
        "perturbed": decompose(directed_laplacian(gen_perturbed_cycle(20, 0.2, 0.8, 7))),
    }
    trials_per_plan = 2500
    violations, total = 0, 0
    worst_pinv = 0.0
    for dec in graphs.values():
        band = BandModel(dec, 5)
        for sample in (range(20), select_sampling_set(band, 10)):
            plan = plan_sampling(band, sample)
            pinv = np.linalg.pinv(plan.b, rcond=1e-12)
            worst_pinv = max(
                worst_pinv, abs(np.linalg.norm(pinv, 2) * plan.gamma - 1.0)
            )
            c = complex_gaussian(rng, 5)
            x = synthesize_bandlimited(band, c)
            etas = 0.2 * complex_gaussian(rng, (plan.m, trials_per_plan))
            recs = band.v_omega @ (pinv @ (x.values[plan.sample_set, None] + etas))
            errs = np.linalg.norm(recs - x.values[:, None], axis=0)
            bounds = np.array(
                [noise_certificate(plan, float(e)) for e in np.linalg.norm(etas, axis=0)]
            )
            violations += int(np.sum(errs > bounds))
            total += trials_per_plan
    ok = violations == 0 and total == 10000 and worst_pinv <= 1e-10
    report(8, "noise certificate unbroken over 1e4 trials; ||B^+||*gamma = 1", ok,
           f"{violations}/{total} violations, pinv defect {worst_pinv:.2e}")


def test_criterion_9_noise_sweep_properties():
    result = run_noise_sweep(ExperimentConfig())
    kappa = result.bands["perturbed"].decomposition.kappa
    cyc = {c.sigma: c.err_mean for c in result.cells if c.graph == "cycle"}
    per = {c.sigma: c.err_mean for c in result.cells if c.graph == "perturbed"}
    sigmas = sorted(cyc)
    dominates = all(per[s] >= cyc[s] for s in sigmas)
    ratio_ok = all(per[s] / cyc[s] <= kappa for s in sigmas)
    slope = float(np.polyfit(np.log(sigmas), np.log([cyc[s] for s in sigmas]), 1)[0])
    slope_ok = abs(slope - 1.0) <= 0.1
    ok = dominates and ratio_ok and slope_ok
    report(9, "noise sweep: perturbed >= cycle, ratio <= kappa, cycle slope 1.0 +- 0.1", ok,
           f"slope {slope:.4f}, max ratio {max(per[s] / cyc[s] for s in sigmas):.2f}, "
           f"kappa {kappa:.1f}")


def test_criterion_10_greedy_sampling_oracle():
    worst = 1.0
    for n in range(3, 9):
        dec = decompose(directed_laplacian(gen_directed_cycle(n)))
        for k in range(1, min(3, n) + 1):
            band = BandModel(dec, k)
            m = k  # the critical budget: every sample must count
            greedy = plan_sampling(band, select_sampling_set(band, m)).gamma
            best = max(
                plan_sampling(band, list(subset)).gamma
                for subset in itertools.combinations(range(n), m)
            )
            worst = min(worst, greedy / best)
    report(10, "greedy gamma within 5% of exhaustive optimum (cycles n<=8, K<=3)",
           worst >= 0.95, f"worst greedy/optimal ratio {worst:.4f}")


def _dc_values(g):
    dec = decompose(directed_laplacian(g))
    return dec.dc_isolated, dec.zero_multiplicity, dec.dc_angle


def test_criterion_11_dc_contract():
    family = {name: _dc_values(g) for name, g in graph_family()}
    isolated = all(iso and mult == 1 and angle <= 1e-6 for iso, mult, angle in family.values())
    # two vertex-disjoint directed 3-cycles: two closed classes, one zero eigenvalue each
    disjoint = DirectedGraph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], np.ones(6))
    iso, mult, _ = _dc_values(disjoint)
    split_ok = not iso and mult == 2
    # every weight times 2**40 or 2**-40: the three values are the same, to the bit
    moved = [name for name, g in [*graph_family(), ("disjoint", disjoint)]
             for scale in (2.0**40, 2.0**-40)
             if _dc_values(DirectedGraph(g.n, g.src, g.dst, g.weight * scale)) != _dc_values(g)]
    worst = max(angle for _, _, angle in family.values())
    report(11, "DC mode isolated on every family graph; one zero per closed class; "
               "unchanged under 2^+-40 scaling", isolated and split_ok and not moved,
           f"worst angle {worst:.2e}, disjoint multiplicity {mult}, scale-moved {moved}")


def _lowpass_gain(v, u):
    """``||P_omega||_2`` of the oblique projector ``V_omega U_omega^*``, from k x k matrices.

    ``||V_omega U_omega^*||_2^2 = lambda_max((V_omega^* V_omega)(U_omega^* U_omega))``; the
    product of two Hermitian positive definite matrices has real positive eigenvalues.
    """
    return float(np.sqrt(np.max(np.linalg.eigvals((v.conj().T @ v) @ (u.conj().T @ u)).real)))


def test_criterion_12_lowpass_gain_bounds_every_trial():
    # ideal low-pass recovery errs by exactly P_omega eta, so ||P_omega||_2 bounds each
    # trial's error gain; kappa(V) is only its ceiling, reached on normal graphs
    used, gains, ok = {}, {}, True
    for real_noise in (False, True):
        config = ExperimentConfig(sigmas=(0.0, 0.05, 0.3), trials=300, real_noise=real_noise)
        sweep = run_noise_sweep(config)
        for name, band in sweep.bands.items():
            # the band's own value, checked against the k x k eigenvalue and the n x n SVD
            dec = band.decomposition
            v, u = band.v_omega, dec.u[:, band.omega]
            gain = gains[name] = band.lowpass_gain
            for check in (_lowpass_gain(v, u), np.linalg.norm(v @ u.conj().T, 2)):
                ok &= abs(gain - check) <= 1e-10 * check
            ok &= gain <= dec.kappa * (1 + 1e-12)
        ok &= abs(gains["cycle"] - 1.0) <= 1e-12
        for cell in sweep.cells:
            if cell.sigma == 0.0:
                continue
            dec = sweep.bands[cell.graph].decomposition
            # ||eta|| = bound ||x0|| / kappa, with ||x0|| = err_abs / err_l2
            eta_norm = cell.bound * (cell.err_abs / cell.err_l2) / dec.kappa
            share = cell.err_abs / (gains[cell.graph] * eta_norm)
            ok &= bool(np.all(share <= 1 + 1e-10))
            used[cell.graph] = max(used.get(cell.graph, 0.0), float(share.max()))
    report(12, "every fig2 trial: err_abs <= ||P_omega||_2 ||eta||; ||P_omega||_2 <= kappa(V), "
               "= 1 on the cycle", ok,
           f"gain cycle {gains['cycle']:.12f}, perturbed {gains['perturbed']:.4f}; worst share "
           f"of the bound cycle {used['cycle']:.2f}, perturbed {used['perturbed']:.2f}")
