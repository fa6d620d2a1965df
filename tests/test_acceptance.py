"""Acceptance suite: the eight headline checks, each printing one verdict line.

Every criterion computes its quantities through the public API, prints and
records a single PASS/FAIL line, and asserts the combined condition with
its runtime bound where one applies.
"""

import math
import time

import numpy as np

import _acceptance_log
from hamlab import canonical, kdv, line, string


def _verdict(num, label, ok, detail):
    line_txt = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line_txt)
    _acceptance_log.record(line_txt)
    return ok


def _random_string_state(seed, n):
    rng = np.random.default_rng(seed)
    q = rng.normal(0.0, 1.0, n)
    p = rng.uniform(0.4, 1.5, n) * rng.choice([-1.0, 1.0], n)
    return canonical.CanonicalState(q, p, 0.0)


def test_criterion_1_involution_and_completeness():
    start = time.perf_counter()
    n = 8
    state = _random_string_state(17, n)
    obs = string.string_observable_set(n)

    B, J = canonical.involution_and_jacobian(obs, state, h=1e-5)
    max_b = float(np.max(np.abs(B)))
    _, rank_full = canonical.numerical_rank(J)
    dropped = obs.without("mode_energy_1")
    J_drop = canonical.involution_and_jacobian(dropped, state, h=1e-5)[1]
    _, rank_drop = canonical.numerical_rank(J_drop)
    elapsed = time.perf_counter() - start

    ok = max_b < 1e-6 and rank_full == n and rank_drop == n - 1 and elapsed < 1.0
    detail = (
        f"max|bracket|={max_b:.2e}, full rank={rank_full}/8, "
        f"dropped rank={rank_drop} (incomplete), {elapsed:.2f}s"
    )
    assert _verdict(1, "string involution and completeness", ok, detail), detail


def test_criterion_2_string_conservation_and_hj():
    start = time.perf_counter()
    n = 8
    idx = np.arange(1, n + 1)
    rng = np.random.default_rng(23)

    # exact evolution: spectrum shape is irrelevant
    obs = string.string_observable_set(n)
    m0 = canonical.CanonicalState(rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, n))
    e0 = obs.evaluate(m0)
    times = np.linspace(0.0, 10.0, 11)
    exact = zip(*string.exact_mode_evolution(m0, times), times)
    et = np.array([obs.evaluate(canonical.CanonicalState(q, p, t)) for q, p, t in exact])
    exact_drift = float(np.max(np.abs(et - e0)))

    # symplectic evolution: decaying spectrum keeps every floored drift small
    amp = 4.0 ** (1.0 - idx)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    mv = canonical.CanonicalState(amp * np.cos(phase), -idx * amp * np.sin(phase))
    _, q, p = canonical.evolve(
        string.string_hamiltonian(n), mv, 1e-3, 100000, record_stride=1000
    )
    verlet_drift = float(np.max(canonical.conservation_drift(obs, q, p)))

    # Hamilton-Jacobi reconstruction against the exact rotation
    mh = canonical.CanonicalState(
        rng.uniform(0.4, 1.2, n) * rng.choice([-1.0, 1.0], n),
        rng.uniform(0.4, 1.2, n) * rng.choice([-1.0, 1.0], n),
    )
    at = string.hj_trajectory(*string.hj_constants(mh))
    times = np.linspace(0.0, 3.0, 61)
    ex_q, ex_p = string.exact_mode_evolution(mh, times)
    hj_q, hj_p = at(times)
    hj_err = float(max(np.max(np.abs(hj_q - ex_q)), np.max(np.abs(hj_p - ex_p))))
    elapsed = time.perf_counter() - start

    ok = exact_drift < 1e-12 and verlet_drift < 1e-6 and hj_err < 1e-10 and elapsed < 10.0
    detail = (
        f"exact drift={exact_drift:.2e}, verlet drift={verlet_drift:.2e} "
        f"(1e5 steps), hj error={hj_err:.2e}, {elapsed:.2f}s"
    )
    assert _verdict(2, "string conservation and HJ reconstruction", ok, detail), detail


def test_criterion_3_line_round_trip():
    start = time.perf_counter()
    f = line.sample_line_field(
        lambda x: 0.6 * np.exp(-((x - 1.0) ** 2) / 1.5) - 0.4 * np.exp(-((x + 1.5) ** 2) / 2.0),
        lambda x: 0.9 * np.exp(-(x**2) / 2.0) + 0.3 * np.exp(-((x - 2.0) ** 2) / 1.2),
    )
    order = 5
    mc = line.moments(f, order)
    comparison = line.gseries_comparison(mc)
    p_rec = line.recover_momenta_triangular(comparison["g_formula"], mc.q, 1)
    rel_err = float(np.max(np.abs(p_rec - mc.p)) / np.max(np.abs(mc.p)))
    n_rows = comparison["k"].size
    elapsed = time.perf_counter() - start

    ok = rel_err < 1e-8 and n_rows == order and elapsed < 5.0
    detail = f"round-trip rel err={rel_err:.2e}, comparison rows={n_rows}, {elapsed:.2f}s"
    assert _verdict(3, "infinite-string moment round trip", ok, detail), detail


def test_criterion_4_continuous_mode_energy():
    start = time.perf_counter()
    f0 = line.sample_line_field(
        lambda x: np.exp(-((x - 1.0) ** 2) / 2.0) + 0.3 * np.exp(-((x + 2.0) ** 2) / 3.0),
        lambda x: 0.4 * x * np.exp(-(x**2) / 2.0),
    )
    ys = (0.5, 1.0, 2.0)
    e0 = line.continuous_mode_energy(f0, ys)
    v0 = line.velocity_moment(f0, (0, 1, 2))
    energy_drift = 0.0
    moment_drift = np.zeros(3)
    cur = f0
    for _ in range(4):
        cur = line.dalembert_evolve(cur, 0.25)
        energy_drift = max(energy_drift, np.max(np.abs(line.continuous_mode_energy(cur, ys) - e0)))
        moment_drift = np.maximum(moment_drift, np.abs(line.velocity_moment(cur, (0, 1, 2)) - v0))

    m0, m1, m2 = moment_drift
    elapsed = time.perf_counter() - start

    ok = energy_drift < 1e-8 and m0 < 1e-10 and m1 < 1e-10 and elapsed < 5.0
    detail = (
        f"energy drift={energy_drift:.2e} over y={ys}, moment drift "
        f"n=0:{m0:.2e} n=1:{m1:.2e}, n=2 recorded:{m2:.4f}, {elapsed:.2f}s"
    )
    assert _verdict(4, "continuous mode energy conservation", ok, detail), detail


def test_criterion_5_kdv_conserved_integrals():
    start = time.perf_counter()
    f = kdv.soliton_field(1.0)  # L_domain = 40, M = 512
    I0, even0 = kdv.kdv_invariants(f)
    drift = np.zeros(3)
    even_max = float(np.max(np.abs(even0[:2])))
    for _ in range(4):
        f = kdv.kdv_evolve(f, 1e-4, 2500)  # 4 x 0.25 covers t in [0, 1]
        I, even = kdv.kdv_invariants(f)
        drift = np.maximum(drift, np.abs(I - I0) / np.abs(I0))
        even_max = max(even_max, float(np.max(np.abs(even[:2]))))
    elapsed = time.perf_counter() - start

    ok = float(np.max(drift)) < 1e-6 and even_max < 1e-10 and elapsed < 60.0
    detail = (
        f"I drift=({drift[0]:.1e}, {drift[1]:.1e}, {drift[2]:.1e}), "
        f"max even integral={even_max:.1e}, {elapsed:.2f}s"
    )
    assert _verdict(5, "KdV conserved integrals along the soliton flow", ok, detail), detail


def test_criterion_6_scattering_invariance():
    f0 = kdv.soliton_field(1.0)
    f_half = kdv.kdv_evolve(f0, 1e-4, 5000)
    f_one = kdv.kdv_evolve(f_half, 1e-4, 5000)
    values = [kdv.scattering_a(kdv.line_window(f), [1.3])[0] for f in (f0, f_half, f_one)]
    a_drift = float(max(abs(v - values[0]) for v in values))

    pot = kdv.LinePotential(lambda x: -2.0 / np.cosh(x) ** 2, -20.0, 20.0)
    bk = kdv.bound_states(pot, 3.0)
    bound_err = float(abs(bk[0] - 1.0)) if bk.size == 1 else math.inf

    ok = a_drift < 1e-4 and bk.size == 1 and bound_err < 1e-8
    detail = f"a(1.3) drift={a_drift:.2e}, bound state error={bound_err:.2e}"
    assert _verdict(6, "scattering data invariance", ok, detail), detail


def test_criterion_7_action_hamiltonian():
    pot = kdv.LinePotential(lambda x: -2.0 / np.cosh(x) ** 2, -20.0, 20.0)
    k = np.linspace(0.05, 4.0, 60)
    n = kdv.continuum_actions(k, kdv.scattering_a(pot, k))
    H_act = kdv.hamiltonian_from_actions(k, n, kdv.bound_states(pot, 1.5))
    H_dir = kdv.direct_hamiltonian(kdv.soliton_field(1.0))
    target = -96.0 / 15.0  # = -32/5
    act_err = abs(H_act - target) / abs(target)
    dir_err = abs(H_dir - target) / abs(target)

    ok = act_err < 1e-4 and dir_err < 1e-4
    detail = (
        f"H from actions={H_act:.8f} (rel err {act_err:.1e}), "
        f"H direct={H_dir:.8f} (rel err {dir_err:.1e}), target -32/5"
    )
    assert _verdict(7, "action-variable Hamiltonian", ok, detail), detail


def test_criterion_8_oracle_equivalence():
    h = 1e-5
    fd_tol = 10.0 * h**2
    n = 8
    state = _random_string_state(31, n)
    obs = string.string_observable_set(n)
    diff = 0.0
    pairs = list(obs)
    for i in range(n):
        for j in range(i + 1, n):
            fd = canonical.poisson_bracket(pairs[i], pairs[j], state, h=h)
            an = canonical.poisson_bracket_analytic(pairs[i], pairs[j], state)
            diff = max(diff, abs(fd - an))
    # a nonzero canonical pair keeps the comparison honest
    q1 = canonical.Observable("q1", lambda q, p: q[0])
    p1 = canonical.Observable("p1", lambda q, p: p[0])
    delta_err = abs(canonical.poisson_bracket(q1, p1, state, h=h) - 1.0)

    f = kdv.soliton_field(1.0)
    exponents = []
    for order in (4, 6):
        r1 = kdv.riccati_residual(f, order, 6.0)
        r2 = kdv.riccati_residual(f, order, 9.0)
        exponents.append(math.log(r1 / r2) / math.log(9.0 / 6.0))
    exp_err = max(abs(e - o) for e, o in zip(exponents, (4, 6)))

    # Magnus Jost sweep against the DOP853 oracle, on and off the real axis
    pot = kdv.LinePotential(lambda x: -2.0 / np.cosh(x) ** 2, -20.0, 20.0)
    ks = np.array([0.3, 1.3, 2.5, 0.5j, 2.0j])
    oracle = np.array([kdv.schrodinger_a(pot, k) for k in ks])
    jost_diff = float(np.max(np.abs(kdv.scattering_a(pot, ks) - oracle)))

    ok = diff < fd_tol and delta_err < fd_tol and exp_err < 0.2 and jost_diff < 1e-9
    detail = (
        f"fd-vs-analytic bracket diff={diff:.2e} (tol {fd_tol:.0e}), "
        f"[q1,p1] error={delta_err:.2e}, residual exponents="
        f"({exponents[0]:.3f}, {exponents[1]:.3f}) for orders (4, 6), "
        f"Magnus vs DOP853 a(k) diff={jost_diff:.2e} (tol 1e-09)"
    )
    assert _verdict(8, "dual-route oracle equivalence", ok, detail), detail
