"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Asymptotic statements (N to infinity) are checked as exact algebra,
bounded-scale inequalities, or monotone trends; nothing here asserts the
unreachable limits themselves.
"""

import itertools
import json
import math

import numpy as np
import pytest

from confinedbose import counting as cnt
from confinedbose.bounds import (
    RateSpec,
    coulomb_confined_norms,
    divergence_residual,
    poisson_vector_field,
    rate_exponent,
    mean_field_coefficient,
    envelope_report,
)
from confinedbose.grids import ConfinedDomain, FreeDomain, GridFunction, norm
from confinedbose.harness import RateFit
from confinedbose.manybody import ManyBodyState, evolve_manybody, manybody_energy, product_state
from confinedbose.model import InteractionProfile, ModelSpec, measured_f_eps
from confinedbose.onebody import (
    OneBodyState,
    chi_mode,
    effective_energy,
    evolve_effective,
    sup_norms,
)

UNIT_INTERVAL = ((-0.5, 0.5),)


def report(number, text):
    print(f"\n[criterion {number:2d}] PASS  {text}")


def random_unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_symmetric(rng, dim, n):
    raw = rng.normal(size=(dim,) * n) + 1j * rng.normal(size=(dim,) * n)
    acc = np.zeros_like(raw)
    for perm in itertools.permutations(range(n)):
        acc += np.transpose(raw, perm)
    return acc / np.linalg.norm(acc.ravel())


def seeded_states(seed=2024, dim=4, per_n=25, ns=(2, 3, 4, 5)):
    rng = np.random.default_rng(seed)
    out = []
    for n in ns:
        for _ in range(per_n):
            out.append((random_symmetric(rng, dim, n), random_unit(rng, dim), n))
    return out


STATES = seeded_states()


def test_criterion_1_projector_algebra_suite():
    import time

    t_start = time.perf_counter()
    tol = 1e-9
    rng = np.random.default_rng(7)
    worst = 0.0
    for psi, phi, n in STATES:
        comps = cnt.occupancy_components(psi, phi)
        worst = max(worst, float(np.linalg.norm((sum(comps) - psi).ravel())))
        for k, c in enumerate(comps):
            qsum = np.zeros_like(c)
            for axis in range(n):
                qsum += cnt.project_q(c, phi, axis)
            worst = max(worst, float(np.linalg.norm((qsum - k * c).ravel())))
        f = rng.normal(size=n + 1)
        g = rng.normal(size=n + 1)
        fg = cnt.hat_apply(f * g, psi, phi)
        f_of_g = cnt.hat_apply(f, cnt.hat_apply(g, psi, phi), phi)
        worst = max(worst, float(np.linalg.norm((fg - f_of_g).ravel())))
        for axis in (0, n - 1):
            a = cnt.hat_apply(f, cnt.project_p(psi, phi, axis), phi)
            b = cnt.project_p(cnt.hat_apply(f, psi, phi), phi, axis)
            worst = max(worst, float(np.linalg.norm((a - b).ravel())))
        tmat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for j, k in ((0, 2), (1, 1), (2, 1)):
            worst = max(worst, cnt.shift_identity_residual(f, j, k, tmat, psi, phi))
    elapsed = time.perf_counter() - t_start
    assert worst <= tol
    assert elapsed < 60.0
    report(1, f"projector algebra on {len(STATES)} states, worst residual {worst:.2e} "
              f"({elapsed:.1f} s)")


def test_criterion_2_trace_norm_sandwich():
    worst = 0.0
    for psi, phi, n in STATES:
        a = cnt.alpha(psi, phi)
        tr = cnt.trace_distance(cnt.density_matrix(psi), phi)
        worst = max(worst, a - tr, tr - math.sqrt(8.0 * a))
    assert worst <= 1e-9
    report(2, f"alpha <= Tr <= sqrt(8 alpha) on {len(STATES)} states, "
              f"worst violation {worst:.2e}")


def test_criterion_3_counting_exactness():
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in range(2, 6):
        phi = random_unit(rng, 2)
        perp = random_unit(rng, 2)
        perp -= phi * np.vdot(phi, perp)
        perp /= np.linalg.norm(perp)
        for k in range(n + 1):
            factors = [phi] * (n - k) + [perp] * k
            raw = factors[0]
            for f in factors[1:]:
                raw = np.multiply.outer(raw, f)
            acc = np.zeros_like(raw)
            for perm in itertools.permutations(range(n)):
                acc += np.transpose(raw, perm)
            psi = acc / np.linalg.norm(acc.ravel())
            worst = max(worst, abs(cnt.alpha(psi, phi) - k / n))
            worst = max(worst, abs(cnt.beta(psi, phi) - math.sqrt(k / n)))
    # distinct excited modes, one-body dimension 6
    basis = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    phi = basis[:, 0]
    for n, k in ((4, 2), (5, 3)):
        factors = [phi] * (n - k) + [basis[:, j + 1] for j in range(k)]
        raw = factors[0]
        for f in factors[1:]:
            raw = np.multiply.outer(raw, f)
        acc = np.zeros_like(raw)
        for perm in itertools.permutations(range(n)):
            acc += np.transpose(raw, perm)
        psi = acc / np.linalg.norm(acc.ravel())
        worst = max(worst, abs(cnt.alpha(psi, phi) - k / n))
        worst = max(worst, abs(cnt.beta(psi, phi) - math.sqrt(k / n)))
    assert worst <= 1e-10
    report(3, f"sharp-occupancy alpha = k/N, beta = sqrt(k/N) for k <= N <= 5, "
              f"worst error {worst:.2e}")


def test_criterion_4_weight_difference_bound():
    rng = np.random.default_rng(13)
    worst = -np.inf
    for _ in range(50):
        n = int(rng.integers(2, 6))
        psi = random_symmetric(rng, 4, n)
        phi = random_unit(rng, 4)
        for tag in ("k/N", "n"):
            for l in (1, 2):
                lhs, rhs = cnt.weight_difference_bound(tag, l, psi, phi)
                worst = max(worst, lhs - rhs)
    assert worst <= 1e-10
    report(4, f"shifted-weight difference bound on 50 states, "
              f"worst lhs - l/N = {worst:.2e}")


def fidelity_spec(n=2):
    return ModelSpec(
        free=FreeDomain((16.0,), (32,)),
        confined=ConfinedDomain(UNIT_INTERVAL, (3,), eps=0.5),
        n_particles=n,
        interaction=InteractionProfile("gaussian-bump", amplitude=2.0,
                                       radius=1.6, sigma=0.5),
        regime="hartree-theta0",
    )


def gaussian_state(spec, width=1.0):
    xs = spec.free.meshgrid()
    phi = GridFunction(spec.free, np.exp(-sum(x**2 for x in xs) / (4 * width**2)))
    phi = phi.copy_with(phi.values / norm(phi))
    return OneBodyState(phi, chi_mode(spec.confined, 0))


def test_criterion_5_solver_fidelity():
    import time

    t_start = time.perf_counter()
    # one-body: order, mass, energy
    spec = fidelity_spec()
    one0 = gaussian_state(spec)
    T = 0.25
    ref = evolve_effective(one0, spec, T, T / 1024)[-1].phi_free.values
    e1 = np.linalg.norm(evolve_effective(one0, spec, T, T / 128)[-1].phi_free.values - ref)
    e2 = np.linalg.norm(evolve_effective(one0, spec, T, T / 256)[-1].phi_free.values - ref)
    ratio_one = e1 / e2
    assert 3.5 < ratio_one < 4.5

    traj = evolve_effective(one0, spec, 1.0, 1e-3, stride=200)
    e0 = effective_energy(traj[0], spec)
    mass_drift = max(abs(st.mass() - 1.0) for st in traj)
    energy_drift = max(abs(effective_energy(st, spec) - e0) for st in traj) / abs(e0)
    assert mass_drift <= 1e-9
    assert energy_drift <= 1e-6

    # N = 2 many-body: order, mass, energy
    # the evolver steps its input in place and lends each snapshot: a fresh
    # product state per run, and a copy of each snapshot that is kept
    def final(dt):
        return list(evolve_manybody(product_state(one0, 2), spec, T, dt))[-1].values

    refm = final(T / 1024)
    m1 = np.linalg.norm((final(T / 128) - refm).ravel())
    m2 = np.linalg.norm((final(T / 256) - refm).ravel())
    ratio_many = m1 / m2
    assert 3.5 < ratio_many < 4.5

    trajm = [ManyBodyState(mb.domain, mb.values.copy(), mb.t) for mb in
             evolve_manybody(product_state(one0, 2), spec, 1.0, 1e-3, stride=250)]
    em0 = manybody_energy(trajm[0], spec)
    mass_drift_m = max(abs(st.mass() - 1.0) for st in trajm)
    energy_drift_m = max(abs(manybody_energy(st, spec) - em0) for st in trajm) / abs(em0)
    assert mass_drift_m <= 1e-9
    assert energy_drift_m <= 1e-6
    elapsed = time.perf_counter() - t_start
    assert elapsed < 600.0
    report(5, f"Strang order ratios {ratio_one:.2f} (one-body), {ratio_many:.2f} (N=2); "
              f"mass drift {max(mass_drift, mass_drift_m):.1e}, "
              f"energy drift {max(energy_drift, energy_drift_m):.1e} ({elapsed:.0f} s)")


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_6_noninteracting_factorization(n):
    spec = ModelSpec(
        free=FreeDomain((16.0,), (16,)),
        confined=ConfinedDomain(UNIT_INTERVAL, (3,), eps=0.5),
        n_particles=n,
        interaction=InteractionProfile("gaussian-bump", amplitude=0.0,
                                       radius=1.6, sigma=0.5),
        regime="hartree-theta0",
    )
    one0 = gaussian_state(spec)
    psi0 = product_state(one0, n)
    T, dt = 0.5, 2e-3
    manys = evolve_manybody(psi0, spec, T, dt, stride=50)
    ones = evolve_effective(one0, spec, T, dt, stride=50)
    e0 = one0.mode.energy_eps
    vol = spec.domain.cell_volume
    worst = 0.0
    for mb, ob in zip(manys, ones):
        phi_t = ob.product_values() * np.exp(-1j * e0 * ob.t)
        phi_t /= np.linalg.norm(phi_t.ravel()) * np.sqrt(vol)
        expected = phi_t
        for _ in range(n - 1):
            expected = np.multiply.outer(expected, phi_t)
        worst = max(worst, float(np.linalg.norm((mb.values - expected).ravel())
                                 * np.sqrt(mb.cell_volume)))
    assert worst <= 1e-7
    report(6, f"non-interacting factorization at N={n}, worst deviation {worst:.2e}")


def test_criterion_7_derivative_identity():
    spec = fidelity_spec()
    one0 = gaussian_state(spec)
    T = 0.3
    results = {}
    for dt in (1e-2, 5e-3):
        ones = evolve_effective(one0, spec, T, dt)
        manys = evolve_manybody(product_state(one0, 2), spec, T, dt)
        alphas, totals = [], []
        for mb, ob in zip(manys, ones):
            alphas.append(cnt.alpha(mb.values, ob.product_values(),
                                    weight=spec.domain.cell_volume))
            totals.append(cnt.derivative_terms(mb, ob, spec)[3])
        alphas = np.asarray(alphas)
        fd = (alphas[2:] - alphas[:-2]) / (2 * dt)
        err = np.max(np.abs(fd - np.asarray(totals[1:-1])))
        third = np.max(np.abs(np.diff(alphas, 3))) / dt**3
        results[dt] = (err, third)
        assert err <= 5.0 * dt**2 * third
    ratio = results[1e-2][0] / results[5e-3][0]
    assert 2.0 < ratio < 8.0  # second-order consistency across the two steps
    report(7, "centered-difference d(alpha)/dt matches the commutator expression "
              f"(errors {results[1e-2][0]:.2e} @ dt=1e-2, {results[5e-3][0]:.2e} @ 5e-3, "
              f"ratio {ratio:.2f})")


def test_criterion_8_mean_field_envelope_explicit_constant():
    eps = 0.3
    spec = ModelSpec(
        free=FreeDomain((16.0,), (16,)),
        confined=ConfinedDomain(UNIT_INTERVAL, (3,), eps=eps),
        n_particles=3,
        interaction=InteractionProfile("gaussian-bump", amplitude=1.5,
                                       radius=3.0, sigma=1.0),
        regime="hartree-theta0",
    )
    one0 = gaussian_state(spec)
    psi0 = product_state(one0, 3)
    T, dt, stride = 1.0, 5e-3, 20
    ones = evolve_effective(one0, spec, T, dt, stride=stride)
    manys = evolve_manybody(psi0, spec, T, dt, stride=stride)
    times = [st.t for st in ones]
    alphas = [cnt.alpha(mb.values, ob.product_values(), weight=spec.domain.cell_volume)
              for mb, ob in zip(manys, ones)]
    sups = [sup_norms(st) for st in ones]
    f_eps = measured_f_eps(spec.interaction, eps, spec.free, spec.confined)
    coeff = mean_field_coefficient(times, [s[0] for s in sups], [s[1] for s in sups],
                                   spec.interaction.sup_norm())
    rep = envelope_report(times, alphas, RateSpec("mean-field"), spec,
                           coefficient=coeff, f_eps=f_eps)
    assert rep.fitted_constant is None  # explicit coefficient, nothing fitted
    assert rep.below_envelope
    margin = min(e - m for e, m in zip(rep.envelope[1:], rep.measured[1:]))
    report(8, f"measured alpha stays below the explicit mean-field envelope on [0,1] "
              f"(N=3, f_eps={f_eps:.3f}, min margin {margin:.2e})")


def test_criterion_9_rate_formulas():
    eta_2 = rate_exponent(RateSpec("singular", s=2.0)).eta
    assert eta_2 == pytest.approx(0.5, abs=1e-15)
    branch_low = rate_exponent(RateSpec("short-range", theta=7.0 / 24.0)).eta
    th = 7.0 / 24.0
    branch_high = (1.0 - 3.0 * th) / (4.0 - 9.0 * th)
    assert branch_low == pytest.approx(1.0 / 11.0, abs=1e-14)
    assert branch_high == pytest.approx(1.0 / 11.0, abs=1e-14)
    for s in np.arange(1.25, 2.0 - 1e-9, 0.05):
        assert (rate_exponent(RateSpec("singular-improved", s=float(s))).eta
                > rate_exponent(RateSpec("singular", s=float(s))).eta)
    report(9, "eta(s=2) = 1/2; both theta = 7/24 branches give 1/11; "
              "improved rate beats the base rate on all sampled s")


def test_criterion_10_poisson_vector_field():
    n, L = 32, 12.0
    h = L / n
    ax = (np.arange(n) - n / 2 + 0.5) * h
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    r2 = X**2 + Y**2 + Z**2
    f = np.exp(-r2 / 2.0) * (r2 < 4.5**2)
    resid = divergence_residual(f, h)
    assert resid <= 1e-4

    xi = poisson_vector_field(f, h)
    from scipy.integrate import quad

    def enclosed(r):
        val, _ = quad(lambda s: 4 * np.pi * s**2 * np.exp(-(s**2) / 2.0), 0.0, r)
        return val

    j = n // 2
    worst = 0.0
    for off in (3, 6, 9):
        i = j + off
        x, y, z = ax[i], ax[j], ax[j]
        rfull = math.sqrt(x * x + y * y + z * z)
        expected = enclosed(rfull) / (4 * np.pi * rfull**2) * (x / rfull)
        worst = max(worst, abs(xi[0][i, j, j] - expected) / abs(expected))
    assert worst <= 1e-3
    report(10, f"divergence residual {resid:.2e} (<= 1e-4), "
               f"Gauss-theorem radial agreement {worst:.2e} (<= 1e-3)")


def test_criterion_11_confined_coulomb_quadratures():
    ladder = (0.1, 0.05, 0.025)
    results = {eps: coulomb_confined_norms(eps) for eps in ladder}
    for eps in (0.1, 0.05):
        assert results[eps].linf_defect <= eps**2
    ratios = [results[eps].l1_defect / eps for eps in ladder]
    spread = max(ratios) / min(ratios)
    assert spread <= 1.2
    incs = [
        results[0.05].log_divergence - results[0.1].log_divergence,
        results[0.025].log_divergence - results[0.05].log_divergence,
    ]
    rel = abs(incs[0] - incs[1]) / abs(incs[1])
    assert rel <= 0.15
    report(11, f"sup defect <= eps^2; L1-defect/eps spread {spread:.3f} (<= 1.2); "
               f"log increments agree to {rel:.3f} (<= 0.15)")


def test_criterion_12_ladder_trend(recorded_run):
    # the ladder of demos/configs/ladder_theta0.json, run once for this test and its record
    fit = RateFit(**json.loads((recorded_run("ladder-ladder_theta0") / "rate_fit.json").read_text()))
    assert fit.complete
    values = fit.terminal_values
    assert values[0] > values[1] > values[2]  # strictly decreasing in N
    assert fit.slope is not None and fit.slope < 0
    # beta's asymptotic log-log slope in N, -1/2 (sqrt(N) beta_N tends to a constant),
    # is out of desk-scale reach and NOT asserted
    report(12, f"terminal beta strictly decreases over N in {fit.particle_counts}: "
               f"{[f'{v:.3e}' for v in values]}; log-log slope {fit.slope:.2f} "
               f"(residual {fit.residual:.2e})")
