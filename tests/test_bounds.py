"""Envelopes, rate exponents, splittings, vector fields, Coulomb quadratures."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from confinedbose.bounds import (
    RateSpec,
    coulomb_confined_norms,
    divergence_residual,
    gronwall_envelope,
    poisson_vector_field,
    potential_split,
    rate_exponent,
    mean_field_coefficient,
)
from confinedbose.errors import ConfigError, GuardError


# -- Gronwall ------------------------------------------------------------------


# each test passes the cumulative growth G(t) in closed form; the trapezoid
# rule that builds G from samples is checked by test_mean_field_coefficient_*


def test_gronwall_zero_coefficient():
    t = np.linspace(0, 2, 101)
    env = gronwall_envelope(np.zeros_like(t), initial=0.7, defect=0.3)
    assert np.allclose(env, 0.7, atol=1e-14)


def test_gronwall_constant_coefficient_exact_exponential():
    t = np.linspace(0, 1.5, 1501)
    c = 0.8
    env = gronwall_envelope(c * t, initial=1.0, defect=0.0)
    assert np.max(np.abs(env - np.exp(c * t))) < 1e-12


def test_gronwall_linear_coefficient_closed_form():
    # C(s) = s, so G(t) = t^2/2; delta = 1, f(0) = 0, t = 1: envelope exp(1/2) - 1
    t = np.linspace(0, 1, 2001)
    env = gronwall_envelope(t**2 / 2, initial=0.0, defect=1.0)
    assert env[-1] == pytest.approx(np.exp(0.5) - 1.0, abs=1e-7)
    assert env[-1] == pytest.approx(0.6487, abs=2e-4)


def test_gronwall_monotonicity():
    t = np.linspace(0, 1, 101)
    g = t**2 / 2 + 0.1 * t  # C(s) = s + 0.1
    base = gronwall_envelope(g, initial=0.2, defect=0.1)
    more_init = gronwall_envelope(g, initial=0.3, defect=0.1)
    more_defect = gronwall_envelope(g, initial=0.2, defect=0.2)
    more_coeff = gronwall_envelope(g + 0.5 * t, initial=0.2, defect=0.1)
    assert np.all(more_init >= base)
    assert np.all(more_defect >= base)
    assert np.all(more_coeff >= base)


# -- explicit mean-field coefficient -------------------------------------------


def test_mean_field_coefficient_zero_and_linear():
    t = np.linspace(0, 2, 201)
    assert np.allclose(mean_field_coefficient(t, np.ones_like(t), np.ones_like(t), 0.0), 0.0)

    a, b = 0.7, 0.4
    coeff = mean_field_coefficient(t, np.full_like(t, a), np.full_like(t, b), 1.0)
    k = 2.0  # two sup norms of 1.0; the singular norms vanish
    expected = 4.0 * k * (1 + a + b) ** 2 * t
    assert np.max(np.abs(coeff - expected)) < 1e-12  # constant integrand: trapz exact


def test_mean_field_coefficient_matches_refined_quadrature():
    # smooth synthetic sup-norm histories; a 16x refined trapezoid is the oracle
    t_coarse = np.linspace(0, 1, 4001)
    t_fine = np.linspace(0, 1, 64001)
    w_sup = 0.375

    def sup_phi(t):
        return 1.2 + 0.3 * np.sin(2.0 * t)

    def sup_big(t):
        return 0.8 + 0.2 * np.cos(3.0 * t)

    coarse = mean_field_coefficient(t_coarse, sup_phi(t_coarse), sup_big(t_coarse), w_sup)
    fine = mean_field_coefficient(t_fine, sup_phi(t_fine), sup_big(t_fine), w_sup)
    assert abs(coarse[-1] - fine[-1]) <= 1e-8 * abs(fine[-1])


# -- rate exponents -------------------------------------------------------------


def test_rate_exponents_paper_values():
    assert rate_exponent(RateSpec("singular", s=2.0)).eta == pytest.approx(0.5, abs=1e-15)
    assert rate_exponent(RateSpec("singular", s=2.0)).eta_trace == pytest.approx(0.25)

    both = [
        rate_exponent(RateSpec("short-range", theta=7.0 / 24.0)).eta,
        (1.0 - 3.0 * (7.0 / 24.0)) / (4.0 - 9.0 * (7.0 / 24.0)),
    ]
    assert both[0] == pytest.approx(1.0 / 11.0, abs=1e-14)
    assert both[1] == pytest.approx(1.0 / 11.0, abs=1e-14)

    # trace-norm halves of the two branches
    th = 0.27
    r = rate_exponent(RateSpec("short-range", theta=th))
    assert r.eta_trace == pytest.approx((4 * th - 1) / (6 - 8 * th), abs=1e-14)
    th = 0.31
    r = rate_exponent(RateSpec("short-range", theta=th))
    assert r.eta_trace == pytest.approx((1 - 3 * th) / (8 - 18 * th), abs=1e-14)


def test_rate_exponent_branch_continuity_and_admissibility():
    lo = rate_exponent(RateSpec("short-range", theta=7.0 / 24.0)).eta
    hi = rate_exponent(RateSpec("short-range", theta=7.0 / 24.0 + 1e-12)).eta
    assert abs(lo - hi) < 1e-9

    with pytest.raises(ConfigError):
        RateSpec("singular", s=1.1)
    with pytest.raises(ConfigError):
        RateSpec("short-range", theta=0.2)
    with pytest.raises(ConfigError):
        RateSpec("short-range", theta=0.3, nu=0.49)
    RateSpec("short-range", theta=0.3, nu=0.6)  # admissible


def test_rate_exponent_boundary_and_improvement():
    assert rate_exponent(RateSpec("singular", s=1.201)).eta < 2e-3  # -> 0+ at s0

    for s in np.arange(1.25, 1.99, 0.05):
        fast = rate_exponent(RateSpec("singular-improved", s=float(s))).eta
        slow = rate_exponent(RateSpec("singular", s=float(s))).eta
        assert fast > slow
    # closed forms: (5s-6)/(7s-6) vs (5s-6)/(4s)
    s = 1.6
    assert rate_exponent(RateSpec("singular-improved", s=s)).eta == pytest.approx(
        (5 * s - 6) / (7 * s - 6), abs=1e-14
    )


# -- cutoff splitting -----------------------------------------------------------


def coulomb_truncated_samples(n=96, L=3.0):
    h = L / n
    ax = (np.arange(n) - n / 2 + 0.5) * h
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    r = np.sqrt(X**2 + Y**2 + Z**2)
    w = np.where(r < 1.0, 1.0 / np.maximum(r, 1e-12), 0.0)
    return w, h**3


def test_potential_split_degenerate_cutoffs():
    w, cell = coulomb_truncated_samples(48)
    hi = float(np.max(np.abs(w)))
    w1, w2, rep = potential_split(w, cell, cutoff=hi + 1.0, s=1.8)
    assert np.all(w1 == 0.0)
    w1, w2, rep = potential_split(w, cell, cutoff=1e-9, s=1.8)
    assert np.count_nonzero(w2) <= np.count_nonzero(np.abs(w) <= 1e-9)


def test_potential_split_norm_bounds_and_identity():
    w, cell = coulomb_truncated_samples(96)
    s = 1.8
    w1, w2, rep = potential_split(w, cell, cutoff=10.0, s=s)
    assert rep["w1_ls0"] <= rep["w1_ls0_bound"] + 1e-8
    assert rep["w2_l2"] <= rep["w2_l2_bound"] + 1e-8
    # disjoint supports: the L^s mass splits exactly
    ls = lambda v: np.sum(np.abs(v) ** s) * cell
    assert ls(w) == pytest.approx(ls(w1) + ls(w2), rel=1e-12)


# -- divergence-form vector field ------------------------------------------------


def radial_bump(n=32, L=12.0, width=1.0, cut=4.5):
    h = L / n
    ax = (np.arange(n) - n / 2 + 0.5) * h
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    r2 = X**2 + Y**2 + Z**2
    return np.exp(-r2 / (2 * width**2)) * (r2 < cut**2), h, ax


def test_poisson_zero_source():
    f, h, _ = radial_bump()
    xi = poisson_vector_field(np.zeros_like(f), h)
    assert np.max(np.abs(xi)) == 0.0


def test_poisson_divergence_residual():
    f, h, _ = radial_bump()
    assert divergence_residual(f, h) < 1e-4


def test_poisson_gauss_theorem_radial_oracle():
    f, h, ax = radial_bump()
    xi = poisson_vector_field(f, h)

    def enclosed(r):
        val, _ = quad(lambda s: 4 * np.pi * s**2 * np.exp(-(s**2) / 2.0), 0.0, r)
        return val

    n = len(ax)
    j = n // 2
    for off in (3, 6, 9):
        i = j + off
        x, y, z = ax[i], ax[j], ax[j]
        rfull = np.sqrt(x * x + y * y + z * z)
        expected = enclosed(rfull) / (4 * np.pi * rfull**2) * (x / rfull)
        assert xi[0][i, j, j] == pytest.approx(expected, rel=1e-3)


def test_poisson_linearity_and_margin_guard():
    f, h, ax = radial_bump()
    n = len(ax)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    g = np.exp(-((X - 1) ** 2 + Y**2 + Z**2) / 1.5) * (((X - 1) ** 2 + Y**2 + Z**2) < 16.0)
    xi_sum = poisson_vector_field(f + g, h)
    xi_f = poisson_vector_field(f, h)
    xi_g = poisson_vector_field(g, h)
    assert np.max(np.abs(xi_sum - xi_f - xi_g)) < 1e-10

    touching = np.ones((n, n, n))
    with pytest.raises(GuardError):
        poisson_vector_field(touching, h)


def lp_norm(v, p, cell):
    return float((np.sum(np.abs(v) ** p) * cell) ** (1.0 / p))


def test_poisson_young_bound_fitted_constant():
    # fit C on a calibration profile, then hold it across three test profiles
    s = 1.5
    q = 1.0 / (1.0 / s - 1.0 / 3.0)
    n, L = 32, 12.0
    h = L / n
    ax = (np.arange(n) - n / 2 + 0.5) * h
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")

    def ratio(f):
        xi = poisson_vector_field(f, h)
        mag = np.sqrt(np.sum(xi**2, axis=0))
        return lp_norm(mag, q, h**3) / lp_norm(f, s, h**3)

    calib = np.exp(-(X**2 + Y**2 + Z**2) / 2.0) * ((X**2 + Y**2 + Z**2) < 20.0)
    c_fit = ratio(calib)
    tests = [
        np.exp(-(X**2 + Y**2 + Z**2) / 0.5) * ((X**2 + Y**2 + Z**2) < 9.0),
        np.exp(-((X - 1.5) ** 2 + Y**2 + Z**2) / 1.2) * (((X - 1.5) ** 2 + Y**2 + Z**2) < 9.0),
        (np.exp(-((X - 1) ** 2 + Y**2 + Z**2)) + np.exp(-((X + 1) ** 2 + Y**2 + Z**2)))
        * ((X**2 + Y**2 + Z**2) < 16.0),
    ]
    for f in tests:
        assert ratio(f) <= 2.0 * c_fit


# -- confined Coulomb quadratures -------------------------------------------------


def closed_form_l1(eps):
    return 4 * np.pi * (1 + eps / 2 - np.sqrt(1 + eps**2) / 2 - np.arcsinh(eps) / (2 * eps))


def test_coulomb_norms_match_closed_forms():
    for eps in (0.1, 0.05):
        res = coulomb_confined_norms(eps)
        assert res.l1_defect == pytest.approx(closed_form_l1(eps), rel=1e-6)
        assert res.linf_defect == pytest.approx(1 - 1 / np.sqrt(1 + eps**2), rel=1e-6)
        assert res.linf_defect <= eps**2


def test_coulomb_l1_ratio_stability_and_log_increments():
    ladder = (0.1, 0.05, 0.025)
    results = {eps: coulomb_confined_norms(eps) for eps in ladder}
    ratios = [results[eps].l1_defect / eps for eps in ladder]
    assert max(ratios) / min(ratios) < 1.2
    # leading constant: the L1 defect behaves like 2 pi eps
    assert ratios[-1] == pytest.approx(2 * np.pi, rel=0.05)

    incs = [
        results[0.05].log_divergence - results[0.1].log_divergence,
        results[0.025].log_divergence - results[0.05].log_divergence,
    ]
    assert abs(incs[0] - incs[1]) / abs(incs[1]) < 0.15
    assert incs[1] == pytest.approx(4 * np.pi * np.log(2), rel=0.02)


def test_coulomb_norms_domain_check():
    with pytest.raises(ConfigError):
        coulomb_confined_norms(0.9)


def _demo_interaction(path):
    w = json.loads(path.read_text())["interaction"]
    return pytest.param(w["amplitude"], w["radius"], w.get("sigma"), id=path.stem)


# the interaction of every shipped experiment config (coulomb_eps.json is an
# eps list), and the default sigma = R/3
_RADIAL_CASES = [
    _demo_interaction(path)
    for path in sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))
    if path.name != "coulomb_eps.json"
] + [pytest.param(1.0, 2.4, None, id="default-sigma")]


@pytest.mark.parametrize("kind", ["gaussian-bump", "compact-polynomial-bump"])
@pytest.mark.parametrize("amplitude, radius, sigma", _RADIAL_CASES)
def test_integral3_matches_adaptive_quadrature(kind, amplitude, radius, sigma):
    # the fixed Gauss-Legendre rule against adaptive quadrature of the same integrand
    from confinedbose.model import InteractionProfile

    profile = InteractionProfile(kind, amplitude=amplitude, radius=radius, sigma=sigma)
    val, _ = quad(lambda r: 4 * np.pi * r**2 * profile.radial(r), 0.0, radius, limit=200)
    assert profile.integral3() == pytest.approx(val, rel=1e-13)


def test_bound_report_zero_interaction_trivially_below():
    from confinedbose.bounds import envelope_report
    from confinedbose.grids import ConfinedDomain, FreeDomain
    from confinedbose.model import InteractionProfile, ModelSpec

    spec = ModelSpec(
        free=FreeDomain((12.0,), (8,)),
        confined=ConfinedDomain(((-0.5, 0.5),), (3,), eps=0.3),
        n_particles=3,
        interaction=InteractionProfile("gaussian-bump", amplitude=0.0,
                                       radius=1.5, sigma=0.5),
        regime="hartree-theta0",
    )
    times = np.linspace(0.0, 1.0, 11)
    measured = np.zeros_like(times)
    rep = envelope_report(times, measured, RateSpec("mean-field"), spec,
                           coefficient=np.zeros_like(times), f_eps=0.0)
    assert max(abs(e) for e in rep.envelope) == 0.0
    assert rep.below_envelope


def test_fitted_constant_stability_across_particle_numbers():
    # beta-tilde against the short-range envelope: the fitted prefactor
    # should not swing more than 2x over the small-N ladder
    from confinedbose.bounds import envelope_report, growth_integrand_short_range
    from confinedbose.grids import ConfinedDomain, FreeDomain, GridFunction, norm
    from confinedbose.manybody import evolve_manybody, manybody_energy, product_state
    from confinedbose.model import InteractionProfile, ModelSpec
    from confinedbose.onebody import (OneBodyState, chi_mode, effective_energy,
                                      evolve_effective, trajectory_rows)
    from confinedbose import counting as cnt

    fitted = {}
    for n in (2, 3, 4):
        spec = ModelSpec(
            free=FreeDomain((16.0,), (8,)),
            confined=ConfinedDomain(((-0.5, 0.5),), (3,), eps=0.3),
            n_particles=n,
            interaction=InteractionProfile("gaussian-bump", amplitude=2.0,
                                           radius=6.2, sigma=1.6),
            regime="hartree-theta0",
        )
        xs = spec.free.meshgrid()
        phi = GridFunction(spec.free, np.exp(-xs[0] ** 2 / (4 * 0.8**2)))
        phi = phi.copy_with(phi.values / norm(phi))
        one0 = OneBodyState(phi, chi_mode(spec.confined, 0))
        T, dt, stride = 0.5, 1e-2, 10
        ones = evolve_effective(one0, spec, T, dt, stride=stride)
        manys = evolve_manybody(product_state(one0, n), spec, T, dt, stride=stride)
        times = [st.t for st in ones]
        bt = [
            cnt.beta(mb.values, ob.product_values(), weight=spec.domain.cell_volume)
            + abs(manybody_energy(mb, spec) - effective_energy(ob, spec))
            for mb, ob in zip(manys, ones)
        ]
        rows = trajectory_rows(ones, spec)
        integrand = growth_integrand_short_range(
            ones, spec, [r[3] for r in rows], [r[4] for r in rows])
        rep = envelope_report(times, bt, RateSpec("short-range", theta=0.3), spec,
                              growth_integrand=integrand)
        assert rep.below_envelope  # by construction of the fit
        fitted[n] = rep.fitted_constant
    vals = list(fitted.values())
    assert max(vals) <= 2.0 * min(vals)


@pytest.mark.parametrize("rate", [RateSpec("singular", s=1.5),
                                  RateSpec("singular-improved", s=1.5)],
                         ids=["singular", "singular-improved"])
def test_envelope_report_refuses_regimes_no_run_produces(rate):
    from confinedbose.bounds import envelope_report
    from confinedbose.grids import ConfinedDomain, FreeDomain
    from confinedbose.model import InteractionProfile, ModelSpec

    spec = ModelSpec(
        free=FreeDomain((12.0,), (8,)),
        confined=ConfinedDomain(((-0.5, 0.5),), (3,), eps=0.3),
        n_particles=3,
        interaction=InteractionProfile("gaussian-bump", amplitude=1.0,
                                       radius=1.5, sigma=0.5),
        regime="hartree-theta0",
    )
    times = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ConfigError, match="no run produces"):
        envelope_report(times, np.zeros_like(times), rate, spec,
                        growth_integrand=np.ones_like(times))


def test_a1_norms_bounded_profile():
    # both sup norms of the mean-field coefficient are sup |w| = |amplitude|;
    # a dense radial sample through r = 0 is the oracle
    from confinedbose.model import InteractionProfile

    for kind in ("gaussian-bump", "compact-polynomial-bump"):
        for amplitude in (2.0, -0.7):
            prof = InteractionProfile(kind, amplitude=amplitude, radius=1.5, sigma=0.5)
            r = np.linspace(0.0, 2.0 * prof.radius, 100001)
            assert prof.sup_norm() == np.max(np.abs(prof.radial(r))) == abs(amplitude)
