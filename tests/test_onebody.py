"""Confined modes, mean field, effective dynamics."""

import os
import subprocess
import sys

import numpy as np
import pytest

from confinedbose.errors import ConfigError, GuardError
from confinedbose.grids import ConfinedDomain, FreeDomain, GridFunction, norm
from confinedbose.model import ExternalPotential, InteractionProfile, ModelSpec
from confinedbose.onebody import (
    OneBodyState,
    chi_mode,
    coupling_b,
    effective_energy,
    evolve_effective,
    hartree_potential,
    mean_field_kernel,
    sup_norms,
)

UNIT_INTERVAL = ((-0.5, 0.5),)


def unit_gaussian(domain, width=1.0, momentum=None):
    xs = domain.meshgrid()
    r2 = sum(x**2 for x in xs)
    phase = 0.0
    if momentum is not None:
        phase = sum(1j * k * x for k, x in zip(momentum, xs))
    f = GridFunction(domain, np.exp(-r2 / (4.0 * width**2) + phase))
    return f.copy_with(f.values / norm(f))


def hartree_spec(free, confined, profile, n=2, potential=None):
    return ModelSpec(
        free=free,
        confined=confined,
        n_particles=n,
        interaction=profile,
        regime="hartree-theta0",
        potential=potential or ExternalPotential(),
    )


def test_chi_mode_eigenvalues_and_eps_scaling():
    dom = ConfinedDomain(UNIT_INTERVAL, (24,), eps=1.0)
    mode = chi_mode(dom, 0)
    assert mode.energy_eps == pytest.approx(np.pi**2, rel=1e-12)
    assert abs(norm(mode.chi) - 1.0) < 1e-10

    dom01 = ConfinedDomain(UNIT_INTERVAL, (24,), eps=0.1)
    mode01 = chi_mode(dom01, 0)
    assert mode01.energy_eps == pytest.approx(100.0 * np.pi**2, rel=1e-12)

    lap_mult = mode.energy_eps
    from confinedbose.grids import apply_kinetic

    out = apply_kinetic(mode.chi.values, dom)
    assert np.max(np.abs(out - lap_mult * mode.chi.values)) < 1e-8 * lap_mult


def test_chi_quartic_integral_matches_analytic():
    # quadrature oracle for the unit interval: integral of (sqrt2 sin(pi y))^4 = 3/2
    dom = ConfinedDomain(UNIT_INTERVAL, (40,))
    mode = chi_mode(dom, 0)
    assert mode.quartic_integral == pytest.approx(1.5, abs=1e-10)


def test_chi_mode_catalogue_and_range():
    dom = ConfinedDomain(((-0.5, 0.5), (-0.5, 0.5)), (8, 8))
    ground = chi_mode(dom, 0)
    assert ground.axis_indices == (1, 1)
    assert ground.energy == pytest.approx(2 * np.pi**2, rel=1e-12)
    with pytest.raises(ConfigError):
        chi_mode(dom, 7)


def test_coupling_b_zero_and_product_rectangle():
    zero = InteractionProfile("gaussian-bump", amplitude=0.0, radius=1.0, sigma=0.3)
    dom2 = ConfinedDomain(((-0.5, 0.5), (-0.5, 0.5)), (24, 24))
    mode2 = chi_mode(dom2, 0)
    assert coupling_b(zero, mode2) == 0.0
    # per-axis quadrature oracle: the |chi_0|^4 factor is (3/2)^2
    assert mode2.quartic_integral == pytest.approx(9.0 / 4.0, abs=1e-9)


def test_coupling_b_unit_mass_gaussian():
    raw = InteractionProfile("gaussian-bump", amplitude=1.0, radius=1.2, sigma=0.25)
    profile = InteractionProfile(
        "gaussian-bump", amplitude=1.0 / raw.integral3(), radius=1.2, sigma=0.25
    )
    dom = ConfinedDomain(UNIT_INTERVAL, (40,))
    assert coupling_b(profile, chi_mode(dom, 0)) == pytest.approx(1.5, rel=1e-8)


def test_hartree_potential_narrow_kernel_refinement_study(narrow_kernel):
    # kernel -> Dirac: sup |w0 * |Phi|^2 - |Phi|^2| shrinks under refinement
    errs = []
    for n, width in ((64, 0.4), (128, 0.2), (256, 0.1)):
        dom = FreeDomain((12.0,), (n,))
        phi = unit_gaussian(dom, width=1.0)
        kern = narrow_kernel(dom, width, total=1.0)
        pot = hartree_potential(phi, kern)
        dens = np.abs(phi.values) ** 2
        errs.append(np.max(np.abs(pot.values.real - dens)))
    assert errs[0] > errs[1] > errs[2]
    # kernel mass is fixed, so the error decays at second order in the width
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_hartree_potential_shift_equivariance_and_positivity(narrow_kernel):
    dom = FreeDomain((16.0,), (128,))
    x = dom.axis_nodes(0)
    phi = unit_gaussian(dom, width=0.8)
    phi = phi.copy_with(np.where(np.abs(x) <= 3.0, phi.values, 0.0))
    kern = narrow_kernel(dom, 0.5, total=2.0)
    kern = kern.copy_with(np.where(np.abs(x) <= 2.0, kern.values, 0.0))
    pot = hartree_potential(phi, kern)
    assert np.min(pot.values.real) >= -1e-14

    # compact supports keep the shifted convolution inside the crop window,
    # so integer-cell equivariance is exact
    shift = 9
    phi_s = phi.copy_with(np.roll(phi.values, shift))
    pot_s = hartree_potential(phi_s, kern)
    assert np.max(np.abs(pot_s.values - np.roll(pot.values, shift))) < 1e-12


@pytest.mark.parametrize("shape", [(16,), (64,), (16, 16)])
def test_hartree_potential_matches_direct_linear_convolution(shape):
    # out(x_i) = h^d sum_j w(x_i - x_j) |phi(x_j)|^2, the kernel sampled at the
    # signed differences: kernel node k holds w((k - n/2) h) on every axis
    dom = FreeDomain((8.0,) * len(shape), shape)
    rng = np.random.default_rng(5)
    phi = GridFunction(dom, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    xs = dom.meshgrid()
    r2 = sum(x**2 for x in xs)
    # a lopsided bump inside |x| < 3, so a kernel flipped about 0 shows
    kern = GridFunction(dom, np.where(r2 < 9.0, (1.0 - r2 / 9.0) ** 2 * (1.0 + 0.3 * xs[0]), 0.0))
    dens = np.abs(phi.values) ** 2
    expected = np.zeros(shape)
    for i in np.ndindex(*shape):
        for j in np.ndindex(*shape):
            k = tuple(a - b + n // 2 for a, b, n in zip(i, j, shape))
            if all(0 <= kk < n for kk, n in zip(k, shape)):
                expected[i] += kern.values.real[k] * dens[j]
    expected *= dom.cell_volume
    pot = hartree_potential(phi, kern).values
    assert np.max(np.abs(pot - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_package_import_leaves_scipy_signal_unloaded():
    # the mean-field convolution goes through numpy.fft, not scipy.signal
    import confinedbose

    src = os.path.dirname(os.path.dirname(confinedbose.__file__))
    code = "import sys, confinedbose, confinedbose.cli; print('scipy.signal' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"


def test_package_import_loads_no_fft_quadrature_or_optimizer_module():
    # the package needs numpy and scipy.linalg only: the trace distance's
    # Lanczos iteration loads no scipy.sparse (ARPACK's wrappers among it),
    # and the Coulomb quadratures import scipy.integrate when they run
    import confinedbose

    src = os.path.dirname(os.path.dirname(confinedbose.__file__))
    heavy = ["scipy.fft", "scipy.integrate", "scipy.optimize", "scipy.special", "scipy.signal",
             "scipy.sparse"]
    code = ("import sys, confinedbose, confinedbose.cli; "
            f"print([name for name in {heavy!r} if name in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_hartree_potential_rejects_wide_kernel():
    dom = FreeDomain((8.0,), (64,))
    phi = unit_gaussian(dom)
    wide = GridFunction(dom, np.ones(64))
    with pytest.raises(GuardError):
        hartree_potential(phi, wide)


def linear_spec(free, confined, n=2):
    off = InteractionProfile("gaussian-bump", amplitude=0.0, radius=1.0, sigma=0.3)
    return hartree_spec(free, confined, off, n=n)


def test_free_dispersion_matches_analytic_variance():
    # H = k^2 convention: Var(t) = sigma0^2 + t^2 / sigma0^2
    dom = FreeDomain((40.0,), (256,))
    confined = ConfinedDomain(UNIT_INTERVAL, (8,))
    spec = linear_spec(dom, confined)
    sigma0 = 1.0
    state = OneBodyState(unit_gaussian(dom, width=sigma0), chi_mode(confined, 0))
    states = evolve_effective(state, spec, T=1.0, dt=1e-3, stride=250)
    x = dom.axis_nodes(0)
    for st in states:
        dens = np.abs(st.phi_free.values) ** 2 * dom.cell_volume
        var = float(np.sum(x**2 * dens) - np.sum(x * dens) ** 2)
        expected = sigma0**2 + st.t**2 / sigma0**2
        assert var == pytest.approx(expected, rel=1e-4)


def test_stationary_linear_eigenstate_modulus():
    dom = FreeDomain((8.0,), (64,))
    confined = ConfinedDomain(UNIT_INTERVAL, (8,))
    spec = linear_spec(dom, confined)
    vals = np.sin(2 * np.pi * dom.axis_nodes(0) / 8.0).astype(complex)
    phi = GridFunction(dom, vals)
    phi = phi.copy_with(phi.values / norm(phi))
    state = OneBodyState(phi, chi_mode(confined, 0))
    traj = evolve_effective(state, spec, T=0.5, dt=1e-3, stride=100)
    for st in traj:
        assert np.max(np.abs(np.abs(st.phi_free.values) - np.abs(phi.values))) < 1e-9


def interacting_spec(free, confined, n=2, regime="nls-theta"):
    profile = InteractionProfile("gaussian-bump", amplitude=3.0, radius=1.5, sigma=0.5)
    if regime == "hartree-theta0":
        return hartree_spec(free, confined, profile, n=n)
    return ModelSpec(
        free=free, confined=confined, n_particles=n, interaction=profile,
        regime="nls-theta", theta=0.28, nu=0.6,
    )


# stride 1 splits every step at a snapshot; stride = steps (None below) yields
# only the initial and final states, so every inner step boundary applies the
# fused full kick
STRIDES = pytest.mark.parametrize("stride", [1, None], ids=["stride1", "stride_steps"])


def final_state(state, spec, T, dt, stride=1):
    """Last state of evolve_effective; ``stride=None`` means one stride of all steps."""
    return evolve_effective(state, spec, T, dt, stride=stride or round(T / dt))[-1]


@STRIDES
def test_time_reversal_roundtrip(stride):
    # not a guard on the kick length: any symmetric kick/phase composition is reversible
    dom = FreeDomain((16.0,), (64,))
    confined = ConfinedDomain(UNIT_INTERVAL, (8,), eps=0.5)
    spec = interacting_spec(dom, confined, regime="hartree-theta0")
    state = OneBodyState(unit_gaussian(dom, width=1.2), chi_mode(confined, 0))
    fwd = final_state(state, spec, 0.4, 2e-3, stride)
    mirrored = OneBodyState(fwd.phi_free.copy_with(np.conj(fwd.phi_free.values)),
                            fwd.mode, t=0.0)
    back = final_state(mirrored, spec, 0.4, 2e-3, stride)
    recovered = np.conj(back.phi_free.values)
    assert np.max(np.abs(recovered - state.phi_free.values)) < 1e-7


def test_mass_and_energy_conservation_and_strang_order():
    dom = FreeDomain((16.0,), (64,))
    confined = ConfinedDomain(UNIT_INTERVAL, (8,), eps=0.5)
    spec = interacting_spec(dom, confined)  # NLS, autonomous
    state = OneBodyState(unit_gaussian(dom, width=1.2), chi_mode(confined, 0))

    drifts = {}
    for dt in (1e-3, 5e-4):
        traj = evolve_effective(state, spec, T=1.0, dt=dt, stride=200)
        e0 = effective_energy(traj[0], spec)
        masses = [st.mass() for st in traj]
        assert max(abs(m - 1.0) for m in masses) < 1e-9
        drifts[dt] = max(abs(effective_energy(st, spec) - e0) for st in traj) / abs(e0)
    assert drifts[1e-3] < 1e-6
    ratio = drifts[1e-3] / drifts[5e-4]
    assert 3.5 < ratio < 4.5


@STRIDES
def test_solution_strang_order_against_reference(stride):
    # the reference splits every step, so a fused kick of the wrong length
    # shows as a first-order (or no) convergence towards it
    dom = FreeDomain((16.0,), (64,))
    confined = ConfinedDomain(UNIT_INTERVAL, (8,), eps=0.5)
    spec = interacting_spec(dom, confined)
    state = OneBodyState(unit_gaussian(dom, width=1.2), chi_mode(confined, 0))
    T = 0.25
    ref = final_state(state, spec, T, T / 1024).phi_free.values
    e1 = np.linalg.norm(final_state(state, spec, T, T / 128, stride).phi_free.values - ref)
    e2 = np.linalg.norm(final_state(state, spec, T, T / 256, stride).phi_free.values - ref)
    assert 3.5 < e1 / e2 < 4.5


def test_stride_invariance_time_dependent_potential():
    # fused and split kicks differ only at roundoff, and the midpoint phase
    # of each step does not depend on where the snapshots fall
    dom = FreeDomain((16.0,), (64,))
    confined = ConfinedDomain(UNIT_INTERVAL, (8,), eps=0.5)
    profile = InteractionProfile("gaussian-bump", amplitude=3.0, radius=1.5, sigma=0.5)
    spec = hartree_spec(dom, confined, profile, potential=ExternalPotential(
        "gaussian", amplitude=0.8, sigma=2.0, omega=3.0))
    state = OneBodyState(unit_gaussian(dom, width=1.2, momentum=(1.0,)), chi_mode(confined, 0))
    T, dt, steps = 0.1, 5e-3, 20
    every = evolve_effective(state, spec, T, dt, stride=1)
    for stride in (7, steps):
        traj = evolve_effective(state, spec, T, dt, stride=stride)
        picked = every[::stride] + ([every[-1]] if steps % stride else [])
        assert [st.t for st in traj] == [st.t for st in picked]
        for st, ref in zip(traj, picked):
            assert np.max(np.abs(st.phi_free.values - ref.phi_free.values)) < 1e-12


def test_aliasing_guard():
    dom = FreeDomain((16.0,), (64,))
    confined = ConfinedDomain(UNIT_INTERVAL, (8,))
    profile = InteractionProfile("gaussian-bump", amplitude=500.0, radius=1.5, sigma=0.5)
    spec = hartree_spec(dom, confined, profile)
    state = OneBodyState(unit_gaussian(dom, width=1.0), chi_mode(confined, 0))
    with pytest.raises(GuardError):
        evolve_effective(state, spec, T=0.2, dt=0.1)


def test_effective_energy_ground_mode_and_linearity_in_b():
    dom = FreeDomain((8.0,), (64,))
    confined = ConfinedDomain(UNIT_INTERVAL, (16,), eps=0.2)
    spec = linear_spec(dom, confined)
    k0 = 2 * np.pi / 8.0
    vals = np.exp(1j * k0 * dom.axis_nodes(0))
    phi = GridFunction(dom, vals)
    phi = phi.copy_with(phi.values / norm(phi))
    state = OneBodyState(phi, chi_mode(confined, 0))
    expected = k0**2 + np.pi**2 / 0.04
    assert effective_energy(state, spec) == pytest.approx(expected, rel=1e-12)

    # doubling the interaction amplitude doubles the interaction energy
    base = InteractionProfile("gaussian-bump", amplitude=2.0, radius=1.5, sigma=0.5)
    double = InteractionProfile("gaussian-bump", amplitude=4.0, radius=1.5, sigma=0.5)
    st = OneBodyState(unit_gaussian(dom, width=1.0), chi_mode(confined, 0))
    e_lin = effective_energy(st, linear_spec(dom, confined))
    e1 = effective_energy(st, hartree_spec(dom, confined, base))
    e2 = effective_energy(st, hartree_spec(dom, confined, double))
    assert e2 - e_lin == pytest.approx(2 * (e1 - e_lin), rel=1e-12)


def test_sup_norms_constant_product_and_oracle():
    dom = FreeDomain((4.0, 4.0), (16, 16))
    confined = ConfinedDomain(UNIT_INTERVAL, (12,))
    const = GridFunction(dom, np.ones(dom.shape, dtype=complex))
    const = const.copy_with(const.values / norm(const))
    state = OneBodyState(const, chi_mode(confined, 0))
    sup_phi, sup_big_phi, _ = sup_norms(state)
    vol = 16.0
    assert sup_big_phi == pytest.approx(vol**-0.5, rel=1e-12)
    chi_sup = float(np.max(np.abs(state.mode.chi.values)))
    assert sup_phi == pytest.approx(sup_big_phi * chi_sup, rel=1e-12)

    # direct spectral-sum oracle on a single Fourier mode times the ground mode
    k0 = 2 * np.pi / 4.0
    xs = dom.meshgrid()
    mode_vals = np.exp(1j * k0 * xs[0])
    phi = GridFunction(dom, mode_vals)
    phi = phi.copy_with(phi.values / norm(phi))
    st2 = OneBodyState(phi, chi_mode(confined, 0))
    _, _, h2_mode = sup_norms(st2)
    kappa = np.pi**2  # ground Dirichlet eigenvalue on width 1
    assert h2_mode == pytest.approx(1.0 + k0**2 + kappa, rel=1e-10)


def test_hartree_to_nls_narrow_kernel_consistency():
    # fixed total coupling, shrinking kernel width: Hartree -> NLS trajectory
    dom = FreeDomain((16.0,), (128,))
    confined = ConfinedDomain(UNIT_INTERVAL, (16,))
    b_target = 1.0
    raw = InteractionProfile("gaussian-bump", amplitude=1.0, radius=1.0, sigma=0.25)
    amp = b_target / (1.5 * raw.integral3())
    nls_profile = InteractionProfile("gaussian-bump", amplitude=amp, radius=1.0, sigma=0.25)
    nls_spec = ModelSpec(
        free=dom, confined=confined, n_particles=2, interaction=nls_profile,
        regime="nls-theta", theta=0.28, nu=0.6,
    )
    phi0 = unit_gaussian(dom, width=1.0)
    state = OneBodyState(phi0, chi_mode(confined, 0))
    target = evolve_effective(state, nls_spec, T=0.5, dt=2e-3)[-1].phi_free.values

    dists = []
    h = dom.spacings[0]
    for width in (1.0, 0.5, 0.25):
        radius = 4 * width
        g = InteractionProfile("gaussian-bump", amplitude=1.0, radius=radius, sigma=width)
        amp_w = b_target / (chi_mode(confined, 0).quartic_integral * g.integral3())
        prof = InteractionProfile("gaussian-bump", amplitude=amp_w, radius=radius, sigma=width)
        # 3d profile whose restriction to the free axis carries the mean field;
        # normalize the free-axis kernel mass to b by the same grid quadrature
        kern = mean_field_kernel(hartree_spec(dom, confined, prof))
        kern_total = float(np.sum(kern.values.real) * h)
        prof_scaled = InteractionProfile(
            "gaussian-bump", amplitude=amp_w * b_target / kern_total,
            radius=radius, sigma=width,
        )
        hs = hartree_spec(dom, confined, prof_scaled)
        final = evolve_effective(state, hs, T=0.5, dt=2e-3)[-1].phi_free.values
        dists.append(float(np.linalg.norm(final - target) * np.sqrt(h)))
    assert dists[0] > dists[1] > dists[2]
