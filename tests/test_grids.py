"""Grid, transform and quadrature contracts."""

import numpy as np
import pytest

from confinedbose import grids
from confinedbose.grids import (
    ConfinedDomain,
    FreeDomain,
    GridFunction,
    ProductDomain,
    apply_along,
    axis_operators,
    from_spectral,
    inner_product,
    kinetic_multiplier,
    laplacian_confined,
    laplacian_free,
    norm,
    read_mfl1,
    to_spectral,
    write_mfl1,
)


def band_limited(domain, rng, max_mode=4):
    """Random smooth periodic function from low Fourier modes, as a closure."""
    dim = domain.dim
    modes = []
    for _ in range(6):
        kvec = rng.integers(-max_mode, max_mode + 1, size=dim)
        amp = rng.normal() + 1j * rng.normal()
        modes.append((kvec, amp))

    def f(*coords):
        out = np.zeros(np.broadcast(*coords).shape, dtype=complex)
        for kvec, amp in modes:
            phase = sum(
                2j * np.pi * k * x / L for k, x, L in zip(kvec, coords, domain.extents)
            )
            out = out + amp * np.exp(phase)
        return out

    return f


def sine_combo(domain, rng, max_mode=4):
    """Random finite sine combination on a confined domain, as a closure."""
    dim = domain.dim
    modes = []
    for _ in range(6):
        mvec = rng.integers(1, max_mode + 1, size=dim)
        amp = rng.normal() + 1j * rng.normal()
        modes.append((mvec, amp))

    def f(*coords):
        out = np.ones(np.broadcast(*coords).shape, dtype=complex)
        total = np.zeros_like(out)
        for mvec, amp in modes:
            term = np.ones_like(out) * amp
            for m, y, (c, d) in zip(mvec, coords, domain.intervals):
                term = term * np.sin(m * np.pi * (y - c) / (d - c))
            total = total + term
        return total

    return f


def test_laplacian_free_constant_in_kernel():
    dom = FreeDomain((5.0,), (32,))
    f = GridFunction(dom, np.ones(32))
    out = laplacian_free(f)
    assert np.max(np.abs(out.values)) < 1e-12


def test_laplacian_free_fourier_eigenfunction():
    L = 7.0
    dom = FreeDomain((L,), (64,))
    f = GridFunction.sample(dom, lambda x: np.sin(2 * np.pi * x / L))
    out = laplacian_free(f)
    expected = (2 * np.pi / L) ** 2 * f.values
    assert np.max(np.abs(out.values - expected)) < 1e-10


def fd_laplacian_periodic(values, spacings):
    """Second-order centered stencil oracle for -Delta, periodic wrap."""
    out = np.zeros_like(values)
    for axis, h in enumerate(spacings):
        plus = np.roll(values, -1, axis=axis)
        minus = np.roll(values, 1, axis=axis)
        out = out - (plus - 2 * values + minus) / h**2
    return out


@pytest.mark.parametrize("shape", [(64,), (32, 32)])
def test_laplacian_free_matches_fd_oracle_at_second_order(shape):
    rng = np.random.default_rng(7)
    errs = []
    for factor in (1, 2):
        pts = tuple(n * factor for n in shape)
        dom = FreeDomain((6.0,) * len(shape), pts)
        func = band_limited(dom, np.random.default_rng(7), max_mode=3)
        f = GridFunction.sample(dom, func)
        exact = laplacian_free(f).values
        approx = fd_laplacian_periodic(f.values, dom.spacings)
        errs.append(np.max(np.abs(exact - approx)) / np.max(np.abs(exact)))
    assert errs[0] < 0.05
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0  # O(h^2) convergence of the stencil to the spectral value


def test_laplacian_confined_ground_mode_and_eps_scaling():
    dom1 = ConfinedDomain(((0.0 - 0.5, 0.5),), (31,), eps=1.0)
    w = 1.0
    f = GridFunction.sample(dom1, lambda y: np.sin(np.pi * (y + 0.5) / w))
    out = laplacian_confined(f)
    assert np.allclose(out.values, (np.pi / w) ** 2 * f.values, atol=1e-10)

    dom01 = ConfinedDomain(((-0.5, 0.5),), (31,), eps=0.1)
    f01 = GridFunction(dom01, f.values)
    out01 = laplacian_confined(f01)
    assert np.allclose(out01.values, 100.0 * (np.pi / w) ** 2 * f.values, atol=1e-8)


def test_laplacian_confined_second_mode():
    dom = ConfinedDomain(((-0.25, 0.75),), (40,), eps=1.0)
    w = 1.0
    f = GridFunction.sample(dom, lambda y: np.sin(2 * np.pi * (y + 0.25) / w))
    out = laplacian_confined(f)
    assert np.allclose(out.values, 4 * (np.pi / w) ** 2 * f.values, atol=1e-9)


def test_inner_product_basics():
    dom = ConfinedDomain(((-0.5, 0.5),), (24,))
    rng = np.random.default_rng(3)
    f = GridFunction(dom, rng.normal(size=24) + 1j * rng.normal(size=24))
    ip = inner_product(f, f)
    assert abs(ip.imag) < 1e-12 and ip.real >= 0

    g1 = GridFunction.sample(dom, lambda y: np.sin(np.pi * (y + 0.5)))
    g2 = GridFunction.sample(dom, lambda y: np.sin(3 * np.pi * (y + 0.5)))
    assert abs(inner_product(g1, g2)) < 1e-12


def test_inner_product_matches_refined_grid_oracle():
    # band-limited integrands: refined uniform quadrature is the oracle
    L = 6.0
    rng = np.random.default_rng(11)
    coarse = FreeDomain((L,), (32,))
    fine = FreeDomain((L,), (256,))
    ffun, gfun = band_limited(coarse, rng), band_limited(coarse, rng)
    f_c = GridFunction.sample(coarse, ffun)
    g_c = GridFunction.sample(coarse, gfun)
    f_f = GridFunction.sample(fine, ffun)
    g_f = GridFunction.sample(fine, gfun)
    ip_c = inner_product(f_c, g_c)
    ip_f = inner_product(f_f, g_f)
    assert abs(ip_c - ip_f) <= 1e-8 * max(1.0, abs(ip_f))


@pytest.mark.parametrize(
    "domain",
    [
        FreeDomain((4.0, 5.0), (16, 32)),
        ConfinedDomain(((-0.5, 0.5), (-0.3, 0.7)), (9, 12)),
        ProductDomain(FreeDomain((5.0,), (16,)), ConfinedDomain(((-0.5, 0.5),), (7,), eps=0.2)),
    ],
)
def test_parseval(domain):
    rng = np.random.default_rng(5)
    vals = rng.normal(size=domain.shape) + 1j * rng.normal(size=domain.shape)
    f = GridFunction(domain, vals)
    spec = to_spectral(f)
    n_pos = norm(f)
    n_spec = float(np.linalg.norm(spec.values))
    assert abs(n_pos - n_spec) <= 1e-10 * n_pos
    back = from_spectral(spec)
    assert np.max(np.abs(back.values - f.values)) < 1e-10


def test_laplacian_free_self_adjoint():
    dom = FreeDomain((5.0, 5.0), (16, 16))
    rng = np.random.default_rng(9)
    f = GridFunction(dom, rng.normal(size=dom.shape) + 1j * rng.normal(size=dom.shape))
    g = GridFunction(dom, rng.normal(size=dom.shape) + 1j * rng.normal(size=dom.shape))
    lhs = inner_product(f, laplacian_free(g))
    rhs = inner_product(laplacian_free(f), g)
    assert abs(lhs - rhs) <= 1e-10 * norm(f) * norm(g)


def test_confined_spectrum_nonnegative_and_gap():
    dom = ConfinedDomain(((-0.5, 0.5),), (21,), eps=0.2)
    rng = np.random.default_rng(1)
    lam_min = np.inf
    for _ in range(20):
        f = GridFunction(dom, rng.normal(size=dom.shape) + 1j * rng.normal(size=dom.shape))
        rq = inner_product(f, laplacian_confined(f)).real / inner_product(f, f).real
        lam_min = min(lam_min, rq)
    gap = (np.pi / 1.0) ** 2 / 0.2**2
    assert lam_min >= gap * (1 - 1e-6)


def test_sample_rejects_nonvanishing_boundary():
    dom = ConfinedDomain(((-0.5, 0.5),), (16,))
    with pytest.raises(ValueError, match="hard wall"):
        GridFunction.sample(dom, lambda y: np.cos(np.pi * y) + 1.0)


def test_mfl1_round_trip(tmp_path):
    dom = ProductDomain(
        FreeDomain((4.0,), (16,)), ConfinedDomain(((-0.5, 0.5),), (6,), eps=0.25)
    )
    rng = np.random.default_rng(2)
    vals = rng.normal(size=dom.shape) + 1j * rng.normal(size=dom.shape)
    path = tmp_path / "state.mfl1"
    write_mfl1(path, dom, vals)
    dom2, vals2, space, npart = read_mfl1(path)
    assert dom2 == dom and space == grids.POSITION and npart == 1
    assert np.array_equal(vals, vals2)


def test_mfl1_many_particle_axis(tmp_path):
    dom = ProductDomain(
        FreeDomain((4.0,), (8,)), ConfinedDomain(((-0.5, 0.5),), (3,), eps=0.5)
    )
    rng = np.random.default_rng(4)
    shape = dom.shape * 2
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    path = tmp_path / "pair.mfl1"
    write_mfl1(path, dom, vals, n_particles=2)
    dom2, vals2, _, npart = read_mfl1(path)
    assert npart == 2 and dom2 == dom
    assert np.array_equal(vals, vals2)


def test_kinetic_multiplier_eps_weighting():
    dom = ProductDomain(
        FreeDomain((4.0,), (8,)), ConfinedDomain(((-0.5, 0.5),), (5,), eps=0.5)
    )
    weighted = kinetic_multiplier(dom)
    plain = kinetic_multiplier(dom, eps=1.0)
    # confined part scales by eps^-2, free part unchanged
    assert np.allclose(weighted[0], plain[0] * 4.0)
    diff = weighted - plain
    assert np.allclose(diff[:, 0], 3.0 * np.pi**2 * np.ones(8), rtol=1e-12)


@pytest.mark.parametrize("conf_points", [(3,), (4, 3)])
def test_axis_operators_match_spectral_route(conf_points):
    intervals = ((-0.5, 0.5), (-0.4, 0.6))[: len(conf_points)]
    dom = ProductDomain(
        FreeDomain((6.0,), (16,)), ConfinedDomain(intervals, conf_points, eps=0.5)
    )
    rng = np.random.default_rng(11)
    f = GridFunction(dom, rng.normal(size=dom.shape) + 1j * rng.normal(size=dom.shape))
    mult = kinetic_multiplier(dom)
    spectral = to_spectral(f)

    def spectral_route(weight):
        return from_spectral(spectral.copy_with(spectral.values * weight)).values

    expected = spectral_route(mult)
    generator = sum(apply_along(f.values, k, axis)
                    for axis, k in enumerate(axis_operators(dom, lambda m: m)))
    assert np.max(np.abs(generator - expected)) <= 1e-12 * np.max(np.abs(expected))

    tau = 0.03
    expected = spectral_route(np.exp(-1j * tau * mult))
    evolved = f.values
    for axis, u in enumerate(axis_operators(dom, lambda m: np.exp(-1j * tau * m))):
        evolved = apply_along(evolved, u, axis)
    assert np.max(np.abs(evolved - expected)) <= 1e-12 * np.max(np.abs(expected))
