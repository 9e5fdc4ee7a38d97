"""Exact N-particle dynamics: kernels, unitarity, factorization, energy."""

import itertools
import math
import sys

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from confinedbose import counting as cnt
from confinedbose import grids, manybody
from confinedbose.counting import alpha, compute_report, trace_distance
from confinedbose.errors import ConfigError, GuardError, InvariantError
from confinedbose.grids import (
    ConfinedDomain,
    FreeDomain,
    GridFunction,
    ProductDomain,
    axis_groups,
    axis_operators,
    kinetic_trace,
    norm,
)
from confinedbose.manybody import (
    ManyBodyState,
    OneBodyDensity,
    _apply_phases,
    _transposition_residual,
    density_matrix,
    evolve_manybody,
    manybody_energy,
    product_state,
    symmetrize,
    symmetry_residual,
)
from confinedbose.model import ExternalPotential, InteractionProfile, ModelSpec
from confinedbose.onebody import OneBodyState, chi_mode, effective_energy, evolve_effective

UNIT_INTERVAL = ((-0.5, 0.5),)


def small_spec(n=2, amplitude=2.0, eps=0.5, n_f=16, n_c=3, L=8.0, potential=None):
    return ModelSpec(
        free=FreeDomain((L,), (n_f,)),
        confined=ConfinedDomain(UNIT_INTERVAL, (n_c,), eps=eps),
        n_particles=n,
        interaction=InteractionProfile("gaussian-bump", amplitude=amplitude,
                                       radius=1.5, sigma=0.5),
        regime="hartree-theta0",
        potential=potential or ExternalPotential(),
    )


def gaussian_one_body(spec, width=1.0):
    xs = spec.free.meshgrid()
    r2 = sum(x**2 for x in xs)
    phi = GridFunction(spec.free, np.exp(-r2 / (4 * width**2)))
    phi = phi.copy_with(phi.values / norm(phi))
    return OneBodyState(phi, chi_mode(spec.confined, 0))


# -- pair kernels --------------------------------------------------------------


def pair_view(spec):
    """The solver's pair matrix: the read-only view of its offset table."""
    return manybody._pair_view(manybody._pair_table(spec))


def test_pair_kernel_theta0_matches_raw_profile():
    # theta = 0, eps = 1: the raw profile at the minimum-image free offset
    spec = small_spec(eps=1.0)
    x = spec.free.axis_nodes(0)
    L = spec.free.extents[0]
    dx = (x[:, None] - x[None, :] + L / 2) % L - L / 2
    y = spec.confined.axis_nodes(0)
    dy = y[:, None] - y[None, :]
    expected = spec.interaction.radial(np.sqrt(dx[:, None, :, None] ** 2
                                               + dy[None, :, None, :] ** 2))
    assert np.max(np.abs(pair_view(spec) - expected)) < 1e-14


def test_pair_kernel_amplitude_linearity():
    k1 = manybody._pair_table(small_spec(amplitude=2.0))
    k2 = manybody._pair_table(small_spec(amplitude=4.0))
    assert np.allclose(k2, 2.0 * k1, rtol=1e-14)


@pytest.mark.parametrize("extents, free_points, confined_points", [
    pytest.param((8.0,), (16,), (3,), id="16x3"),
    pytest.param((16.0,), (64,), (4, 4), id="64x4x4"),
    pytest.param((8.0, 6.0), (16, 16), (3,), id="16x16x3"),
])
def test_pair_phase_array_matches_brute_force_sampler(extents, free_points, confined_points,
                                                     dense_pair_kernel):
    # the support (3.1) reaches past half the box, so the wrap is exercised
    spec = ModelSpec(
        free=FreeDomain(extents, free_points),
        confined=ConfinedDomain(((-0.5, 0.5),) * len(confined_points), confined_points,
                                eps=0.4),
        n_particles=2,
        interaction=InteractionProfile("gaussian-bump", amplitude=1.3, radius=3.1, sigma=1.2),
        regime="hartree-theta0",
    )
    expected = dense_pair_kernel(spec)
    kernel = pair_view(spec)
    assert kernel.shape == (spec.free.shape + (math.prod(confined_points),)) * 2
    m = expected.shape[0]
    assert np.max(np.abs(kernel.reshape(m, m) - expected)) <= 1e-15 * np.max(np.abs(expected))


def nls_spec(n, theta, eps, L=16.0, n_f=128, n_c=8):
    return ModelSpec(
        free=FreeDomain((L,), (n_f,)),
        confined=ConfinedDomain(((-0.5, 0.5), (-0.5, 0.5)), (n_c, n_c), eps=eps),
        n_particles=n,
        interaction=InteractionProfile("gaussian-bump", amplitude=1.7,
                                       radius=1.6, sigma=0.4),
        regime="nls-theta",
        theta=theta,
    )


def relative_integral(spec):
    """Grid quadrature of the sampled kernel over the relative coordinates.

    Each relative offset is taken once: any fixed free row (x_0 - x_j runs
    over every minimum image) and, on each confined axis, offset d from the
    entry [max(d, 0), max(-d, 0)].
    """
    dom = spec.domain
    kernel = pair_view(spec)[0].reshape(dom.shape[1:] + dom.shape)  # one free axis
    offsets = np.meshgrid(*(np.arange(-(n - 1), n) for n in spec.confined.points),
                          indexing="ij")
    rows = tuple(np.maximum(d, 0) for d in offsets)
    cols = tuple(np.maximum(-d, 0) for d in offsets)
    picked = kernel[rows + (slice(None),) + cols]
    return float(np.sum(picked)) * spec.free.cell_volume * spec.confined.cell_volume


def test_scaled_kernel_integral_change_of_variables_oracle():
    # grid quadrature of the scaled kernel equals the R^3 integral of w,
    # independently of (N, theta) and eps; radial quadrature is the oracle.
    # parameters keep the scaled support inside the confined difference set;
    # the free box of 4 (spacing 1/8) exceeds twice the scaled support, so a
    # larger box only adds zero samples, and it keeps the m^2 kernel small
    eps = 0.9
    expected = nls_spec(8, 0.30, eps).interaction.integral3()
    vals = []
    for n, theta in ((8, 0.30), (12, 0.28)):
        vals.append(relative_integral(nls_spec(n, theta, eps, L=4.0, n_f=32)))
    assert vals[0] == pytest.approx(expected, rel=5e-3)
    assert vals[1] == pytest.approx(expected, rel=5e-3)
    assert vals[0] == pytest.approx(vals[1], rel=5e-3)


def test_resolvability_guard():
    spec = nls_spec(40, 0.32, 0.1, n_f=16, n_c=2)
    with pytest.raises(GuardError, match="under-resolved"):
        manybody._pair_table(spec)


# -- symmetrization ------------------------------------------------------------


def two_orthonormal_modes(spec):
    x = spec.free.axis_nodes(0)
    chi = chi_mode(spec.confined, 0).chi.values
    L = spec.free.extents[0]
    a = GridFunction(spec.free, np.exp(2j * np.pi * x / L))
    b = GridFunction(spec.free, np.exp(-2j * np.pi * x / L))
    phi = np.multiply.outer(a.values / norm(a), chi)
    phi_perp = np.multiply.outer(b.values / norm(b), chi)
    return phi, phi_perp


def test_symmetrize_identity_on_symmetric_input():
    # projection idempotence: an already-symmetric state is left unchanged
    spec = small_spec()
    phi, phi_perp = two_orthonormal_modes(spec)
    sym = np.multiply.outer(phi, phi_perp) + np.multiply.outer(phi_perp, phi)
    state = symmetrize(spec.domain, sym)
    again = symmetrize(spec.domain, state.values)
    assert np.max(np.abs(again.values - state.values)) < 1e-12


@pytest.mark.parametrize("n, shape", [(2, (4,)), (3, (4,)), (4, (4,)), (5, (4,)),
                                      (3, (16, 3))])
def test_permutation_average_matches_all_orders(n, shape, literal_sums):
    # the coset product of n(n-1)/2 transpositions against the n!-term sum:
    # one axis per particle, and the (free, confined) blocks of a grid state
    rng = np.random.default_rng(10 * n + len(shape))
    size = shape * n
    raw = rng.normal(size=size) + 1j * rng.normal(size=size)
    block = len(shape)
    got = manybody._permutation_average(raw, n, block)
    expected = literal_sums.permutation_average(raw, n, block)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
    unit = got / np.linalg.norm(got.ravel())
    assert _transposition_residual(unit, n, block) <= 1e-15


def test_symmetrize_two_term_average():
    spec = small_spec()
    phi, phi_perp = two_orthonormal_modes(spec)
    state = symmetrize(spec.domain, np.multiply.outer(phi, phi_perp))
    expected = (np.multiply.outer(phi, phi_perp) + np.multiply.outer(phi_perp, phi))
    expected = expected / (np.linalg.norm(expected.ravel()) * np.sqrt(spec.domain.cell_volume**2))
    assert np.max(np.abs(state.values - expected)) < 1e-12
    assert state.mass() == pytest.approx(1.0, abs=1e-12)


def test_symmetrize_rejects_antisymmetric():
    spec = small_spec()
    phi, phi_perp = two_orthonormal_modes(spec)
    anti = np.multiply.outer(phi, phi_perp) - np.multiply.outer(phi_perp, phi)
    with pytest.raises(ConfigError, match="vanishes"):
        symmetrize(spec.domain, anti)


def transposition_residuals(values, n, block):
    """{(i, j): ||values - sigma_ij values||}, one explicit np.transpose per pair."""
    out = {}
    for i, j in itertools.combinations(range(n), 2):
        order = list(range(n))
        order[i], order[j] = j, i
        swapped = np.transpose(values, [b * block + a for b in order for a in range(block)])
        out[i, j] = float(np.linalg.norm((values - swapped).ravel()))
    return out


@pytest.mark.parametrize("block", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_transposition_residual_matches_brute_force(n, block):
    # every pair (i, j) of n = 2..5 hits each (m^i, m^(j-i-1), m^(n-j-1))
    # layout, including an empty right part and a non-empty middle one
    rng = np.random.default_rng(10 * n + block)
    shape = ((4,), (3, 2))[block - 1] * n
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    expected = max(transposition_residuals(values, n, block).values())
    assert _transposition_residual(values, n, block) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_transposition_residual_sees_non_adjacent_pair(n):
    # a (x) c .. c (x) b - b (x) c .. c (x) a is antisymmetric in (0, n-1):
    # residual 2 sqrt(2) there, 2 or 0 on every other pair
    a, b, c = np.linalg.qr(np.random.default_rng(n).normal(size=(5, 3)))[0].T
    middle = np.ones(())
    for _ in range(n - 2):
        middle = np.multiply.outer(middle, c)
    values = (np.multiply.outer(np.multiply.outer(a, middle), b)
              - np.multiply.outer(np.multiply.outer(b, middle), a))
    pairs = transposition_residuals(values, n, 1)
    assert pairs[0, n - 1] == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)
    assert max(r for pair, r in pairs.items() if pair != (0, n - 1)) < 2.0 + 1e-12
    assert _transposition_residual(values, n, 1) == pytest.approx(pairs[0, n - 1], rel=1e-12)


# -- dynamics ------------------------------------------------------------------

# stride 1 splits every step at a snapshot; stride = steps (None below) yields
# only the initial and final states, so every inner step boundary applies the
# fused full kick
STRIDES = pytest.mark.parametrize("stride", [1, None], ids=["stride1", "stride_steps"])


def fresh(state):
    """A state over a copy of ``state``'s values, for the evolver to consume."""
    return ManyBodyState(state.domain, state.values.copy(), state.t)


def kept(snapshots):
    """Copies of every lent snapshot: a trajectory that outlives the run."""
    return [fresh(st) for st in snapshots]


def final_state(psi0, spec, T, dt, stride=1):
    """Last snapshot of evolve_manybody on a copy of ``psi0``, which stays
    valid; ``stride=None`` means one stride of all steps."""
    return list(evolve_manybody(fresh(psi0), spec, T, dt, stride=stride or round(T / dt)))[-1]


@pytest.mark.parametrize("n", [2, 3])
def test_noninteracting_factorization(n):
    spec = small_spec(n=n, amplitude=0.0)
    one0 = gaussian_one_body(spec)
    psi0 = product_state(one0, n)
    T, dt = 0.2, 5e-3
    manys = evolve_manybody(psi0, spec, T, dt, stride=20)
    ones = evolve_effective(one0, spec, T, dt, stride=20)
    e0 = one0.mode.energy_eps
    for mb, ob in zip(manys, ones):
        phi_t = ob.product_values() * np.exp(-1j * e0 * ob.t)
        phi_t = phi_t / (np.linalg.norm(phi_t.ravel()) * np.sqrt(spec.domain.cell_volume))
        expected = phi_t
        for _ in range(n - 1):
            expected = np.multiply.outer(expected, phi_t)
        err = np.linalg.norm((mb.values - expected).ravel()) * np.sqrt(mb.cell_volume)
        assert err < 1e-7


def dense_hamiltonian(spec, analytic_kinetic, dense_pair_kernel):
    """Explicit matrix of the two-particle Hamiltonian (CN oracle input).

    The one-body kinetic block comes from the analytic eigenbasis, not from
    the per-axis operators the solver uses, and the pair kernel from the
    brute-force sampler, not from the offset table the solver uses.
    """
    dom = spec.domain
    m = int(np.prod(dom.shape))
    k_one = analytic_kinetic(dom, lambda lam: lam)
    h = np.kron(k_one, np.eye(m)) + np.kron(np.eye(m), k_one)
    h += spec.pair_prefactor * np.diag(dense_pair_kernel(spec).ravel())
    if not spec.potential.is_zero:
        v_one = spec.potential.values(0.0, dom).ravel()
        h += np.diag(np.add.outer(v_one, v_one).ravel())
    return h


@STRIDES
def test_two_particle_matches_crank_nicolson_oracle(stride, analytic_kinetic, dense_pair_kernel):
    # three confined points: at two, the DST-I and DST-II bases coincide up to
    # scale, so the oracle could not tell the confined transform type.  The
    # 8-point free axis keeps the dense CN solve at a few seconds; L = 4 keeps
    # its spacing within the interaction's resolvability guard.
    spec = small_spec(n=2, amplitude=2.0, n_f=8, n_c=3, L=4.0,
                      potential=ExternalPotential("gaussian", amplitude=0.8, sigma=2.0))
    one0 = gaussian_one_body(spec)
    psi0 = product_state(one0, 2)
    T = 0.2
    final = final_state(psi0, spec, T, 1e-3, stride)

    h = dense_hamiltonian(spec, analytic_kinetic, dense_pair_kernel)
    dt = 5e-5
    steps = round(T / dt)
    m2 = h.shape[0]
    a = np.eye(m2) + 0.5j * dt * h
    b = np.eye(m2) - 0.5j * dt * h
    lu = lu_factor(a)
    v = psi0.values.ravel().copy()
    for _ in range(steps):
        v = lu_solve(lu, b @ v)
    err = np.linalg.norm(final.values.ravel() - v) * np.sqrt(final.cell_volume)
    assert err < 1e-4


@STRIDES
def test_time_reversal_two_particles(stride):
    # not a guard on the kick length: any symmetric kick/phase composition is reversible
    spec = small_spec(n=2, amplitude=2.0)
    psi0 = product_state(gaussian_one_body(spec), 2)
    fwd = final_state(psi0, spec, 0.3, 2e-3, stride)
    mirrored = ManyBodyState(spec.domain, np.conj(fwd.values), 0.0)
    back = final_state(mirrored, spec, 0.3, 2e-3, stride)
    err = np.linalg.norm((np.conj(back.values) - psi0.values).ravel())
    assert err * np.sqrt(psi0.cell_volume) < 1e-6


def test_symmetry_preserved_and_mass_energy_conserved():
    spec = small_spec(n=3, amplitude=2.0, n_f=16, n_c=2)
    psi0 = product_state(gaussian_one_body(spec), 3)
    traj = kept(evolve_manybody(psi0, spec, 1.0, 1e-3, stride=200))
    e0 = manybody_energy(traj[0], spec)
    for st in traj:
        assert abs(st.mass() - 1.0) < 1e-9
        assert symmetry_residual(st) < 1e-8
        assert abs(manybody_energy(st, spec) - e0) < 1e-6 * abs(e0)


@STRIDES
def test_manybody_strang_order(stride):
    # the reference splits every step, so a fused kick of the wrong length
    # shows as a first-order (or no) convergence towards it
    spec = small_spec(n=2, amplitude=3.0)
    psi0 = product_state(gaussian_one_body(spec), 2)
    T = 0.25
    ref = final_state(psi0, spec, T, T / 1024).values
    e1 = np.linalg.norm((final_state(psi0, spec, T, T / 128, stride).values - ref).ravel())
    e2 = np.linalg.norm((final_state(psi0, spec, T, T / 256, stride).values - ref).ravel())
    assert 3.5 < e1 / e2 < 4.5


def test_stride_invariance_time_dependent_potential():
    # fused and split kicks differ only at roundoff, and the midpoint phase
    # of each step does not depend on where the snapshots fall
    spec = small_spec(n=3, amplitude=2.0, n_f=16, n_c=2,
                      potential=ExternalPotential("gaussian", amplitude=0.8, sigma=2.0, omega=3.0))
    psi0 = product_state(gaussian_one_body(spec), 3)
    T, dt, steps = 0.1, 5e-3, 20
    every = kept(evolve_manybody(fresh(psi0), spec, T, dt, stride=1))
    for stride in (7, steps):
        traj = kept(evolve_manybody(fresh(psi0), spec, T, dt, stride=stride))
        picked = every[::stride] + ([every[-1]] if steps % stride else [])
        assert [st.t for st in traj] == [st.t for st in picked]
        for st, ref in zip(traj, picked):
            assert np.max(np.abs(st.values - ref.values)) < 1e-12


def test_product_energy_matches_effective_without_interaction():
    spec = small_spec(n=3, amplitude=0.0)
    one0 = gaussian_one_body(spec)
    psi0 = product_state(one0, 3)
    assert manybody_energy(psi0, spec) == pytest.approx(
        effective_energy(one0, spec), rel=1e-10
    )


def test_interaction_energy_scaling():
    spec1 = small_spec(n=2, amplitude=2.0)
    spec2 = small_spec(n=2, amplitude=6.0)
    spec0 = small_spec(n=2, amplitude=0.0)
    psi0 = product_state(gaussian_one_body(spec1), 2)
    e0 = manybody_energy(psi0, spec0)
    e1 = manybody_energy(psi0, spec1)
    e2 = manybody_energy(psi0, spec2)
    assert e2 - e0 == pytest.approx(3.0 * (e1 - e0), rel=1e-12)


# one merged axis (16 x 3 -> 48) and two (16 x 4 x 4 -> 64 | 4, 8 x 3 x 3 -> 24 | 3)
ONE_GROUP = dict(free=FreeDomain((12.0,), (16,)),
                 confined=ConfinedDomain(UNIT_INTERVAL, (3,), eps=0.2))
TWO_GROUPS_M256 = dict(free=FreeDomain((12.0,), (16,)),
                       confined=ConfinedDomain(UNIT_INTERVAL * 2, (4, 4), eps=0.66))
TWO_GROUPS_M72 = dict(free=FreeDomain((6.0,), (8,)),
                      confined=ConfinedDomain(UNIT_INTERVAL * 2, (3, 3), eps=0.5))


def symmetric_random_state(dom, n, rng, t, terms=4):
    """sum_j c_j u_j^(x)n for random one-body u_j: symmetric by construction."""
    acc = 0.0
    for _ in range(terms):
        u = rng.normal(size=dom.shape) + 1j * rng.normal(size=dom.shape)
        term = u
        for _ in range(n - 1):
            term = np.multiply.outer(term, u)
        acc = acc + (rng.normal() + 1j * rng.normal()) * term
    acc /= np.linalg.norm(acc.ravel()) * np.sqrt(dom.cell_volume**n)
    return ManyBodyState(dom, acc, t)


@pytest.mark.parametrize("potential", [None, ExternalPotential("gaussian", 0.5, 2.0, 1.0)],
                         ids=["no-potential", "gaussian-potential"])
@pytest.mark.parametrize("grid, n, groups", [
    pytest.param(ONE_GROUP, 2, 1, id="16x3-N2"),
    pytest.param(ONE_GROUP, 3, 1, id="16x3-N3"),
    pytest.param(ONE_GROUP, 4, 1, id="16x3-N4"),
    pytest.param(TWO_GROUPS_M256, 2, 2, id="16x4x4-N2"),
    pytest.param(TWO_GROUPS_M72, 3, 2, id="8x3x3-N3"),
])
def test_density_matrix_route_matches_sweeps(grid, n, groups, potential, direct_sweeps,
                                             grid_routes):
    # tr(K gamma) over partial traces, the energy and <q_1 psi, h~ q_1 psi>
    # against direct sweeps over psi and q_1 psi
    spec = ModelSpec(n_particles=n, regime="hartree-theta0",
                     interaction=InteractionProfile("gaussian-bump", amplitude=2.5,
                                                    radius=2.4, sigma=0.8),
                     potential=potential or ExternalPotential(), **grid)
    dom = spec.domain
    assert len(axis_groups(dom.shape)) == groups
    rng = np.random.default_rng(40 + n)
    state = symmetric_random_state(dom, n, rng, t=0.3)
    phi = rng.normal(size=dom.shape) + 1j * rng.normal(size=dom.shape)
    phi /= np.linalg.norm(phi) * np.sqrt(dom.cell_volume)
    m = phi.size

    gamma = density_matrix(state.values.reshape((m,) * n), dom.cell_volume)
    sweep = direct_sweeps.kinetic(state.values, dom) * state.cell_volume
    assert kinetic_trace(gamma, dom) == pytest.approx(sweep, rel=1e-12)
    assert manybody_energy(state, spec) == pytest.approx(
        direct_sweeps.energy(state, spec), rel=1e-12)
    assert grid_routes.grad_q(state, phi) == pytest.approx(direct_sweeps.grad_q(state, phi),
                                                          rel=1e-12)


@pytest.mark.parametrize("free, confined, groups", [
    # one confined axis: 16 | 48 (m = 768) and 32 | 3 (m = 96)
    pytest.param(FreeDomain((12.0, 12.0), (16, 16)), ConfinedDomain(UNIT_INTERVAL, (3,), eps=0.2),
                 (16, 48), id="16x16x3"),
    pytest.param(FreeDomain((8.0,), (32,)), ConfinedDomain(UNIT_INTERVAL, (3,), eps=0.5),
                 (32, 3), id="32x3"),
    # two confined axes: 64 | 16 (m = 1024) and 32 | 3 (m = 96)
    pytest.param(FreeDomain((16.0,), (64,)), ConfinedDomain(UNIT_INTERVAL * 2, (4, 4), eps=0.66),
                 (64, 16), id="64x4x4"),
    pytest.param(FreeDomain((8.0,), (16,)), ConfinedDomain(UNIT_INTERVAL * 2, (2, 3), eps=0.5),
                 (32, 3), id="16x2x3"),
])
def test_factored_density_matches_dense(free, confined, groups):
    # at N = 2 gamma is read through the state, never formed: its trace,
    # diagonal, gamma phi, tr(K gamma) and trace distance against the dense
    # density_matrix (the N >= 3 form), on a random symmetric state near phi
    assert manybody._density_is_factored(2) and not manybody._density_is_factored(3)
    dom = ProductDomain(free, confined)
    assert axis_groups(dom.shape) == groups
    m = math.prod(dom.shape)
    rng = np.random.default_rng(m)
    phi = rng.normal(size=m) + 1j * rng.normal(size=m)
    phi /= np.linalg.norm(phi)
    noise = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    noise += noise.T
    psi = 0.9 * np.outer(phi, phi) + 0.3 * noise / np.linalg.norm(noise)
    psi /= np.linalg.norm(psi) * dom.cell_volume
    gamma = OneBodyDensity(ManyBodyState(dom, psi.reshape(dom.shape * 2)))
    dense = density_matrix(psi, dom.cell_volume)

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    assert gamma.trace() == pytest.approx(np.trace(dense).real, rel=1e-12)
    assert close(gamma.diagonal(), dense.diagonal().real)
    assert close(gamma @ phi, dense @ phi)
    assert gamma.kinetic_trace() == pytest.approx(kinetic_trace(dense, dom), rel=1e-12)
    lam = np.linalg.eigvalsh(dense - np.outer(phi, np.conj(phi)))[0]
    assert lam < -1e-4  # the one negative eigenvalue
    expected = np.trace(dense).real - 1.0 - 2.0 * lam
    assert trace_distance(gamma, phi) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n_slices, k, rest, chunk_bytes", [
    # the N = 3, m = 48 gamma: 2304 columns in blocks of 341, the last of 258
    pytest.param(1, 48, 48**2, None, id="N3-m48-gamma"),
    # group slices: blocks of 341 columns within each 1000-column slice
    pytest.param(3, 48, 1000, None, id="3-slices-k48"),
    # eight chunks (of one or two blocks) added in chunk order
    pytest.param(3, 48, 1000, 1, id="3-slices-k48-8-chunks"),
    # slices of 100 columns, ten to a 1024-column block, the last block of four
    pytest.param(64, 16, 100, None, id="64-slices-k16"),
    # beyond the route bound (2k x 2k M larger than a slab): one zherk per slice
    pytest.param(2, 96, 500, None, id="2-slices-k96-zherk"),
])
def test_hermitian_sum_routes_match_dense_oracle(monkeypatch, n_slices, k, rest, chunk_bytes):
    # sum_l conj(V_l) V_l^T against psi psi^dagger per slice; scipy's zherk is
    # called only beyond k = 90, and the numpy route's gamma is exactly Hermitian
    rng = np.random.default_rng(k + rest)
    blocks = rng.normal(size=(n_slices, k, rest)) + 1j * rng.normal(size=(n_slices, k, rest))
    if chunk_bytes is not None:
        monkeypatch.setattr(manybody, "_GRAM_CHUNK_BYTES", chunk_bytes)
    zherk_calls = []
    zherk_sum = manybody._zherk_sum
    monkeypatch.setattr(manybody, "_zherk_sum",
                        lambda *args: zherk_calls.append(args) or zherk_sum(*args))
    got = manybody._hermitian_sum(blocks, 0.5)
    assert len(zherk_calls) == (1 if k > 90 else 0)
    oracle = 0.5 * sum(psi @ psi.conj().T for psi in blocks).T
    assert got.flags.f_contiguous
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    if k <= 90:
        assert np.array_equal(got, got.conj().T)


def test_factored_density_of_a_lent_snapshot_fails_once_released():
    # the factored gamma reads the snapshot at every call: after the next
    # snapshot is requested it fails instead of reading the next state
    spec = small_spec(n=2)
    snapshots = evolve_manybody(product_state(gaussian_one_body(spec), 2), spec, 0.02, 1e-2)
    gamma = OneBodyDensity(next(snapshots))
    mass = gamma.trace()
    phi = np.ones(gamma.diagonal().size)
    later = OneBodyDensity(next(snapshots))
    for read in (gamma.trace, gamma.diagonal, gamma.kinetic_trace, lambda: gamma @ phi):
        with pytest.raises(AttributeError):
            read()
    assert later.trace() == pytest.approx(mass, rel=1e-12)


def test_kinetic_trace_taken_once_per_snapshot(monkeypatch):
    # the energy and the report share the snapshot's tr(K gamma): at N = 2
    # one group reduction per merged axis (32 | 3 here) and snapshot, not two
    spec = small_spec(n=2, n_f=32)
    groups = axis_groups(spec.domain.shape)
    assert len(groups) == 2
    one = gaussian_one_body(spec)
    calls = []
    reduce = manybody._group_density

    def counted(rows, sizes, g, scale):
        calls.append(g)
        return reduce(rows, sizes, g, scale)

    monkeypatch.setattr(manybody, "_group_density", counted)
    e_phi = effective_energy(one, spec)
    for k, snap in enumerate(evolve_manybody(product_state(one, 2), spec, 0.02, 1e-2)):
        e_psi, _, gamma = manybody._energy_and_residual(snap, spec)
        compute_report(snap, one, e_psi, e_phi, gamma)
        assert calls == list(range(len(groups))) * (k + 1)


def test_factored_density_is_never_formed(monkeypatch):
    # at N = 2 (m = 48) a snapshot's energy and counting report, the trace
    # distance included, read gamma through the state: no dense form is made
    spec = small_spec(n=2)
    assert math.prod(spec.domain.shape) == 48
    calls = []
    dense = manybody.density_matrix

    def counted(*args):
        calls.append(args)
        return dense(*args)

    monkeypatch.setattr(manybody, "density_matrix", counted)
    one = gaussian_one_body(spec)
    e_phi = effective_energy(one, spec)
    for snap in evolve_manybody(product_state(one, 2), spec, 0.02, 1e-2):
        e_psi, _, gamma = manybody._energy_and_residual(snap, spec)
        compute_report(snap, one, e_psi, e_phi, gamma)
    assert calls == []


def test_memory_guard():
    spec = small_spec(n=2)
    psi0 = product_state(gaussian_one_body(spec), 2)
    with pytest.raises(GuardError, match="cap"):
        evolve_manybody(psi0, spec, 0.1, 1e-2, memory_cap=1000)


def test_nan_states_are_refused():
    # NaN compares False with every tolerance, so each state guard reads
    # `not value <= tol`: a NaN Phi, psi or phi is refused, not run to NaN rows
    spec = small_spec(n=2)
    one = gaussian_one_body(spec)
    nan_free = one.phi_free.copy_with(np.full_like(one.phi_free.values, np.nan))
    with pytest.raises(ConfigError, match="normalized"):
        OneBodyState(nan_free, one.mode)
    nan_values = np.full_like(product_state(one, 2).values, np.nan)
    with pytest.raises(ConfigError, match="normalized"):
        evolve_manybody(ManyBodyState(spec.domain, nan_values), spec, 0.1, 1e-2)
    psi = np.zeros((4, 4), dtype=complex)
    psi[0, 0] = 1.0
    with pytest.raises(InvariantError, match="normalized"):
        alpha(psi, np.full(4, np.nan))


def test_evolver_releases_earlier_snapshots():
    # one buffer per run, whatever the stride: the input and every snapshot
    # are views of the input's array, and each is released as the next comes
    spec = small_spec(n=2)
    for stride in (1, 3):
        psi0 = product_state(gaussian_one_body(spec), 2)
        buffer = psi0.values.base
        snapshots = []
        for st in evolve_manybody(psi0, spec, 0.02 * stride, 1e-2, stride=stride):
            assert st.values.base is buffer
            snapshots.append(st)
        assert len(snapshots) == 3
        assert [st.values is None for st in snapshots] == [True, True, False]


def test_evolver_peak_above_its_input_is_a_slab(traced_peak):
    # N = 4, m = 48: an 81 MiB state stepped in place, with fused full kicks
    # between snapshots and a time-dependent potential.  Beyond its input the
    # evolver holds the pair table, small one-body arrays and, per worker,
    # either the call-time symmetry check's slab buffer (a 1/m-sized one
    # would be 1.7 MiB) or a step's slab scratch, with each further worker's
    # ufunc buffers (working_set_bytes' terms): no second state
    spec = small_spec(n=4, potential=ExternalPotential("gaussian", amplitude=0.8, sigma=2.0,
                                                       omega=3.0))
    psi0 = product_state(gaussian_one_body(spec), 4)

    def run():
        for st in evolve_manybody(psi0, spec, 0.03, 1e-2, stride=2):
            assert st.values is not None
        return st

    st, peak = traced_peak(run)
    assert st.t == pytest.approx(0.03)
    held = manybody._pair_table(spec).nbytes
    workers = grids._workers()
    scratch = workers * grids._SLAB_BYTES + (workers - 1) * manybody._UFUNC_BUFFERS
    assert peak <= scratch + held + manybody._ONE_BODY_ALLOWANCE


@pytest.mark.parametrize("stride", [1, 2])
def test_snapshots_are_lent_from_the_input_buffer(stride):
    # the input and every snapshot share one buffer; a snapshot read after the
    # next is requested fails instead of returning later values, and the last
    # survives exhaustion
    spec = small_spec(n=3, n_c=2,
                      potential=ExternalPotential("gaussian", amplitude=0.8, sigma=2.0, omega=3.0))
    one0 = gaussian_one_body(spec)
    psi0 = product_state(one0, 3)
    buffer = psi0.values
    snapshots = evolve_manybody(psi0, spec, 0.05, 1e-2, stride=stride)
    lent = []
    for st in snapshots:
        assert np.shares_memory(st.values, buffer)
        if lent:
            assert lent[-1].values is None
            with pytest.raises(AttributeError):
                lent[-1].values.copy()
        lent.append(st)
    assert len(lent) == 1 + -(-5 // stride) and lent[0] is psi0
    assert all(st.values is None for st in lent[:-1])
    assert lent[-1].t == pytest.approx(0.05) and lent[-1].mass() == pytest.approx(1.0)
    assert next(snapshots, None) is None and lent[-1].values is not None

    # the effective evolver's states stay independent of each other and of its input
    phi0 = one0.phi_free.values.copy()
    states = evolve_effective(one0, spec, 0.05, 1e-2, stride=stride)
    assert np.array_equal(one0.phi_free.values, phi0)
    for a, b in itertools.combinations(states, 2):
        assert not np.shares_memory(a.phi_free.values, b.phi_free.values)


def test_evolver_refuses_a_read_only_input():
    spec = small_spec(n=2)
    values = product_state(gaussian_one_body(spec), 2).values.copy()
    values.flags.writeable = False
    with pytest.raises(ConfigError, match="writeable"):
        evolve_manybody(ManyBodyState(spec.domain, values), spec, 0.02, 1e-2)
    transposed = ManyBodyState(spec.domain, np.ascontiguousarray(values.T).T)
    with pytest.raises(ConfigError, match="C-contiguous"):
        evolve_manybody(transposed, spec, 0.02, 1e-2)


def phases_pair_by_pair(values, n, m, phase_one, phase_pair):
    """The substep as N + C(N, 2) whole-state passes, one factor each."""
    v = values.reshape((m,) * n)
    factors = [] if phase_one is None else [(phase_one, (i,)) for i in range(n)]
    if phase_pair is not None:
        factors += [(phase_pair, pair) for pair in itertools.combinations(range(n), 2)]
    for phase, particles in factors:
        v *= phase.reshape([m if i in particles else 1 for i in range(n)])


def expand_offsets(table, shape, d_f):
    """m x m matrix W[(i, y_1), (j, y_2)] = table[(i - j) mod n, y_1, y_2].

    ``table`` has the free axes of ``shape`` (the first ``d_f``) and then
    two raveled confined axes; rows and columns are raveled C-order nodes.
    """
    nodes = np.unravel_index(np.arange(int(np.prod(shape))), shape)
    conf = np.ravel_multi_index(nodes[d_f:], shape[d_f:])
    offsets = tuple((nodes[a][:, None] - nodes[a][None, :]) % shape[a] for a in range(d_f))
    return table[offsets + (conf[:, None], conf[None, :])]


@pytest.mark.parametrize("with_potential", [False, True], ids=["pairs", "potential-and-pairs"])
@pytest.mark.parametrize("n, shape, d_f, block_rows, blocks, rows", [
    pytest.param(1, (16, 3), 1, None, 1, 48, id="N1"),
    pytest.param(2, (16, 3), 1, None, 1, 48, id="N2"),
    # a budget of 27 rows: nine free coordinates' 3 rows, then the other 21
    pytest.param(3, (16, 3), 1, 27, 2, 27, id="N3-27-and-21-rows"),
    pytest.param(4, (16, 3), 1, None, 48, 1, id="N4-one-row-each"),
    # budgets of 24 and 7 rows: one free coordinate's 16 rows, two second-axis
    # coordinates' 6 rows, not blocks that end partway through a coordinate
    pytest.param(2, (64, 4, 4), 1, 24, 64, 16, id="N2-64x4x4-24-rows"),
    pytest.param(2, (16, 16, 3), 2, 7, 128, 6, id="N2-16x16x3-7-rows"),
    # two free axes at N = 3: the pair (1, 2) through a d_f = 2 view; a
    # budget of 6 rows cuts each first-axis coordinate's 8 rows into 6 + 2
    pytest.param(3, (4, 4, 2), 2, 6, 8, 6, id="N3-4x4x2-6-and-2-rows"),
])
def test_phase_walk_matches_pair_by_pair_passes(monkeypatch, n, shape, d_f, block_rows,
                                                blocks, rows, with_potential):
    # bit for bit: each element takes the same factors in the same order, the
    # pair factor from a random offset table against its m x m expansion
    m = int(np.prod(shape))
    if block_rows is not None:
        monkeypatch.setattr(grids, "_SLAB_BYTES", 16 * m ** (n - 1) * block_rows)
    walked = []

    def recorded(*args):
        for lo, hi, box in grids.row_blocks(*args):
            walked.append(hi - lo)
            yield lo, hi, box

    monkeypatch.setattr(manybody, "row_blocks", recorded)
    rng = np.random.default_rng(n)
    m_c = int(np.prod(shape[d_f:]))
    phase_one = np.exp(2j * np.pi * rng.random(m)) if with_potential else None
    table = np.exp(2j * np.pi * rng.random(shape[:d_f] + (m_c, m_c)))
    phase_pair = expand_offsets(table, shape, d_f) if n > 1 else None
    values = rng.normal(size=(m,) * n) + 1j * rng.normal(size=(m,) * n)
    expected = values.copy()
    phases_pair_by_pair(expected, n, m, phase_one, phase_pair)
    pair = manybody._pair_view(manybody._row_layout(table)) if n > 1 else None
    _apply_phases(values, n, m, phase_one, pair)
    assert np.array_equal(values, expected)
    # blocks aligned to the grid: whole trailing axes, so the last one along
    # the sliced axis may be short
    assert len(walked) == blocks and walked[0] == rows and sum(walked) == m
    assert max(walked) == rows


@pytest.mark.parametrize("shape", [(7,), (4, 3), (3, 4, 2), (2, 3, 2, 3)])
def test_row_blocks_tile_the_grid_in_order(monkeypatch, shape):
    # for every budget, each box is the contiguous raveled range lo:hi, no
    # larger than the budget, and together the boxes are 0:size in order
    size = int(np.prod(shape))
    index = np.arange(size).reshape(shape)
    for budget in range(1, size + 2):
        monkeypatch.setattr(grids, "_SLAB_BYTES", 16 * budget)
        start = 0
        for lo, hi, box in grids.row_blocks(shape, 16):
            assert lo == start and 0 < hi - lo <= budget
            assert np.array_equal(index[box].ravel(), np.arange(lo, hi))
            start = hi
        assert start == size


CRITERION_12_M48 = dict(free=FreeDomain((12.0,), (16,)),  # the ladder config's 16 x 3
                        confined=ConfinedDomain(UNIT_INTERVAL, (3,), eps=0.2))
NLS_GRID_M1024 = dict(free=FreeDomain((16.0,), (64,)),  # the NLS demo's 64 x 4 x 4
                      confined=ConfinedDomain(UNIT_INTERVAL * 2, (4, 4), eps=0.66))


@pytest.mark.parametrize("n, grid, slab", [
    pytest.param(3, CRITERION_12_M48, None, id="N3-m48"),
    # a slab of half a row of psi: every walk and norm sum in small blocks
    pytest.param(3, CRITERION_12_M48, 16 * 48**2 // 2, id="N3-m48-half-row-slab"),
    pytest.param(2, NLS_GRID_M1024, None, id="N2-m1024"),
])
def test_slab_walks_same_to_the_bit_at_any_worker_count(monkeypatch, split_walks,
                                                       n, grid, slab):
    # every walk split by grids._walk_in_parts, on a state of several slabs,
    # at W = 1, 2 and 5: the written arrays equal, the sums to the last bit.
    # gamma (N = 3) or its largest group-reduced matrix (N = 2) in chunks of
    # a slab, so in eight chunks, whose count does not follow W
    spec = ModelSpec(n_particles=n, regime="hartree-theta0",
                     interaction=InteractionProfile("gaussian-bump", amplitude=2.5,
                                                    radius=2.4, sigma=0.8), **grid)
    if slab is not None:
        monkeypatch.setattr(grids, "_SLAB_BYTES", slab)
    monkeypatch.setattr(manybody, "_GRAM_CHUNK_BYTES", grids._SLAB_BYTES)
    dom = spec.domain
    m = math.prod(dom.shape)
    rng = np.random.default_rng(80 + n)
    state = symmetric_random_state(dom, n, rng, t=0.0)
    assert state.values.nbytes > 4 * grids._SLAB_BYTES
    phi = rng.normal(size=m) + 1j * rng.normal(size=m)
    phi /= np.linalg.norm(phi)
    phase_one = np.exp(2j * np.pi * rng.random(m))
    table = manybody._pair_table(spec)
    pair = manybody._pair_view(np.exp(1j * table))
    kicks = axis_operators(dom, lambda mult: np.exp(-0.5j * 1e-2 * mult)) * n

    def walks():
        kicked = state.values.copy().reshape(axis_groups(dom.shape) * n)
        for axis, kick in enumerate(kicks):
            grids.apply_along(kicked, kick, axis, out=kicked)
        phased = state.values.copy()
        _apply_phases(phased, n, m, phase_one, pair)
        if n > 2:
            gamma = density_matrix(state.values.reshape((m,) * n), dom.cell_volume)
        else:
            gamma = manybody._group_density(state.values.reshape(m, -1),
                                            axis_groups(dom.shape), 0, state.cell_volume)
        sums = [_transposition_residual(state.values, n, len(dom.shape)),
                manybody._pair_expectation(state, spec),
                *cnt._sector_weights(state.values.reshape((m,) * n), phi),
                *gamma.real.ravel(), *gamma.imag.ravel()]
        return kicked, phased, [float(x).hex() for x in sums]

    pool = split_walks(1)
    plain = walks()
    assert pool.submitted == 0
    pool = split_walks(2)
    split = walks()
    assert pool.submitted > 0  # the walks did leave the calling thread
    # five parts on four threads, more than the cores of a small machine,
    # switching threads often: a lost or crossed block write would show
    pool = split_walks(5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        crowded = walks()
    finally:
        sys.setswitchinterval(interval)
    assert pool.submitted > 0
    for other in (split, crowded):
        assert np.array_equal(other[0], plain[0]) and np.array_equal(other[1], plain[1])
        assert other[2] == plain[2]


@pytest.mark.parametrize("n, grid, slab", [
    pytest.param(2, NLS_GRID_M1024, None, id="N2-m1024"),
    pytest.param(3, CRITERION_12_M48, None, id="N3-m48"),
    pytest.param(3, CRITERION_12_M48, 16 * 48**2 // 2, id="N3-m48-half-row-slab"),
])
def test_only_the_walks_that_scale_leave_the_calling_thread(monkeypatch, split_walks,
                                                           n, grid, slab):
    # at W = 2 on a state of several slabs, the occupation chain (its norms
    # summed over slabs, also slabs of half a row) and the pair energy submit
    # nothing to the pool, nor does an N = 2 symmetry check (one
    # transposition); an N = 3 check walks its three transpositions in two parts
    spec = ModelSpec(n_particles=n, regime="hartree-theta0",
                     interaction=InteractionProfile("gaussian-bump", amplitude=2.5,
                                                    radius=2.4, sigma=0.8), **grid)
    if slab is not None:
        monkeypatch.setattr(grids, "_SLAB_BYTES", slab)
    dom = spec.domain
    m = math.prod(dom.shape)
    rng = np.random.default_rng(90 + n)
    state = symmetric_random_state(dom, n, rng, t=0.0)
    assert state.values.nbytes > 4 * grids._SLAB_BYTES
    phi = rng.normal(size=m) + 1j * rng.normal(size=m)
    pool = split_walks(2)
    cnt._sector_weights(state.values.reshape((m,) * n), phi / np.linalg.norm(phi))
    manybody._pair_expectation(state, spec)
    assert pool.submitted == 0
    _transposition_residual(state.values, n, len(dom.shape))
    assert pool.submitted == (1 if n > 2 else 0)


TWO_FREE_AXES_M192 = dict(free=FreeDomain((6.0, 6.0), (8, 8)),
                          confined=ConfinedDomain(UNIT_INTERVAL, (3,), eps=0.5))


@pytest.mark.parametrize("grid, n, block_rows", [
    pytest.param(TWO_GROUPS_M256, 2, 7, id="16x4x4-N2-7-rows"),
    pytest.param(TWO_FREE_AXES_M192, 2, 5, id="8x8x3-N2-5-rows"),
    pytest.param(TWO_GROUPS_M72, 3, 5, id="8x3x3-N3-5-rows"),
])
def test_pair_energy_in_row_blocks_matches_sweep(monkeypatch, grid, n, block_rows,
                                                 direct_sweeps):
    # the pair term summed over row blocks that end partway through a free
    # coordinate's rows, against vdot(psi, W_12 psi) with the expanded kernel
    spec = ModelSpec(n_particles=n, regime="hartree-theta0",
                     interaction=InteractionProfile("gaussian-bump", amplitude=2.5,
                                                    radius=2.4, sigma=0.8), **grid)
    m = int(np.prod(spec.domain.shape))
    state = symmetric_random_state(spec.domain, n, np.random.default_rng(60 + n), t=0.0)
    whole = manybody_energy(state, spec)
    monkeypatch.setattr(grids, "_SLAB_BYTES", 8 * m * block_rows)
    assert manybody_energy(state, spec) == pytest.approx(whole, rel=1e-13)
    assert whole == pytest.approx(direct_sweeps.energy(state, spec), rel=1e-12)


def test_asymmetric_input_rejected():
    spec = small_spec(n=2)
    phi, phi_perp = two_orthonormal_modes(spec)
    raw = np.multiply.outer(phi, phi_perp)
    state = ManyBodyState(spec.domain, raw / (np.linalg.norm(raw.ravel())
                                              * np.sqrt(spec.domain.cell_volume**2)))
    with pytest.raises(ConfigError, match="symmetric"):
        evolve_manybody(state, spec, 0.1, 1e-2)
    with pytest.raises(ConfigError, match="symmetric"):
        manybody_energy(state, spec)
