"""Projector algebra, counting functionals, and their two computation routes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confinedbose import counting as cnt
from confinedbose import grids
from confinedbose.errors import ConfigError, InvariantError
from confinedbose.grids import ConfinedDomain, FreeDomain, GridFunction, ProductDomain, norm
from confinedbose.manybody import (
    _LANCZOS_BASIS,
    ManyBodyState,
    OneBodyDensity,
    _energy_and_residual,
    product_state,
    symmetrize,
)
from confinedbose.model import InteractionProfile, ModelSpec
from confinedbose.onebody import (
    OneBodyState,
    chi_mode,
    effective_energy,
    hartree_potential,
    mean_field_kernel,
)


def random_unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_symmetric(rng, dim, n):
    raw = rng.normal(size=(dim,) * n) + 1j * rng.normal(size=(dim,) * n)
    acc = np.zeros_like(raw)
    for perm in itertools.permutations(range(n)):
        acc += np.transpose(raw, perm)
    return acc / np.linalg.norm(acc.ravel())


def sharp_state(phi, perps, n):
    """Sym(phi^(n-k) (x) perp_1 ... perp_k), normalized."""
    k = len(perps)
    factors = [phi] * (n - k) + list(perps)
    raw = factors[0]
    for f in factors[1:]:
        raw = np.multiply.outer(raw, f)
    acc = np.zeros_like(raw)
    for perm in itertools.permutations(range(n)):
        acc += np.transpose(raw, perm)
    return acc / np.linalg.norm(acc.ravel())


# -- alpha / beta exactness ----------------------------------------------------


def test_alpha_beta_product_state():
    rng = np.random.default_rng(0)
    phi = random_unit(rng, 4)
    psi = phi
    for _ in range(3):
        psi = np.multiply.outer(psi, phi)
    assert cnt.alpha(psi, phi) < 1e-12
    assert cnt.beta(psi, phi) < 1e-6  # sqrt weight amplifies roundoff
    pk = cnt.occupation_distribution(psi, phi)
    assert pk[0] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_alpha_beta_sharp_occupancy_repeated(n):
    rng = np.random.default_rng(1)
    phi = random_unit(rng, 2)
    perp = random_unit(rng, 2)
    perp = perp - phi * np.vdot(phi, perp)
    perp /= np.linalg.norm(perp)
    for k in range(n + 1):
        psi = sharp_state(phi, [perp] * k, n)
        assert cnt.alpha(psi, phi) == pytest.approx(k / n, abs=1e-10)
        assert cnt.beta(psi, phi) == pytest.approx(math.sqrt(k / n), abs=1e-10)
        pk = cnt.occupation_distribution(psi, phi)
        assert pk[k] == pytest.approx(1.0, abs=1e-9)


def test_alpha_beta_sharp_occupancy_distinct_modes():
    rng = np.random.default_rng(2)
    dim, n = 6, 4
    basis = np.linalg.qr(rng.normal(size=(dim, dim))
                         + 1j * rng.normal(size=(dim, dim)))[0]
    phi = basis[:, 0]
    for k in (1, 2, 3):
        psi = sharp_state(phi, [basis[:, j + 1] for j in range(k)], n)
        assert cnt.alpha(psi, phi) == pytest.approx(k / n, abs=1e-10)
        assert cnt.beta(psi, phi) == pytest.approx(math.sqrt(k / n), abs=1e-10)


def test_alpha_two_routes_agree_and_beta_dominates():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        psi = random_symmetric(rng, 4, n)
        phi = random_unit(rng, 4)
        a = cnt.alpha(psi, phi)
        assert a == pytest.approx(cnt.alpha_density_route(psi, phi), abs=1e-10)
        # k/N <= sqrt(k/N) pointwise, so alpha <= beta
        assert a <= cnt.beta(psi, phi) + 1e-12


# -- density matrix and trace distance ----------------------------------------


def test_density_matrix_product_is_projector():
    rng = np.random.default_rng(4)
    phi = random_unit(rng, 5)
    psi = np.multiply.outer(np.multiply.outer(phi, phi), phi)
    gamma = cnt.density_matrix(psi)
    assert np.max(np.abs(gamma - np.outer(phi, np.conj(phi)))) < 1e-12


def test_density_matrix_schmidt_pair():
    rng = np.random.default_rng(5)
    phi = random_unit(rng, 4)
    perp = random_unit(rng, 4)
    perp = perp - phi * np.vdot(phi, perp)
    perp /= np.linalg.norm(perp)
    psi = (np.multiply.outer(phi, perp) + np.multiply.outer(perp, phi)) / np.sqrt(2)
    gamma = cnt.density_matrix(psi)
    evals = np.sort(np.linalg.eigvalsh(gamma))[::-1]
    assert evals[0] == pytest.approx(0.5, abs=1e-12)
    assert evals[1] == pytest.approx(0.5, abs=1e-12)
    assert abs(evals[2:]).max() < 1e-12


def test_density_matrix_matches_triple_loop_oracle():
    rng = np.random.default_rng(6)
    dim, n = 4, 3
    psi = random_symmetric(rng, dim, n)
    gamma = cnt.density_matrix(psi)
    oracle = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            for i in range(dim):
                for j in range(dim):
                    oracle[a, b] += psi[a, i, j] * np.conj(psi[b, i, j])
    assert np.max(np.abs(gamma - oracle)) < 1e-12
    # positivity and unit trace
    assert np.trace(gamma).real == pytest.approx(1.0, abs=1e-9)
    assert np.min(np.linalg.eigvalsh(gamma)) > -1e-9


def test_density_matrix_peak_is_gamma_alone(traced_peak):
    # the product A A^dagger is formed in gamma's own buffer: psi is neither
    # conjugated nor copied, and no second m^2-sized array is made
    rng = np.random.default_rng(8)
    m = 1024
    psi = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    gamma, peak = traced_peak(lambda: cnt.density_matrix(psi))
    assert peak <= 16 * m**2 + 64 * 1024
    assert np.array_equal(gamma, gamma.conj().T)
    assert np.max(np.abs(gamma - psi @ psi.conj().T)) < 1e-12 * np.max(np.abs(gamma))


def test_trace_distance_pure_states():
    rng = np.random.default_rng(7)
    phi = random_unit(rng, 4)
    perp = random_unit(rng, 4)
    perp = perp - phi * np.vdot(phi, perp)
    perp /= np.linalg.norm(perp)
    assert cnt.trace_distance(np.outer(phi, np.conj(phi)), phi) < 1e-12
    assert cnt.trace_distance(np.outer(perp, np.conj(perp)), phi) == pytest.approx(2.0, abs=1e-12)


def test_trace_sandwich_random_states():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        psi = random_symmetric(rng, 4, n)
        phi = random_unit(rng, 4)
        a = cnt.alpha(psi, phi)
        tr = cnt.trace_distance(cnt.density_matrix(psi), phi)
        assert a <= tr + 1e-9
        assert tr <= math.sqrt(8 * a) + 1e-9


def full_spectrum_trace_distance(gamma, phi):
    """Oracle: sum of |eigenvalues| of the formed difference matrix."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(gamma - np.outer(phi, np.conj(phi))))))


class CountedProducts:
    """A dense gamma that counts its products gamma @ v: not an array, so
    ``trace_distance`` takes its Lanczos route."""

    def __init__(self, gamma):
        self.gamma, self.products = gamma, 0

    def trace(self):
        return self.gamma.trace()

    def __matmul__(self, v):
        self.products += 1
        return self.gamma @ v


@pytest.mark.parametrize("m, basis", [
    pytest.param(48, None, id="48"),
    pytest.param(128, None, id="128"),
    pytest.param(1024, None, id="1024"),
    # two Lanczos vectors: the iteration restarts from its Ritz vector many times
    pytest.param(128, 2, id="128-forced-restarts"),
])
def test_trace_distance_rank_one_matches_full_spectrum(monkeypatch, m, basis):
    # an array takes the dense branch, a CountedProducts the Lanczos one, at every m
    if basis is not None:
        monkeypatch.setattr(cnt, "_LANCZOS_BASIS", basis)
    rng = np.random.default_rng(30 + m)
    phi = random_unit(rng, m)
    product = np.multiply.outer(phi, phi)
    gamma0 = cnt.density_matrix(product)
    for route in (gamma0, CountedProducts(gamma0)):
        assert cnt.trace_distance(route, phi) == pytest.approx(
            full_spectrum_trace_distance(gamma0, phi), abs=1e-12)
        assert cnt.trace_distance(route, phi) < 1e-12

    noise = random_symmetric(rng, m, 2)
    psi = 0.95 * product + 0.05 * noise
    psi /= np.linalg.norm(psi)
    gamma = cnt.density_matrix(psi)
    diff = gamma - np.outer(phi, np.conj(phi))
    evals = np.linalg.eigvalsh(diff)
    assert evals[0] < -1e-4 and evals[1] > -1e-12  # one negative eigenvalue
    counted = CountedProducts(gamma)
    tr = cnt.trace_distance(counted, phi)
    assert tr == pytest.approx(full_spectrum_trace_distance(gamma, phi), abs=1e-12)
    assert cnt.trace_distance(CountedProducts(gamma), phi) == tr  # reproducible to the bit
    assert cnt.trace_distance(gamma, phi) == pytest.approx(tr, abs=1e-12)
    if basis is not None:
        assert counted.products > 4 * basis


def test_trace_distance_above_4096_of_a_pure_state():
    # m = 8192 takes the Lanczos route on the factored N = 1 gamma = |psi><psi|,
    # whose trace distance to |phi><phi| is 2 sqrt(1 - |<phi, psi>|^2)
    dom = ProductDomain(FreeDomain((12.0, 12.0), (64, 64)),
                        ConfinedDomain(((-0.5, 0.5),), (2,), eps=0.2))
    m = math.prod(dom.shape)
    assert m == 8192
    rng = np.random.default_rng(8192)
    phi = random_unit(rng, m)
    u = 0.999 * phi + 0.05 * random_unit(rng, m)
    u /= np.linalg.norm(u)
    gamma = OneBodyDensity(ManyBodyState(dom, (u / math.sqrt(dom.cell_volume)).reshape(dom.shape)))
    expected = 2.0 * math.sqrt(1.0 - abs(np.vdot(phi, u)) ** 2)
    assert cnt.trace_distance(gamma, phi) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_trace_distance_of_a_dense_snapshot_density(monkeypatch, n):
    # the criterion-12 grid (demos/configs/ladder_theta0.json, 16 x 3, m = 48)
    # at N = 3 and 4, where a snapshot's OneBodyDensity holds the dense gamma:
    # its trace distance takes the Lanczos route, as every run's report does
    dom = ProductDomain(FreeDomain((12.0,), (16,)),
                        ConfinedDomain(((-0.5, 0.5),), (3,), eps=0.2))
    m = math.prod(dom.shape)
    assert m == 48
    rng = np.random.default_rng(40 + n)
    phi = random_unit(rng, m)
    values = np.zeros((m,) * n, dtype=np.complex128)
    for c, u in ((1.0, phi), (0.3, random_unit(rng, m)), (0.2j, random_unit(rng, m))):
        power = u
        for _ in range(n - 1):
            power = np.multiply.outer(power, u)
        power *= c
        values += power  # symmetric: a sum of product states u^(x)N
    values /= np.linalg.norm(values) * dom.cell_volume ** (n / 2)
    gamma = OneBodyDensity(ManyBodyState(dom, values.reshape(dom.shape * n)))
    dense = cnt.density_matrix(values, dom.cell_volume)
    assert np.linalg.eigvalsh(dense - np.outer(phi, np.conj(phi)))[0] < -1e-2
    runs = []
    lanczos = cnt._lanczos_min

    def counted(*args):
        runs.append(args)
        return lanczos(*args)

    monkeypatch.setattr(cnt, "_lanczos_min", counted)
    assert cnt.trace_distance(gamma, phi) == pytest.approx(
        full_spectrum_trace_distance(dense, phi), abs=1e-12)
    assert len(runs) == 1


# -- occupation routes ----------------------------------------------------------


def test_occupation_routes_agree_random():
    rng = np.random.default_rng(9)
    psi = random_symmetric(rng, 4, 3)
    phi = random_unit(rng, 4)
    fast = cnt.occupation_distribution(psi, phi)
    enum = cnt.occupation_distribution_enumeration(psi, phi)
    binom = cnt.occupation_distribution_binomial(psi, phi)
    assert np.max(np.abs(fast - enum)) < 1e-12
    assert np.max(np.abs(fast - binom)) < 1e-9
    assert np.all(fast >= -1e-12)
    assert np.sum(fast) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_binomial_chain_matches_general_routes(n):
    rng = np.random.default_rng(40 + n)
    psi = random_symmetric(rng, 4, n)
    phi = random_unit(rng, 4)
    chain = cnt.occupation_distribution_binomial(psi, phi)
    assert np.max(np.abs(chain - cnt.occupation_distribution(psi, phi))) < 1e-12
    assert np.max(np.abs(chain - cnt.occupation_distribution_enumeration(psi, phi))) < 1e-12


@pytest.mark.parametrize("shape", [(4,) * n for n in range(2, 6)] + [(48,) * 3],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_project_q_in_place_matches_project_q(shape):
    # the caller's array must hold q v: a BLAS wrapper that updated a copy
    # of the transposed view would leave it unchanged
    rng = np.random.default_rng(len(shape) + shape[0])
    phi = random_unit(rng, shape[0])
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for axis in range(len(shape)):
        v = psi.copy()
        assert cnt._project_q_in_place(v, phi, axis) is None
        assert np.max(np.abs(v - cnt.project_q(psi, phi, axis))) < 1e-12


@pytest.mark.parametrize("slab", [
    pytest.param(lambda row, m: row, id="one-row"),
    pytest.param(lambda row, m: 4 * row, id="4-rows-uneven"),
    pytest.param(None, id="one-block"),
    pytest.param(lambda row, m: row // 2, id="half-row"),
    pytest.param(lambda row, m: 5 * (row // m), id="3-slices-uneven"),
    pytest.param(lambda row, m: row // m // 2, id="under-a-slice"),
])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sector_weights_block_walk_matches_enumeration(n, slab, monkeypatch):
    # c_{N-k} is walked in row blocks, or in blocks of axis-1 slices of one
    # row when a row is larger than the slab; a slab sized from a row of
    # psi (one row; 4 + 3 rows; the default slab, all rows at once; half a
    # row, so one slice beside d_i and <phi|c0>_1; five slices, so blocks of
    # 3 + 3 + 1 slices; half a slice, so one slice past the slab) reaches
    # every layout, and the smaller c_{N-k} take several rows per block
    m = 7
    if slab is not None:
        monkeypatch.setattr(grids, "_SLAB_BYTES", slab(16 * m ** (n - 1), m))
    rng = np.random.default_rng(70 + n)
    phi = random_unit(rng, m)
    near = phi
    for _ in range(n - 1):
        near = np.multiply.outer(near, phi)
    psi = 0.3 * random_symmetric(rng, m, n) + near  # near the condensate: every sector weighs
    psi /= np.linalg.norm(psi.ravel())
    weights = cnt._sector_weights(psi, phi)
    expected = cnt.occupation_distribution_enumeration(psi, phi)
    assert np.max(np.abs(weights - expected)) < 1e-12
    assert np.all(expected > 1e-6)


def test_compute_report_does_not_copy_psi(monkeypatch, traced_peak):
    # symmetric N = 4 state on the smallest grid, 8 x 2 (m = 16), a 1 MiB
    # state with 64 KiB rows
    dom = ProductDomain(FreeDomain((8.0,), (8,)), ConfinedDomain(UNIT_INTERVAL, (2,), eps=0.5))
    m = math.prod(dom.shape)
    psi = random_symmetric(np.random.default_rng(21), m, 4) / dom.cell_volume**2
    state = ManyBodyState(dom, psi.reshape(dom.shape * 4))
    phi = GridFunction(dom.free, np.exp(-dom.free.meshgrid()[0] ** 2 / 4.0))
    one = OneBodyState(phi.copy_with(phi.values / norm(phi)), chi_mode(dom.confined, 0))
    gamma = OneBodyDensity(state)  # at N = 4 the dense m x m matrix, formed here
    link = state.values.nbytes // m

    # a slab of a quarter state, whatever the default slab: blocks of rows,
    # walked on the calling thread through one slab whatever W
    monkeypatch.setattr(grids, "_SLAB_BYTES", state.values.nbytes // 4)
    report, peak = traced_peak(lambda: cnt.compute_report(state, one, 0.0, 0.0, gamma))
    assert peak < state.values.nbytes / 2
    assert sum(report.p_k) == pytest.approx(1.0, abs=1e-12)

    # a slab of half a row: the rows of psi are walked in axis-1 slices, not
    # copied, so the chain holds one link, the slab and two 1/m^2-sized
    # arrays (working_set_bytes' terms), then the Lanczos basis
    monkeypatch.setattr(grids, "_SLAB_BYTES", link // 2)
    sliced, peak = traced_peak(lambda: cnt.compute_report(state, one, 0.0, 0.0, gamma))
    assert peak <= link + grids._SLAB_BYTES + 2 * (link // m) + 16 * m * _LANCZOS_BASIS
    assert np.max(np.abs(np.subtract(sliced.p_k, report.p_k))) < 1e-14


def test_binomial_route_rejects_asymmetric():
    rng = np.random.default_rng(10)
    psi = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    psi /= np.linalg.norm(psi.ravel())
    phi = random_unit(rng, 4)
    with pytest.raises(ConfigError):
        cnt.occupation_distribution_binomial(psi, phi)


# -- weighted operators ---------------------------------------------------------


def test_hat_identity_and_eigenvalue_action():
    rng = np.random.default_rng(11)
    n = 4
    psi = random_symmetric(rng, 3, n)
    phi = random_unit(rng, 3)
    ones = np.ones(n + 1)
    assert np.max(np.abs(cnt.hat_apply(ones, psi, phi) - psi)) < 1e-12

    perp = random_unit(rng, 3)
    perp -= phi * np.vdot(phi, perp)
    perp /= np.linalg.norm(perp)
    for k in (1, 3):
        sharp = sharp_state(phi, [perp] * k, n)
        counts = np.arange(n + 1, dtype=float)
        out = cnt.hat_apply(counts, sharp, phi)
        assert np.max(np.abs(out - k * sharp)) < 1e-10


def test_hat_composition_law():
    rng = np.random.default_rng(12)
    for n in (2, 4):
        psi = random_symmetric(rng, 4, n)
        phi = random_unit(rng, 4)
        f = rng.normal(size=n + 1)
        g = rng.normal(size=n + 1)
        lhs = cnt.hat_apply(f, cnt.hat_apply(g, psi, phi), phi)
        rhs = cnt.hat_apply(f * g, psi, phi)
        assert np.linalg.norm((lhs - rhs).ravel()) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_hat_composition_and_commutation_property(n, seed):
    rng = np.random.default_rng(seed)
    psi = random_symmetric(rng, 3, n)
    phi = random_unit(rng, 3)
    f = rng.normal(size=n + 1)
    g = rng.normal(size=n + 1)
    fg = cnt.hat_apply(f * g, psi, phi)
    gf = cnt.hat_apply(g, cnt.hat_apply(f, psi, phi), phi)
    assert np.linalg.norm((fg - gf).ravel()) < 1e-10
    for axis in range(n):
        a = cnt.hat_apply(f, cnt.project_p(psi, phi, axis), phi)
        b = cnt.project_p(cnt.hat_apply(f, psi, phi), phi, axis)
        assert np.linalg.norm((a - b).ravel()) < 1e-10


def test_completeness_and_number_identity():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5):
        psi = random_symmetric(rng, 4, n)
        phi = random_unit(rng, 4)
        comps = cnt.occupancy_components(psi, phi)
        assert np.linalg.norm((sum(comps) - psi).ravel()) < 1e-10
        for k, c in enumerate(comps):
            qsum = np.zeros_like(c)
            for axis in range(n):
                qsum += cnt.project_q(c, phi, axis)
            assert np.linalg.norm((qsum - k * c).ravel()) < 1e-10


def test_occupancy_sweep_buffer_bound(traced_peak):
    # N + 2 state-sized buffers besides the input, which is only read.  One
    # projection's own scratch (its 1/m-sized coefficients and NumPy's
    # bounded ufunc buffer) is measured first and allowed for.
    rng = np.random.default_rng(15)
    n, dim = 4, 12
    psi = random_symmetric(rng, dim, n)
    phi = random_unit(rng, dim)
    before = psi.copy()
    scratch = 0
    for axis in range(n):
        scratch = max(scratch, traced_peak(lambda: cnt.project_p(psi, phi, axis))[1] - psi.nbytes)
    pk, peak = traced_peak(lambda: cnt.occupation_distribution(psi, phi))
    assert peak <= (n + 2) * psi.nbytes + scratch + 64 * 1024
    assert np.array_equal(psi, before)
    assert np.max(np.abs(pk - cnt.occupation_distribution_enumeration(psi, phi))) < 1e-12


def test_shift_identity_trivial_and_random():
    rng = np.random.default_rng(14)
    n, dim = 4, 4
    psi = random_symmetric(rng, dim, n)
    phi = random_unit(rng, dim)
    f = rng.normal(size=n + 1)
    eye = np.ones((dim, dim))
    assert cnt.shift_identity_residual(f, 1, 1, eye, psi, phi) < 1e-12

    tmat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for (j, k) in ((0, 2), (2, 0), (0, 1), (1, 2)):
        for variant in (0, 1):
            resid = cnt.shift_identity_residual(f, j, k, tmat, psi, phi, variant=variant)
            assert resid < 1e-9

    general = rng.normal(size=(dim,) * 4) + 1j * rng.normal(size=(dim,) * 4)
    assert cnt.shift_identity_residual(f, 0, 2, general, psi, phi) < 1e-9


def test_shift_out_of_range_zero_fill():
    f = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(cnt._shifted(f, 2), [3.0, 0.0, 0.0])
    assert np.array_equal(cnt._shifted(f, -2), [0.0, 0.0, 1.0])
    assert np.array_equal(cnt._shifted(f, 0), f)


@pytest.mark.parametrize("tag, l, lhs_expected, rhs_expected", [
    ("n", 1, np.sqrt(1.5) - 1.0, 0.5),
    ("n", 2, np.sqrt(2.0) - 1.0, 1.0),
    ("k/N", 1, 0.5, 0.5),
    ("k/N", 2, 1.0, 1.0),
])
def test_weight_difference_bound_extends_by_formula(tag, l, lhs_expected, rhs_expected):
    # N = 2, phi = e0, psi = e1 (x) e1: q_1 psi = psi lies in sector 2, so the
    # lhs is |m(2) - m(2 + l)| with m taken by its formula beyond k = N (a
    # zero-fill shift would give lhs = 1 for ("n", 1), above its bound)
    e0, e1 = np.eye(3)[0], np.eye(3)[1]
    lhs, rhs = cnt.weight_difference_bound(tag, l, np.multiply.outer(e1, e1), e0)
    assert abs(lhs - lhs_expected) < 1e-12
    assert abs(rhs - rhs_expected) < 1e-12


def test_weighted_operators_refuse_unknown_weights():
    rng = np.random.default_rng(15)
    phi, psi = random_unit(rng, 3), random_symmetric(rng, 3, 2)
    with pytest.raises(ConfigError):
        cnt.weight_difference_bound("mu", 1, psi, phi)
    for f in (np.ones(2), np.ones(4), np.ones((3, 1))):  # N = 2 takes f(0..2)
        with pytest.raises(ConfigError):
            cnt.hat_apply(f, psi, phi)


def test_weight_difference_bound():
    rng = np.random.default_rng(15)
    n, dim = 4, 4
    phi = random_unit(rng, dim)
    psi_prod = phi
    for _ in range(n - 1):
        psi_prod = np.multiply.outer(psi_prod, phi)
    lhs, rhs = cnt.weight_difference_bound("k/N", 1, psi_prod, phi)
    assert lhs < 1e-12

    for _ in range(50):
        psi = random_symmetric(rng, dim, n)
        for tag, l in (("k/N", 1), ("n", 2), ("n", 1), ("k/N", 2)):
            lhs, rhs = cnt.weight_difference_bound(tag, l, psi, phi)
            assert lhs <= rhs + 1e-10


def reciprocal(w):
    """Formal reciprocal weight with 1/f(k) := 0 where f vanishes.

    Meant to be applied only after a q_1 factor, which annihilates the
    k = 0 sector, so the convention never divides by zero in anger.
    """
    safe = np.where(w != 0.0, w, 1.0)
    return np.where(w != 0.0, 1.0 / safe, 0.0)


def test_inverse_weight_convention():
    # formal inverse of the sqrt weight annihilates nothing after a q_1,
    # with (n^-1)(0) := 0: n-hat^-1 n-hat q_1 psi recovers q_1 psi
    rng = np.random.default_rng(16)
    n, dim = 3, 4
    psi = random_symmetric(rng, dim, n)
    phi = random_unit(rng, dim)
    w = np.sqrt(np.arange(n + 1) / n)
    inv = reciprocal(w)
    assert inv[0] == 0.0
    psi_l2 = psi.reshape((dim,) * n)
    q1 = cnt.project_q(psi_l2, phi, 0)
    back = cnt.hat_apply(inv, cnt.hat_apply(w, q1, phi), phi)
    assert np.linalg.norm((back - q1).ravel()) < 1e-10


# -- dense matrix route crosschecks --------------------------------------------


def test_dense_route_matches_contraction_route(dense_kron):
    rng = np.random.default_rng(17)
    dim, n = 3, 3
    phi = random_unit(rng, dim)
    psi = random_symmetric(rng, dim, n)
    flat = psi.ravel()
    projs = dense_kron.sector_projectors(phi, n)
    comps = cnt.occupancy_components(psi, phi)
    assert np.max(np.abs(sum(projs) - np.eye(dim**n))) < 1e-10
    for k in range(n + 1):
        dense = (projs[k] @ flat).reshape((dim,) * n)
        assert np.linalg.norm((dense - comps[k]).ravel()) < 1e-10

    f = rng.normal(size=n + 1)
    hat_dense = (dense_kron.hat(f, phi, n) @ flat).reshape((dim,) * n)
    assert np.linalg.norm((hat_dense - cnt.hat_apply(f, psi, phi)).ravel()) < 1e-10


# -- the number frame -------------------------------------------------------------


def reflector_cases(rng, dim):
    """(phi, s) with H phi = -s e0 expected: basis vectors with phases, phi_0 = 0, random."""
    e0 = np.eye(dim, dtype=complex)[0]
    off = random_unit(rng, dim)
    off[0] = 0.0
    off /= np.linalg.norm(off)
    rand = random_unit(rng, dim)
    return [(e0, 1.0), (-e0, -1.0), (1j * e0, 1j), (off, 1.0),
            (rand, rand[0] / abs(rand[0]))]


@pytest.mark.parametrize("dim", [2, 3, 4, 48])
def test_reflector_hermitian_involution_maps_phi_to_e0(dim):
    rng = np.random.default_rng(30 + dim)
    e0 = np.eye(dim)[0]
    for phi, s in reflector_cases(rng, dim):
        h = cnt._reflector(phi)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14
        assert np.max(np.abs(h @ h - np.eye(dim))) < 1e-14
        assert abs(abs(s) - 1.0) < 1e-15
        assert np.max(np.abs(h @ phi + s * e0)) < 1e-14


def test_reflector_is_cached_per_phi():
    rng = np.random.default_rng(36)
    phi = random_unit(rng, 4)
    h = cnt._reflector(phi)
    assert cnt._reflector(phi.copy()) is h  # equal phi, equal H
    assert not h.flags.writeable
    with pytest.raises(ValueError):
        h[0, 0] = 0.0
    kept = h.copy()
    phi[1] += 0.5  # edited in place after the call: its own H
    phi /= np.linalg.norm(phi)
    edited = cnt._reflector(phi)
    assert edited is not h and np.array_equal(h, kept)
    s = phi[0] / abs(phi[0])
    assert np.max(np.abs(edited @ phi + s * np.eye(4)[0])) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_enumeration_walk_matches_per_pattern_loop(n, literal_sums):
    # the depth-first walk shares prefixes but applies the same projectors in
    # the same order to the same vectors, so p(k) is equal to the bit
    rng = np.random.default_rng(70 + n)
    dim = 3
    phi = random_unit(rng, dim)
    psi = rng.normal(size=(dim,) * n) + 1j * rng.normal(size=(dim,) * n)
    psi /= np.linalg.norm(psi.ravel())
    assert np.array_equal(cnt.occupation_distribution_enumeration(psi, phi),
                          literal_sums.occupation(psi, phi))


def test_q_counts_table():
    counts = cnt._q_counts(3, 2)
    assert counts.tolist() == [0, 1, 1, 1, 2, 2, 1, 2, 2]
    assert cnt._q_counts(3, 2) is counts and not counts.flags.writeable


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_number_frame_matches_split_and_dense(dim, n, projector_split, dense_kron):
    # general (not symmetrized) psi; the dense kron matrices only up to
    # dim^n = 256: at 4^5 each is 16 MiB and 2^5 * 5 products of them are needed
    rng = np.random.default_rng(40 + 10 * dim + n)
    phi = random_unit(rng, dim)
    psi = rng.normal(size=(dim,) * n) + 1j * rng.normal(size=(dim,) * n)
    psi /= np.linalg.norm(psi.ravel())
    f = rng.normal(size=n + 1)
    comps = cnt.occupancy_components(psi, phi)
    hat = cnt.hat_apply(f, psi, phi)
    pk = cnt.occupation_distribution(psi, phi)

    split = projector_split(psi, phi)
    references = [(split, sum(f[k] * c for k, c in enumerate(split)))]
    if dim**n <= 256:
        flat = psi.ravel()
        dense = [(proj @ flat).reshape(psi.shape) for proj in dense_kron.sector_projectors(phi, n)]
        references.append((dense, (dense_kron.hat(f, phi, n) @ flat).reshape(psi.shape)))
    for ref_comps, ref_hat in references:
        for c, ref in zip(comps, ref_comps, strict=True):
            assert np.max(np.abs(c - ref)) < 1e-12
        assert np.max(np.abs(hat - ref_hat)) < 1e-12
        assert np.max(np.abs(pk - [np.vdot(r, r).real for r in ref_comps])) < 1e-12


# -- grid-route functionals ------------------------------------------------------


UNIT_INTERVAL = ((-0.5, 0.5),)


def grid_setting(n=2, amplitude=1.5, eps=0.5):
    spec = ModelSpec(
        free=FreeDomain((8.0,), (16,)),
        confined=ConfinedDomain(UNIT_INTERVAL, (3,), eps=eps),
        n_particles=n,
        interaction=InteractionProfile("gaussian-bump", amplitude=amplitude,
                                       radius=1.5, sigma=0.5),
        regime="hartree-theta0",
    )
    xs = spec.free.meshgrid()
    phi = GridFunction(spec.free, np.exp(-xs[0] ** 2 / 4.0))
    phi = phi.copy_with(phi.values / norm(phi))
    one = OneBodyState(phi, chi_mode(spec.confined, 0))
    return spec, one


def orthogonal_one_body(spec, one, kind):
    """phi-orthogonal product vectors on the grid: free-excited or confined-excited."""
    chi0 = chi_mode(spec.confined, 0).chi.values
    chi1 = chi_mode(spec.confined, 1).chi.values
    x = spec.free.axis_nodes(0)
    if kind == "confined":
        return np.multiply.outer(one.phi_free.values, chi1)
    bump = np.exp(2j * np.pi * 3 * x / 8.0) * one.phi_free.values
    bump_gf = GridFunction(spec.free, bump)
    overlap = np.vdot(one.phi_free.values, bump) * spec.free.cell_volume
    bump = bump - overlap * one.phi_free.values
    bump /= np.linalg.norm(bump) * np.sqrt(spec.free.cell_volume)
    return np.multiply.outer(bump, chi0)


def test_grid_alpha_and_mode_split(grid_routes):
    spec, one = grid_setting()
    phi_full = one.product_values()
    vol = spec.domain.cell_volume

    psi_prod = product_state(one, 2)
    assert cnt.alpha(psi_prod.values, phi_full, weight=vol) < 1e-12
    qc, qf = grid_routes.mode_split(psi_prod, one)
    assert qc < 1e-12 and qf < 1e-12

    for kind, expect_confined in (("confined", True), ("free", False)):
        perp = orthogonal_one_body(spec, one, kind)
        raw = np.multiply.outer(perp, phi_full)
        state = symmetrize(spec.domain, raw)
        a = cnt.alpha(state.values, phi_full, weight=vol)
        qc, qf = grid_routes.mode_split(state, one)
        assert qc + qf == pytest.approx(a, abs=1e-10)
        if expect_confined:
            assert qc == pytest.approx(a, abs=1e-10) and qf < 1e-10
        else:
            assert qf == pytest.approx(a, abs=1e-10) and qc < 1e-10


def test_grad_q_norm_product_and_closed_form(grid_routes):
    spec, one = grid_setting()
    psi_prod = product_state(one, 2)
    assert grid_routes.grad_q(psi_prod, one) < 1e-10

    # plane-wave condensate makes orthogonality to other modes grid-exact:
    # Sym(phi (x) perp) has q_1 part perp (x) phi / sqrt(2), so the h~ form
    # is half the free kinetic eigenvalue of perp (the chi part drops out)
    x = spec.free.axis_nodes(0)
    chi0 = chi_mode(spec.confined, 0).chi.values
    k_phi = 2 * np.pi * 1 / 8.0
    phi_free = GridFunction(spec.free, np.exp(1j * k_phi * x))
    phi_free = phi_free.copy_with(phi_free.values / norm(phi_free))
    one_pw = OneBodyState(phi_free, chi_mode(spec.confined, 0))

    k0 = 2 * np.pi * 3 / 8.0
    plane = np.exp(1j * k0 * x) / np.sqrt(8.0)
    perp = np.multiply.outer(plane, chi0)
    raw = np.multiply.outer(perp, one_pw.product_values())
    state = symmetrize(spec.domain, raw)
    val = grid_routes.grad_q(state, one_pw)
    assert val == pytest.approx(k0**2 / 2.0, rel=1e-10)

    # adding higher-frequency content to the q component only increases it
    k1 = 2 * np.pi * 5 / 8.0
    plane2 = np.exp(1j * k1 * x) / np.sqrt(8.0)
    perp2 = np.multiply.outer(plane2, chi0)
    mix = 0.8 * perp + 0.6 * perp2
    raw2 = np.multiply.outer(mix, one_pw.product_values())
    val2 = grid_routes.grad_q(symmetrize(spec.domain, raw2), one_pw)
    assert val2 > val


def test_grid_route_completeness_and_number_identity():
    spec, one = grid_setting(n=3)
    phi_full = one.product_values()
    vol = spec.domain.cell_volume
    rng = np.random.default_rng(21)
    m = int(np.prod(spec.domain.shape))
    raw = rng.normal(size=(m,) * 3) + 1j * rng.normal(size=(m,) * 3)
    raw /= np.linalg.norm(raw.ravel()) * np.sqrt(vol**3)
    comps = cnt.occupancy_components(raw, phi_full, weight=vol)
    total = sum(comps)
    psi_l2 = raw.reshape((m,) * 3) * vol**1.5
    assert np.linalg.norm((total - psi_l2).ravel()) < 1e-10
    phi_l2 = phi_full.ravel() * np.sqrt(vol)
    for k, c in enumerate(comps):
        qsum = np.zeros_like(c)
        for axis in range(3):
            qsum += cnt.project_q(c, phi_l2, axis)
        assert np.linalg.norm((qsum - k * c).ravel()) < 1e-10


def test_number_frame_grid_state_with_weight(projector_split):
    spec, one = grid_setting(n=3)
    phi_full = one.product_values()
    vol = spec.domain.cell_volume
    rng = np.random.default_rng(22)
    m = int(np.prod(spec.domain.shape))
    raw = rng.normal(size=(m,) * 3) + 1j * rng.normal(size=(m,) * 3)
    raw /= np.linalg.norm(raw.ravel()) * np.sqrt(vol**3)
    split = projector_split(raw, phi_full, weight=vol)
    comps = cnt.occupancy_components(raw, phi_full, weight=vol)
    for c, ref in zip(comps, split, strict=True):
        assert np.max(np.abs(c - ref)) < 1e-12
    pk = cnt.occupation_distribution(raw, phi_full, weight=vol)
    assert np.max(np.abs(pk - [np.vdot(r, r).real for r in split])) < 1e-12

    f = rng.normal(size=4)
    psi_l2, phi_l2 = raw * vol**1.5, phi_full.ravel() * np.sqrt(vol)
    ref_hat = sum(f[k] * c for k, c in enumerate(split))
    assert np.max(np.abs(cnt.hat_apply(f, psi_l2, phi_l2) - ref_hat)) < 1e-12


def test_mean_field_sandwich_cancellation(dense_pair_kernel):
    # p_2 w_12 p_2 acts as multiplication by the kernel-weighted density:
    # the exact grid statement behind the mean-field cancellation
    spec, one = grid_setting()
    vol = spec.domain.cell_volume
    m = int(np.prod(spec.domain.shape))
    phi_full = one.product_values().ravel() * np.sqrt(vol)
    kernel = dense_pair_kernel(spec)
    rng = np.random.default_rng(18)
    psi = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    psi /= np.linalg.norm(psi.ravel())

    p2psi = cnt.project_p(psi, phi_full, 1)
    lhs = cnt.project_p(kernel * p2psi, phi_full, 1)
    mf = (np.abs(phi_full) ** 2) @ kernel.T  # sum_b |phi(b)|^2 K(a, b)
    rhs = mf[:, None] * p2psi
    assert np.linalg.norm((lhs - rhs).ravel()) < 1e-12


def test_derivative_terms_product_state():
    spec, one = grid_setting()
    psi_prod = product_state(one, 2)
    t1, t2, t3, total = cnt.derivative_terms(psi_prod, one, spec)
    assert t2 < 1e-12 and t3 < 1e-12
    assert abs(total) <= t1 + t2 + t3 + 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_derivative_terms_match_dense_kernel(n, dense_pair_kernel):
    # I, II, III and d alpha/dt from the brute-force m x m kernel and dense
    # projector matrices, against the offset-table view route.  I is small
    # by the mean-field cancellation; eps = 1 and a large excitation keep
    # its summands' roundoff well inside the tolerance
    spec, one = grid_setting(n=n, eps=1.0)
    vol, m = spec.domain.cell_volume, int(np.prod(spec.domain.shape))
    phi = one.product_values()
    rng = np.random.default_rng(80 + n)
    noise = rng.normal(size=(m,) * n) + 1j * rng.normal(size=(m,) * n)
    raw = phi.ravel()
    for _ in range(n - 1):
        raw = np.multiply.outer(raw, phi.ravel())
    raw = raw + 0.5 * noise * np.linalg.norm(raw) / np.linalg.norm(noise)
    state = symmetrize(spec.domain, raw.reshape(spec.domain.shape * n))

    unit = phi.ravel() * np.sqrt(vol)
    p = np.outer(unit, np.conj(unit))
    q = np.eye(m) - p
    mf = hartree_potential(one.phi_free, mean_field_kernel(spec)).values.real
    w12 = dense_pair_kernel(spec) - np.repeat(mf.ravel(), m // mf.size)[:, None]
    psi = state.values.reshape(m, m, -1) * vol ** (n / 2)

    def on_12(a, b, v):
        return np.einsum("ia,jb,abr->ijr", a, b, v)

    def form(u, v):
        return 2.0 * np.vdot(u, w12[:, :, None] * v)

    pp, qp = on_12(p, p, psi), on_12(q, p, psi)
    pq, qq = on_12(p, q, psi), on_12(q, q, psi)
    expected = (abs(form(pp, qp)), abs(form(pp, qq)), abs(form(pq, qq)),
                -form(pp + pq, qp + qq).imag)
    got = cnt.derivative_terms(state, one, spec)
    assert min(expected[:3]) > 1e-6  # each term is exercised
    assert got == pytest.approx(expected, rel=1e-12)


def test_counting_report_round_trip_and_validation():
    spec, one = grid_setting()
    psi_prod = product_state(one, 2)
    e_psi, _, gamma = _energy_and_residual(psi_prod, spec)
    report = cnt.compute_report(psi_prod, one, e_psi, effective_energy(one, spec), gamma)
    assert report.alpha < 1e-10
    assert report.beta_tilde >= report.beta

    with pytest.raises(InvariantError):
        cnt.CountingReport(
            t=0.0, alpha=0.5, beta=0.2, beta_tilde=0.2, p_k=(0.5, 0.5),
            trace_distance=0.1, E_psi=0.0, E_phi=0.0, grad_q_sq=0.0,
        ).validate()


def test_counting_report_matches_general_route():
    # a symmetric grid state with weight in every sector, quadrature weight != 1
    spec, one = grid_setting(n=3)
    phi = one.product_values()
    perp = orthogonal_one_body(spec, one, "free")
    raw = (0.9 * np.multiply.outer(np.multiply.outer(phi, phi), phi)
           + 0.3 * np.multiply.outer(np.multiply.outer(perp, phi), phi)
           + 0.2 * np.multiply.outer(np.multiply.outer(perp, perp), phi)
           + 0.1 * np.multiply.outer(np.multiply.outer(perp, perp), perp))
    state = symmetrize(spec.domain, raw)
    vol = spec.domain.cell_volume
    report = cnt.compute_report(state, one, 0.0, 0.0, OneBodyDensity(state))
    general = cnt.occupation_distribution(state.values, phi, weight=vol)
    assert min(general) > 1e-4
    assert np.max(np.abs(np.array(report.p_k) - general)) < 1e-12
    assert report.alpha == pytest.approx(cnt.alpha(state.values, phi, weight=vol), abs=1e-12)
