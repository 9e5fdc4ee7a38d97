"""Grid, kinetic-operator, quadrature, file-format and slab-walk contracts."""

import multiprocessing
import os

import numpy as np
import pytest

from confinedbose import grids
from confinedbose.grids import (
    ConfinedDomain,
    FreeDomain,
    GridFunction,
    ProductDomain,
    apply_along,
    apply_kinetic,
    axis_groups,
    axis_operators,
    inner_product,
    norm,
    read_mfl1,
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
    out = apply_kinetic(f.values, dom)
    assert np.max(np.abs(out)) < 1e-12


def test_laplacian_free_fourier_eigenfunction(grid_sample):
    L = 7.0
    dom = FreeDomain((L,), (64,))
    f = grid_sample(dom, lambda x: np.sin(2 * np.pi * x / L))
    out = apply_kinetic(f.values, dom)
    expected = (2 * np.pi / L) ** 2 * f.values
    assert np.max(np.abs(out - expected)) < 1e-10


def fd_laplacian_periodic(values, spacings):
    """Second-order centered stencil oracle for -Delta, periodic wrap."""
    out = np.zeros_like(values)
    for axis, h in enumerate(spacings):
        plus = np.roll(values, -1, axis=axis)
        minus = np.roll(values, 1, axis=axis)
        out = out - (plus - 2 * values + minus) / h**2
    return out


@pytest.mark.parametrize("shape", [(64,), (32, 32)])
def test_laplacian_free_matches_fd_oracle_at_second_order(shape, grid_sample):
    rng = np.random.default_rng(7)
    errs = []
    for factor in (1, 2):
        pts = tuple(n * factor for n in shape)
        dom = FreeDomain((6.0,) * len(shape), pts)
        func = band_limited(dom, np.random.default_rng(7), max_mode=3)
        f = grid_sample(dom, func)
        exact = apply_kinetic(f.values, dom)
        approx = fd_laplacian_periodic(f.values, dom.spacings)
        errs.append(np.max(np.abs(exact - approx)) / np.max(np.abs(exact)))
    assert errs[0] < 0.05
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0  # O(h^2) convergence of the stencil to the spectral value


def test_laplacian_confined_ground_mode_and_eps_scaling(grid_sample):
    dom1 = ConfinedDomain(((0.0 - 0.5, 0.5),), (31,), eps=1.0)
    w = 1.0
    f = grid_sample(dom1, lambda y: np.sin(np.pi * (y + 0.5) / w))
    out = apply_kinetic(f.values, dom1)
    assert np.allclose(out, (np.pi / w) ** 2 * f.values, atol=1e-10)

    dom01 = ConfinedDomain(((-0.5, 0.5),), (31,), eps=0.1)
    f01 = GridFunction(dom01, f.values)
    out01 = apply_kinetic(f01.values, dom01)
    assert np.allclose(out01, 100.0 * (np.pi / w) ** 2 * f.values, atol=1e-8)


def test_laplacian_confined_second_mode(grid_sample):
    dom = ConfinedDomain(((-0.25, 0.75),), (40,), eps=1.0)
    w = 1.0
    f = grid_sample(dom, lambda y: np.sin(2 * np.pi * (y + 0.25) / w))
    out = apply_kinetic(f.values, dom)
    assert np.allclose(out, 4 * (np.pi / w) ** 2 * f.values, atol=1e-9)


def test_inner_product_basics(grid_sample):
    dom = ConfinedDomain(((-0.5, 0.5),), (24,))
    rng = np.random.default_rng(3)
    f = GridFunction(dom, rng.normal(size=24) + 1j * rng.normal(size=24))
    ip = inner_product(f, f)
    assert abs(ip.imag) < 1e-12 and ip.real >= 0

    g1 = grid_sample(dom, lambda y: np.sin(np.pi * (y + 0.5)))
    g2 = grid_sample(dom, lambda y: np.sin(3 * np.pi * (y + 0.5)))
    assert abs(inner_product(g1, g2)) < 1e-12
    with pytest.raises(ValueError, match="different domains"):
        inner_product(f, GridFunction(ConfinedDomain(((-0.5, 0.5),), (24,), eps=0.5), f.values))


def test_inner_product_matches_refined_grid_oracle(grid_sample):
    # band-limited integrands: refined uniform quadrature is the oracle
    L = 6.0
    rng = np.random.default_rng(11)
    coarse = FreeDomain((L,), (32,))
    fine = FreeDomain((L,), (256,))
    ffun, gfun = band_limited(coarse, rng), band_limited(coarse, rng)
    f_c = grid_sample(coarse, ffun)
    g_c = grid_sample(coarse, gfun)
    f_f = grid_sample(fine, ffun)
    g_f = grid_sample(fine, gfun)
    ip_c = inner_product(f_c, g_c)
    ip_f = inner_product(f_f, g_f)
    assert abs(ip_c - ip_f) <= 1e-8 * max(1.0, abs(ip_f))


def test_laplacian_free_self_adjoint():
    dom = FreeDomain((5.0, 5.0), (16, 16))
    rng = np.random.default_rng(9)
    f = GridFunction(dom, rng.normal(size=dom.shape) + 1j * rng.normal(size=dom.shape))
    g = GridFunction(dom, rng.normal(size=dom.shape) + 1j * rng.normal(size=dom.shape))
    lhs = inner_product(f, g.copy_with(apply_kinetic(g.values, dom)))
    rhs = inner_product(f.copy_with(apply_kinetic(f.values, dom)), g)
    assert abs(lhs - rhs) <= 1e-10 * norm(f) * norm(g)


def test_confined_spectrum_nonnegative_and_gap():
    dom = ConfinedDomain(((-0.5, 0.5),), (21,), eps=0.2)
    rng = np.random.default_rng(1)
    lam_min = np.inf
    for _ in range(20):
        f = GridFunction(dom, rng.normal(size=dom.shape) + 1j * rng.normal(size=dom.shape))
        rq = inner_product(f, f.copy_with(apply_kinetic(f.values, dom))).real
        rq /= inner_product(f, f).real
        lam_min = min(lam_min, rq)
    gap = (np.pi / 1.0) ** 2 / 0.2**2
    assert lam_min >= gap * (1 - 1e-6)


def test_point_counts_take_integer_types_only():
    # numpy integers (and the ints of an MFL1 header) pass as Python ints
    free = FreeDomain((8.0,), (np.int64(16),))
    conf = ConfinedDomain(((-0.5, 0.5),), (np.int32(3),))
    assert free.points == (16,) and conf.points == (3,)
    assert type(free.points[0]) is int and type(conf.points[0]) is int
    for bad in (16.0, 16.7, "16"):
        with pytest.raises(ValueError, match="must be integers"):
            FreeDomain((8.0,), (bad,))
        with pytest.raises(ValueError, match="must be integers"):
            ConfinedDomain(((-0.5, 0.5),), (bad,))


def test_sample_rejects_nonvanishing_boundary(grid_sample):
    dom = ConfinedDomain(((-0.5, 0.5),), (16,))
    with pytest.raises(ValueError, match="hard wall"):
        grid_sample(dom, lambda y: np.cos(np.pi * y) + 1.0)
    product = ProductDomain(FreeDomain((4.0,), (8,)), dom)
    with pytest.raises(ValueError, match="hard wall"):
        grid_sample(product, lambda x, y: np.cos(np.pi * y) + 1.0 + 0.0 * x)


MFL1_DOMAINS = {
    "free": FreeDomain((4.0, 3.0), (16, 8)),
    "confined": ConfinedDomain(((-0.5, 0.5), (-0.3, 0.6)), (6, 3), eps=0.25),
    "product": ProductDomain(
        FreeDomain((4.0, 3.0), (16, 8)),
        ConfinedDomain(((-0.5, 0.5), (-0.3, 0.6)), (6, 3), eps=0.25),
    ),
}


@pytest.mark.parametrize("kind", list(MFL1_DOMAINS))
def test_mfl1_round_trip(tmp_path, kind):
    dom = MFL1_DOMAINS[kind]
    rng = np.random.default_rng(2)
    vals = rng.normal(size=dom.shape) + 1j * rng.normal(size=dom.shape)
    path = tmp_path / "state.mfl1"
    write_mfl1(path, dom, vals)
    dom2, vals2, npart = read_mfl1(path)
    assert dom2 == dom and npart == 1
    assert np.array_equal(vals, vals2)


@pytest.mark.parametrize("kind, bad_word", [("product", 7), ("free", 2), ("confined", 0),
                                            ("product", 1)])
def test_mfl1_rejects_kind_word_that_disagrees_with_axes(tmp_path, kind, bad_word):
    dom = MFL1_DOMAINS[kind]
    path = tmp_path / "state.mfl1"
    write_mfl1(path, dom, np.ones(dom.shape))
    raw = bytearray(path.read_bytes())
    raw[8:12] = bad_word.to_bytes(4, "little")  # the kind word follows the space word
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="kind word"):
        read_mfl1(path)


def test_mfl1_rejects_nonzero_space_word(tmp_path):
    dom = FreeDomain((4.0,), (8,))
    path = tmp_path / "state.mfl1"
    write_mfl1(path, dom, np.ones(8))
    raw = bytearray(path.read_bytes())
    assert raw[4:8] == (0).to_bytes(4, "little")  # the word after the magic
    raw[4:8] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="space word"):
        read_mfl1(path)


@pytest.mark.parametrize("cut", [10, 30, 40])
def test_mfl1_rejects_truncated_header(tmp_path, cut):
    # the 96-byte header of a product domain, cut in its five words, its counts, its eps
    dom = MFL1_DOMAINS["product"]
    path = tmp_path / "state.mfl1"
    write_mfl1(path, dom, np.ones(dom.shape))
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match="truncated MFL1 header"):
        read_mfl1(path)


def test_mfl1_many_particle_axis(tmp_path):
    dom = ProductDomain(
        FreeDomain((4.0,), (8,)), ConfinedDomain(((-0.5, 0.5),), (3,), eps=0.5)
    )
    rng = np.random.default_rng(4)
    shape = dom.shape * 2
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    path = tmp_path / "pair.mfl1"
    write_mfl1(path, dom, vals, n_particles=2)
    dom2, vals2, npart = read_mfl1(path)
    assert npart == 2 and dom2 == dom
    assert np.array_equal(vals, vals2)


@pytest.mark.parametrize("shape", [
    # axis 1 of 64 x 16 x 64 x 16 is whole slices, axis 0 column chunks, axis 3 row blocks
    pytest.param((64, 16, 64, 16), id="64x16x64x16"),
    # uneven last slab on every path; axis 1 cuts each of 3 slices into columns
    pytest.param((3, 64, 48, 25), id="3x64x48x25"),
    pytest.param((2, 3), id="2x3"),
])
def test_apply_along_matches_tensordot_in_and_out_of_place(shape):
    rng = np.random.default_rng(13)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for axis, n in enumerate(shape):
        mat = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        expected = np.moveaxis(np.tensordot(mat, values, axes=(1, axis)), 0, axis)
        assert np.max(np.abs(apply_along(values, mat, axis) - expected)) <= 1e-14
        into = np.empty_like(values)
        assert apply_along(values, mat, axis, out=into) is into
        assert np.max(np.abs(into - expected)) <= 1e-14
        work = values.copy()
        assert apply_along(work, mat, axis, out=work) is work
        assert np.max(np.abs(work - expected)) <= 1e-14
    with pytest.raises(ValueError, match="C-contiguous"):
        apply_along(values, mat, 0, out=np.empty(shape[::-1], dtype=complex).T)


def test_workers_are_the_affinity_mask_or_every_cpu(monkeypatch):
    assert grids._workers() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS and Windows
    assert grids._workers() == (os.cpu_count() or 1)


def test_forked_child_walks_in_parts(split_walks):
    # the child of a fork has none of the parent's pool threads: it makes its
    # own pool rather than wait on parts that nothing runs
    split_walks(2)
    rng = np.random.default_rng(14)
    values = rng.normal(size=(64, 16, 64, 16)) + 1j * rng.normal(size=(64, 16, 64, 16))
    mat = np.linalg.qr(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))[0]
    expected = apply_along(values, mat, 0)

    def child():
        os._exit(0 if np.array_equal(apply_along(values, mat, 0), expected) else 1)

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(timeout=60)
    if process.exitcode is None:
        process.kill()
        process.join()
    assert process.exitcode == 0


def test_apply_kinetic_eps_weighting(grid_sample):
    dom = ProductDomain(
        FreeDomain((4.0,), (8,)), ConfinedDomain(((-0.5, 0.5),), (5,), eps=0.5)
    )
    # a free plane wave times the confined ground mode
    f = grid_sample(
        dom, lambda x, y: np.exp(2j * np.pi * x / 4.0) * np.sin(np.pi * (y + 0.5))
    )
    free_term, conf_term = (2 * np.pi / 4.0) ** 2, np.pi**2
    # the confined term scales by eps^-2 = 4, the free term does not
    plain = apply_kinetic(f.values, dom, eps=1.0)
    weighted = apply_kinetic(f.values, dom)
    assert np.allclose(plain, (free_term + conf_term) * f.values, rtol=1e-12, atol=1e-12)
    assert np.allclose(weighted, (free_term + 4.0 * conf_term) * f.values, rtol=1e-12, atol=1e-12)


def test_axis_groups_merge_while_product_at_most_64():
    assert axis_groups((16, 3)) == (48,)
    assert axis_groups((64, 4, 4)) == (64, 16)
    assert axis_groups((8, 8, 2)) == (64, 2)
    assert axis_groups((128, 3)) == (128, 3)


# (free extents, free points, confined intervals, confined points); the first
# two cases keep their original ids, the rest merge axes into groups and use
# unequal spacings and widths, so swapped factors inside a group show
SPECTRAL_CASES = [
    ((6.0,), (16,), ((-0.5, 0.5),), (3,)),
    ((6.0,), (16,), ((-0.5, 0.5), (-0.4, 0.6)), (4, 3)),
    ((4.0,), (16,), ((-0.5, 0.5),), (3,)),
    ((16.0,), (64,), ((-0.5, 0.5), (-0.4, 0.7)), (4, 4)),
    ((2.0, 2.8), (8, 8), ((-0.5, 0.5),), (2,)),
    ((32.0,), (128,), ((-0.5, 0.5),), (3,)),
]


@pytest.mark.parametrize(
    "case", SPECTRAL_CASES,
    ids=["conf_points0", "conf_points1", "16x3", "64x4x4", "8x8x2", "128x3"],
)
def test_axis_operators_match_spectral_route(case, analytic_kinetic, transform_kinetic):
    # two spectral routes: V f(Lambda) V^dagger in the analytic eigenbasis
    # (the construction axis_operators uses), and FFT/DST-I of an identity,
    # which writes out no eigenvector
    extents, free_points, intervals, conf_points = case
    dom = ProductDomain(
        FreeDomain(extents, free_points), ConfinedDomain(intervals, conf_points, eps=0.5)
    )
    rng = np.random.default_rng(11)
    f = rng.normal(size=dom.shape) + 1j * rng.normal(size=dom.shape)

    def spectral_routes(fn):
        return [(oracle(dom, fn) @ f.ravel()).reshape(dom.shape)
                for oracle in (analytic_kinetic, transform_kinetic)]

    generator = apply_kinetic(f, dom)
    for expected in spectral_routes(lambda lam: lam):
        assert np.max(np.abs(generator - expected)) <= 1e-12 * np.max(np.abs(expected))

    tau = 0.03
    groups = axis_groups(dom.shape)
    propagators = axis_operators(dom, lambda m: np.exp(-1j * tau * m))
    assert tuple(len(u) for u in propagators) == groups
    evolved = f.reshape(groups)
    for axis, u in enumerate(propagators):
        evolved = apply_along(evolved, u, axis)
        assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) <= 1e-13
    evolved = evolved.reshape(dom.shape)
    for expected in spectral_routes(lambda lam: np.exp(-1j * tau * lam)):
        assert np.max(np.abs(evolved - expected)) <= 1e-12 * np.max(np.abs(expected))
