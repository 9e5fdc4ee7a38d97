"""Shared test oracles, grid builders, the traced-memory helper, the committed
records' runs and their comparison."""

import contextlib
import csv
import itertools
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import fft as sfft

from confinedbose.cli import main
from confinedbose.counting import _frame, _grad_q_form, _grid_frame, project_p, project_q
from confinedbose.grids import GridFunction, apply_along, axis_groups, axis_operators
from confinedbose.manybody import OneBodyDensity
from confinedbose.onebody import chi_mode

ROOT = Path(__file__).resolve().parents[1]
RECORDS = ROOT / "demos" / "records"


def measure_traced_peak(fn):
    """(fn(), the peak of memory traced while it ran above what was traced at its start)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _assert_close(value, recorded, where):
    """Numbers within max(1e-10, 1e-11 |recorded|); booleans, text and null equal."""
    numeric = (int, float)
    if isinstance(recorded, numeric) and not isinstance(recorded, bool):
        assert isinstance(value, numeric) and not isinstance(value, bool), where
        assert abs(value - recorded) <= max(1e-10, 1e-11 * abs(recorded)), \
            f"{where}: {value!r} against the recorded {recorded!r}"
    elif isinstance(recorded, dict):
        assert isinstance(value, dict) and list(value) == list(recorded), where
        for key in recorded:
            _assert_close(value[key], recorded[key], f"{where}.{key}")
    elif isinstance(recorded, list):
        assert isinstance(value, list) and len(value) == len(recorded), where
        for i, (v, r) in enumerate(zip(value, recorded)):
            _assert_close(v, r, f"{where}[{i}]")
    else:
        assert value == recorded and type(value) is type(recorded), where


def _csv_cell(text):
    """A CSV cell as a number, a list of ';'-joined numbers, or its text."""
    try:
        parts = [float(part) for part in text.split(";")]
    except ValueError:
        return text
    return parts if ";" in text else parts[0]


def _csv_rows(path):
    return [[_csv_cell(cell) for cell in row] for row in csv.reader(path.read_text().splitlines())]


def assert_matches_record(out_dir, record_dir):
    """The CSV and JSON outputs in ``out_dir`` and its subfolders against the
    committed record in ``record_dir`` (its ``record.json`` aside): the same
    files, the same CSV columns and row counts, numbers within
    max(1e-10, 1e-11 |value|), equal text and booleans."""
    out_dir, record_dir = Path(out_dir), Path(record_dir)

    def outputs(folder):
        return sorted(p.relative_to(folder).as_posix() for p in folder.rglob("*")
                      if p.suffix in (".csv", ".json") and p != folder / "record.json")

    assert outputs(out_dir) == outputs(record_dir)
    for name in outputs(record_dir):
        if name.endswith(".json"):
            _assert_close(json.loads((out_dir / name).read_text()),
                          json.loads((record_dir / name).read_text()), name)
            continue
        rows, recorded = _csv_rows(out_dir / name), _csv_rows(record_dir / name)
        assert rows[0] == recorded[0], f"{name}: columns"
        assert len(rows) == len(recorded), f"{name}: row count"
        _assert_close(rows[1:], recorded[1:], name)


@pytest.fixture
def matches_record():
    """The record comparison ``assert_matches_record``."""
    return assert_matches_record


@pytest.fixture(scope="session")
def recorded_run():
    """``run(name)``: the output folder of the command in
    ``demos/records/<name>/record.json``, run through ``cli.main`` once per
    session; the folders are removed when the session ends."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:

        def run(name):
            if name not in runs:
                command = json.loads((RECORDS / name / "record.json").read_text())["command"]
                assert command[:3] == ["python", "-m", "confinedbose"] and command[-2] == "--out"
                out = Path(tmp) / name
                with contextlib.chdir(ROOT):  # the command's paths are relative to the repo root
                    assert main(command[3:-2] + ["--out", str(out)]) == 0
                runs[name] = out
            return runs[name]

        yield run


@pytest.fixture
def traced_peak():
    """The traced-memory helper ``measure_traced_peak``."""
    return measure_traced_peak


def _free_axis_basis(L, n):
    """Plane waves e^{i k_j x} / sqrt(n), k_j = 2 pi j / L with j in FFT order."""
    x = -L / 2 + (L / n) * np.arange(n)
    idx = np.arange(n)
    k = 2.0 * np.pi * ((idx + n // 2) % n - n // 2) / L
    return np.exp(1j * np.outer(x, k)) / np.sqrt(n), k**2


def _confined_axis_basis(c, d, n, eps):
    """sqrt(2/(n+1)) sin(m pi (y - c)/w), eigenvalue (m pi / w)^2 / eps^2."""
    w = d - c
    y = c + w / (n + 1) * (1 + np.arange(n))
    m = 1 + np.arange(n)
    vecs = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(y - c, m) * np.pi / w)
    return vecs.astype(complex), (m * np.pi / w) ** 2 / eps**2


def analytic_kinetic_matrix(domain, fn, eps=None):
    """Dense fn(K) on the raveled grid, K = -Delta_x - eps^-2 Delta_y.

    Built as V fn(Lambda) V^dagger from the analytic eigenbasis: V is the
    kron of the per-axis bases, Lambda the sum of the per-axis eigenvalues.
    ``eps=None`` takes the confined weight from the domain.
    """
    bases = []
    for part in domain.parts:
        if part.periodic:
            bases += [_free_axis_basis(L, n) for L, n in zip(part.extents, part.points)]
        else:
            weight = part.eps if eps is None else eps
            bases += [_confined_axis_basis(c, d, n, weight)
                      for (c, d), n in zip(part.intervals, part.points)]
    vecs = np.ones((1, 1), dtype=complex)
    lam = np.zeros(1)
    for v, ev in bases:
        vecs = np.kron(vecs, v)
        lam = np.add.outer(lam, ev).ravel()
    return (vecs * fn(lam)) @ vecs.conj().T


@pytest.fixture
def analytic_kinetic():
    """The analytic-eigenbasis oracle ``analytic_kinetic_matrix``."""
    return analytic_kinetic_matrix


def transform_kinetic_matrix(domain, fn, eps=None):
    """Dense fn(K) on the raveled grid by fast transforms, K as above.

    A reshaped identity is transformed along every axis (FFT on periodic
    axes, DST-I on hard-wall ones), multiplied by fn of the summed axis
    multipliers and transformed back.  It shares no code with
    ``axis_operators``: no eigenvector is written out, and the multipliers
    are formed here, k^2 in the FFT's output order and (m pi / w)^2 / eps^2.
    """
    total, periodic = 0.0, []
    for part in domain.parts:
        for a, n in enumerate(part.points):
            if part.periodic:
                k = 2.0 * np.pi * sfft.fftfreq(n, d=part.extents[a] / n)
            else:
                weight = part.eps if eps is None else eps
                k = (1 + np.arange(n)) * np.pi / part.widths[a] / weight
            total = np.add.outer(total, k**2)
            periodic.append(part.periodic)
    mat = np.eye(total.size).reshape(total.shape + (total.size,))
    for axis, wave in enumerate(periodic):
        mat = sfft.fft(mat, axis=axis) if wave else sfft.dst(mat, type=1, axis=axis)
    mat = fn(total)[..., None] * mat
    for axis, wave in enumerate(periodic):
        mat = sfft.ifft(mat, axis=axis) if wave else sfft.idst(mat, type=1, axis=axis)
    return mat.reshape(total.size, total.size)


@pytest.fixture
def transform_kinetic():
    """The fast-transform oracle ``transform_kinetic_matrix``."""
    return transform_kinetic_matrix


# -- direct sweeps over the state: the oracles of the density-matrix route ----


def kinetic_sweep(values, domain):
    """Re <v, (-Delta_x - eps^-2 Delta_y) v>, euclidean, along the leading axes.

    Each ``axis_operators`` group matrix K_g is applied along its merged axis
    of the whole array and the group terms <v, K_g v> are summed.
    """
    grouped = values.reshape(axis_groups(domain.shape) + values.shape[len(domain.shape):])
    return sum(float(np.vdot(grouped, apply_along(grouped, op, axis)).real)
               for axis, op in enumerate(axis_operators(domain, lambda mult: mult)))


def grad_q_sweep(state, phi):
    """<q_1 psi, h~ q_1 psi> from q_1 psi formed as a new state and swept.

    ``phi`` is the one-body reference on the grid, normalized in L^2.
    """
    dom = state.domain
    phi_unit = phi.ravel() * np.sqrt(dom.cell_volume)
    q1 = project_q(state.values.reshape(phi_unit.size, -1), phi_unit, 0)
    q1 = q1.reshape(dom.shape + (-1,))
    shift = chi_mode(dom.confined, 0).energy_eps * float(np.vdot(q1, q1).real)
    return state.cell_volume * (kinetic_sweep(q1, dom) - shift)


def brute_force_kernel(spec):
    """w(|x_1 - x_2|, eps |y_1 - y_2|) per node pair, as an (m, m) matrix.

    Nodes are built here: the free axes at -L/2 + k L/n with the minimum
    image of each difference taken by modulo, the confined axes at
    c + k (d - c)/(n + 1) with the difference compressed by eps.  This is
    the theta = 0 kernel, with no N-dependent prefactor or argument scale.
    """
    assert spec.regime == "hartree-theta0"
    free, conf = spec.free, spec.confined
    axes = [-L / 2 + L / n * np.arange(n) for L, n in zip(free.extents, free.points)]
    axes += [c + (d - c) / (n + 1) * (1 + np.arange(n))
             for (c, d), n in zip(conf.intervals, conf.points)]
    coords = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    diff = coords[:, None, :] - coords[None, :, :]
    for a, L in enumerate(free.extents):
        diff[..., a] = (diff[..., a] + L / 2) % L - L / 2
    diff[..., free.dim:] *= conf.eps
    return spec.interaction.radial(np.sqrt(np.sum(diff**2, axis=-1)))


@pytest.fixture
def dense_pair_kernel():
    """The pair-kernel oracle ``brute_force_kernel``: no offset table, no view."""
    return brute_force_kernel


def energy_sweep(state, spec):
    """Per-particle energy from state-sized products: <psi, (K_1 + V_1) psi>
    by ``kinetic_sweep`` and vdot(psi, V_1 psi), plus the pair term from
    vdot(psi, W_12 psi) with the ``brute_force_kernel``."""
    dom, n, psi = state.domain, state.n_particles, state.values
    block = len(dom.shape)
    one = kinetic_sweep(psi, dom)
    if not spec.potential.is_zero:
        v_one = spec.potential.values(state.t, dom)
        one += float(np.vdot(psi, v_one.reshape(dom.shape + (1,) * (block * (n - 1))) * psi).real)
    pair = brute_force_kernel(spec).reshape(dom.shape * 2 + (1,) * (block * (n - 2)))
    pair_exp = float(np.vdot(psi, pair * psi).real)
    coeff = spec.pair_prefactor * (n * (n - 1) / 2.0) / n
    return state.cell_volume * (one + coeff * pair_exp)


@pytest.fixture
def direct_sweeps():
    """The state-sweep oracles ``kinetic_sweep``, ``grad_q_sweep`` and ``energy_sweep``."""
    return SimpleNamespace(kinetic=kinetic_sweep, grad_q=grad_q_sweep, energy=energy_sweep)


# -- the per-coordinate projector split: the oracle of the number frame -------


def occupancy_split(psi, phi, weight=1.0):
    """[P_{0,N} psi, ..., P_{N,N} psi] by splitting psi one coordinate at a time.

    Sweeping the coordinates once and keeping partial sums sorted by the
    number of q factors costs O(N^2) ``project_p`` applications instead of
    the 2^N literal operator sum.  It uses no reflector and no #q table.
    """
    psi, phi, n, amp = _frame(psi, phi, weight)
    p_part = project_p(psi, phi, 0)
    comps = [p_part, psi - p_part]
    for axis in range(1, n):
        new, prev_q = [], None
        for comp in comps:
            p_part = project_p(comp, phi, axis)
            q_part = comp - p_part
            new.append(p_part if prev_q is None else p_part + prev_q)
            prev_q = q_part
        new.append(prev_q)
        comps = new
    return [amp * comp for comp in comps]


@pytest.fixture
def projector_split():
    """The per-coordinate splitting oracle ``occupancy_split``."""
    return occupancy_split


# -- literal sums: the oracles of the coset symmetrizer and the pattern walk --


def permutation_average_all_orders(values, n, block):
    """Mean of ``values`` over all n! orders of its n particle blocks of ``block`` axes,
    one transposed add per order."""
    acc = np.zeros_like(values, dtype=np.complex128)
    for order in itertools.permutations(range(n)):
        acc += np.transpose(values, [b * block + a for b in order for a in range(block)])
    acc /= math.factorial(n)
    return acc


def occupation_enumeration_per_pattern(psi, phi):
    """p(k) as the literal sum over the 2^N projector patterns (unit weight):
    each pattern's product of ``project_p``/``project_q`` applied from psi,
    N projector applications per pattern, with no prefix shared."""
    psi, phi, n, _ = _frame(psi, phi)
    out = np.zeros(n + 1)
    for pattern in itertools.product((0, 1), repeat=n):
        v = psi
        for axis, is_q in enumerate(pattern):
            v = project_q(v, phi, axis) if is_q else project_p(v, phi, axis)
        out[sum(pattern)] += float(np.vdot(v, v).real)
    return out


@pytest.fixture
def literal_sums():
    """The literal-sum oracles ``permutation_average_all_orders`` and
    ``occupation_enumeration_per_pattern``."""
    return SimpleNamespace(permutation_average=permutation_average_all_orders,
                           occupation=occupation_enumeration_per_pattern)


# -- the dense Kronecker route: the oracle of the number frame at small d^N ----


def dense_p_matrices(phi, n):
    """[p_1, ..., p_N] as explicit d^N x d^N matrices."""
    phi = np.asarray(phi, dtype=np.complex128).ravel()
    p, eye = np.outer(phi, np.conj(phi)), np.eye(len(phi))
    out = []
    for i in range(n):
        mat = np.ones((1, 1), dtype=np.complex128)
        for j in range(n):
            mat = np.kron(mat, p if j == i else eye)
        out.append(mat)
    return out


def dense_sector_projectors(phi, n):
    """[P_{0,N}, ..., P_{N,N}] as explicit matrices (2^N pattern sum)."""
    ps = dense_p_matrices(phi, n)
    dim = ps[0].shape[0]
    qs = [np.eye(dim) - p for p in ps]
    out = [np.zeros((dim, dim), dtype=np.complex128) for _ in range(n + 1)]
    for pattern in itertools.product((0, 1), repeat=n):
        mat = np.eye(dim, dtype=np.complex128)
        for i, is_q in enumerate(pattern):
            mat = mat @ (qs[i] if is_q else ps[i])
        out[sum(pattern)] += mat
    return out


def dense_hat_matrix(f, phi, n):
    """f-hat = sum_k f(k) P_{k,N} as an explicit matrix, for the weight array f(0..N)."""
    projs = dense_sector_projectors(phi, n)
    return sum(f[k] * projs[k] for k in range(n + 1))


@pytest.fixture
def dense_kron():
    """The dense Kronecker oracles ``dense_sector_projectors`` and ``dense_hat_matrix``."""
    return SimpleNamespace(sector_projectors=dense_sector_projectors, hat=dense_hat_matrix)


# -- grid-route helpers: the mode split and the report's grad_q form -------------


def mode_projection_split(state, one_body):
    """(||q_1^chi psi||^2, ||p_1^chi q_1^Phi psi||^2); the parts sum to alpha.

    Splits the first-coordinate deviation from the condensate into confined
    excitations and free-direction excitations of the ground confined mode.
    """
    dom = state.domain
    d_f, d_c = dom.free.dim, dom.confined.dim
    chi = one_body.mode.chi.values * np.sqrt(dom.confined.cell_volume)
    phi_free = one_body.phi_free.values * np.sqrt(dom.free.cell_volume)
    psi, _, _, amp = _grid_frame(state, one_body)
    psi = psi.reshape(dom.shape + (-1,))  # the first particle's axes, then the rest

    conf_axes = tuple(range(d_f, d_f + d_c))
    c = np.tensordot(np.conj(chi), psi, axes=(tuple(range(d_c)), conf_axes))
    q_chi = psi - np.moveaxis(np.multiply.outer(chi, c), tuple(range(d_c)), conf_axes)
    # p_1^chi psi = chi (x) c with chi of unit norm, so q_1^Phi acts on c alone
    cf = np.tensordot(np.conj(phi_free), c, axes=(tuple(range(d_f)), tuple(range(d_f))))
    q_phi_c = c - np.multiply.outer(phi_free, cf)
    return (amp**2 * float(np.vdot(q_chi, q_chi).real),
            amp**2 * float(np.vdot(q_phi_c, q_phi_c).real))


def grad_q_density_route(state, reference):
    """<q_1 psi, h~_1 q_1 psi> as the counting report takes it: ``counting._grad_q_form``
    on the state's ``OneBodyDensity``.  ``reference`` is a ``OneBodyState`` or the
    L^2-normalized one-body values on the grid."""
    _, phi, _, _ = _grid_frame(state, reference)
    return _grad_q_form(OneBodyDensity(state), phi)


@pytest.fixture
def grid_routes():
    """The grid-route helpers ``mode_projection_split`` and ``grad_q_density_route``."""
    return SimpleNamespace(mode_split=mode_projection_split, grad_q=grad_q_density_route)


# -- grid builders: sampled functions and narrow kernels --------------------------


def sample_grid_function(domain, func):
    """``func(*coords)`` sampled on the grid, as a ``GridFunction``.

    On the axes of a non-periodic part the function is also evaluated at
    the walls and rejected if it does not vanish there (|f| > 1e-12),
    since the sine representation silently assumes the hard-wall
    condition.
    """
    axes = [part.axis_nodes(a) for part in domain.parts for a in range(part.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    values = np.asarray(func(*grids), dtype=np.complex128)

    start = 0  # value axis of the part's first axis
    for part in domain.parts:
        if not part.periodic:
            for local_a, interval in enumerate(part.intervals):
                for wall in interval:
                    probe = [g.copy() for g in grids]
                    probe[start + local_a] = np.full_like(probe[start + local_a], wall)
                    boundary = np.asarray(func(*probe), dtype=np.complex128)
                    if np.max(np.abs(boundary)) > 1e-12:
                        raise ValueError(
                            "sampled function does not vanish on the hard wall "
                            f"(confined axis {local_a}, wall {wall})"
                        )
        start += part.dim
    return GridFunction(domain, values)


@pytest.fixture
def grid_sample():
    """The wall-checked grid sampler ``sample_grid_function``."""
    return sample_grid_function


def narrow_kernel_function(domain, width, total):
    """Gaussian difference kernel on a free domain with grid integral exactly ``total``.

    Used for probing the narrow-interaction (Hartree -> NLS) limit; the
    normalization uses the same uniform quadrature as the convolution.
    """
    xs = domain.meshgrid()
    raw = np.exp(-sum(x**2 for x in xs) / (2 * width**2))
    raw_int = float(np.sum(raw) * domain.cell_volume)
    return GridFunction(domain, raw * (total / raw_int))


@pytest.fixture
def narrow_kernel():
    """The kernel builder ``narrow_kernel_function``."""
    return narrow_kernel_function
