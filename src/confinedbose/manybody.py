"""Exact N-particle Schrodinger dynamics on the tensor grid Omega^N.

The wavefunction is stored as a dense complex tensor whose axis blocks are
the per-particle (free..., confined...) axes.  The kinetic operator is a sum
of commuting one-particle terms, so kinetic kicks apply the one-body
propagators of ``grids.axis_operators`` along every particle's merged axes
(``grids.axis_groups``: 16 x 3 is one 48 x 48 matrix, 64 x 4 x 4 is
64 | 16), which halves the sweeps over the state without the cost of a
dense per-particle matrix.  Pair interactions and external potentials act
by exact pointwise phases, applied in the grid-aligned blocks of
``grids.row_blocks``, the walker of every state-sized pass; the pair phase
is held only as its offset table, whose read-only view (``_pair_view``)
serves every pair at every N.  The integrator is ``grids.strang_steps``, the
same second-order Strang schedule as the effective solver.  The evolver
holds one state: it steps its input's buffer in place and lends each
reported snapshot as a view of it, valid until the next is requested.
Energies come from the density matrix and the two-body density.
Everything is desk scale: a memory guard refuses runs whose working set
(``working_set_bytes``: one state-sized array whatever N, with a slab
scratch in a step or the density matrix at a snapshot; the pair phase on
its offset lattice; a one-body allowance) exceeds a configurable cap
(2 GiB by default).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas

from .errors import ConfigError, GuardError
from .grids import (
    _SLAB_BYTES,
    ProductDomain,
    axis_groups,
    axis_operators,
    kinetic_trace,
    row_blocks,
    step_count,
    strang_steps,
)
from .model import ModelSpec
from .onebody import OneBodyState

__all__ = [
    "ManyBodyState",
    "pair_phase_array",
    "evolve_manybody",
    "manybody_energy",
    "density_matrix",
    "symmetrize",
    "symmetry_residual",
    "product_state",
    "estimate_state_bytes",
    "working_set_bytes",
    "DEFAULT_MEMORY_CAP",
]

DEFAULT_MEMORY_CAP = 2 * 1024**3  # bytes; see working_set_bytes for what a run needs
SYMMETRY_TOL = 1e-6  # largest transposition residual accepted as a symmetric state


@dataclass(frozen=True)
class ManyBodyState:
    """Symmetric N-particle wavefunction on the tensor grid.

    ``values`` is a read-only view of the given array (whose own flag is
    left as it was), so values computed from it, such as the transposition
    residual, are computed once per state.
    """

    domain: ProductDomain
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128).view()
        self.n_particles_of(values.shape)  # shape validation
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def n_particles_of(self, shape) -> int:
        block = len(self.domain.shape)
        if len(shape) % block or shape != self.domain.shape * (len(shape) // block):
            raise ConfigError("value shape is not a tensor power of the one-body grid")
        return len(shape) // block

    @property
    def n_particles(self) -> int:
        return len(self.values.shape) // len(self.domain.shape)

    @property
    def cell_volume(self) -> float:
        return self.domain.cell_volume ** self.n_particles

    def mass(self) -> float:
        return float(np.sqrt(self.cell_volume * np.vdot(self.values, self.values).real))

    @functools.cached_property
    def _residual(self) -> float:
        """Euclidean ``_transposition_residual`` of the values."""
        return _transposition_residual(self.values, self.n_particles, len(self.domain.shape))


def estimate_state_bytes(spec: ModelSpec) -> int:
    m = int(np.prod(spec.domain.shape))
    return 16 * m**spec.n_particles


_ONE_BODY_ALLOWANCE = 1 << 20  # bytes: one-body arrays, trajectory and report objects


def working_set_bytes(spec: ModelSpec) -> int:
    """Bytes budgeted for a streamed run, whatever its length and N.

    The evolver holds its pair phase for the whole run as the tiled offset
    table (``_pair_table``, 2^d_f m_f m_c^2 entries), whatever N: every pair
    multiplies by views of it.  Besides that, the larger of two moments:

    - a step: the one state-sized array, which is the input's buffer, every
      snapshot's and the Strang step's, with one slab scratch of
      ``grids._SLAB_BYTES``: every kick sweep acts in place through it, and
      the potential substep multiplies in place by views of the pair table.
    - a snapshot's diagnostics: the snapshot, and the m^2-sized density
      matrix gamma, with a counting report's row block (one slab, or one
      1/m-sized row when a row is larger) and two 1/m-sized coefficient
      arrays.  gamma is freed before the next step.  The energy's pair
      blocks and the symmetry check's 1/m-sized buffer come before gamma
      and are smaller.

    At N = 2 gamma is state-sized, so the snapshot's moment is two states.
    """
    m = int(np.prod(spec.domain.shape))
    state = estimate_state_bytes(spec)
    m_c = math.prod(spec.confined.shape)
    held = 16 * 2**spec.free.dim * math.prod(spec.free.shape) * m_c**2
    step = state + _SLAB_BYTES
    report = state + 16 * m**2 + max(_SLAB_BYTES, state // m) + 2 * (state // m)
    return held + max(step, report) + _ONE_BODY_ALLOWANCE


# -- pair interaction ---------------------------------------------------------


def _kernel_scaling(spec: ModelSpec) -> tuple[float, float]:
    """(prefactor, argument scale) of the sampled kernel.

    theta = 0: plain w(x, eps y).  theta > 0: the N-multiplied short-range
    kernel N a^(1-3 theta) w(a^-theta (x, eps y)); the Hamiltonian divides
    by N (resp. N-1) again via ``spec.pair_prefactor``.
    """
    if spec.regime == "hartree-theta0":
        return 1.0, 1.0
    a = spec.coupling_length
    return spec.n_particles * a ** (1.0 - 3.0 * spec.theta), a ** (-spec.theta)


def _resolvability_guard(spec: ModelSpec):
    if spec.interaction.amplitude == 0.0:
        return
    if not spec.interaction.is_bounded:
        raise GuardError(
            "grid pair dynamics needs a bounded interaction kind; the coulomb "
            "profile is for the norm and quadrature machinery"
        )
    _, arg_scale = _kernel_scaling(spec)
    r_scaled = spec.interaction.radius / arg_scale
    for h in spec.free.spacings:
        if r_scaled < 3.0 * h:
            need = math.ceil(3.0 * h / r_scaled * max(spec.free.points))
            raise GuardError(
                f"scaled interaction support {r_scaled:.3g} under-resolved; "
                f"needs >= 3 spacings (try about {need} free points per axis)"
            )
    for h in spec.confined.spacings:
        if r_scaled / spec.eps < 3.0 * h:
            raise GuardError(
                "scaled interaction support under-resolved on the confined axes"
            )


def _pair_table(spec: ModelSpec) -> np.ndarray:
    """The scaled pair kernel on its offset lattice, laid out by ``_row_layout``.

    The free axes are periodic and the hard-wall axes uniformly spaced, so
    W(x_1, x_2) depends on the free nodes only through their offset (i - j)
    mod n.  C[d, y_1, y_2] = W((d, y_1), (0, y_2)), with d the free offsets
    and y_1, y_2 the raveled confined nodes, is sampled once per entry
    (m_f m_c^2 radial evaluations, not m^2): free offsets from node 0 to
    the minimum image, confined differences compressed by eps.
    """
    _resolvability_guard(spec)
    pref, arg_scale = _kernel_scaling(spec)
    d_c = spec.confined.dim
    r2 = np.zeros(spec.free.shape + spec.confined.shape * 2)
    axis = 0
    for part in spec.domain.parts:
        for a in range(part.dim):
            nodes = part.axis_nodes(a)
            sh = [1] * r2.ndim
            if part.periodic:
                L = part.extents[a]
                diff = nodes - nodes[0]
                diff -= L * np.round(diff / L)
                sh[axis] = len(nodes)
            else:
                diff = part.eps * (nodes[:, None] - nodes[None, :])
                sh[axis] = sh[axis + d_c] = len(nodes)
            r2 = r2 + (diff**2).reshape(sh)
            axis += 1
    m_c = math.prod(spec.confined.shape)
    c = pref * spec.interaction.radial(arg_scale * np.sqrt(r2))
    return _row_layout(c.reshape(spec.free.shape + (m_c, m_c)))


def _row_layout(c: np.ndarray) -> np.ndarray:
    """An offset table C[d, y_1, y_2] laid out so each pair-matrix row is a slice.

    T[y_1, k, y_2] = C[(n - 1 - k) mod n, y_1, y_2] for k = 0..2n-1 on each
    free axis: C tiled twice and reversed along its free axes, y_1 moved
    first.  For x_1 = (i, y_1) and x_2 = (j, y_2), W(x_1, x_2) =
    C[(i - j) mod n, y_1, y_2] = T[y_1, n - 1 - i + j, y_2], so the row of
    x_1 is the slice T[y_1, n - 1 - i : 2n - 1 - i, :]: with y_1 first, its
    last free axis and y_2 are one contiguous run, the whole row at d_f = 1.
    """
    d_f = c.ndim - 2
    tiled = np.tile(c, (2,) * d_f + (1, 1))
    return np.ascontiguousarray(np.moveaxis(np.flip(tiled, tuple(range(d_f))), -2, 0))


def _pair_view(table: np.ndarray) -> np.ndarray:
    """The pair matrix of a ``_row_layout`` table as a read-only view, shape (grid) x 2.

    The grid here is (n_1, ..., n_df, m_c), the raveled one-body grid's
    free axes and its confined nodes.  W[(i, y_1), (j, y_2)] =
    T[y_1, n - 1 - i + j, y_2]: on each free axis a window of n entries of
    the tiled axis, starting at n - 1 - i.  No entry is copied.
    """
    free = [s // 2 for s in table.shape[1:-1]]
    d_f = len(free)
    win = sliding_window_view(table, free, axis=tuple(range(1, d_f + 1)))
    # axes: y_1, window starts s = n - 1 - i, y_2, offsets j in the window
    win = win[tuple([slice(None)] + [slice(n - 1, None, -1) for n in free])]
    return win.transpose([*range(1, d_f + 1), 0, *range(d_f + 2, 2 * d_f + 2), d_f + 1])


def pair_phase_array(spec: ModelSpec) -> np.ndarray:
    """W(r_i - r_j) for one particle pair, shape (one-body grid) x 2.

    The package's one sampler of the scaled pair kernel: the offset table
    of ``_pair_table``, expanded.  Differences on periodic axes use the
    minimum image; on hard-wall axes they enter the profile compressed by
    eps, as in the rescaled Hamiltonian.  The prefactor of the Hamiltonian
    (1/(N-1) or 1/N) is *not* included.
    """
    return np.ascontiguousarray(_pair_view(_pair_table(spec))).reshape(spec.domain.shape * 2)


# -- dynamics -----------------------------------------------------------------


def _transposition_residual(values: np.ndarray, n: int, block: int) -> float:
    """Max over transpositions sigma of the euclidean ||values - sigma values||,
    for n particle blocks of ``block`` axes each.

    For the pair (i, j), values is viewed as (P, m, Q, m, R) with m the size
    of one block, P = m^i, Q = m^(j-i-1), R = m^(n-j-1), and sigma swaps
    the two m-sized axes.  The difference vanishes on the a = b diagonal
    and is antisymmetric in (a, b), so ||values - sigma values||^2 is twice
    its sum over a < b.  For each a, the slab [:, a, :, b > a, :] minus the
    transposed slab [:, b > a, :, a, :] goes into one reused buffer of 1/m
    of the state.  Not 2||v||^2 - 2 Re<v, sigma v>: its cancellation leaves
    ~1e-8 on states symmetric up to roundoff.
    """
    m = math.prod(values.shape[:block])
    buf = np.empty(values.size // m, dtype=values.dtype)
    worst = 0.0
    for i, j in itertools.combinations(range(n), 2):
        v = values.reshape(m**i, m, m ** (j - i - 1), m, m ** (n - j - 1))
        total = 0.0
        for a in range(m - 1):
            upper = v[:, a, :, a + 1:, :]  # (P, Q, m - a - 1, R)
            lower = v[:, a + 1:, :, a, :].transpose(0, 2, 1, 3)
            d = buf[:upper.size].reshape(upper.shape)
            np.subtract(upper, lower, out=d)
            total += np.vdot(d, d).real
        worst = max(worst, math.sqrt(2.0 * total))
    return worst


def symmetry_residual(state: ManyBodyState) -> float:
    """Max over transpositions of ||psi - sigma psi|| (quadrature norm).

    Evaluated once per state: the evolver's guard and the energy of the
    t = 0 snapshot, which is the evolver's input object, share one value.
    """
    return state._residual * np.sqrt(state.cell_volume)


def _apply_phases(values: np.ndarray, n: int, m: int, phase_one, pair):
    """values *= prod_i phase_one(x_i) prod_{i<j} W_phase(x_i, x_j), in place.

    ``values`` is a C-contiguous N-particle state of m points per particle,
    ``phase_one`` (m,) may be None.  The pair phase ``pair`` is a matrix of
    shape (grid) x 2 such as the ``_pair_view`` of its offset table (None at
    N = 1).  The (m, m^(N-1)) view is walked in the ``grids.row_blocks`` of
    the pair's grid (one row when a row is larger than a slab), and each
    block takes every factor before the next: one pass over memory instead
    of N + C(N, 2).  A block's pairs with particle 0 multiply it by
    pair[box]; the other pairs by the whole view, broadcast over the block's
    per-particle grid axes.  No factor is copied out of the view.  Per
    element the factors come in the order of whole-state passes (one-body
    i = 0..N-1, then the pairs in ``combinations`` order, those with
    particle 0 first), so the product is the same to the bit.
    """
    rest = m ** (n - 1)
    view = values.reshape(m, rest)
    grid = (m,) if pair is None else pair.shape[:pair.ndim // 2]
    g = len(grid)
    for lo, hi, box in row_blocks(grid, values.itemsize * rest):
        block = view[lo:hi].reshape((-1,) + (m,) * (n - 1))
        if phase_one is not None:
            for i in range(n):
                block *= (phase_one[lo:hi] if i == 0 else phase_one).reshape(
                    [-1 if k == i else 1 for k in range(n)])
        if n == 1:
            continue
        rows = pair[box]
        lead = rows.shape[:-g]  # the box's sliced and whole axes
        for j in range(1, n):
            piece = view[lo:hi].reshape(lead + (m ** (j - 1),) + grid + (m ** (n - 1 - j),))
            piece *= rows.reshape(lead + (1,) + grid + (1,))
        by_particle = block.reshape((-1,) + grid * (n - 1))
        for i, j in itertools.combinations(range(1, n), 2):
            axes = [slice(None) if k in (i, j) else None for k in range(1, n) for _ in grid]
            by_particle *= pair[(None,) + tuple(axes)]


def evolve_manybody(state: ManyBodyState, spec: ModelSpec, T: float, dt: float,
                    stride: int = 1,
                    memory_cap: int = DEFAULT_MEMORY_CAP) -> Iterator[ManyBodyState]:
    """Strang-split unitary evolution under the N-particle Hamiltonian.

    ``grids.strang_steps`` runs the schedule.  Its kicks apply the one-body
    propagators (eps^-2 weight on confined axes) along every particle's
    merged axes.  On the 64 x 4 x 4 grid at N = 2 (one BLAS thread) a
    half-kick takes 45 ms as 64 | 16, 96 ms as per-axis sweeps and 296 ms
    as one dense 1024 x 1024 matrix per particle, so merging needs the
    bound of ``grids.axis_groups``.  The potential substep applies in place
    the exact phase of the summed external potential and pair interactions,
    the external part evaluated at the step midpoint, in one slab walk over
    the state (``_apply_phases``).

    The guards run and the propagators are built at call time.  The evolver
    takes over the input's buffer, which must be writeable and C-contiguous
    (a read-only or strided array is a ``ConfigError``, not a silent copy),
    and steps it in place.  The returned iterator yields the input state,
    then the state after every ``stride``-th step and after the last, each a
    view of that one buffer: a snapshot is lent until the next is requested,
    when its ``values`` become None, the input's included; the last one
    stays valid.  A caller that keeps a snapshot copies its values.
    """
    steps = step_count(T, dt)
    if state.n_particles != spec.n_particles or state.domain != spec.domain:
        raise ConfigError("state does not match the model spec's grid or N")
    need = working_set_bytes(spec)
    if need > memory_cap:
        raise GuardError(
            f"estimated working set {need / 2**30:.2f} GiB exceeds cap "
            f"{memory_cap / 2**30:.2f} GiB; shrink the grid or raise the cap"
        )
    if abs(state.mass() - 1.0) > 1e-6:
        raise ConfigError("initial state is not normalized")
    if symmetry_residual(state) > SYMMETRY_TOL:
        raise ConfigError("initial state is not permutation symmetric")
    values = state.values.view()
    try:
        values.flags.writeable = True  # refused if the caller's array is read-only
        if not values.flags.c_contiguous:
            raise ValueError
    except ValueError:
        raise ConfigError("evolve_manybody steps its input in place: pass a state "
                          "over a writeable C-contiguous array") from None

    n = spec.n_particles
    dom = spec.domain
    groups = axis_groups(dom.shape)
    half = axis_operators(dom, lambda mult: np.exp(-0.5j * dt * mult)) * n
    full = axis_operators(dom, lambda mult: np.exp(-1j * dt * mult)) * n
    m = math.prod(dom.shape)
    pair = None
    if n > 1:
        pair = _pair_view(np.exp(-1j * dt * spec.pair_prefactor * _pair_table(spec)))
    t0 = state.t

    def substep(k, values):
        phase_one = None
        if not spec.potential.is_zero:
            t_mid = t0 + k * dt + dt / 2
            phase_one = np.exp(-1j * dt * spec.potential.values(t_mid, dom)).reshape(m)
        _apply_phases(values, n, m, phase_one, pair)

    strang = strang_steps(values.reshape(groups * n), half, full, substep, steps, stride)
    return _snapshots(state, strang, steps, dt)


def _snapshots(state, strang, steps, dt):
    """``state``, then one ManyBodyState per (steps done, grouped values) of ``strang``.

    Each is lent: just before ``strang`` writes the buffer again, the last
    one's ``values`` become None, so a stale read fails rather than return
    later values.  After the last step nothing writes, so the last stays.
    """
    dom, n, t0 = state.domain, state.n_particles, state.t
    snapshot, done = state, 0
    yield snapshot
    while done < steps:
        object.__setattr__(snapshot, "values", None)
        done, values = next(strang)
        snapshot = ManyBodyState(dom, values.reshape(dom.shape * n), t0 + done * dt)
        yield snapshot


def density_matrix(psi, weight: float = 1.0) -> np.ndarray:
    """Reduced one-particle density matrix gamma = weight^N A A^dagger, unit-weight basis.

    ``psi`` has one axis per particle, A is its (m, m^(N-1)) reshape and
    ``weight`` the one-body cell volume.  One BLAS ``zherk`` reads psi in
    place and writes one triangle, so besides psi only gamma is allocated;
    the other triangle is filled row by row from the conjugate.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    rows = psi.reshape(psi.shape[0], -1)
    # zherk forms A^dagger A of the F-ordered (cols, m) view rows.T, which is
    # gamma^T; its transpose is gamma as a C-ordered array with the lower triangle set
    gamma = blas.zherk(weight**psi.ndim, rows.T, trans=2).T
    for i in range(len(gamma) - 1):
        gamma[i, i + 1:] = gamma[i + 1:, i].conj()
    return gamma


def _pair_expectation(state: ManyBodyState, spec: ModelSpec) -> float:
    """sum_{x_1, x_2} W(x_1, x_2) rho_2(x_1, x_2) times the cell volume of Omega^N.

    rho_2(x_1, x_2) = sum_rest |psi(x_1, x_2, rest)|^2 is summed over the
    ``grids.row_blocks`` of x_1 on the pair view's grid: each block's kernel
    rows are pair[box], a view of the offset table that ``vdot`` flattens
    into a transient of at most a slab, and its rho_2 rows come from one
    ``einsum`` over the real view of psi into one buffer of at most a slab.
    So neither an m^2-sized kernel nor an m^2-sized rho_2 is formed, and no
    state-sized product.
    """
    m = math.prod(state.domain.shape)
    pair = _pair_view(_pair_table(spec))  # m_f m_c^2 samples: cheap to rebuild per snapshot
    parts = state.values.reshape(m, m, -1).view(np.float64)
    grid = pair.shape[:pair.ndim // 2]
    rho2 = np.empty((next(row_blocks(grid, 8 * m))[1], m))  # the first block is the largest
    total = 0.0
    for lo, hi, box in row_blocks(grid, 8 * m):
        block = parts[lo:hi]
        rows = np.einsum("abr,abr->ab", block, block, out=rho2[:hi - lo])
        total += float(np.vdot(pair[box], rows))
    return total * state.cell_volume


def _energy_and_residual(state: ManyBodyState, spec: ModelSpec) -> tuple[float, float, np.ndarray]:
    """(manybody_energy, the symmetry residual its guard computed, ``density_matrix`` gamma).

    One-body terms: tr(K gamma) (``grids.kinetic_trace``) + sum_x V(x) gamma(x, x).
    The pair term is ``_pair_expectation``, with no m^2-sized array.  It goes
    first, so that its buffers are freed before gamma, which at N = 2 is
    state-sized, is formed.
    """
    residual = symmetry_residual(state)
    if residual > SYMMETRY_TOL:
        raise ConfigError("manybody_energy expects a symmetric state")
    n, dom = state.n_particles, state.domain
    m = math.prod(dom.shape)
    inter = 0.0
    if n > 1:
        inter = spec.pair_prefactor * (n * (n - 1) / 2.0) / n * _pair_expectation(state, spec)
    gamma = density_matrix(state.values.reshape((m,) * n), dom.cell_volume)
    v_one = spec.potential.values(state.t, dom).ravel()  # zeros without a potential
    one = kinetic_trace(gamma, dom) + float(np.dot(v_one, gamma.diagonal().real))
    return one + inter, residual, gamma


def manybody_energy(state: ManyBodyState, spec: ModelSpec) -> float:
    """Per-particle energy via the symmetric two-body reduction."""
    return _energy_and_residual(state, spec)[0]


def _permutation_average(values: np.ndarray, n: int, block: int) -> np.ndarray:
    """Mean of ``values`` over all orders of its n particle blocks of ``block`` axes."""
    acc = np.zeros_like(values)
    for order in itertools.permutations(range(n)):
        acc += np.transpose(values, [b * block + a for b in order for a in range(block)])
    acc /= math.factorial(n)
    return acc


def symmetrize(domain: ProductDomain, values: np.ndarray, t: float = 0.0) -> ManyBodyState:
    """Average over all particle permutations and renormalize."""
    raw = ManyBodyState(domain, values, t)
    n = raw.n_particles
    if n > 6:
        raise GuardError("permutation average limited to N <= 6")
    acc = _permutation_average(raw.values, n, len(domain.shape))
    nrm = float(np.linalg.norm(acc.ravel())) * np.sqrt(raw.cell_volume)
    if nrm < 1e-14:
        raise ConfigError("state vanishes after symmetrization")
    return ManyBodyState(domain, acc / nrm, t)


def product_state(one_body: OneBodyState, n: int) -> ManyBodyState:
    """phi^(x) n as a ManyBodyState (normalizes the one-body factor)."""
    phi = one_body.product_values()
    phi = phi / (np.linalg.norm(phi.ravel()) * np.sqrt(one_body.domain.cell_volume))
    values = phi
    for _ in range(n - 1):
        values = np.multiply.outer(values, phi)
    return ManyBodyState(one_body.domain, values, one_body.t)

