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
Energies come from the one-particle density matrix gamma and the two-body
density.  gamma (``OneBodyDensity``) is formed only where it is smaller
than the state (N >= 3); at N <= 2 it is read through the snapshot.
Everything is desk scale: a memory guard refuses runs whose working set
(``working_set_bytes``: one state-sized array whatever N, with a slab
scratch in a step or a snapshot's diagnostics; the pair phase on its
offset lattice; a one-body allowance) exceeds a configurable cap (2 GiB by
default).
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
    "evolve_manybody",
    "manybody_energy",
    "density_matrix",
    "OneBodyDensity",
    "symmetrize",
    "symmetry_residual",
    "product_state",
    "estimate_state_bytes",
    "working_set_bytes",
    "check_memory_cap",
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
_LANCZOS_BASIS = 16  # m-sized vectors of the trace distance's Lanczos basis (counting)


def working_set_bytes(spec: ModelSpec) -> int:
    """Bytes budgeted for a streamed run, whatever its length and N.

    The evolver holds its pair phase for the whole run as the tiled offset
    table (``_pair_table``, 2^d_f m_f m_c^2 entries), whatever N: every pair
    multiplies by views of it.  Besides that, the largest of three moments:

    - a step: the one state-sized array, which is the input's buffer, every
      snapshot's and the Strang step's, with one slab scratch of
      ``grids._SLAB_BYTES``: every kick sweep acts in place through it, and
      the potential substep multiplies in place by views of the pair table.
    - a snapshot's pair energy (``_pair_expectation``): the snapshot and the
      real table it rebuilds, first with the m_f m_c^2 kernel C that fills
      it, then with its rho_2 buffer, which is half a slab (8m bytes when
      one row is larger), and the kernel rows, read in place.  The evolver's
      setup holds less: the input state and the real table, beside the
      complex phase made from it.
    - a snapshot's diagnostics: the snapshot and its ``OneBodyDensity``,
      with a counting report's occupation chain (``counting._sector_weights``)
      and the trace distance's Lanczos basis (``_LANCZOS_BASIS`` m-sized
      vectors; its few work vectors come after the chain is freed).  The
      chain holds one 1/m-sized link, one slab of walk scratch (one
      1/m^2-sized axis-1 slice when that is larger) and two 1/m^2-sized
      arrays: the next link beside the second link's walk, or the first
      link's axis-1 coefficients when a slice crowds them out of the slab.
      The density is the m^2-sized gamma at N >= 3, freed before the next
      step; at N <= 2 (``_density_is_factored``) it is read through the
      snapshot, and only its largest group-reduced matrix is formed.  The
      symmetry check walks its differences through one slab, so it does
      not exceed the chain's scratch.
    """
    m = int(np.prod(spec.domain.shape))
    state = estimate_state_bytes(spec)
    kernel = 8 * math.prod(spec.free.shape) * math.prod(spec.confined.shape) ** 2
    table = 2**spec.free.dim * kernel  # real; the held phase is complex
    step = state + _SLAB_BYTES
    pair = state + table + max(kernel, _SLAB_BYTES, 16 * m)
    if _density_is_factored(spec.n_particles):
        gamma = 16 * max(axis_groups(spec.domain.shape)) ** 2
    else:
        gamma = 16 * m**2
    report = (state + gamma + state // m + max(_SLAB_BYTES, state // m**2)
              + 2 * (state // m**2) + 16 * m * _LANCZOS_BASIS)
    return 2 * table + max(step, pair, report) + _ONE_BODY_ALLOWANCE


def check_memory_cap(spec: ModelSpec, cap: int) -> None:
    """The memory guard of every run: a ``GuardError`` when the run's
    ``working_set_bytes`` exceeds ``cap`` bytes."""
    need = working_set_bytes(spec)
    if need > cap:
        raise GuardError(
            f"N={spec.n_particles}: estimated working set {need / 2**20:.4g} MiB exceeds "
            f"the memory cap {cap / 2**20:.4g} MiB; shrink the grid or N, or raise the cap"
        )


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
    the minimum image, confined differences compressed by eps.  The
    Hamiltonian's 1/(N-1) or 1/N (``spec.pair_prefactor``) is not included.
    C is built in one array, each axis's squared differences added and the
    radial profile taken in place, so the build holds C and the table.
    """
    _resolvability_guard(spec)
    pref, arg_scale = _kernel_scaling(spec)
    d_c = spec.confined.dim
    c = np.zeros(spec.free.shape + spec.confined.shape * 2)
    axis = 0
    for part in spec.domain.parts:
        for a in range(part.dim):
            nodes = part.axis_nodes(a)
            sh = [1] * c.ndim
            if part.periodic:
                L = part.extents[a]
                diff = nodes - nodes[0]
                diff -= L * np.round(diff / L)
                sh[axis] = len(nodes)
            else:
                diff = part.eps * (nodes[:, None] - nodes[None, :])
                sh[axis] = sh[axis + d_c] = len(nodes)
            c += (diff**2).reshape(sh)
            axis += 1
    np.sqrt(c, out=c)
    np.multiply(arg_scale, c, out=c)
    spec.interaction.radial(c, out=c)
    np.multiply(pref, c, out=c)
    m_c = math.prod(spec.confined.shape)
    return _row_layout(c.reshape(spec.free.shape + (m_c, m_c)))


def _row_layout(c: np.ndarray) -> np.ndarray:
    """An offset table C[d, y_1, y_2] laid out so each pair-matrix row is a slice.

    T[y_1, k, y_2] = C[(n - 1 - k) mod n, y_1, y_2] for k = 0..2n-1 on each
    free axis: C tiled twice and reversed along its free axes, y_1 moved
    first.  For x_1 = (i, y_1) and x_2 = (j, y_2), W(x_1, x_2) =
    C[(i - j) mod n, y_1, y_2] = T[y_1, n - 1 - i + j, y_2], so the row of
    x_1 is the slice T[y_1, n - 1 - i : 2n - 1 - i, :]: with y_1 first, its
    last free axis and y_2 are one contiguous run, the whole row at d_f = 1.
    C is written once into the first tile (k < n on every free axis), which
    each free axis's second half then copies, so T is the only array made.
    The copies go y_1 by y_1: the first axis's halves of one y_1 are disjoint
    ranges, which numpy copies without a temporary.
    """
    d_f = c.ndim - 2
    free = c.shape[:d_f]
    table = np.empty(c.shape[-2:-1] + tuple(2 * n for n in free) + c.shape[-1:], c.dtype)
    first = table[(slice(None),) + tuple(slice(n - 1, None, -1) for n in free)]
    first[...] = np.moveaxis(c, -2, 0)
    for row in table:
        for a, n in enumerate(free):
            done = (slice(None),) * a  # the free axes already tiled
            rest = tuple(slice(0, k) for k in free[a + 1:])  # first tiles of the others
            row[done + (slice(n, 2 * n),) + rest] = row[done + (slice(0, n),) + rest]
    return table


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


# -- dynamics -----------------------------------------------------------------


def _transposition_residual(values: np.ndarray, n: int, block: int) -> float:
    """Max over transpositions sigma of the euclidean ||values - sigma values||,
    for n particle blocks of ``block`` axes each.

    For the pair (i, j), values is viewed as (P, m, Q, m, R) with m the size
    of one block, P = m^i, Q = m^(j-i-1), R = m^(n-j-1), and sigma swaps
    the two m-sized axes.  The difference vanishes on the a = b diagonal
    and is antisymmetric in (a, b), so ||values - sigma values||^2 is twice
    its sum over a < b.  For each a, the piece [:, a, :, b > a, :] minus the
    transposed piece [:, b > a, :, a, :] is taken in the ``grids.row_blocks``
    of the piece, each block into one reused buffer of at most a slab; a
    piece that fits the buffer is one block.  Not 2||v||^2 - 2 Re<v, sigma v>:
    its cancellation leaves ~1e-8 on states symmetric up to roundoff.
    """
    m = math.prod(values.shape[:block])
    buf = np.empty(min(values.size // m, _SLAB_BYTES // values.itemsize), dtype=values.dtype)

    def squared(upper, lower):  # ||upper - lower||^2 through the buffer
        d = buf[:upper.size].reshape(upper.shape)
        np.subtract(upper, lower, out=d)
        return np.vdot(d, d).real

    worst = 0.0
    for i, j in itertools.combinations(range(n), 2):
        v = values.reshape(m**i, m, m ** (j - i - 1), m, m ** (n - j - 1))
        total = 0.0
        for a in range(m - 1):
            upper = v[:, a, :, a + 1:, :]  # (P, Q, m - a - 1, R)
            lower = v[:, a + 1:, :, a, :].transpose(0, 2, 1, 3)
            if upper.size <= buf.size:
                total += squared(upper, lower)
                continue
            for _, _, box in row_blocks(upper.shape, values.itemsize):
                total += squared(upper[box], lower[box])
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
    check_memory_cap(spec, memory_cap)
    if not abs(state.mass() - 1.0) <= 1e-6:  # NaN fails too
        raise ConfigError("initial state is not normalized")
    if not symmetry_residual(state) <= SYMMETRY_TOL:
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
        phase = np.multiply(_pair_table(spec), -1j * dt * spec.pair_prefactor)
        pair = _pair_view(np.exp(phase, out=phase))
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
    ``weight`` the one-body cell volume; gamma is the transpose of
    ``_hermitian_sum`` of A as one slice, C-contiguous.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    return _hermitian_sum(psi.reshape(1, psi.shape[0], -1), weight**psi.ndim).T


def _hermitian_sum(blocks: np.ndarray, scale: float) -> np.ndarray:
    """scale * sum_l conj(V_l) V_l^T over the (k, rest) slices V_l of ``blocks``.

    One BLAS ``zherk`` per slice, read in place, adds into the upper triangle
    of one F-ordered k^2 buffer; the lower one is then filled in place from
    its conjugate, column by column, so no other k^2-sized array is made.
    """
    k = blocks.shape[1]
    out = np.zeros((k, k), dtype=np.complex128, order="F")
    for block in blocks:
        out = blas.zherk(scale, block.T, beta=1.0, c=out, trans=2, overwrite_c=1)
    for j in range(k - 1):
        np.conjugate(out[j, j + 1:], out=out[j + 1:, j])
    return out


def _density_is_factored(n_particles: int) -> bool:
    """Whether a snapshot's gamma is read through the state instead of formed:
    where the m x m matrix would be as large as the state, m^2 >= m^N."""
    return n_particles <= 2


def _group_density(rows: np.ndarray, sizes: tuple, g: int, scale: float) -> np.ndarray:
    """Gamma_g^T for gamma = scale * rows rows^dagger, Gamma_g its reduction to group g.

    ``rows`` is C-contiguous with one row per grid point; its regrouped
    view (L, sizes[g], rest), L the product of the earlier groups, gives
    Gamma_g = scale sum_l V_l V_l^dagger over its (sizes[g], rest) slices.
    """
    return _hermitian_sum(rows.reshape(math.prod(sizes[:g]), sizes[g], -1), scale)


class OneBodyDensity:
    """A snapshot's gamma = w^N A A^dagger, in the form its size allows.

    A is the (m, m^(N-1)) view of the snapshot's values and w the one-body
    cell volume.  Consumers call ``trace()``, ``diagonal()``, ``gamma @ v``
    and ``kinetic_trace()``; the first three mean what they mean for the
    m x m array, and ``counting.trace_distance`` reads only two of them.

    Where the matrix would be as large as the state (``_density_is_factored``,
    N <= 2) it is never formed, and every call reads A from the snapshot:
    tr gamma = w^N ||A||^2, diag gamma is the squared row norms of A,
    gamma v = w^N A (A^dagger v) by two matrix-vector products with no
    conjugate copy, and tr(K gamma) = sum_g tr(K_g Gamma_g) over the
    group-reduced Gamma_g of ``_group_density``.  A lent snapshot's values
    become None when the next is requested, so a later call fails rather
    than read the next state.  Otherwise gamma is ``density_matrix``'s one
    ``zherk``, formed here once.
    """

    def __init__(self, state: ManyBodyState):
        self.domain = state.domain
        self._state = state
        self._shape = (math.prod(state.domain.shape),) * state.n_particles
        self._scale = state.domain.cell_volume ** state.n_particles
        self._matrix = None
        self._kinetic = None
        if not _density_is_factored(state.n_particles):
            self._matrix = density_matrix(state.values.reshape(self._shape),
                                          state.domain.cell_volume)

    def _rows(self) -> np.ndarray:
        return self._state.values.reshape(self._shape[0], -1)

    def trace(self) -> float:
        if self._matrix is not None:
            return float(np.trace(self._matrix).real)
        rows = self._rows()
        return self._scale * float(np.vdot(rows, rows).real)

    def diagonal(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix.diagonal().real
        parts = self._rows().view(np.float64)
        return self._scale * np.einsum("ar,ar->a", parts, parts)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix @ v
        rows = self._rows()
        return self._scale * (rows @ np.conj(np.conj(v) @ rows))

    def kinetic_trace(self) -> float:
        """Re tr(K gamma), K = -Delta_x - eps^-2 Delta_y, summed over the
        ``grids.axis_operators`` groups: no dense m x m K is formed.  Taken
        once and kept: the snapshot's energy and its report both read it."""
        if self._kinetic is not None:
            return self._kinetic
        if self._matrix is not None:
            self._kinetic = kinetic_trace(self._matrix, self.domain)
        else:
            rows = self._rows()
            sizes = axis_groups(self.domain.shape)
            ops = axis_operators(self.domain, lambda mult: mult)
            # tr(K_g Gamma_g) = sum_ab K_g[a, b] Gamma_g^T[a, b]
            self._kinetic = sum(
                float(np.sum(op * _group_density(rows, sizes, g, self._scale)).real)
                for g, op in enumerate(ops))
        return self._kinetic


def _pair_expectation(state: ManyBodyState, spec: ModelSpec) -> float:
    """sum_{x_1, x_2} W(x_1, x_2) rho_2(x_1, x_2) times the cell volume of Omega^N.

    rho_2(x_1, x_2) = sum_rest |psi(x_1, x_2, rest)|^2 is summed over the
    ``grids.row_blocks`` of x_1 on the pair view's grid: each block's rho_2
    rows come from one ``einsum`` over the real view of psi into one
    buffer, and a second ``einsum`` contracts them with the block's kernel
    rows pair[box], a strided view of the offset table that it reads in
    place (``vdot`` would flatten a copy of it).  The blocks are budgeted
    at 16m bytes a row, twice a rho_2 row, so the buffer is half a slab.
    So neither an m^2-sized kernel nor an m^2-sized rho_2 is formed, and no
    state-sized product.
    """
    m = math.prod(state.domain.shape)
    pair = _pair_view(_pair_table(spec))  # m_f m_c^2 samples: cheap to rebuild per snapshot
    parts = state.values.reshape(m, m, -1).view(np.float64)
    grid = pair.shape[:pair.ndim // 2]
    rho2 = np.empty((next(row_blocks(grid, 16 * m))[1], m))  # the first block is the largest
    total = 0.0
    for lo, hi, box in row_blocks(grid, 16 * m):
        block = parts[lo:hi]
        rows = np.einsum("abr,abr->ab", block, block, out=rho2[:hi - lo])
        kernel = pair[box]
        axes = list(range(kernel.ndim))
        total += float(np.einsum(kernel, axes, rows.reshape(kernel.shape), axes, []))
    return total * state.cell_volume


def _energy_and_residual(state: ManyBodyState,
                         spec: ModelSpec) -> tuple[float, float, OneBodyDensity]:
    """(manybody_energy, the symmetry residual its guard computed, the ``OneBodyDensity``).

    One-body terms: tr(K gamma) + sum_x V(x) gamma(x, x), from the density.
    The pair term is ``_pair_expectation``, with no m^2-sized array.  It goes
    first, so that its buffers are freed before an N >= 3 gamma is formed.
    """
    residual = symmetry_residual(state)
    if not residual <= SYMMETRY_TOL:
        raise ConfigError("manybody_energy expects a symmetric state")
    n, dom = state.n_particles, state.domain
    inter = 0.0
    if n > 1:
        inter = spec.pair_prefactor * (n * (n - 1) / 2.0) / n * _pair_expectation(state, spec)
    gamma = OneBodyDensity(state)
    v_one = spec.potential.values(state.t, dom).ravel()  # zeros without a potential
    one = gamma.kinetic_trace() + float(np.dot(v_one, gamma.diagonal()))
    return one + inter, residual, gamma


def manybody_energy(state: ManyBodyState, spec: ModelSpec) -> float:
    """Per-particle energy via the symmetric two-body reduction."""
    return _energy_and_residual(state, spec)[0]


def _permutation_average(values: np.ndarray, n: int, block: int) -> np.ndarray:
    """Mean of ``values`` over all orders of its n particle blocks of ``block`` axes.

    The average S_n over the symmetric group is built by its coset
    factorization S_k = (1/k)(1 + sum_{i<k-1} sigma_{i,k-1}) S_{k-1}, with
    sigma_{i,j} the transposition of blocks i and j: after step k the
    result is symmetric in the first k blocks.  That is n(n-1)/2
    transposed adds (10 at n = 5), not n! (120), and it holds two arrays
    of the size of ``values``.
    """
    acc = np.array(values)
    for k in range(2, n + 1):
        new = acc.copy()
        for i in range(k - 1):
            order = list(range(n))
            order[i], order[k - 1] = k - 1, i
            new += np.transpose(acc, [b * block + a for b in order for a in range(block)])
        new /= k
        acc = new
    return acc


def symmetrize(domain: ProductDomain, values: np.ndarray, t: float = 0.0) -> ManyBodyState:
    """Average over all particle permutations and renormalize.

    The average is ``_permutation_average``'s coset product of
    N(N-1)/2 transpositions, not a sum over the N! orders.
    """
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

