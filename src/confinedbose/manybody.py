"""Exact N-particle Schrodinger dynamics on the tensor grid Omega^N.

The wavefunction is stored as a dense complex tensor whose axis blocks are
the per-particle (free..., confined...) axes.  The kinetic operator is a sum
of commuting one-particle terms, so kinetic kicks apply the one-body
propagators of ``grids.axis_operators`` along every particle's merged axes
(``grids.axis_groups``: 16 x 3 is one 48 x 48 matrix, 64 x 4 x 4 is
64 | 16), which halves the sweeps over the state without the cost of a
dense per-particle matrix.  Pair interactions and external potentials act
by exact pointwise phases.  The integrator is ``grids.strang_steps``, the
same second-order Strang schedule as the effective solver.  The evolver
streams: it yields each reported snapshot and holds only the current
state.  Energies come from the density matrix and the two-body density.
Everything is desk scale: a memory guard refuses runs whose working set
(``working_set_bytes``: two state-sized arrays whatever N, since all kick
sweeps but the first after each snapshot act in place through a slab
scratch; the m^2-sized pair phase and density matrices; a one-body
allowance) exceeds a configurable cap (2 GiB by default).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .errors import ConfigError, GuardError
from .grids import (
    _SLAB_BYTES,
    ProductDomain,
    axis_groups,
    axis_operators,
    kinetic_trace,
    step_count,
    strang_steps,
)
from .model import ModelSpec
from .onebody import OneBodyState, chi_mode

__all__ = [
    "ManyBodyState",
    "pair_phase_array",
    "evolve_manybody",
    "manybody_energy",
    "density_matrix",
    "excess_energy_diagnostic",
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

    At most two state-sized arrays are alive at once: the consumer's last
    snapshot and the Strang step's work array.  The first kick sweep after a
    snapshot writes a new array; every other sweep and the potential substep
    act in place on it through one slab scratch of ``grids._SLAB_BYTES``.
    A counting report holds one row block of the snapshot (one slab, or one
    1/m-sized row when a row is larger) and two 1/m-sized coefficient
    arrays, the symmetry check one 1/m-sized buffer.  The
    m^2-sized arrays (the evolver's pair phase, the density matrix and the
    dense trace distance's difference matrix) are as large as the state at
    N = 2.
    """
    m = int(np.prod(spec.domain.shape))
    state = estimate_state_bytes(spec)
    return (2 * state + 2 * (state // m) + 3 * 16 * m**2 + _SLAB_BYTES
            + _ONE_BODY_ALLOWANCE)


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


def pair_phase_array(spec: ModelSpec) -> np.ndarray:
    """W(r_i - r_j) for one particle pair, shape (one-body grid) x 2.

    The package's one sampler of the scaled pair kernel.  Differences on
    periodic axes use the minimum image; on hard-wall axes they enter the
    profile compressed by eps, as in the rescaled Hamiltonian.  The
    prefactor of the Hamiltonian (1/(N-1) or 1/N) is *not* included.
    """
    _resolvability_guard(spec)
    pref, arg_scale = _kernel_scaling(spec)
    shape = spec.domain.shape
    block = len(shape)
    r2 = np.zeros(shape + shape)
    axis = 0
    for part in spec.domain.parts:
        for a in range(part.dim):
            nodes = part.axis_nodes(a)
            diff = nodes[:, None] - nodes[None, :]
            if part.periodic:
                L = part.extents[a]
                diff -= L * np.round(diff / L)
            else:
                diff = part.eps * diff
            sh = [1] * (2 * block)
            sh[axis], sh[block + axis] = len(nodes), len(nodes)
            r2 = r2 + (diff**2).reshape(sh)
            axis += 1
    return pref * spec.interaction.radial(arg_scale * np.sqrt(r2))


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


def _apply_phases(values: np.ndarray, n: int, m: int, phase_one, phase_pair):
    """values *= prod_i phase_one(x_i) prod_{i<j} phase_pair(x_i, x_j), in place.

    ``values`` is a C-contiguous N-particle state of m points per particle,
    ``phase_one`` (m,) and ``phase_pair`` (m, m) may be None.  The (m,
    m^(N-1)) view is walked in row blocks of about ``grids._SLAB_BYTES``
    (one row when a row is larger), and each block takes every factor before
    the next block: one pass over memory instead of N + C(N, 2).  Per
    element the factors come in the order of whole-state passes (one-body
    i = 0..N-1, then the pairs in ``combinations`` order), so the product
    is the same to the bit.
    """
    factors = [] if phase_one is None else [(phase_one, (i,)) for i in range(n)]
    if phase_pair is not None:
        factors += [(phase_pair, pair) for pair in itertools.combinations(range(n), 2)]
    rest = m ** (n - 1)
    rows = max(1, _SLAB_BYTES // (values.itemsize * rest))
    view = values.reshape(m, rest)
    for r in range(0, m, rows):
        block = view[r:r + rows].reshape((-1,) + (m,) * (n - 1))
        for phase, particles in factors:
            if particles[0] == 0:  # on the block's rows only
                phase = phase[r:r + rows]
            block *= phase.reshape([(-1 if i == 0 else m) if i in particles else 1
                                    for i in range(n)])


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

    The guards run and the propagators are built at call time.  The returned
    iterator yields the input state, then the state after every ``stride``-th
    step and after the last; between snapshots it holds only the current one.
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

    n = spec.n_particles
    dom = spec.domain
    groups = axis_groups(dom.shape)
    half = axis_operators(dom, lambda mult: np.exp(-0.5j * dt * mult)) * n
    full = axis_operators(dom, lambda mult: np.exp(-1j * dt * mult)) * n
    m = math.prod(dom.shape)
    phase_pair = None
    if n > 1:
        phase_pair = np.exp(-1j * dt * spec.pair_prefactor * pair_phase_array(spec)).reshape(m, m)
    t0 = state.t

    def substep(k, values):
        phase_one = None
        if not spec.potential.is_zero:
            t_mid = t0 + k * dt + dt / 2
            phase_one = np.exp(-1j * dt * spec.potential.values(t_mid, dom)).reshape(m)
        _apply_phases(values, n, m, phase_one, phase_pair)

    values = state.values.reshape(groups * n)
    return _snapshots(state, strang_steps(values, half, full, substep, steps, stride), dt)


def _snapshots(state, strang, dt):
    """``state``, then one ManyBodyState per (steps done, grouped values) of ``strang``."""
    dom, n, t0 = state.domain, state.n_particles, state.t
    yield state
    del state  # the caller decides how long the initial state lives
    for k, values in strang:
        # held until the next one is made, as the consumer holds its last
        # snapshot: with the step's work array, the two states of working_set_bytes
        snapshot = ManyBodyState(dom, values.reshape(dom.shape * n), t0 + k * dt)
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


def _energy_and_residual(state: ManyBodyState, spec: ModelSpec) -> tuple[float, float, np.ndarray]:
    """(manybody_energy, the symmetry residual its guard computed, ``density_matrix`` gamma).

    One-body terms: tr(K gamma) (``grids.kinetic_trace``) + sum_x V(x) gamma(x, x).
    The pair term sums W rho_2, rho_2(x_1, x_2) = sum_rest |psi(x_1, x_2, rest)|^2
    from one ``einsum`` over the real view of psi: no state-sized product.  It
    goes first: at N = 2 gamma is state-sized, formed once the kernel is gone.
    """
    residual = symmetry_residual(state)
    if residual > SYMMETRY_TOL:
        raise ConfigError("manybody_energy expects a symmetric state")
    n, dom = state.n_particles, state.domain
    m = math.prod(dom.shape)
    inter = 0.0
    if n > 1:
        # rebuilt per call: an m^2 kernel held for the run (state-sized at N = 2) raises the peak
        parts = state.values.reshape(m, m, -1).view(np.float64)
        pair_exp = float(np.vdot(pair_phase_array(spec).reshape(m, m),
                                 np.einsum("abr,abr->ab", parts, parts))) * state.cell_volume
        inter = spec.pair_prefactor * (n * (n - 1) / 2.0) / n * pair_exp
    gamma = density_matrix(state.values.reshape((m,) * n), dom.cell_volume)
    v_one = spec.potential.values(state.t, dom).ravel()  # zeros without a potential
    one = kinetic_trace(gamma, dom) + float(np.dot(v_one, gamma.diagonal().real))
    return one + inter, residual, gamma


def manybody_energy(state: ManyBodyState, spec: ModelSpec) -> float:
    """Per-particle energy via the symmetric two-body reduction."""
    return _energy_and_residual(state, spec)[0]


def excess_energy_diagnostic(state: ManyBodyState, spec: ModelSpec) -> float:
    """Per-particle energy above the confined ground level, N^-1 <H - N E0/eps^2>."""
    mode = chi_mode(spec.confined, 0)
    return manybody_energy(state, spec) - mode.energy_eps


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

