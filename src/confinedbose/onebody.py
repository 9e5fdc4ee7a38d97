"""Confined eigenmodes and the effective one-body dynamics.

For theta = 0 the free-direction wavefunction solves the Hartree equation
i dPhi = (-Delta_x + w0 * |Phi|^2) Phi with the nonlocal mean field w0(x) =
w(x, 0); for theta in (0,1) it solves the NLS equation i dPhi = (-Delta_x +
V(t,x,0) + b |Phi|^2) Phi whose coupling b carries the confined ground-mode
factor.  Both are integrated by ``grids.strang_steps``, the second-order
Strang schedule of the exact many-body evolver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy import fft

from .errors import ConfigError, GuardError
from .grids import (
    ConfinedDomain,
    FreeDomain,
    GridFunction,
    ProductDomain,
    apply_kinetic,
    axis_groups,
    axis_operators,
    norm,
    step_count,
    strang_steps,
)
from .model import InteractionProfile, ModelSpec

__all__ = [
    "ConfinedMode",
    "OneBodyState",
    "chi_mode",
    "coupling_b",
    "hartree_potential",
    "narrow_kernel",
    "evolve_effective",
    "effective_energy",
    "sup_norms",
    "trajectory_rows",
]


@dataclass(frozen=True)
class ConfinedMode:
    """Eigenmode chi_m of the Dirichlet Laplacian on Omega_c.

    ``energy`` is the eigenvalue of -Delta_y; the trap contributes
    ``energy / eps^2`` to every one-body energy.
    """

    domain: ConfinedDomain
    index: int
    axis_indices: tuple[int, ...]
    chi: GridFunction
    energy: float

    @property
    def energy_eps(self) -> float:
        return self.energy / self.domain.eps**2

    @property
    def quartic_integral(self) -> float:
        """Integral of |chi|^4 over Omega_c (grid quadrature)."""
        return float(
            np.sum(np.abs(self.chi.values) ** 4) * self.domain.cell_volume
        )


def chi_mode(domain: ConfinedDomain, index: int = 0) -> ConfinedMode:
    """The ``index``-th Dirichlet eigenmode, sorted by eigenvalue.

    Modes are exact products of per-axis sines, so the eigenrelation of
    the discrete sine Laplacian holds to roundoff.  On degenerate squares
    ties are broken by the lexicographic axis index, which in particular
    makes index 0 always the product of per-axis ground modes.
    """
    max_index = min(domain.points) - 1
    if not 0 <= index < max_index:
        raise ConfigError(f"mode index must lie in [0, {max_index})")
    per_axis = [range(1, n + 1) for n in domain.points]
    catalogue = sorted(
        (sum((m * np.pi / w) ** 2 for m, w in zip(ms, domain.widths)), ms)
        for ms in itertools.product(*per_axis)
    )
    energy, ms = catalogue[index]
    values = np.ones(domain.shape, dtype=complex)
    for a, m in enumerate(ms):
        c, d = domain.intervals[a]
        w = d - c
        axis_vals = np.sqrt(2.0 / w) * np.sin(m * np.pi * (domain.axis_nodes(a) - c) / w)
        shape = [1] * domain.dim
        shape[a] = len(axis_vals)
        values = values * axis_vals.reshape(shape)
    return ConfinedMode(domain, index, tuple(ms), GridFunction(domain, values), float(energy))


def coupling_b(profile: InteractionProfile, mode: ConfinedMode) -> float:
    """NLS coupling b = (integral of w over R^3) * (integral of |chi_0|^4)."""
    if mode.index != 0:
        raise ConfigError("the NLS coupling is defined for the ground mode")
    return profile.integral3() * mode.quartic_integral


def hartree_potential(phi: GridFunction, kernel: GridFunction) -> GridFunction:
    """Mean-field potential (kernel * |phi|^2) by zero-padded real FFT convolution.

    ``kernel`` holds w0 sampled on the nodes of the same free domain,
    interpreted as signed differences.  Zero padding makes the convolution
    linear, so there is no periodic wraparound; the kernel must therefore
    fit inside the box (support radius <= extent/2 on every axis).
    """
    dom = phi.domain
    if not isinstance(dom, FreeDomain) or kernel.domain != dom:
        raise ConfigError("phi and kernel must live on the same free domain")
    dens = np.abs(phi.values) ** 2
    kv = kernel.values.real
    edge = max(
        float(np.max(np.abs(np.take(kv, 0, axis=a)))) for a in range(dom.dim)
    )
    if edge > 1e-10 * max(1.0, float(np.max(np.abs(kv)))):
        raise GuardError("kernel support reaches the padded-box margin")
    pad, axes = [2 * n for n in dom.shape], range(dom.dim)  # 2n >= 2n - 1: linear, no wrap
    full = fft.irfftn(fft.rfftn(dens, pad, axes) * fft.rfftn(kv, pad, axes), pad, axes)
    slices = tuple(slice(n // 2, n // 2 + n) for n in dom.shape)
    out = full[slices] * dom.cell_volume
    return GridFunction(dom, out)


def narrow_kernel(domain: FreeDomain, width: float, total: float) -> GridFunction:
    """Gaussian difference kernel with grid integral exactly ``total``.

    Used for probing the narrow-interaction (Hartree -> NLS) limit; the
    normalization uses the same uniform quadrature as the convolution.
    """
    xs = domain.meshgrid()
    r2 = sum(x**2 for x in xs)
    raw = np.exp(-r2 / (2 * width**2))
    raw_int = float(np.sum(raw) * domain.cell_volume)
    return GridFunction(domain, raw * (total / raw_int))


@dataclass(frozen=True)
class OneBodyState:
    """Effective state Phi on Omega_f together with its confined mode."""

    phi_free: GridFunction
    mode: ConfinedMode
    t: float = 0.0

    def __post_init__(self):
        if not isinstance(self.phi_free.domain, FreeDomain):
            raise ConfigError("phi_free must live on a free domain")
        if abs(norm(self.phi_free) - 1.0) > 1e-6:
            raise ConfigError("Phi must be normalized")

    @property
    def domain(self) -> ProductDomain:
        return ProductDomain(self.phi_free.domain, self.mode.domain)

    def mass(self) -> float:
        return norm(self.phi_free)

    def product_values(self) -> np.ndarray:
        """Full phi = Phi (x) chi on the product grid."""
        return np.multiply.outer(self.phi_free.values, self.mode.chi.values)


def _mean_field(spec: ModelSpec, phi: GridFunction, kernel0, b):
    """Pointwise effective potential for the nonlinear substep."""
    if spec.regime == "hartree-theta0":
        return hartree_potential(phi, kernel0).values.real
    return b * np.abs(phi.values) ** 2


def mean_field_kernel(spec: ModelSpec) -> GridFunction:
    """w0(x) = w(x, 0) sampled on the free difference grid."""
    xs = spec.free.meshgrid()
    r = np.sqrt(sum(x**2 for x in xs))
    return GridFunction(spec.free, spec.interaction.radial(r))


def evolve_effective(state: OneBodyState, spec: ModelSpec, T: float, dt: float,
                     stride: int = 1) -> list[OneBodyState]:
    """Integrate the effective equation with Strang splitting (``grids.strang_steps``).

    Half kinetic step, full nonlinear/potential phase (mean field frozen at
    the substep start for Hartree, exact for the local NLS phase, external
    potential evaluated at the substep midpoint), half kinetic step.
    Returns states at every ``stride``-th step and the last, starting with
    the input: independent arrays, since the schedule steps one copy of the
    input in place and each returned state is copied from it (m_f entries).
    """
    steps = step_count(T, dt)
    dom = state.phi_free.domain
    half = axis_operators(dom, lambda mult: np.exp(-0.5j * dt * mult))
    full = axis_operators(dom, lambda mult: np.exp(-1j * dt * mult))
    hartree = spec.regime == "hartree-theta0"
    kernel0 = mean_field_kernel(spec) if hartree else None
    b = None if hartree else coupling_b(spec.interaction, chi_mode(spec.confined, 0))

    def substep(k, values):
        pot = _mean_field(spec, GridFunction(dom, values.reshape(dom.shape)), kernel0, b)
        if not spec.potential.is_zero:
            pot = pot + spec.potential.values(state.t + k * dt + dt / 2, dom)
        if dt * np.max(np.abs(pot)) > np.pi:
            raise GuardError("potential phase increment exceeds pi; reduce dt")
        values *= np.exp(-1j * dt * pot).reshape(values.shape)

    out = [state]
    values = state.phi_free.values.reshape(axis_groups(dom.shape)).copy()
    for k, values in strang_steps(values, half, full, substep, steps, stride):
        phi = GridFunction(dom, values.reshape(dom.shape).copy())
        out.append(OneBodyState(phi, state.mode, state.t + k * dt))
    return out


def effective_energy(state: OneBodyState, spec: ModelSpec) -> float:
    """Conserved effective energy, including the eps^-2 trap contribution."""
    phi = state.phi_free
    dom = phi.domain
    cell = dom.cell_volume
    kinetic = float(np.vdot(phi.values, apply_kinetic(phi.values, dom)).real * cell)
    trap = state.mode.energy_eps * norm(phi) ** 2
    dens = np.abs(phi.values) ** 2
    if spec.regime == "hartree-theta0":
        mf = hartree_potential(phi, mean_field_kernel(spec)).values.real
        inter = 0.5 * float(np.sum(mf * dens) * cell)
    else:
        b = coupling_b(spec.interaction, chi_mode(spec.confined, 0))
        inter = 0.5 * b * float(np.sum(dens**2) * cell)
    ext = 0.0
    if not spec.potential.is_zero:
        ext = float(np.sum(spec.potential.values(state.t, dom) * dens) * cell)
    return kinetic + trap + inter + ext


def sup_norms(state: OneBodyState) -> tuple[float, float, float, float]:
    """(sup |phi|, sup |Phi|, ||phi||_{H^2}, ||Delta Phi||_{L^2})."""
    phi_free = state.phi_free
    sup_big = float(np.max(np.abs(phi_free.values)) * np.max(np.abs(state.mode.chi.values)))
    sup_small = float(np.max(np.abs(phi_free.values)))
    full = state.product_values()
    dom = state.domain
    h2 = float(np.linalg.norm(full + apply_kinetic(full, dom, eps=1.0)) * np.sqrt(dom.cell_volume))
    lap = float(np.linalg.norm(apply_kinetic(phi_free.values, phi_free.domain))
                * np.sqrt(phi_free.domain.cell_volume))
    return sup_big, sup_small, h2, lap


def trajectory_rows(states: list[OneBodyState], spec: ModelSpec):
    """CSV rows (t, mass, E_phi, sup_phi, H2_phi) for a trajectory, and the
    sup |Phi| of each state, taken from the same ``sup_norms`` pass."""
    rows, sup_free = [], []
    for st in states:
        sup_big, sup_small, h2, _ = sup_norms(st)
        rows.append(
            (st.t, st.mass(), effective_energy(st, spec), sup_big, h2)
        )
        sup_free.append(sup_small)
    return rows, sup_free
