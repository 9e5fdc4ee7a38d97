"""Problem definition: pair interactions, external potential, model spec.

The pair interaction is a spherically symmetric profile w on R^3 split into
a singular part w_s (finite L^s norm) and a bounded part w_inf.  Bounded
kinds (gaussian-bump, compact-polynomial-bump) have compact support and an
empty singular part; the coulomb kind is split at a fixed radius into
singular core and bounded tail.  ``harness.ExperimentConfig.model_spec``
builds these objects from a config document.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError
from .grids import ConfinedDomain, Domain, FreeDomain, ProductDomain

__all__ = ["InteractionProfile", "ExternalPotential", "ModelSpec", "measured_f_eps"]

_KINDS = ("gaussian-bump", "compact-polynomial-bump", "coulomb")

# Gauss-Legendre rule on [-1, 1] for integral3: exact for the polynomial bump,
# within 1e-15 of adaptive quadrature for the gaussian bumps of the demo configs
_RADIAL_NODES, _RADIAL_WEIGHTS = leggauss(32)


@dataclass(frozen=True)
class InteractionProfile:
    """Radial two-body potential w(|r|) with its singular/bounded split.

    Parameters
    ----------
    kind : one of gaussian-bump, compact-polynomial-bump, coulomb
    amplitude : overall strength
    radius : support radius (bounded kinds truncate there; for coulomb it is
        the radius separating the singular core from the bounded tail)
    sigma : gaussian width (gaussian-bump only)
    """

    kind: str
    amplitude: float = 1.0
    radius: float = 1.0
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown interaction kind {self.kind!r}")
        if self.radius <= 0:
            raise ConfigError("support radius must be positive")
        if self.kind == "gaussian-bump" and self.sigma is None:
            object.__setattr__(self, "sigma", self.radius / 3.0)

    # -- radial profile -----------------------------------------------------

    def radial(self, r):
        """w(|r|), vectorized over r >= 0."""
        r = np.asarray(r, dtype=float)
        A = self.amplitude
        if self.kind == "gaussian-bump":
            out = A * np.exp(-(r**2) / (2 * self.sigma**2))
            return np.where(r <= self.radius, out, 0.0)
        if self.kind == "compact-polynomial-bump":
            u = np.clip(r / self.radius, 0.0, 1.0)
            return A * np.where(r <= self.radius, (1 - u**2) ** 2, 0.0)
        # coulomb
        with np.errstate(divide="ignore"):
            return np.where(r > 0, A / np.maximum(r, 1e-300), np.inf)

    @property
    def is_bounded(self) -> bool:
        return self.kind != "coulomb"

    def sup_norm(self) -> float:
        """sup |w| (bounded part only for coulomb: sup outside the core)."""
        if self.kind == "coulomb":
            return self.amplitude / self.radius
        r = np.linspace(0.0, self.radius, 4097)
        return float(np.max(np.abs(self.radial(r))))

    def integral3(self) -> float:
        """Integral of w over R^3; rejects the non-integrable coulomb kind."""
        if self.kind == "coulomb":
            raise ConfigError("coulomb interaction is not integrable on R^3")
        r = 0.5 * self.radius * (_RADIAL_NODES + 1.0)
        return float(2 * np.pi * self.radius * np.dot(_RADIAL_WEIGHTS, r**2 * self.radial(r)))


@dataclass(frozen=True)
class ExternalPotential:
    """V(t, x, eps*y) = amplitude * cos(omega t) * exp(-(|x|^2+|eps y|^2)/(2 sigma^2)).

    ``kind='none'`` is the zero potential.  ``values`` samples it on any
    domain: the one-body grid of the exact dynamics, or the free grid of the
    effective dynamics, which sees V(t, x, 0).  The time dependence is
    smooth and bounded together with its derivatives, which is all the
    regularity the bound machinery assumes of an external field.
    """

    kind: str = "none"
    amplitude: float = 0.0
    sigma: float = 1.0
    omega: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian"):
            raise ConfigError(f"unknown potential kind {self.kind!r}")

    @property
    def is_zero(self) -> bool:
        return self.kind == "none" or self.amplitude == 0.0

    def _envelope(self, t: float) -> float:
        return self.amplitude * np.cos(self.omega * t)

    def values(self, t: float, domain: Domain) -> np.ndarray:
        """V(t, x, eps*y) on the grid of ``domain``; V(t, x, 0) on a free domain.

        Each part's squared coordinates (confined ones compressed by its
        eps) are summed, and the parts are joined by an outer sum.
        """
        if self.is_zero:
            return np.zeros(domain.shape)
        r2 = 0.0
        for part in domain.parts:
            r2 = np.add.outer(r2, sum((part.eps * x) ** 2 for x in part.meshgrid()))
        return self._envelope(t) * np.exp(-r2 / (2 * self.sigma**2))

    def sup_norm(self, t: float) -> float:
        return abs(self._envelope(t))

    def dot_sup_norm(self, t: float) -> float:
        return abs(self.amplitude * self.omega * np.sin(self.omega * t))


_REGIMES = ("hartree-theta0", "nls-theta")


@dataclass(frozen=True)
class ModelSpec:
    """Full problem definition for one run.

    ``regime`` selects the interaction scaling: ``hartree-theta0`` uses the
    unscaled kernel w(x, eps y) with a 1/(N-1) prefactor, ``nls-theta`` the
    short-range rescaled kernel with a 1/N prefactor.  The coupling length is
    a = eps^2/N for two confined directions and a = eps/N for one.
    """

    free: FreeDomain
    confined: ConfinedDomain
    n_particles: int
    interaction: InteractionProfile
    regime: str = "hartree-theta0"
    theta: float = 0.0
    nu: float | None = None
    potential: ExternalPotential = field(default_factory=ExternalPotential)
    mode_index: int = 0

    def __post_init__(self):
        if self.regime not in _REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}")
        if self.n_particles < 1:
            raise ConfigError("need at least one particle")
        if self.regime == "hartree-theta0":
            if self.theta != 0.0:
                raise ConfigError("hartree regime requires theta = 0")
        else:
            if not 0.0 < self.theta < 1.0:
                raise ConfigError("nls regime requires theta in (0, 1)")
        if self.nu is not None and self.nu <= 0:
            raise ConfigError("nu must be positive")

    @property
    def eps(self) -> float:
        return self.confined.eps

    @property
    def domain(self) -> ProductDomain:
        return ProductDomain(self.free, self.confined)

    @property
    def coupling_length(self) -> float:
        """a = eps^2/N (two confined directions) or eps/N (one)."""
        if self.confined.dim == 2:
            return self.eps**2 / self.n_particles
        return self.eps / self.n_particles

    @property
    def pair_prefactor(self) -> float:
        """Prefactor applied to the sampled kernel at Hamiltonian assembly."""
        if self.regime == "hartree-theta0":
            return 1.0 / (self.n_particles - 1) if self.n_particles > 1 else 0.0
        return 1.0 / self.n_particles


_F_EPS_REFINE = 4  # measured_f_eps samples a grid this many times finer per axis


def measured_f_eps(profile: InteractionProfile, eps: float, free: FreeDomain,
                   confined: ConfinedDomain) -> float:
    """Measured convergence defect f(eps) of w(x, eps y) towards w(x, 0).

    Returns max of the L^1 defect of the singular part and the sup defect of
    the bounded part over Omega_f x (difference set of Omega_c), evaluated on
    a ``_F_EPS_REFINE``-times finer tensor grid.
    """
    axes = [np.linspace(-L / 2, L / 2, _F_EPS_REFINE * n, endpoint=False)
            for L, n in zip(free.extents, free.points)]
    for (c, d), n in zip(confined.intervals, confined.points):
        w = d - c
        axes.append(np.linspace(-w, w, 2 * _F_EPS_REFINE * n + 1))
    grids_ = np.meshgrid(*axes, indexing="ij")
    d_f = free.dim
    x2 = sum(g**2 for g in grids_[:d_f])
    y2 = sum(g**2 for g in grids_[d_f:])
    r_eps = np.sqrt(x2 + eps**2 * y2)
    r_0 = np.sqrt(x2)
    if profile.is_bounded:
        diff = np.abs(profile.radial(r_eps) - profile.radial(r_0))
        return float(np.max(diff))
    # singular kind: L^1 defect of the core plus sup defect of the tail
    w_eps = profile.radial(r_eps)
    w_0 = profile.radial(r_0)
    core = r_0 < profile.radius
    cell = float(np.prod([a[1] - a[0] for a in axes]))
    finite = np.isfinite(w_eps) & np.isfinite(w_0)
    l1 = float(np.sum(np.abs(w_eps - w_0)[core & finite]) * cell)
    sup = float(np.max(np.abs(w_eps - w_0)[~core & finite]))
    return max(l1, sup)
