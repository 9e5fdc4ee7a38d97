"""Problem definition: pair interactions, external potential, model spec.

The pair interaction is a spherically symmetric profile w on R^3, bounded
and compactly supported (gaussian-bump, compact-polynomial-bump), since the
grid pair dynamics samples it pointwise; its singular part is empty.  The
Coulomb results (``bounds.coulomb_confined_norms``) build their own inputs.
``harness.ExperimentConfig.model_spec`` builds these objects from a config
document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError
from .grids import ConfinedDomain, Domain, FreeDomain, ProductDomain

__all__ = ["InteractionProfile", "ExternalPotential", "ModelSpec", "measured_f_eps"]

_KINDS = ("gaussian-bump", "compact-polynomial-bump")

# Gauss-Legendre rule on [-1, 1] for integral3: exact for the polynomial bump,
# within 1e-15 of adaptive quadrature for the gaussian bumps of the demo configs
_RADIAL_NODES, _RADIAL_WEIGHTS = leggauss(32)


@dataclass(frozen=True)
class InteractionProfile:
    """Bounded radial two-body potential w(|r|), truncated at ``radius``.

    Parameters
    ----------
    kind : one of gaussian-bump, compact-polynomial-bump
    amplitude : overall strength, finite
    radius : support radius, positive and finite
    sigma : gaussian width, positive and finite (gaussian-bump only)
    """

    kind: str
    amplitude: float = 1.0
    radius: float = 1.0
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown interaction kind {self.kind!r}")
        if not math.isfinite(self.amplitude):
            raise ConfigError("interaction amplitude must be finite")
        if not 0.0 < self.radius < math.inf:
            raise ConfigError("support radius must be positive and finite")
        if self.kind == "gaussian-bump" and self.sigma is None:
            object.__setattr__(self, "sigma", self.radius / 3.0)
        if self.sigma is not None and not 0.0 < self.sigma < math.inf:
            raise ConfigError("gaussian width sigma must be positive and finite")

    # -- radial profile -----------------------------------------------------

    def radial(self, r, out=None):
        """w(|r|), vectorized over r >= 0.

        Written into ``out`` (a float array of r's shape, which may be r
        itself) when given, else into a new array, and returned.  Every
        operation acts in place on it, with a boolean mask as the only
        scratch: A exp(-r^2 / (2 sigma^2)) or A (1 - u^2)^2 with
        u = min(r / radius, 1), and 0 beyond the radius.
        """
        r = np.asarray(r, dtype=float)
        outside = ~(r <= self.radius)
        out = np.empty(r.shape) if out is None else out
        if self.kind == "gaussian-bump":
            np.square(r, out=out)
            np.negative(out, out=out)
            np.divide(out, 2 * self.sigma**2, out=out)
            np.exp(out, out=out)
            np.multiply(self.amplitude, out, out=out)
            np.copyto(out, 0.0, where=outside)
            return out
        np.divide(r, self.radius, out=out)  # compact-polynomial-bump
        np.clip(out, 0.0, 1.0, out=out)
        np.square(out, out=out)
        np.subtract(1.0, out, out=out)
        np.square(out, out=out)
        np.copyto(out, 0.0, where=outside)
        return np.multiply(self.amplitude, out, out=out)

    def sup_norm(self) -> float:
        """sup |w| = |amplitude|: both kinds peak at r = 0 with value amplitude."""
        return float(abs(self.amplitude))

    def integral3(self) -> float:
        """Integral of w over R^3."""
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
        if not (math.isfinite(self.amplitude) and math.isfinite(self.omega)):
            raise ConfigError("potential amplitude and omega must be finite")
        if not 0.0 < self.sigma < math.inf:
            raise ConfigError("potential width sigma must be positive and finite")

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

    Returns the sup defect over Omega_f x (difference set of Omega_c),
    evaluated on a ``_F_EPS_REFINE``-times finer tensor grid; the profile is
    bounded, so there is no singular L^1 defect.
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
    return float(np.max(np.abs(profile.radial(r_eps) - profile.radial(r_0))))
