"""Shared test oracles."""

import numpy as np
import pytest

from confinedbose.grids import ConfinedDomain, FreeDomain


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
    free = domain if isinstance(domain, FreeDomain) else getattr(domain, "free", None)
    conf = domain if isinstance(domain, ConfinedDomain) else getattr(domain, "confined", None)
    bases = []
    if free is not None:
        bases += [_free_axis_basis(L, n) for L, n in zip(free.extents, free.points)]
    if conf is not None:
        weight = conf.eps if eps is None else eps
        bases += [_confined_axis_basis(c, d, n, weight)
                  for (c, d), n in zip(conf.intervals, conf.points)]
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
