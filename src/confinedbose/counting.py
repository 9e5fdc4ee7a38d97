"""Projection-counting machinery measuring closeness to a condensate.

Everything is built from the rank-one projector p = |phi><phi| applied per
particle coordinate: the symmetric sector projectors P_{k,N} onto "exactly k
particles orthogonal to phi", weighted operators f-hat = sum f(k) P_{k,N},
the functionals alpha, beta and their derivative decomposition, the reduced
one-particle density matrix and the trace distance.

Two routes compute them: the number frame of ``occupancy_components``,
``hat_apply`` and ``occupation_distribution`` (the Householder reflector H
takes phi to a phase times e0, so f-hat = H^(x)N diag(f(#q)) H^(x)N with #q
the nonzero entries of a multi-index), and the contraction chain of
``_sector_weights`` (the report's p_k).  Their dense Kronecker-matrix oracle
lives with the tests, in ``tests/conftest.py``.

Internally phi is rescaled to unit quadrature weight and psi is read in
place: the weight of psi enters the returned scalars (and vectors) as a
factor, so inner products are plain euclidean ones regardless of
representation and no state-sized rescaled copy is made.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from . import grids
from .errors import ConfigError, InvariantError
from .grids import apply_kinetic, row_blocks
from .manybody import (
    SYMMETRY_TOL,
    _LANCZOS_BASIS,
    ManyBodyState,
    OneBodyDensity,
    _pair_table,
    _pair_view,
    _transposition_residual,
)
from .manybody import density_matrix  # re-exported: the dense gamma of any N
from .model import ModelSpec
from .onebody import OneBodyState, chi_mode, hartree_potential, mean_field_kernel

__all__ = [
    "project_p",
    "project_q",
    "occupancy_components",
    "alpha",
    "alpha_density_route",
    "density_matrix",
    "occupation_distribution",
    "occupation_distribution_enumeration",
    "occupation_distribution_binomial",
    "beta",
    "hat_apply",
    "shift_identity_residual",
    "weight_difference_bound",
    "trace_distance",
    "derivative_terms",
    "CountingReport",
    "compute_report",
]


# -- frames -------------------------------------------------------------------


def _frame(psi, phi, weight: float = 1.0):
    """(psi, phi, n, amp): psi with one axis per particle, phi at unit weight.

    ``psi`` may carry any number of axes per particle as long as the total
    size is a power of len(phi); ``weight`` is the one-body cell volume.
    psi is reshaped, not copied or rescaled: its unit-weight frame is
    ``amp * psi`` with amp = weight^(n/2), so callers scale vectors by amp
    and quadratic forms by amp^2.
    """
    phi = np.asarray(phi, dtype=np.complex128).ravel()
    m = phi.size
    if m < 2:
        raise ConfigError("one-body dimension must be at least 2")
    psi = np.asarray(psi, dtype=np.complex128)
    n, size = 0, psi.size
    while size > 1 and size % m == 0:
        size //= m
        n += 1
    if size != 1 or n == 0:
        raise ConfigError("psi size is not a tensor power of the one-body dimension")
    psi = psi.reshape((m,) * n)
    if weight != 1.0:
        phi = phi * weight**0.5
    nrm = np.linalg.norm(phi)
    if not abs(nrm - 1.0) <= 1e-6:  # NaN fails too
        raise InvariantError(f"condensate reference is not normalized (|phi| = {nrm:.2e})")
    return psi, phi, n, weight ** (n / 2.0)


def _grid_frame(state: ManyBodyState, reference):
    phi = reference.product_values() if isinstance(reference, OneBodyState) else reference
    return _frame(state.values, phi, weight=state.domain.cell_volume)


def _axis_coefficients(v: np.ndarray, phi: np.ndarray, axis: int):
    """(v as a (left, m, right) view, the (left, right) coefficients <phi|v>).

    Working on the reshape keeps every result contiguous; strided views here
    would dominate the runtime of every functional.  The coefficients are
    BLAS matrix-vector products: phi* against each (m, right) slice, or one
    product of the (left, m) matrix with phi* when right == 1, where the
    slices would be single columns; at m = 48 this takes half the time of
    ``einsum`` (one BLAS thread).
    """
    m = v.shape[axis]
    left, right = math.prod(v.shape[:axis]), math.prod(v.shape[axis + 1:])
    block = v.reshape(left, m, right)
    if right == 1:
        return block, (block.reshape(left, m) @ np.conj(phi)).reshape(left, 1)
    return block, np.conj(phi) @ block


def project_p(v: np.ndarray, phi: np.ndarray, axis: int) -> np.ndarray:
    """p_axis v with p = |phi><phi| (unit-weight convention)."""
    _, c = _axis_coefficients(v, phi, axis)
    return (phi[None, :, None] * c[:, None, :]).reshape(v.shape)


def project_q(v: np.ndarray, phi: np.ndarray, axis: int) -> np.ndarray:
    out = project_p(v, phi, axis)
    return np.subtract(v, out, out=out)


def _project_q_in_place(v: np.ndarray, phi: np.ndarray, axis: int):
    """v <- q_axis v for a C-contiguous v; the only scratch is the coefficients.

    q = 1 - |phi><phi| subtracts the rank-one term phi (x) c from each
    (m, right) slice of the (left, m, right) view, or from the whole
    (left, m) matrix when right == 1.  Each is one BLAS ``zgeru`` on the
    slice's transpose, an F-contiguous view of v that it updates in place.
    """
    block, c = _axis_coefficients(v, phi, axis)
    left, m, right = block.shape
    if right == 1:
        blas.zgeru(-1.0, phi, c[:, 0], a=block.reshape(left, m).T, overwrite_a=1)
        return
    for l in range(left):
        blas.zgeru(-1.0, c[l], phi, a=block[l].T, overwrite_a=1)


def _reflector(phi: np.ndarray) -> np.ndarray:
    """H = 1 - 2 u u^dagger / |u|^2, u = phi + s e0 with s = phi_0 / |phi_0| (1 if 0):
    Hermitian, unitary, H phi = -s e0 for a unit phi, so p = H e0 e0^dagger H.

    Built once per phi: the read-only H is cached under phi's bytes, so a
    phi edited in place after a call gets its own H.
    """
    return _reflector_of(np.ascontiguousarray(phi, dtype=np.complex128).tobytes())


@functools.lru_cache(maxsize=8)
def _reflector_of(key: bytes) -> np.ndarray:
    phi = np.frombuffer(key, dtype=np.complex128)
    u = phi.copy()
    u[0] += phi[0] / abs(phi[0]) if phi[0] != 0.0 else 1.0
    h = np.eye(phi.size) - u[:, None] * ((2.0 / np.vdot(u, u).real) * np.conj(u))
    h.setflags(write=False)
    return h


@functools.lru_cache(maxsize=8)
def _q_counts(m: int, n: int) -> np.ndarray:
    """#q of every raveled multi-index of (m,)*n: how many of its entries are nonzero."""
    counts = sum((ix != 0 for ix in np.indices((m,) * n, sparse=True)), np.uint8(0)).ravel()
    counts.setflags(write=False)
    return counts


def _sweep(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """H on every axis of v, shape (m,)*N, which is only read: each matmul applies
    H to the first axis and moves it last, so after N the axes are in order."""
    m, n = h.shape[0], v.ndim
    ht = np.conj(h)  # h.T, as H is Hermitian, but C-contiguous
    for _ in range(n):
        v = v.reshape(m, -1).T @ ht
    return v.reshape((m,) * n)


def occupancy_components(psi: np.ndarray, phi: np.ndarray, weight: float = 1.0):
    """[P_{0,N} psi, ..., P_{N,N} psi] in the number frame.

    psi, which is only read, is swept into the frame once; component k is
    the frame vector masked to #q = k and swept back, one k at a time.
    """
    psi, phi, n, amp = _frame(psi, phi, weight)
    h = _reflector(phi)
    w = _sweep(psi, h)
    w *= amp
    counts = _q_counts(phi.size, n).reshape(w.shape)
    return [_sweep(np.where(counts == k, w, 0.0), h) for k in range(n + 1)]


# -- the functionals ----------------------------------------------------------


def alpha(psi, phi, weight: float = 1.0) -> float:
    """alpha = <psi, q_1 psi> = 1 - <phi, gamma phi> for normalized input."""
    psi, phi, _, amp = _frame(psi, phi, weight)
    q1 = project_q(psi, phi, 0)
    return amp**2 * float(np.vdot(q1, q1).real)


def alpha_density_route(psi, phi) -> float:
    """alpha = 1 - <phi, gamma^psi phi>, the density-matrix route (unit weight)."""
    psi, phi, _, _ = _frame(psi, phi)
    return float(1.0 - np.vdot(phi, density_matrix(psi) @ phi).real)


def occupation_distribution(psi, phi, weight: float = 1.0) -> np.ndarray:
    """p(k) = <psi, P_{k,N} psi>: the frame vector's squared entries summed by #q."""
    psi, phi, n, amp = _frame(psi, phi, weight)
    w = _sweep(psi, _reflector(phi)).ravel()
    dens = np.bincount(_q_counts(phi.size, n), weights=w.real**2 + w.imag**2, minlength=n + 1)
    return amp**2 * dens


def occupation_distribution_enumeration(psi, phi) -> np.ndarray:
    """Brute-force oracle: explicit sum over all 2^N projector patterns (unit weight).

    The patterns are walked depth first, p before q on each axis, so each
    prefix of projections is applied once and shared by the patterns below
    it: 2^(N+1) - 2 projector applications, not N 2^N.  Every pattern is
    still its explicit product of ``project_p``/``project_q`` in axis
    order, and its squared norm is added in ``itertools.product`` order.
    """
    psi, phi, n, _ = _frame(psi, phi)
    if n > 6:
        raise ConfigError("pattern enumeration limited to N <= 6")
    out = np.zeros(n + 1)

    def walk(v, axis, k):
        if axis == n:
            out[k] += float(np.vdot(v, v).real)
            return
        walk(project_p(v, phi, axis), axis + 1, k)
        walk(project_q(v, phi, axis), axis + 1, k + 1)

    walk(psi, 0, 0)
    return out


def occupation_distribution_binomial(psi, phi) -> np.ndarray:
    """Symmetric shortcut p(k) = C(N,k) ||q_1..q_k p_{k+1}..p_N psi||^2 (unit weight).

    Refuses a state whose transposition residual exceeds SYMMETRY_TOL; see
    ``_sector_weights`` for the route and its error.
    """
    psi, phi, n, _ = _frame(psi, phi)
    if not _transposition_residual(psi, n, 1) <= SYMMETRY_TOL:
        raise ConfigError("binomial shortcut requires a symmetric state")
    return _sector_weights(psi, phi)


def _sector_weights(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """p(k) = C(N,k) ||q^(x)k c_{N-k}||^2 (euclidean) for a symmetric psi.

    ``psi`` has one axis per particle and is only read.  c_l = <phi^(x)l|psi>
    contracts psi with phi* on its first l axes: a chain of tensors
    shrinking by m per link, since p = |phi><phi| on an axis only keeps its
    coefficient.  Each link c = c_{N-k}, psi itself at k = N, gives
    c0 = <phi|c> on its first axis (one gemv), which is both the q part's
    correction on that axis and the next link, so the chain only ever
    contracts axis 0 and holds psi, one link and c0.  ``_q_weight`` walks
    c's (m, m^(k-1)) view through one slab: the q part on axis 0 of a block
    of rows, or of an axis-1 slice of one row when a row is larger than a
    slab, goes into one buffer, q on the other axes acts in place inside
    it, and its squared norm is summed.

    Precondition: psi is permutation symmetric, which makes every pattern
    of k q's and N - k p's as heavy as the last-k one (p on the first N - k
    axes, q on the rest) that the axis-0 chain computes.  Off symmetry the
    error of p(k) is at most 2 min(k, N-k) C(N,k) r ||psi|| for a
    transposition residual r (each pattern is the last-k one conjugated by
    at most min(k, N-k) transpositions), so it scales with the residual.
    """
    n, m = psi.ndim, phi.size
    out = np.empty(n + 1)
    c = psi
    for k in range(n, 0, -1):  # c = c_{N-k}
        mat = c.reshape(m, -1)
        c0 = np.conj(phi) @ mat
        out[k] = math.comb(n, k) * _q_weight(mat, c0, phi, k)
        c = c0  # the walk's buffer was freed on its return
    out[0] = abs(c.item()) ** 2
    return out


def _q_weight(mat: np.ndarray, c0: np.ndarray, phi: np.ndarray, k: int) -> float:
    """||q^(x)k c||^2 for the link c = mat.reshape((m,)*k) and c0 = <phi|c> on axis 0.

    A row of c (m^(k-1) entries) that fits a slab is walked in the
    ``grids.row_blocks`` of the m rows: a block's q part on axis 0,
    c[rows] - phi[rows] (x) c0, goes into one block buffer.  A larger row i
    is walked in blocks of its m axis-1 slices (m^(k-2) entries each): one
    gemv gives the row's axis-1 coefficients d_i = <phi|c[i]>_1 -
    phi_i <phi|c0>_1, and a block J's q part on axes 0 and 1,
    c[i, J] - phi_i c0[J] - phi_J (x) d_i, goes into the buffer.  q on the
    remaining axes then acts in place inside it.  Either way the scratch is
    one slab: the row blocks, or the slice blocks beside d_i and
    <phi|c0>_1 (one slice and the two when a slice is over a third of a
    slab).  It is freed on return, before the caller makes the next link.
    """
    m, rest = mat.shape
    row_bytes = mat.itemsize * rest
    total = 0.0
    if k == 1 or row_bytes <= grids._SLAB_BYTES:
        rows = next(row_blocks((m,), row_bytes))[1]  # the first block is the largest
        buf = np.empty((rows, rest), dtype=np.complex128)
        for lo, hi, _ in row_blocks((m,), row_bytes):
            block = buf[:hi - lo]
            np.copyto(block, mat[lo:hi])
            blas.zgeru(-1.0, c0, phi[lo:hi], a=block.T, overwrite_a=1)
            block = block.reshape((-1,) + (m,) * (k - 1))
            for axis in range(1, k):
                _project_q_in_place(block, phi, axis)
            total += np.vdot(block, block).real
        return total
    unit = rest // m
    step = max(1, grids._SLAB_BYTES // (row_bytes // m) - 2)
    buf = np.empty((step + 2, unit), dtype=np.complex128)
    e0, d = buf[0], buf[1]
    phi_conj = np.conj(phi)
    c0 = c0.reshape(m, unit)
    np.matmul(phi_conj, c0, out=e0)  # <phi|c0>_1
    for i in range(m):
        row = mat[i].reshape(m, unit)
        np.multiply(e0, -phi[i], out=d)  # then d_i += row^T phi*, on the F-ordered row.T
        blas.zgemv(1.0, row.T, phi_conj, beta=1.0, y=d, overwrite_y=1)
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            block = buf[2:2 + hi - lo]
            np.multiply(c0[lo:hi], phi[i], out=block)
            np.subtract(row[lo:hi], block, out=block)
            blas.zgeru(-1.0, d, phi[lo:hi], a=block.T, overwrite_a=1)
            block = block.reshape((-1,) + (m,) * (k - 2))
            for axis in range(1, k - 1):
                _project_q_in_place(block, phi, axis)
            total += np.vdot(block, block).real
    return total


def beta(psi, phi, weight: float = 1.0) -> float:
    """beta = sum_k sqrt(k/N) <psi, P_{k,N} psi>."""
    pk = occupation_distribution(psi, phi, weight)
    n = len(pk) - 1
    w = np.sqrt(np.arange(n + 1) / n)
    return float(np.dot(w, pk))


# -- weighted operators -------------------------------------------------------


def hat_apply(f, psi, phi) -> np.ndarray:
    """f-hat psi = H^(x)N diag(f(#q)) H^(x)N psi for the weight f(0..N), at unit weight."""
    psi, phi, n, _ = _frame(psi, phi)
    f = np.asarray(f, dtype=float)
    if f.shape != (n + 1,):
        raise ConfigError(f"a weight for N = {n} takes {n + 1} values, got shape {f.shape}")
    h = _reflector(phi)
    w = _sweep(psi, h)
    w *= f[_q_counts(phi.size, n)].reshape(w.shape)
    return _sweep(w, h)


def _shifted(f: np.ndarray, j: int) -> np.ndarray:
    """(tau_j f)(k) = f(k + j), zero where k + j falls outside 0..N."""
    k = np.arange(len(f)) + j
    return np.where((k >= 0) & (k < len(f)), np.take(f, np.clip(k, 0, len(f) - 1)), 0.0)


def _apply_Q(v, phi, variant: int, which: int):
    """Q_0 = p1 p2, Q_1 = p1 q2 (variant 0) or q1 p2 (variant 1), Q_2 = q1 q2."""
    if which == 0:
        return project_p(project_p(v, phi, 0), phi, 1)
    if which == 2:
        return project_q(project_q(v, phi, 0), phi, 1)
    if variant == 0:
        return project_q(project_p(v, phi, 0), phi, 1)
    return project_p(project_q(v, phi, 0), phi, 1)


def _apply_two_body(v, T):
    """Apply an operator on coordinates 1, 2: diag values (m, m) or kernel (m,m,m,m)."""
    T = np.asarray(T)
    if T.ndim == 2:
        return v * T.reshape(T.shape + (1,) * (v.ndim - 2))
    m = v.shape[0]
    return np.tensordot(T.reshape(m, m, m, m), v, axes=([2, 3], [0, 1]))


def shift_identity_residual(f, j: int, k: int, T, psi, phi,
                            variant: int = 0) -> float:
    """|| f-hat Q_j T Q_k psi - Q_j T Q_k (tau_{j-k} f)-hat psi ||.

    The exchange identity moving a weighted operator through a two-body
    block; zero-fill shifts suffice because out-of-range weights multiply
    vanishing sectors.  psi and phi are taken at unit weight.
    """
    psi, phi, _, _ = _frame(psi, phi)
    rhs_in = hat_apply(_shifted(f, j - k), psi, phi)
    rhs = _apply_Q(_apply_two_body(_apply_Q(rhs_in, phi, variant, k), T), phi, variant, j)
    mid = _apply_Q(_apply_two_body(_apply_Q(psi, phi, variant, k), T), phi, variant, j)
    lhs = hat_apply(f, mid, phi)
    return float(np.linalg.norm((lhs - rhs).ravel()))


def weight_difference_bound(m_tag: str, l: int, psi, phi) -> tuple[float, float]:
    """(lhs, rhs) of || (m-hat - (tau_l m)-hat) q_1 psi || <= l/N, unit weight.

    ``m_tag`` is 'k/N' (m(k) = k/N) or 'n' (m(k) = sqrt(k/N)); tau_l m takes
    m's formula at k + l, also beyond k = N, and is 0 where k + l < 0.
    """
    if m_tag not in ("k/N", "n"):
        raise ConfigError("the difference bound holds for the k/N and sqrt(k/N) weights")
    psi, phi, n, _ = _frame(psi, phi)
    ks = np.arange(n + 1.0)
    m = np.maximum(np.array([ks, ks + l]), 0.0) / n  # m(k), (tau_l m)(k) for k = 0..N
    if m_tag == "n":
        m = np.sqrt(m)
    lhs = float(np.linalg.norm(hat_apply(m[0] - m[1], project_q(psi, phi, 0), phi).ravel()))
    return lhs, l / n


def trace_distance(gamma, phi: np.ndarray) -> float:
    """Tr |gamma - |phi><phi|| for a positive semidefinite gamma.

    ``gamma`` is an m x m ``numpy`` array or a ``manybody.OneBodyDensity``,
    of which only ``trace()`` and ``gamma @ v`` are used.

    gamma - |phi><phi| is a rank-one negative perturbation of a PSD matrix,
    so by Weyl interlacing it has at most one negative eigenvalue
    lambda_min, and its trace norm is tr(gamma - |phi><phi|) -
    2 min(lambda_min, 0).  An array's lambda_min comes from a dense
    ``eigvalsh`` (the lemma suite's 4 x 4 matrices: 0.01 ms against
    Lanczos's 0.1 ms); any other gamma's from ``_lanczos_min`` on
    v -> gamma v - phi <phi, v> started at phi, so neither the difference
    matrix nor a dense form of a factored gamma is made.  Best of 200, one
    BLAS thread on a 2-core x86-64 box, the m = 48 ladder's snapshots took
    0.18 / 0.15 ms dense / Lanczos at N = 2 and 0.12 / 0.13 ms at N = 3
    and 4; a random N = 2 gamma at m = 1024 took 326 / 4.4 ms, and
    ARPACK's Arnoldi (``eigsh``, 21 products against Lanczos's 6) 15 ms.
    """
    phi = np.asarray(phi, dtype=np.complex128).ravel()
    tr, norm2 = float(gamma.trace().real), float(np.vdot(phi, phi).real)
    if isinstance(gamma, np.ndarray):
        lam = np.linalg.eigvalsh(gamma - np.outer(phi, np.conj(phi)))[0]
    else:  # ||gamma - |phi><phi||| <= tr gamma + |phi|^2 scales the stopping test
        lam = _lanczos_min(lambda v: gamma @ v - phi * np.vdot(phi, v), phi, tr + norm2)
    return tr - norm2 - 2.0 * min(float(lam), 0.0)


def _lanczos_min(apply, v0: np.ndarray, scale: float) -> float:
    """The smallest eigenvalue of the Hermitian ``apply`` on the Krylov space of v0.

    Hermitian Lanczos with full reorthogonalisation (classical Gram-Schmidt,
    twice) on at most ``_LANCZOS_BASIS`` vectors; when the basis fills, it
    restarts from the Ritz vector of the smallest Ritz value.  It stops when
    that Ritz pair's residual estimate beta_j |s_j| is at most eps * scale,
    ``scale`` a bound on the operator's norm, so the value is within
    eps * scale of an eigenvalue; a breakdown (an invariant Krylov space)
    stops it the same way.  For v -> gamma v - phi <phi, v> from v0 = phi the
    Krylov space of phi holds the one negative eigenvector, if any: its
    complement is invariant and on it the operator is gamma, which is PSD.
    The iteration is deterministic, so the value reproduces to the bit.
    It gives up with an ``InvariantError`` after 10 m products.
    """
    m = v0.size
    k = min(_LANCZOS_BASIS, m)
    basis = np.empty((k, m), dtype=np.complex128)  # rows are the Lanczos vectors
    tol = np.finfo(float).eps * scale
    diag, off = np.zeros(k), np.zeros(k)
    v = v0
    for _ in range(-(-10 * m // k)):
        basis[0] = v / np.linalg.norm(v)
        for j in range(k):
            w = apply(basis[j])
            span = basis[:j + 1]
            coef = blas.zgemv(1.0, span.T, w, trans=2)  # conj(span) @ w, no conjugate copy
            w -= coef @ span
            again = blas.zgemv(1.0, span.T, w, trans=2)  # a second pass: twice is enough
            w -= again @ span
            diag[j] = (coef[j] + again[j]).real
            beta = np.linalg.norm(w)
            ritz, vecs = np.linalg.eigh(np.diag(diag[:j + 1]) + np.diag(off[:j], 1)
                                        + np.diag(off[:j], -1))
            if beta * abs(vecs[j, 0]) <= tol:
                return float(ritz[0])
            if j + 1 < k:
                off[j] = beta
                basis[j + 1] = w / beta
        v = vecs[:, 0] @ basis
    raise InvariantError(f"trace distance: Lanczos did not converge in {10 * m} products")


# -- derivative decomposition and energy-lemma ingredients --------------------


def derivative_terms(state: ManyBodyState, one_body: OneBodyState,
                     spec: ModelSpec) -> tuple[float, float, float, float]:
    """(I, II, III, d alpha/dt) of the mean-field derivative decomposition.

    Valid in the theta = 0 regime: W_12 = w(x_1-x_2, eps(y_1-y_2)) minus the
    mean field (w0 * |Phi|^2)(x_1).  The signed total is
    -2 Im <psi, p_1 W_12 q_1 psi>; |d alpha/dt| <= I + II + III.  The pair
    kernel is the read-only ``manybody._pair_view`` of its offset table,
    broadcast over the other particles: no m x m kernel is formed.
    """
    if spec.regime != "hartree-theta0":
        raise ConfigError("the derivative decomposition is a theta = 0 statement")
    psi, phi, n, amp = _grid_frame(state, one_body)
    if n < 2:
        raise ConfigError("need at least two particles")
    pair = _pair_view(_pair_table(spec))
    grid = pair.shape[:pair.ndim // 2]

    mf = hartree_potential(one_body.phi_free, mean_field_kernel(spec)).values.real
    mf_one = np.broadcast_to(
        mf.reshape(mf.shape + (1,) * spec.confined.dim), spec.domain.shape
    ).reshape(-1)

    def w12(v):
        out = (v.reshape(grid * 2 + (-1,)) * pair[..., None]).reshape(v.shape)
        out -= v * mf_one.reshape((-1,) + (1,) * (n - 1))
        return out

    p1 = project_p(psi, phi, 0)
    q1 = project_q(psi, phi, 0)
    p1p2 = project_p(p1, phi, 1)
    p1q2 = project_q(p1, phi, 1)
    q1p2 = project_p(q1, phi, 1)
    q1q2 = project_q(q1, phi, 1)

    scale = 2.0 * amp**2
    term1 = scale * abs(np.vdot(p1p2, w12(q1p2)))
    term2 = scale * abs(np.vdot(p1p2, w12(q1q2)))
    term3 = scale * abs(np.vdot(p1q2, w12(q1q2)))
    total = -scale * float(np.vdot(p1, w12(q1)).imag)
    return term1, term2, term3, total


def _grad_q_form(gamma: OneBodyDensity, phi) -> float:
    """tr(q h~ q gamma) for a unit-weight phi, q = 1 - |phi><phi|, h~ = K - E_0
    with K = -Delta_x - eps^-2 Delta_y and E_0 the confined ground level:

    tr(K gamma) - 2 Re<gamma phi, K phi> + <phi, K phi><phi, gamma phi>
    - E_0 (tr gamma - <phi, gamma phi>), with tr(K gamma) by ``gamma.kinetic_trace``.
    It is nonnegative by the spectral gap, but its terms are energy-sized, so on a
    condensate it reads roundoff of either sign, 1e-14 to 1e-12 absolute; it is not clipped.
    """
    dom = gamma.domain
    k_phi = apply_kinetic(phi.reshape(dom.shape), dom).ravel()
    g_phi = gamma @ phi
    occupied = np.vdot(phi, g_phi).real
    e0 = chi_mode(dom.confined, 0).energy_eps
    return float(gamma.kinetic_trace() - 2.0 * np.vdot(g_phi, k_phi).real
                 + np.vdot(phi, k_phi).real * occupied - e0 * (gamma.trace() - occupied))


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class CountingReport:
    """Snapshot of every condensation functional at one time (written to
    counting.csv and counting.json by ``harness.run_single``)."""

    t: float
    alpha: float
    beta: float
    beta_tilde: float
    p_k: tuple[float, ...]
    trace_distance: float
    E_psi: float
    E_phi: float
    grad_q_sq: float

    def validate(self, tol: float = 1e-9):
        n = len(self.p_k) - 1
        if not -tol <= self.alpha <= 1 + tol or not -tol <= self.beta <= 1 + tol:
            raise InvariantError("alpha/beta out of [0, 1]")
        if abs(sum(self.p_k) - 1.0) > tol:
            raise InvariantError("occupation distribution does not sum to one")
        ks = np.arange(n + 1)
        if abs(self.alpha - float(np.dot(ks / n, self.p_k))) > tol:
            raise InvariantError("alpha disagrees with its occupation moment")
        if abs(self.beta - float(np.dot(np.sqrt(ks / n), self.p_k))) > tol:
            raise InvariantError("beta disagrees with its occupation moment")
        if self.alpha > self.beta + tol:
            raise InvariantError("alpha exceeds beta")
        return self


def compute_report(state: ManyBodyState, one_body: OneBodyState,
                   e_psi: float, e_phi: float, gamma: OneBodyDensity) -> CountingReport:
    """Evaluate all counting functionals for one (psi, phi) snapshot; the
    caller computed its energies and its ``manybody.OneBodyDensity`` gamma.

    Precondition: the snapshot is permutation symmetric.  The occupation
    distribution uses the symmetric route ``_sector_weights`` without
    re-checking; ``manybody._energy_and_residual`` has refused a residual
    above SYMMETRY_TOL and returned gamma.  Besides psi and gamma (m^2 at
    N >= 3, read through psi at N <= 2) the report holds the chain's one
    1/m-sized link, its slab of walk scratch and two 1/m^2-sized arrays,
    then the trace distance's Lanczos basis of ``_LANCZOS_BASIS`` m-sized
    vectors: neither psi nor a row of it is copied.
    """
    psi, phi, n, amp = _grid_frame(state, one_body)
    pk = amp**2 * _sector_weights(psi, phi)
    ks = np.arange(n + 1)
    a = float(np.dot(ks / n, pk))
    b = float(np.dot(np.sqrt(ks / n), pk))
    return CountingReport(
        t=state.t,
        alpha=a,
        beta=b,
        beta_tilde=b + abs(e_psi - e_phi),
        p_k=tuple(float(p) for p in pk),
        trace_distance=trace_distance(gamma, phi),
        E_psi=float(e_psi),
        E_phi=float(e_phi),
        grad_q_sq=_grad_q_form(gamma, phi),
    ).validate()
