"""Projection-counting machinery measuring closeness to a condensate.

Everything is built from the rank-one projector p = |phi><phi| applied per
particle coordinate: the symmetric sector projectors P_{k,N} onto "exactly k
particles orthogonal to phi", weighted operators f-hat = sum f(k) P_{k,N},
the functionals alpha, beta and their derivative decomposition, the reduced
one-particle density matrix and the trace distance.

Three routes compute them: the number frame of ``occupancy_components``,
``hat_apply`` and ``occupation_distribution`` (the Householder reflector H
takes phi to a phase times e0, so f-hat = H^(x)N diag(f(#q)) H^(x)N with #q
the nonzero entries of a multi-index), the contraction chain of
``_sector_weights`` (the report's p_k), and the dense kron oracle ``dense_*``.

Internally phi is rescaled to unit quadrature weight and psi is read in
place: the weight of psi enters the returned scalars (and vectors) as a
factor, so inner products are plain euclidean ones regardless of
representation and no state-sized rescaled copy is made.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import blas
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import ConfigError, InvariantError
from .grids import apply_kinetic, kinetic_trace, row_blocks
from .manybody import SYMMETRY_TOL, ManyBodyState, _transposition_residual, pair_phase_array
from .manybody import density_matrix  # re-exported: the report's gamma is the energy's
from .model import ModelSpec
from .onebody import OneBodyState, chi_mode, hartree_potential, mean_field_kernel

__all__ = [
    "WeightFunction",
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
    "beta_tilde",
    "hat_apply",
    "shift_identity_residual",
    "weight_difference_bound",
    "trace_distance",
    "derivative_terms",
    "grad_q_norm",
    "mode_projection_split",
    "op_norm_interaction_projected",
    "op_norm_sandwiched",
    "CountingReport",
    "compute_report",
    "dense_p_matrices",
    "dense_sector_projectors",
    "dense_hat_matrix",
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
    if abs(nrm - 1.0) > 1e-6:
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
    Hermitian, unitary, H phi = -s e0 for a unit phi, so p = H e0 e0^dagger H."""
    u = phi.copy()
    u[0] += phi[0] / abs(phi[0]) if phi[0] != 0.0 else 1.0
    return np.eye(phi.size) - u[:, None] * ((2.0 / np.vdot(u, u).real) * np.conj(u))


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
    """Brute-force oracle: explicit sum over all 2^N projector patterns (unit weight)."""
    psi, phi, n, _ = _frame(psi, phi)
    if n > 6:
        raise ConfigError("pattern enumeration limited to N <= 6")
    out = np.zeros(n + 1)
    for pattern in itertools.product((0, 1), repeat=n):
        v = psi
        for axis, is_q in enumerate(pattern):
            v = project_q(v, phi, axis) if is_q else project_p(v, phi, axis)
        out[sum(pattern)] += float(np.vdot(v, v).real)
    return out


def occupation_distribution_binomial(psi, phi) -> np.ndarray:
    """Symmetric shortcut p(k) = C(N,k) ||q_1..q_k p_{k+1}..p_N psi||^2 (unit weight).

    Refuses a state whose transposition residual exceeds SYMMETRY_TOL; see
    ``_sector_weights`` for the route and its error.
    """
    psi, phi, n, _ = _frame(psi, phi)
    if _transposition_residual(psi, n, 1) > SYMMETRY_TOL:
        raise ConfigError("binomial shortcut requires a symmetric state")
    return _sector_weights(psi, phi)


def _sector_weights(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """p(k) = C(N,k) ||q^(x)k c_{N-k}||^2 (euclidean) for a symmetric psi.

    ``psi`` has one axis per particle and is only read.  c_l = <phi^(x)l|psi>
    contracts psi with phi* on its last l axes: a chain of tensors shrinking
    by m per link, since p = |phi><phi| on an axis only keeps its
    coefficient.  Each c_{N-k}, psi itself at k = N, is walked as its
    (m, m^(k-1)) view in the ``grids.row_blocks`` of its m rows (one row
    when a row is larger than a slab), as the many-body substep walks the
    state.  With
    c0 = <phi|c> along the first axis (one gemv), a block's q part on that
    axis, c[rows] - phi[rows] (x) c0, goes into one block buffer; q on the
    other axes acts in place inside it, and its squared norm is summed.  So
    besides psi only the block buffer and 1/m-sized coefficients are made.

    Precondition: psi is permutation symmetric, which makes every pattern
    of k q's and N - k p's as heavy as the first-k one.  Off symmetry the
    error of p(k) is at most 2 min(k, N-k) C(N,k) r ||psi|| for a
    transposition residual r (each pattern is the first-k one conjugated by
    at most min(k, N-k) transpositions), so it scales with the residual.
    """
    n, m = psi.ndim, phi.size
    out = np.empty(n + 1)
    c = psi
    for k in range(n, 0, -1):  # c = c_{N-k}
        rest = m ** (k - 1)
        mat = c.reshape(m, rest)
        c0 = np.conj(phi) @ mat
        row_bytes = psi.itemsize * rest
        rows = next(row_blocks((m,), row_bytes))[1]  # the first block is the largest
        buf = np.empty((rows, rest), dtype=np.complex128)
        total = 0.0
        for lo, hi, _ in row_blocks((m,), row_bytes):
            block = np.multiply.outer(phi[lo:hi], c0, out=buf[:hi - lo])
            np.subtract(mat[lo:hi], block, out=block)
            block = block.reshape((-1,) + (m,) * (k - 1))
            for axis in range(1, k):
                _project_q_in_place(block, phi, axis)
            total += np.vdot(block, block).real
        out[k] = math.comb(n, k) * total
        del buf, block  # before the next link and buffer are made
        c = c.reshape(-1, m) @ np.conj(phi)
    out[0] = abs(c.item()) ** 2
    return out


def beta(psi, phi, weight: float = 1.0) -> float:
    """beta = sum_k sqrt(k/N) <psi, P_{k,N} psi>."""
    pk = occupation_distribution(psi, phi, weight)
    n = len(pk) - 1
    w = np.sqrt(np.arange(n + 1) / n)
    return float(np.dot(w, pk))


def beta_tilde(psi, phi, e_psi: float, e_phi: float, weight: float = 1.0) -> float:
    """beta + |E^psi - E^phi|, the energy-augmented functional."""
    return beta(psi, phi, weight) + abs(e_psi - e_phi)


# -- weighted operators -------------------------------------------------------

_TAGS = ("n", "k/N", "mu", "mu1")


@dataclass(frozen=True)
class WeightFunction:
    """Tabulated weight f(0..N), optionally tagged with its formula.

    Tagged weights shift by their natural formula beyond k = N (the counting
    bounds need e.g. sqrt((k+l)/N) there); untagged tables shift with the
    zero-fill convention, which is all the exchange identities require.
    """

    values: np.ndarray
    tag: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.tag is not None and self.tag not in _TAGS:
            raise ConfigError(f"unknown weight tag {self.tag!r}")

    @property
    def n_particles(self) -> int:
        return len(self.values) - 1

    def _formula(self, k: np.ndarray) -> np.ndarray:
        n = float(self.n_particles)
        k = np.asarray(k, dtype=float)
        pos = np.maximum(k, 0.0)
        if self.tag == "n":
            out = np.sqrt(pos / n)
        elif self.tag == "k/N":
            out = pos / n
        elif self.tag == "mu":
            out = np.sqrt(n) * (np.sqrt(pos) - np.sqrt(np.maximum(pos - 1, 0.0)))
        else:  # mu1
            out = np.sqrt(n) * (np.sqrt(pos) - np.sqrt(np.maximum(pos - 2, 0.0)))
        return np.where(k < 0, 0.0, out)

    @classmethod
    def from_tag(cls, tag: str, n: int) -> "WeightFunction":
        w = cls(np.zeros(n + 1), None)
        object.__setattr__(w, "tag", tag)
        object.__setattr__(w, "values", w._formula(np.arange(n + 1)))
        return w

    def shifted(self, j: int) -> "WeightFunction":
        """(tau_j f)(k) = f(k + j); out-of-range per the class docstring."""
        k = np.arange(self.n_particles + 1) + j
        if self.tag is not None:
            return WeightFunction(self._formula(k), None)
        n = self.n_particles
        return WeightFunction(np.where((k >= 0) & (k <= n), self.values[np.clip(k, 0, n)], 0.0))

    def __mul__(self, other: "WeightFunction") -> "WeightFunction":
        return WeightFunction(self.values * other.values, None)


def hat_apply(f: WeightFunction, psi, phi) -> np.ndarray:
    """f-hat psi = H^(x)N diag(f(#q)) H^(x)N psi, in the unit-weight frame."""
    psi, phi, n, _ = _frame(psi, phi)
    h = _reflector(phi)
    w = _sweep(psi, h)
    w *= f.values[_q_counts(phi.size, n)].reshape(w.shape)
    return _sweep(w, h)


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


def shift_identity_residual(f: WeightFunction, j: int, k: int, T, psi, phi,
                            variant: int = 0) -> float:
    """|| f-hat Q_j T Q_k psi - Q_j T Q_k (tau_{j-k} f)-hat psi ||.

    The exchange identity moving a weighted operator through a two-body
    block; zero-fill shifts suffice because out-of-range weights multiply
    vanishing sectors.  psi and phi are taken at unit weight.
    """
    psi, phi, _, _ = _frame(psi, phi)
    rhs_in = hat_apply(f.shifted(j - k), psi, phi)
    rhs = _apply_Q(_apply_two_body(_apply_Q(rhs_in, phi, variant, k), T), phi, variant, j)
    mid = _apply_Q(_apply_two_body(_apply_Q(psi, phi, variant, k), T), phi, variant, j)
    lhs = hat_apply(f, mid, phi)
    return float(np.linalg.norm((lhs - rhs).ravel()))


def weight_difference_bound(m_tag: str, l: int, psi, phi) -> tuple[float, float]:
    """(lhs, rhs) of || (m-hat - (tau_l m)-hat) q_1 psi || <= l/N, unit weight.

    ``m_tag`` is 'k/N' or 'n'; the shift uses the tagged formula extension.
    """
    if m_tag not in ("k/N", "n"):
        raise ConfigError("the difference bound holds for the k/N and sqrt(k/N) weights")
    psi, phi, n, _ = _frame(psi, phi)
    m = WeightFunction.from_tag(m_tag, n)
    diff = WeightFunction(m.values - m.shifted(l).values, None)
    v = project_q(psi, phi, 0)
    lhs = float(np.linalg.norm(hat_apply(diff, v, phi).ravel()))
    return lhs, l / n


_DENSE_EIG_MAX_DIM = 96  # measured crossover of dense eigvalsh and Lanczos


def trace_distance(gamma: np.ndarray, phi: np.ndarray) -> float:
    """Tr |gamma - |phi><phi|| for a positive semidefinite gamma.

    gamma - |phi><phi| is a rank-one negative perturbation of a PSD matrix,
    so by Weyl interlacing it has at most one negative eigenvalue
    lambda_min, and its trace norm is tr(gamma - |phi><phi|) -
    2 min(lambda_min, 0).  lambda_min comes from a dense ``eigvalsh`` up to
    m = 96 and above that from Lanczos (ARPACK via ``eigsh``, which="SA")
    on v -> gamma v - phi <phi, v>, so the difference matrix is never
    formed.  The start vector is phi and restarts draw from a fixed seed,
    so the result is reproducible.  Crossover, one BLAS thread on a 2-core
    x86-64 box: m = 48 dense 0.33 ms / Lanczos 1.1 ms, m = 96 1.2 / 1.2 ms,
    m = 128 2.4 / 1.4 ms, m = 1024 553 / 22 ms.
    """
    phi = np.asarray(phi, dtype=np.complex128).ravel()
    m = phi.size
    if m > 4096:
        raise ConfigError("trace distance limited to one-body dimension <= 4096")
    trace = float(np.trace(gamma).real - np.vdot(phi, phi).real)
    if m <= _DENSE_EIG_MAX_DIM:
        lam = np.linalg.eigvalsh(gamma - np.outer(phi, np.conj(phi)))[0]
    else:
        diff = LinearOperator((m, m), matvec=lambda v: gamma @ v - phi * np.vdot(phi, v),
                              dtype=np.complex128)
        lam = eigsh(diff, k=1, which="SA", v0=phi, rng=np.random.default_rng(0),
                    return_eigenvectors=False)[0].real
    return trace - 2.0 * min(float(lam), 0.0)


# -- derivative decomposition and energy-lemma ingredients --------------------


def derivative_terms(state: ManyBodyState, one_body: OneBodyState,
                     spec: ModelSpec) -> tuple[float, float, float, float]:
    """(I, II, III, d alpha/dt) of the mean-field derivative decomposition.

    Valid in the theta = 0 regime: W_12 = w(x_1-x_2, eps(y_1-y_2)) minus the
    mean field (w0 * |Phi|^2)(x_1).  The signed total is
    -2 Im <psi, p_1 W_12 q_1 psi>; |d alpha/dt| <= I + II + III.
    """
    if spec.regime != "hartree-theta0":
        raise ConfigError("the derivative decomposition is a theta = 0 statement")
    psi, phi, n, amp = _grid_frame(state, one_body)
    if n < 2:
        raise ConfigError("need at least two particles")
    kernel = pair_phase_array(spec).reshape(phi.size, phi.size)

    mf = hartree_potential(one_body.phi_free, mean_field_kernel(spec)).values.real
    mf_one = np.broadcast_to(
        mf.reshape(mf.shape + (1,) * spec.confined.dim), spec.domain.shape
    ).reshape(-1)

    def w12(v):
        out = v * kernel.reshape(kernel.shape + (1,) * (n - 2))
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


def grad_q_norm(state: ManyBodyState, reference) -> float:
    """<q_1 psi, h~_1 q_1 psi> with h~ = -Delta_x - eps^-2 Delta_y - E_0/eps^2.

    The confined axes carry the eps^-2 weight and the confined ground level
    is subtracted, so the value vanishes on pure condensates and is
    nonnegative by the spectral gap.  It is taken from gamma, whose terms
    (``_grad_q_form``) are energy-sized, so on a condensate it reads roundoff
    of either sign, 1e-14 to 1e-12 absolute; it is not clipped.
    """
    psi, phi, _, _ = _grid_frame(state, reference)
    return _grad_q_form(density_matrix(psi, state.domain.cell_volume), phi, state.domain)


def _grad_q_form(gamma, phi, dom) -> float:
    """tr(q h~ q gamma) for unit-weight gamma and phi, q = 1 - |phi><phi|, h~ = K - E_0:

    tr(K gamma) - 2 Re<gamma phi, K phi> + <phi, K phi><phi, gamma phi>
    - E_0 (tr gamma - <phi, gamma phi>), with tr(K gamma) by ``grids.kinetic_trace``.
    """
    k_phi = apply_kinetic(phi.reshape(dom.shape), dom).ravel()
    g_phi = gamma @ phi
    occupied = np.vdot(phi, g_phi).real
    e0 = chi_mode(dom.confined, 0).energy_eps
    return float(kinetic_trace(gamma, dom) - 2.0 * np.vdot(g_phi, k_phi).real
                 + np.vdot(phi, k_phi).real * occupied - e0 * (np.trace(gamma).real - occupied))


def mode_projection_split(state: ManyBodyState, one_body: OneBodyState) -> tuple[float, float]:
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


# -- operator norm checks -----------------------------------------------------


def op_norm_interaction_projected(kernel_flat: np.ndarray, phi_l2: np.ndarray) -> float:
    """|| w_12 p_1 ||_Op, exact: sup_b (sum_a |phi(a)|^2 |w(a, b)|^2)^(1/2).

    p_1 w_12^2 p_1 = |phi><phi| (x) diag_b(sum_a |phi(a)|^2 |w(a, b)|^2).
    """
    dens = np.abs(phi_l2) ** 2
    return float(np.sqrt(np.max(dens @ np.abs(kernel_flat) ** 2)))


def op_norm_sandwiched(kernel_flat: np.ndarray, phi_l2: np.ndarray) -> float:
    """|| p_1 g_12 p_1 ||_Op, exact: sup_b |sum_a |phi(a)|^2 g(a, b)|."""
    dens = np.abs(phi_l2) ** 2
    return float(np.max(np.abs(dens @ kernel_flat)))


# -- reports ------------------------------------------------------------------

_REPORT_FIELDS = (
    "t", "alpha", "beta", "beta_tilde", "p_k", "trace_distance",
    "E_psi", "E_phi", "grad_q_sq",
)


@dataclass(frozen=True)
class CountingReport:
    """Snapshot of every condensation functional at one time."""

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

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_row(self) -> str:
        cells = []
        for name in _REPORT_FIELDS:
            value = getattr(self, name)
            if name == "p_k":
                cells.append(";".join(f"{p:.12g}" for p in value))
            else:
                cells.append(f"{value:.12g}")
        return ",".join(cells)

    @staticmethod
    def csv_header() -> str:
        return ",".join(_REPORT_FIELDS)


def compute_report(state: ManyBodyState, one_body: OneBodyState,
                   e_psi: float, e_phi: float, gamma: np.ndarray) -> CountingReport:
    """Evaluate all counting functionals for one (psi, phi) snapshot; the
    caller computed its energies and unit-weight ``density_matrix`` gamma.

    Precondition: the snapshot is permutation symmetric.  The occupation
    distribution uses the symmetric route ``_sector_weights`` without
    re-checking; ``manybody._energy_and_residual`` has refused a residual
    above SYMMETRY_TOL and returned gamma.  Besides psi and gamma the report
    holds one ``grids.row_blocks`` block (at most a slab, or one 1/m-sized
    row when a row is larger) and 1/m-sized coefficients: psi is not copied.
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
        grad_q_sq=_grad_q_form(gamma, phi, state.domain),
    ).validate()


# -- dense kron-matrix route (the oracle) -------------------------------------


def dense_p_matrices(phi: np.ndarray, n: int) -> list[np.ndarray]:
    """[p_1, ..., p_N] as explicit d^N x d^N matrices."""
    phi = np.asarray(phi, dtype=np.complex128).ravel()
    d = len(phi)
    p = np.outer(phi, np.conj(phi))
    eye = np.eye(d)
    out = []
    for i in range(n):
        mat = np.ones((1, 1), dtype=np.complex128)
        for j in range(n):
            mat = np.kron(mat, p if j == i else eye)
        out.append(mat)
    return out

def dense_sector_projectors(phi: np.ndarray, n: int) -> list[np.ndarray]:
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


def dense_hat_matrix(f: WeightFunction, phi: np.ndarray, n: int) -> np.ndarray:
    projs = dense_sector_projectors(phi, n)
    return sum(f.values[k] * projs[k] for k in range(n + 1))
