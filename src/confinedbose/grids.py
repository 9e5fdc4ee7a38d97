"""Discretized geometry for the cylinder Omega = Omega_f x Omega_c.

Free directions live on a padded periodic box, diagonalized by plane waves;
confined directions carry a hard-wall (Dirichlet) condition, diagonalized by
the sine vectors of the type-I DST, so the condition is exact.  Every domain
is the tuple ``parts`` of its factors (``FreeDomain``, ``ConfinedDomain``, or
both for a ``ProductDomain``), and each part says whether its axes are
``periodic`` and gives their nodes, kinetic multipliers and file geometry,
so per-axis code loops over the parts once.  Functions of the kinetic
operator act through one position-space matrix per group of small
consecutive axes, built from the explicit eigenbases with no transform call
(``axis_groups``, ``axis_operators``, ``apply_kinetic``, ``kinetic_trace``),
and both evolvers step through the one Strang schedule ``strang_steps``.
Quadrature is uniform-weight, consistent with the eigenbasis sampling.

All operations here are pure functions of immutable inputs, except that
``apply_along(..., out=)`` writes ``out`` and ``strang_steps`` writes the
array it is given; grid functions are value-like and safe to share between
threads.  The kick sweeps run on every CPU of the process's affinity mask
(``_walk_in_parts``), with the same results to the bit.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.fft import fftfreq

from .errors import ConfigError

__all__ = [
    "FreeDomain",
    "ConfinedDomain",
    "ProductDomain",
    "GridFunction",
    "inner_product",
    "norm",
    "axis_operators",
    "axis_groups",
    "apply_along",
    "apply_kinetic",
    "kinetic_trace",
    "step_count",
    "strang_steps",
    "write_mfl1",
    "read_mfl1",
]


class _Part:
    """One factor of the cylinder: a block of axes of one kind.

    A part is ``periodic`` (free axes: plane waves, minimum image, eps = 1)
    or not (hard-wall confined axes: DST-I sines, compressed by eps).  Every
    domain is the tuple ``parts`` of its factors, free first; a part is its
    own only factor.
    """

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @property
    def parts(self) -> tuple["_Part", ...]:
        return (self,)

    def meshgrid(self):
        return np.meshgrid(*(self.axis_nodes(a) for a in range(self.dim)), indexing="ij")

    def _set_points(self):
        if not all(isinstance(n, (int, np.integer)) for n in self.points):  # 16.7, "16" refused
            raise ValueError(f"point counts must be integers, got {list(self.points)}")
        object.__setattr__(self, "points", tuple(int(n) for n in self.points))


@dataclass(frozen=True)
class FreeDomain(_Part):
    """Periodic surrogate for the unconfined directions.

    Axis ``a`` covers ``[-extent[a]/2, extent[a]/2)`` with ``points[a]``
    equispaced nodes.  Point counts must be powers of two (fast FFT lengths).
    """

    extents: tuple[float, ...]
    points: tuple[int, ...]

    periodic = True
    eps = 1.0  # free axes are not compressed

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(float(L) for L in self.extents))
        self._set_points()
        if not 1 <= len(self.extents) <= 2:
            raise ValueError("free dimension must be 1 or 2")
        if len(self.points) != len(self.extents):
            raise ValueError("points/extents length mismatch")
        for L, n in zip(self.extents, self.points):
            if not 0.0 < L < math.inf:
                raise ValueError("extent must be positive and finite")
            if n < 8 or n & (n - 1):  # n & (n - 1) clears the lowest set bit
                raise ValueError("free point count must be a power of two >= 8")

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.extents, self.points))

    @property
    def geometry(self) -> tuple[float, ...]:
        """The MFL1 geometry record: the extent of each axis."""
        return self.extents

    def axis_nodes(self, a: int) -> np.ndarray:
        L, n = self.extents[a], self.points[a]
        h = L / n
        return -L / 2 + h * np.arange(n)

    def axis_multipliers(self, eps: float | None = None) -> list[np.ndarray]:
        """k^2 per axis, wavenumbers in FFT order; ``eps`` does not act here."""
        return [(2.0 * np.pi * fftfreq(n, d=h)) ** 2
                for n, h in zip(self.points, self.spacings)]


@dataclass(frozen=True)
class ConfinedDomain(_Part):
    """Hard-wall directions, squeezed by the confinement strength eps.

    Each axis covers the open interval (c, d) with ``points[a]`` interior
    nodes at spacing ``h = (d - c)/(points[a] + 1)``; the wavefunction
    vanishes at c and d by construction of the sine basis.
    """

    intervals: tuple[tuple[float, float], ...]
    points: tuple[int, ...]
    eps: float = 1.0

    periodic = False

    def __post_init__(self):
        object.__setattr__(
            self, "intervals", tuple((float(c), float(d)) for c, d in self.intervals)
        )
        self._set_points()
        object.__setattr__(self, "eps", float(self.eps))
        if not 1 <= len(self.intervals) <= 2:
            raise ValueError("confined dimension must be 1 or 2")
        if len(self.points) != len(self.intervals):
            raise ValueError("points/intervals length mismatch")
        for (c, d), n in zip(self.intervals, self.points):
            if not -math.inf < c < 0.0 < d < math.inf:
                raise ValueError("interval must satisfy c < 0 < d, both finite")
            if n < 2:
                raise ValueError("need at least 2 interior nodes per confined axis")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(d - c for c, d in self.intervals)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(w / (n + 1) for w, n in zip(self.widths, self.points))

    @property
    def geometry(self) -> tuple[float, ...]:
        """The MFL1 geometry record: the walls (c, d) of each axis."""
        return tuple(wall for interval in self.intervals for wall in interval)

    def axis_nodes(self, a: int) -> np.ndarray:
        (c, _), h = self.intervals[a], self.spacings[a]
        return c + h * (1 + np.arange(self.points[a]))

    def axis_multipliers(self, eps: float | None = None) -> list[np.ndarray]:
        """Dirichlet eigenvalues (m pi / width)^2 / eps^2 per axis, sine index m >= 1.

        ``eps=None`` takes the domain's eps; ``eps=1.0`` gives the plain Laplacian.
        """
        eps = self.eps if eps is None else eps
        return [((1 + np.arange(n)) * np.pi / w) ** 2 / eps**2
                for n, w in zip(self.points, self.widths)]


@dataclass(frozen=True)
class ProductDomain:
    """Full geometry Omega = Omega_f x Omega_c (free axes first)."""

    free: FreeDomain
    confined: ConfinedDomain

    @property
    def parts(self) -> tuple[FreeDomain, ConfinedDomain]:
        return (self.free, self.confined)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.free.shape + self.confined.shape

    @property
    def cell_volume(self) -> float:
        return self.free.cell_volume * self.confined.cell_volume

    @property
    def eps(self) -> float:
        return self.confined.eps


Domain = FreeDomain | ConfinedDomain | ProductDomain


@dataclass(frozen=True)
class GridFunction:
    """Complex samples on a domain."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != self.domain.shape:
            raise ValueError(
                f"value shape {values.shape} does not match grid {self.domain.shape}"
            )
        object.__setattr__(self, "values", values)

    def copy_with(self, values) -> "GridFunction":
        return GridFunction(self.domain, values)


# -- kinetic operator --------------------------------------------------------


def axis_multipliers(domain: Domain, eps: float | None = None) -> tuple[np.ndarray, ...]:
    """Per-axis terms of the multiplier of -Delta_x - eps^-2 Delta_y.

    One 1-D array per value axis, part by part: k^2 on each free axis,
    lambda/eps^2 on each confined axis.  With ``eps=None`` the confined
    weight is taken from the domain; pass ``eps=1.0`` for the plain Laplacian.
    """
    return tuple(mult for part in domain.parts for mult in part.axis_multipliers(eps))


def axis_operators(domain: Domain, fn, eps: float | None = None) -> tuple[np.ndarray, ...]:
    """Position-space matrices of ``fn(multiplier)``, one per ``axis_groups`` entry.

    A group's matrix is V fn(Lambda) V^dagger, with V the Kronecker product
    of its axes' eigenbases (``_axis_basis``) and Lambda their summed axis
    multipliers; it acts on the group's merged axis of the C-ordered
    reshape.  The axis terms of the kinetic operator commute, so applying
    the matrices of ``fn = exp(-i tau m)`` along every group is the exact
    propagator exp(-i tau (-Delta_x - eps^-2 Delta_y)), and summing those of
    ``fn = identity`` is the kinetic operator itself.  ``eps`` is passed to
    ``axis_multipliers``.
    """
    periodic = [part.periodic for part in domain.parts for _ in range(part.dim)]
    mults = axis_multipliers(domain, eps)
    mats = []
    for axes in _group_axes(domain.shape):
        total, vecs = 0.0, np.ones((1, 1))
        for axis in axes:
            total = np.add.outer(total, mults[axis])
            vecs = np.kron(vecs, _axis_basis(len(mults[axis]), periodic[axis]))
        mats.append((vecs * fn(total).ravel()) @ vecs.conj().T)
    return tuple(mats)


def _axis_basis(n: int, periodic: bool) -> np.ndarray:
    """Orthonormal eigenvectors of one axis, columns in ``axis_multipliers`` order:
    e^(2 pi i jk/n)/sqrt(n), k in FFT order (the first node's phase cancels in
    V fn V^dagger), or sqrt(2/(n+1)) sin(pi jk/(n+1)), j, k = 1..n; jk mod period."""
    if periodic:
        return np.exp(2j * np.pi * (np.outer(np.arange(n), np.arange(n)) % n) / n) / np.sqrt(n)
    jk = np.outer(np.arange(1, n + 1), np.arange(1, n + 1)) % (2 * n + 2)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * jk / (n + 1))


_GROUP_BOUND = 64  # largest merged axis: larger dense sweeps cost more flops than they save passes


def _group_axes(shape) -> list[list[int]]:
    """Consecutive axes of ``shape`` merged while the product of their sizes is <= 64."""
    groups: list[list[int]] = []
    for axis, n in enumerate(shape):
        if groups and math.prod(shape[a] for a in groups[-1]) * n <= _GROUP_BOUND:
            groups[-1].append(axis)
        else:
            groups.append([axis])
    return groups


def axis_groups(shape) -> tuple[int, ...]:
    """Sizes of the merged axes of ``shape``, one per ``axis_operators`` matrix.

    (16, 3) -> (48,), (64, 4, 4) -> (64, 16), (128, 3) -> (128, 3).  A
    merged axis is a plain reshape of a C-ordered array.
    """
    return tuple(math.prod(shape[a] for a in axes) for axes in _group_axes(shape))


# sweep block: a slab and its scratch fit a core's 2 MiB L2 many times over, and
# every state-sized pass's transient is one slab.  Four in-place sweeps (one BLAS
# thread, medians of 12) took 171, 188 and 167 ms on the (48)^4 state and 31, 29
# and 30 ms on the (64, 16, 64, 16) one with 256 KiB, 512 KiB and 1 MiB slabs
# (best of 12: 161, 162, 161 and 29, 28, 28 ms), against 208 ms on (48)^4 as one
# unblocked out-of-place matmul each
_SLAB_BYTES = 1 << 18


def row_blocks(shape: tuple, row_bytes: int):
    """Blocks of at most ``max(1, _SLAB_BYTES // row_bytes)`` rows of a grid of ``shape``.

    A row is one entry of the grid, ``row_bytes`` of the walked array.
    Yields (lo, hi, box) in raveled order: ``box`` fixes the leading axes,
    slices one axis and keeps the trailing axes whole, so it holds the rows
    lo:hi, one contiguous range of any C-ordered array whose leading axes
    are ``shape``.  The sliced axis is the first whose trailing rows fit the
    budget, so every block but the last along that axis is as large as the
    budget allows, and the first block is the largest.
    """
    budget = max(1, _SLAB_BYTES // row_bytes)
    axis = next(a for a in range(len(shape)) if math.prod(shape[a + 1:]) <= budget)
    inner = math.prod(shape[axis + 1:])
    step = budget // inner
    n = shape[axis]
    for k, lead in enumerate(np.ndindex(*shape[:axis])):  # raveled order
        for j in range(0, n, step):
            hi = min(j + step, n)
            yield (k * n + j) * inner, (k * n + hi) * inner, lead + (slice(j, hi),)


_pool = None  # the slab walks' W - 1 worker threads, made on first use
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))


def _workers() -> int:
    """W, the number of parts of a slab walk: the CPUs in the process's affinity mask
    (all CPUs where the platform has no affinity mask, as on macOS and Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _walk_in_parts(blocks, walk) -> list:
    """``walk`` on W contiguous parts of the list ``blocks``; its results in block order.

    ``walk(part)`` takes a slice of ``blocks``, allocates its own scratch,
    and returns a list of its results in order (empty for a walk that only
    writes).  W is ``_workers()``, capped at the number of blocks.  The
    calling thread walks the first part, and a process-wide pool of W - 1
    threads, made on first use, walks the others; the caller waits for
    every part before it returns or raises.  numpy's matmul and ufuncs
    release the GIL, so the parts run at the same time; each result comes
    from one thread in sequential order, so it is the same to the bit
    whatever W.  One block, or one CPU, is the plain loop.  Only the walks
    that pay for a second worker (README) split here: the kicks of
    ``apply_along``, ``manybody._apply_phases`` and the transpositions of
    ``manybody._transposition_residual``.  ``walk`` runs block bodies
    only: it calls no public function of the package (``perfbench``'s
    tracer keeps one span stack) and never walks in parts itself (a worker
    would wait on the pool it occupies).
    """
    global _pool
    w = min(_workers(), len(blocks))
    if w <= 1:
        return walk(blocks)
    from concurrent.futures import ThreadPoolExecutor, wait  # not loaded at import

    if _pool is None:
        _pool = ThreadPoolExecutor(w - 1, thread_name_prefix="slab-walk")
    cuts = [len(blocks) * p // w for p in range(w + 1)]
    futures = [_pool.submit(walk, blocks[lo:hi]) for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        results = walk(blocks[:cuts[1]])
    finally:
        wait(futures)
    for future in futures:
        results += future.result()
    return results


def apply_along(values: np.ndarray, mat: np.ndarray, axis: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Apply the square matrix ``mat`` to ``values`` along ``axis``.

    Writes into ``out`` (any C-contiguous array of the shape of ``values``;
    ``out=values`` acts in place), or into a new array when ``out`` is None,
    and returns it.  The (left, n, right) view is walked in the
    ``row_blocks`` of its (left, right) columns of n entries: several whole
    (n, right) slices, or column chunks of one slice when a slice is larger
    than a slab (row blocks of the (left, n) view when right == 1).  Each
    block's product goes into its part's scratch buffer and is copied back
    into the block, so an in-place sweep allocates one slab per worker of
    ``_walk_in_parts``, not a second state (cache blocking of dense
    products: Goto & van de Geijn, ACM TOMS 34(3), 2008).
    """
    shape = values.shape
    n = shape[axis]
    left = math.prod(shape[:axis])
    right = math.prod(shape[axis + 1:])
    dtype = np.result_type(values, mat)
    if out is None:
        out = np.empty(shape, dtype)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array of the shape of values")
    src, dst = values.reshape(left, n, right), out.reshape(left, n, right)
    blocks = list(row_blocks((left, right), n * values.itemsize))
    size = blocks[0][1] * n  # the first block is the largest

    def walk(part):
        scratch = np.empty(size, dtype)
        for _, _, box in part:
            # the box of (left, right) columns, with the n axis whole between
            index = box[:1] + (slice(None),) + (box[1:] if right > 1 else (0,))
            block = src[index]
            prod = scratch[:block.size].reshape(block.shape)
            if right == 1:  # (rows, n) @ mat.T, not one matrix-vector product per row
                np.matmul(block, mat.T, out=prod)
            else:
                np.matmul(mat, block, out=prod)
            dst[index] = prod
        return []

    _walk_in_parts(blocks, walk)
    return out


def apply_kinetic(values: np.ndarray, domain: Domain, eps: float | None = None) -> np.ndarray:
    """-Delta_x - eps^-2 Delta_y applied along the leading ``domain.shape`` axes."""
    ops = axis_operators(domain, lambda mult: mult, eps)
    grouped = values.reshape(axis_groups(domain.shape) + values.shape[len(domain.shape):])
    out = apply_along(grouped, ops[0], 0)
    for axis in range(1, len(ops)):
        out += apply_along(grouped, ops[axis], axis)
    return out.reshape(values.shape)


def kinetic_trace(gamma: np.ndarray, domain: Domain) -> float:
    """Re tr(K gamma), K = -Delta_x - eps^-2 Delta_y, for an m x m matrix on the raveled grid.

    Summed as tr(K_g Gamma_g) over the ``axis_operators`` matrices K_g, with
    Gamma_g the partial trace of gamma over the other groups: no dense m x m K.
    """
    sizes = axis_groups(domain.shape)
    n = len(sizes)
    blocks = gamma.reshape(sizes * 2)
    total = 0.0
    for g, op in enumerate(axis_operators(domain, lambda mult: mult)):
        # sum over a, b, rest of K_g[a, b] gamma[(b, rest), (a, rest)]
        cols = [n + g if axis == g else axis for axis in range(n)]
        total += float(np.einsum(op, [n + g, g], blocks, list(range(n)) + cols, []).real)
    return total


# -- time stepping -----------------------------------------------------------


def step_count(T: float, dt: float) -> int:
    """Number of steps of size ``dt`` in a run over [0, T]."""
    if not (math.isfinite(dt) and math.isfinite(T)):
        raise ConfigError("dt and T must be finite")
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if T < 0:
        raise ConfigError("T must be nonnegative")
    steps = round(T / dt)
    if abs(steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ConfigError("T must be an integral number of steps")
    return steps


def strang_steps(values: np.ndarray, half, full, substep, steps: int, stride: int):
    """Second-order Strang splitting: half kick, potential substep, half kick.

    ``half`` and ``full`` are the kick matrices exp(-i dt/2 K), exp(-i dt K)
    for the axes of ``values`` (a grouped reshape), and ``substep(k, values)``
    applies step k's potential phase in place.  Between snapshots the closing
    and opening half kicks of consecutive steps are one full kick
    (first-same-as-last, McLachlan & Quispel, Acta Numerica 11, 2002).
    Yields (steps done, values) after every ``stride``-th step and the last.

    Every sweep and the substep act in place on ``values``, the array it is
    given, which must be C-contiguous and writeable: a sweep reads each slab
    whole into its scratch before writing it back, so it is bit for bit the
    out-of-place product.  The yielded array is ``values`` itself, valid
    until the next step is requested; a caller that keeps a snapshot copies
    it.  So one state-sized array is alive, with one slab scratch per worker
    of a sweep (``_walk_in_parts``).
    """
    for k in range(steps):
        if k % stride == 0:  # otherwise the previous step closed with a full kick
            for axis, kick in enumerate(half):
                apply_along(values, kick, axis, out=values)
        substep(k, values)
        snapshot = (k + 1) % stride == 0 or k + 1 == steps
        for axis, kick in enumerate(half if snapshot else full):
            apply_along(values, kick, axis, out=values)
        if snapshot:
            yield k + 1, values


def inner_product(f: GridFunction, g: GridFunction) -> complex:
    """L^2 scalar product, conjugate-linear in the first slot."""
    if f.domain != g.domain:
        raise ValueError("grid functions live on different domains")
    return complex(np.vdot(f.values, g.values) * f.domain.cell_volume)


def norm(f: GridFunction) -> float:
    return float(np.sqrt(inner_product(f, f).real))


# -- output files ------------------------------------------------------------


def _atomic_write(path, data):
    """Write ``data`` to ``path`` via a temp file and rename.

    ``data`` is a str (written as UTF-8) or a sequence of bytes-like chunks
    written one after another, so a large array goes out from its own
    buffer rather than from a joined copy.
    """
    chunks = [data.encode("utf-8")] if isinstance(data, str) else data
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


# -- MFL1 binary container ---------------------------------------------------
#
# Layout (little endian):
#   magic "MFL1"
#   u32 space word, always 0 (position samples); reading rejects any other
#   u32 kind  (0 free, 1 confined, 2 product)
#   u32 d_f, u32 d_c, u32 n_particles
#   u32 point count per free axis, then per confined axis
#   f64 eps
#   f64 extent per free axis; f64 pair (c, d) per confined axis
#   data: complex samples as interleaved f64 (re, im), row-major, with the
#   per-particle axis blocks repeated n_particles times.

_MAGIC = b"MFL1"
_KINDS = {FreeDomain: 0, ConfinedDomain: 1, ProductDomain: 2}


def write_mfl1(path, domain: Domain, values: np.ndarray, n_particles: int = 1):
    """Serialize samples over ``domain ** n_particles`` to the MFL1 container."""
    values = np.ascontiguousarray(values, dtype=np.complex128)
    if values.shape != domain.shape * n_particles:
        raise ValueError("value shape does not match domain ** n_particles")
    d_f = sum(part.dim for part in domain.parts if part.periodic)
    d_c = len(domain.shape) - d_f
    head = [_MAGIC]
    head.append(struct.pack("<5I", 0, _KINDS[type(domain)], d_f, d_c, n_particles))
    head.append(struct.pack(f"<{d_f + d_c}I", *domain.shape))
    head.append(struct.pack("<d", domain.eps))
    geom = [x for part in domain.parts for x in part.geometry]
    head.append(struct.pack(f"<{len(geom)}d", *geom))
    _atomic_write(path, head + [np.ascontiguousarray(values, dtype="<c16")])


def read_mfl1(path):
    """Read an MFL1 container; returns (domain, values, n_particles).  A
    malformed or truncated file is a ``ValueError``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise ValueError("not an MFL1 container")
    off = 4
    try:
        space_flag, kind, d_f, d_c, n_particles = struct.unpack_from("<5I", raw, off)
        off += 20
        if space_flag != 0:
            raise ValueError(f"MFL1 space word must be 0, got {space_flag}")
        counts = struct.unpack_from(f"<{d_f + d_c}I", raw, off)
        off += 4 * (d_f + d_c)
        (eps,) = struct.unpack_from("<d", raw, off)
        off += 8
        geom = struct.unpack_from(f"<{d_f + 2 * d_c}d", raw, off)
        off += 8 * (d_f + 2 * d_c)
    except struct.error as exc:
        raise ValueError(f"truncated MFL1 header: {exc}") from exc
    free = FreeDomain(tuple(geom[:d_f]), tuple(counts[:d_f])) if d_f else None
    conf = None
    if d_c:
        intervals = tuple(
            (geom[d_f + 2 * a], geom[d_f + 2 * a + 1]) for a in range(d_c)
        )
        conf = ConfinedDomain(intervals, tuple(counts[d_f:]), eps=eps)
    if kind == _KINDS[FreeDomain] and d_f > 0 and d_c == 0:
        domain: Domain = free
    elif kind == _KINDS[ConfinedDomain] and d_f == 0 and d_c > 0:
        domain = conf
    elif kind == _KINDS[ProductDomain] and d_f > 0 and d_c > 0:
        domain = ProductDomain(free, conf)
    else:
        raise ValueError(f"MFL1 kind word {kind} does not match d_f = {d_f}, d_c = {d_c}")
    values = np.frombuffer(raw[off:], dtype="<c16").astype(np.complex128)
    values = values.reshape(domain.shape * n_particles)
    return domain, values, n_particles
