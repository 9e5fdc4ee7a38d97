"""Closed-form bound machinery: envelopes, rate exponents, vector fields.

The convergence statements are all of Gronwall type: a counting functional
at time t is dominated by exp(time-integrated coefficient) acting on its
initial value plus a small additive defect.  This module evaluates that
right-hand side in one place (``gronwall_envelope``) for the two regimes a
run produces, mean-field and short-range, and ``run_envelope`` is the one
place that pairs a run's regime with its envelope.  It also holds the rate
exponents of every regime, the cutoff splitting of singular interactions,
the divergence-form vector field used to trade a singular potential for a
gradient, and the confined-Coulomb quadratures.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy import fft

from .errors import ConfigError, GuardError, InvariantError
from .grids import apply_kinetic
from .model import ModelSpec, measured_f_eps
from .onebody import OneBodyState

__all__ = [
    "RateSpec",
    "RateResult",
    "gronwall_envelope",
    "mean_field_coefficient",
    "rate_exponent",
    "potential_split",
    "poisson_vector_field",
    "divergence_residual",
    "coulomb_confined_norms",
    "growth_integrand_short_range",
    "envelope_report",
    "run_rate",
    "run_envelope",
    "BoundReport",
]

S0 = 6.0 / 5.0
_REGIMES = ("mean-field", "singular", "short-range", "singular-improved")


@dataclass(frozen=True)
class RateSpec:
    """Which convergence regime's rate to evaluate, and its parameters.

    ``regime`` is one of ``mean-field`` (bounded interaction, explicit
    coefficient), ``singular`` (L^s-singular interaction, needs ``s``),
    ``short-range`` (scaled short-range interaction under two-direction
    confinement, needs ``theta``; ``nu`` optional) and ``singular-improved``
    (the sharper splitting of the singular case at s0 = ``S0``, needs ``s``).
    """

    regime: str
    s: float | None = None
    theta: float | None = None
    nu: float | None = None

    def __post_init__(self):
        if self.regime not in _REGIMES:
            raise ConfigError(f"unknown rate regime {self.regime!r}")
        if self.regime in ("singular", "singular-improved"):
            # s = 2 is admitted as the L^2-singularity endpoint (eta = 1/2)
            if self.s is None or not S0 < self.s <= 2.0:
                raise ConfigError("singular exponent s must lie in (6/5, 2]")
        if self.regime == "short-range":
            if self.theta is None or not 0.25 < self.theta < 1.0 / 3.0:
                raise ConfigError("theta must lie in (1/4, 1/3)")
            if self.nu is not None:
                hi = self.theta / (1.0 - 2.0 * self.theta)
                if not 0.5 < self.nu < hi:
                    raise ConfigError(f"nu must lie in (1/2, {hi:.4g})")


@dataclass(frozen=True)
class RateResult:
    eta: float        # functional (alpha / beta) decay exponent, N^-eta
    eta_trace: float  # trace-norm exponent, half of eta


def rate_exponent(spec: RateSpec) -> RateResult:
    """Decay exponent of the requested regime, positive-rate convention."""
    if spec.regime == "mean-field":
        eta = 1.0
    elif spec.regime == "singular":
        eta = (5.0 * spec.s - 6.0) / (4.0 * spec.s)
    elif spec.regime == "singular-improved":
        r = spec.s / S0
        eta = (r - 1.0) / (2.0 * r - spec.s / 2.0 - 1.0)
    else:
        th = spec.theta
        if th <= 7.0 / 24.0:
            eta = (4.0 * th - 1.0) / (3.0 - 4.0 * th)
        else:
            eta = (1.0 - 3.0 * th) / (4.0 - 9.0 * th)
    return RateResult(eta=eta, eta_trace=eta / 2.0)


# -- Gronwall machinery -------------------------------------------------------


def _cumtrapz(times, values):
    out = np.zeros_like(np.asarray(values, dtype=float))
    dt = np.diff(times)
    out[1:] = np.cumsum(0.5 * dt * (values[1:] + values[:-1]))
    return out


def gronwall_envelope(cumulative, initial: float, defect: float) -> np.ndarray:
    """f(t) <= exp(G(t)) f(0) + (exp(G(t)) - 1) delta, for the cumulative
    growth G on the sample times (G(0) = 0)."""
    growth = np.exp(np.asarray(cumulative, dtype=float))
    return growth * initial + (growth - 1.0) * defect


def mean_field_coefficient(times, sup_phi, sup_big_phi, w_sup: float) -> np.ndarray:
    """Explicit coefficient C(t) = 4 K int_0^t (1 + sup|phi| + sup|Phi|)^2 ds.

    The paper's K is the sum of four interaction norms,
    ||w_s||_1 + ||w_inf||_inf of the mean-field kernel plus
    ||w_s^eps||_2 + ||w_inf^eps||_inf of the scaled one.  The model's
    profiles are bounded (``model.InteractionProfile``), so both singular
    parts w_s vanish and both sup norms are ``w_sup`` = sup |w|: K = 2 w_sup.
    Returns C on the sample times; it vanishes at t = 0 and is nondecreasing.
    """
    times = np.asarray(times, dtype=float)
    integrand = (1.0 + np.asarray(sup_phi) + np.asarray(sup_big_phi)) ** 2
    return 4.0 * (2.0 * w_sup) * _cumtrapz(times, integrand)


# -- cutoff splitting ---------------------------------------------------------


def potential_split(samples: np.ndarray, cell_volume: float, cutoff: float,
                    s: float) -> tuple[np.ndarray, np.ndarray, dict]:
    """Split w = w 1_{|w|>c} + w 1_{|w|<=c} and report the norm bounds.

    The report carries measured ||w1||_{s0} and ||w2||_2 together with the
    closed-form bounds c^(1-s/s0) ||w||_s^(s/s0) and c^(1-s/2) ||w||_s^(s/2),
    with s0 = ``S0``.
    """
    if cutoff <= 0:
        raise ConfigError("cutoff must be positive")
    w = np.asarray(samples, dtype=float)
    big = np.abs(w) > cutoff
    w1 = np.where(big, w, 0.0)
    w2 = np.where(big, 0.0, w)

    def lp(v, p):
        return float((np.sum(np.abs(v) ** p) * cell_volume) ** (1.0 / p))

    norm_s = lp(w, s)
    report = {
        "cutoff": cutoff,
        "s": s,
        "s0": S0,
        "w1_ls0": lp(w1, S0),
        "w1_ls0_bound": cutoff ** (1.0 - s / S0) * norm_s ** (s / S0),
        "w2_l2": lp(w2, 2.0),
        "w2_l2_bound": cutoff ** (1.0 - s / 2.0) * norm_s ** (s / 2.0),
        "w_ls": norm_s,
    }
    # the closed-form bounds are exact consequences of the level-set split;
    # a violation can only mean a broken norm computation
    if (report["w1_ls0"] > report["w1_ls0_bound"] + 1e-8
            or report["w2_l2"] > report["w2_l2_bound"] + 1e-8):
        raise InvariantError("level-set split norms exceed their closed-form bounds")
    return w1, w2, report


# -- divergence-form vector field ---------------------------------------------
#
# Free-space convolution against -grad of the Newton kernel.  A plain sampled
# kernel stalls at O(h^2 log h) because the quadrature of the 1/r^2 kernel
# against a smooth source dominates; instead the kernel is truncated at a
# radius covering every source-target distance, whose Fourier transform is
# analytic ((1 - cos(|k| R))/|k|^2), and evaluated on a 4x zero-padded grid.
# The truncation sphere never meets the source for in-box targets, so the
# field is exactly the free-space one up to spectral accuracy.

_PAD_FACTOR = 4  # >= 1 + sqrt(3), so the truncated kernel never wraps


def _check_support_margin(f: np.ndarray):
    nz = np.nonzero(np.abs(f) > 1e-14 * np.max(np.abs(f)))
    for axis, idx in enumerate(nz):
        if idx.size and (idx.min() < 2 or idx.max() >= f.shape[axis] - 2):
            raise GuardError("source support touches the padding margin")


def _padded_source_and_symbol(f: np.ndarray, h: float):
    n = f.shape[0]
    p = _PAD_FACTOR * n
    pad = np.zeros((p,) * 3)
    pad[:n, :n, :n] = f
    k1 = 2.0 * np.pi * fft.fftfreq(p, d=h)
    k1r = 2.0 * np.pi * fft.rfftfreq(p, d=h)
    kx = k1[:, None, None]
    ky = k1[None, :, None]
    kz = k1r[None, None, :]
    k2 = kx**2 + ky**2 + kz**2
    radius = np.sqrt(3.0) * n * h  # covers every pair of in-box nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = (1.0 - np.cos(np.sqrt(k2) * radius)) / k2
    newton[0, 0, 0] = radius**2 / 2.0
    return pad, (kx, ky, kz), newton


def poisson_vector_field(f: np.ndarray, h: float) -> np.ndarray:
    """xi with div xi = f, the free-space field of -grad Newton kernel.

    ``f`` is a real cube of samples with spacing ``h``, compactly supported
    away from the box edge; returns the 3-component field on the same grid.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 3 or len(set(f.shape)) != 1:
        raise ConfigError("poisson_vector_field expects a cubic 3-d array")
    _check_support_margin(f)
    n = f.shape[0]
    pad, ks, newton = _padded_source_and_symbol(f, h)
    fhat = fft.rfftn(pad)
    out = np.empty((3, n, n, n))
    for nu in range(3):
        xi_hat = -1j * ks[nu] * newton * fhat
        out[nu] = fft.irfftn(xi_hat, s=pad.shape, axes=(0, 1, 2))[:n, :n, :n]
    return out


def divergence_residual(f: np.ndarray, h: float) -> float:
    """Relative L^2 residual of div xi - f, with a spectral divergence.

    The divergence of the computed band-limited field is evaluated on the
    padded grid and compared with the source on the inner box.
    """
    f = np.asarray(f, dtype=float)
    _check_support_margin(f)
    n = f.shape[0]
    pad, ks, newton = _padded_source_and_symbol(f, h)
    fhat = fft.rfftn(pad)
    div_hat = (ks[0] ** 2 + ks[1] ** 2 + ks[2] ** 2) * newton * fhat
    div = fft.irfftn(div_hat, s=pad.shape, axes=(0, 1, 2))[:n, :n, :n]
    return float(np.linalg.norm(div - f) / np.linalg.norm(f))


# -- confined Coulomb quadratures ---------------------------------------------


@dataclass(frozen=True)
class CoulombNorms:
    l1_defect: float
    linf_defect: float
    log_divergence: float


def coulomb_confined_norms(eps: float) -> CoulombNorms:
    """Quadratures of the confined-Coulomb defects on B_1(0) x [-1, 1].

    * L^1 defect of 1/|(x, eps y)| - 1/|x| over the singular region,
    * sup defect over the bounded region |x| >= 1,
    * the eps-divergent integral of the squared kernel 1/(x^2 + eps^2 y^2).
    """
    if not 0.0 < eps <= 0.5:
        raise ConfigError("eps must lie in (0, 1/2]")
    from scipy import integrate  # here, not at the top: only these quadratures need it

    val, err = integrate.dblquad(
        lambda y, r: 4.0 * np.pi * (1.0 - r / np.hypot(r, eps * y)),
        0.0, 1.0, lambda r: 0.0, lambda r: 1.0,
        epsabs=1e-12, epsrel=1e-10,
    )
    if err > 1e-6 * max(val, 1e-9):
        raise GuardError("L^1 defect quadrature did not converge")
    l1 = float(val)

    r = np.concatenate([np.linspace(1.0, 2.0, 20001), np.geomspace(2.0, 200.0, 2000)])
    linf = float(np.max(1.0 / r - 1.0 / np.hypot(r, eps)))

    logval, logerr = integrate.quad(
        lambda y: 2.0 * np.pi * np.log((1.0 + (eps * y) ** 2) / (eps * y) ** 2),
        0.0, 1.0, limit=400, points=[0.0],
    )
    if logerr > 1e-6 * max(logval, 1e-12):
        raise GuardError("log-divergence quadrature did not converge")
    return CoulombNorms(l1, linf, float(logval))


# -- growth integrand of the short-range regime -------------------------------


def growth_integrand_short_range(states: list[OneBodyState], spec: ModelSpec,
                                 sup_phi, h2_phi) -> np.ndarray:
    """chi-sup-weighted integrand with the external-potential terms, from the
    run's per-state sup |phi| and ||phi||_{H^2} (``onebody.sup_norms``)."""
    chi_sup = float(np.max(np.abs(states[0].mode.chi.values)))
    out = []
    for st, sup, h2 in zip(states, sup_phi, h2_phi, strict=True):
        dom = st.domain
        dens = np.abs(st.product_values()) ** 2
        lap = float(np.linalg.norm(apply_kinetic(dens, dom, eps=1.0)) * np.sqrt(dom.cell_volume))
        term = (h2 + sup) + lap * sup
        term += spec.potential.dot_sup_norm(st.t) + np.sqrt(spec.potential.sup_norm(st.t))
        out.append(chi_sup**2 * term)
    return np.asarray(out)


# -- full bound reports -------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Envelope evaluation for one run; fitted constants are diagnostics."""

    regime: str
    parameters: dict
    eta: float
    eta_trace: float
    times: tuple
    measured: tuple
    envelope: tuple
    fitted_constant: float | None
    below_envelope: bool
    notes: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _fit_constant(times, growth_integral, measured, initial, defect) -> float:
    """Smallest C >= 0 with measured <= initial e^{C g} + defect (e^{C g} - 1)."""
    c = 0.0
    for t_idx in range(1, len(times)):
        g = growth_integral[t_idx]
        m = measured[t_idx]
        if g <= 0 or initial + defect <= 0:
            if m > initial + 1e-15:
                raise ConfigError("cannot fit a constant: degenerate envelope")
            continue
        need = (m + defect) / (initial + defect)
        if need > 1.0:
            c = max(c, math.log(need) / g)
    return c


def envelope_report(times, measured, rate_spec: RateSpec, spec: ModelSpec,
                    coefficient=None, growth_integrand=None,
                    f_eps: float = 0.0) -> BoundReport:
    """Evaluate the Gronwall right-hand side of a run against its measurements.

    The two regimes a run produces: for ``mean-field`` (the Hartree run) pass
    the explicit cumulative ``coefficient`` C(t); no constant is fitted.  For
    ``short-range`` (the NLS run) pass the ``growth_integrand`` samples g'(t);
    the prefactor constant is the smallest one the measurements admit, and
    the check is a diagnostic, never an assertion.  Both evaluate
    ``gronwall_envelope`` from the measured f(0), and the exponential uses
    the same g for both the initial-value and defect terms.
    """
    if rate_spec.regime not in ("mean-field", "short-range"):
        raise ConfigError(f"no run produces a {rate_spec.regime!r} envelope")
    times = np.asarray(times, dtype=float)
    measured = np.asarray(measured, dtype=float)
    initial = float(measured[0])
    res = rate_exponent(rate_spec)
    notes = ""
    if rate_spec.regime == "mean-field":
        if coefficient is None:
            raise ConfigError("the mean-field report needs the explicit coefficient")
        envelope = gronwall_envelope(coefficient, initial, f_eps + 1.0 / spec.n_particles)
        fitted = None
    else:
        if growth_integrand is None:
            raise ConfigError("the short-range report needs the growth integrand")
        g = _cumtrapz(times, np.asarray(growth_integrand, dtype=float))
        defect = spec.n_particles ** (-res.eta)
        fitted = _fit_constant(times, g, measured, initial, defect)
        envelope = gronwall_envelope(fitted * g, initial, defect)
        notes = "defect and initial growth share the same integrand (h = g reading)"
    below = bool(np.all(measured <= envelope + 1e-12))
    return BoundReport(
        regime=rate_spec.regime,
        parameters={
            "s": rate_spec.s, "theta": rate_spec.theta, "nu": rate_spec.nu,
            "N": spec.n_particles, "eps": spec.eps, "f_eps": f_eps,
        },
        eta=res.eta,
        eta_trace=res.eta_trace,
        times=tuple(map(float, times)),
        measured=tuple(map(float, measured)),
        envelope=tuple(map(float, envelope)),
        fitted_constant=fitted,
        below_envelope=below,
        notes=notes,
    )


def run_rate(spec: ModelSpec) -> RateSpec:
    """The rate a run of ``spec`` is bounded at: mean-field for the Hartree
    regime, else short-range at the run's theta and nu, which ``RateSpec``
    checks (a ``ConfigError`` outside their windows)."""
    if spec.regime == "hartree-theta0":
        return RateSpec("mean-field")
    return RateSpec("short-range", theta=spec.theta, nu=spec.nu)


def run_envelope(spec: ModelSpec, reports, states: list[OneBodyState], rows) -> BoundReport:
    """A run's bound report from what ``harness.run_single`` returns: beta-tilde
    against the fitted short-range envelope, with the growth integrand from
    the onebody.csv ``rows``, or alpha against the explicit mean-field one,
    with f(eps) and sup |phi| (``rows``) and sup |Phi| (``states``)."""
    rate = run_rate(spec)
    times = [r.t for r in reports]
    sup_phi = [row[3] for row in rows]
    if rate.regime == "short-range":
        integrand = growth_integrand_short_range(states, spec, sup_phi, [row[4] for row in rows])
        return envelope_report(times, [r.beta_tilde for r in reports], rate, spec,
                               growth_integrand=integrand)
    sup_big_phi = [float(np.max(np.abs(st.phi_free.values))) for st in states]
    coefficient = mean_field_coefficient(times, sup_phi, sup_big_phi, spec.interaction.sup_norm())
    f_eps = measured_f_eps(spec.interaction, spec.eps, spec.free, spec.confined)
    return envelope_report(times, [r.alpha for r in reports], rate, spec,
                           coefficient=coefficient, f_eps=f_eps)
