"""Necessity experiments: norm growth of modulated dilates as eps -> 0.

The family f_eps(x) = e^{2pi i xi0.x} phi(eps x) (frequency side:
eps^{-n} phihat(eps^{-1}(xi - xi0))) concentrates its Fourier support while
spreading in space.  Amalgam norms grow like eps^{-n/q}, Wiener amalgam norms
like eps^{-n/p}; regression of log-norm against log(1/eps) recovers the
exponents, and comparing the output growth of a bilinear product against the
input growths decides whether an exponent tuple can possibly be bounded.

Each eps gets its own grid: L(eps) = box_factor / eps at fixed s, so the
dilate always occupies the same fraction of the box.  The recorded tail
fraction (|phi| mass outside the box, measured from the base profile's
inverse transform) depends only on box_factor; the default 192 brings it
under 1e-6 (the 16/eps floor would leave about 2e-2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bumps import BumpProfile, Window, make_bump, _axis_factor
from .grid import GridFunction, GridSpec, idft, make_grid
from .norms import (amalgam_norm, check_exponent, ExponentTuple, loglog_slope,
                    lp_norm, wiener_norm)
from .operators import _grouped_sum
from .transference import AMALGAM_CITATION, WIENER_CITATION

__all__ = [
    "ScalingFamily",
    "SlopeFit",
    "ProductScaling",
    "NecessityVerdict",
    "make_scaling_family",
    "amalgam_scaling_slope",
    "wiener_scaling_slope",
    "bilinear_product_scaling",
    "necessity_verdict",
]


@dataclass
class SlopeFit:
    slope: float
    r_squared: float
    epsilons: tuple[float, ...]
    norms: tuple[float, ...]


@dataclass
class ProductScaling:
    slope: float | None
    r_squared: float | None
    epsilons: tuple[float, ...]
    norms: tuple[float, ...]
    degenerate: bool
    sigma_at_center: complex
    min_modulus_on_core: float   # min |T| over |x|_inf <= 1/(2 eps_min)
    half_bound_held: bool        # min >= 0.5 |sigma(xi0, eta0)| at smallest eps
    smallest_eps: float


@dataclass
class NecessityVerdict:
    status: str  # "consistent" | "violated"
    gap: float   # output slope minus sum of input slopes
    citation: str
    output_slope: float
    input_slopes: tuple[float, float]


@dataclass
class ScalingFamily:
    """Modulated dilates with per-eps grids and a floor certificate on Q."""

    n: int
    base: BumpProfile          # phihat at eps = 1 (per-axis radius <= 1)
    xi0: tuple[float, ...]
    epsilons: tuple[float, ...]
    s: int
    box_factor: float
    amplitude: float           # scale applied so min_Q |phi| >= 1
    min_q_modulus: float       # certified floor of |phi| on Q
    tail_fraction: float       # recorded |phi| l1 mass outside the box (per axis)
    specs: dict[float, GridSpec]

    def scaled_profile(self, eps: float) -> BumpProfile:
        """phihat(eps^{-1}(. - xi0)) as a profile: radius eps * base radius."""
        return BumpProfile(
            d=self.n, kind=self.base.kind, center=self.xi0,
            radius=tuple(eps * r for r in self.base.radius),
            amplitude=self.base.amplitude * self.amplitude,
            inner=None if self.base.inner is None
            else tuple(eps * r for r in self.base.inner))

    def f_hat(self, eps: float) -> GridFunction:
        """Frequency samples eps^{-n} phihat(eps^{-1}(xi - xi0))."""
        spec = self.specs[eps]
        prof = self.scaled_profile(eps)
        out = np.full(spec.shape, eps ** (-self.n) * prof.amplitude, dtype=complex)
        for j, xi in enumerate(spec.freq_points()):
            out = out * _axis_factor(prof, j, xi)
        return GridFunction(spec, "frequency", out)

    def f(self, eps: float) -> GridFunction:
        return idft(self.f_hat(eps))


def _phi_axis_data(base: BumpProfile, pad: int = 1 << 17,
                   samples: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """(x, |phi_1d(x)|) for the 1-D inverse transform of one base axis,
    via a zero-padded FFT (x >= 0 branch)."""
    r = base.radius[0]
    u = -r + 2 * r * np.arange(samples) / samples
    vals = _axis_factor(base, 0, u)
    du = 2 * r / samples
    padded = np.zeros(pad)
    half = samples // 2
    padded[:half] = vals[half:]
    padded[-half:] = vals[:half]
    F = np.fft.fft(padded) * du  # inverse transform up to conjugation; modulus is equal
    x = np.fft.fftfreq(pad, d=du)
    keep = x >= 0
    order = np.argsort(x[keep])
    return x[keep][order], np.abs(F[keep][order])


def make_scaling_family(xi0=0.0, epsilons=(0.5, 0.25, 0.125), n: int = 1,
                        s: int = 8, box_factor: float = 192.0,
                        base_radius: float = 0.3,
                        tail_budget: float = 1e-6) -> ScalingFamily:
    """Build the dilate family with its per-eps grids.

    The base frequency bump has per-axis radius ``base_radius`` (<= 1); small
    radii keep the Fourier support of every f_eps inside window plateaus for
    the Wiener experiments.  The amplitude is chosen from a fine probe so
    that |phi| >= 1 on Q; if that fails the base is too narrow.
    """
    if not 0 < base_radius <= 1:
        raise ValueError("base radius must lie in (0, 1]")
    eps_list = tuple(float(e) for e in epsilons)
    if any(not 0 < e <= 1 for e in eps_list) or list(eps_list) != sorted(eps_list, reverse=True):
        raise ValueError("epsilons must be a decreasing list in (0, 1]")
    if box_factor < 16.0:
        raise ValueError("box policy requires L(eps) >= 16/eps")
    xi0 = tuple(float(c) for c in np.atleast_1d(np.asarray(xi0, dtype=float)))
    if len(xi0) != n:
        raise ValueError(f"xi0 must have {n} components")

    base = make_bump(n, "tensor-exp", center=(0.0,) * n, radius=base_radius)
    x, mag = _phi_axis_data(base)
    dx = x[1] - x[0]
    total = 2.0 * np.trapezoid(mag, dx=dx)
    tail = 2.0 * np.trapezoid(mag[x > box_factor / 2], dx=dx) / total
    # Q-floor from an endpoint-inclusive probe with a fine direct quadrature
    # (the FFT ladder above resolves tails, not the minimum at |x| = 1/2)
    r = base.radius[0]
    nodes = -r + 2 * r * np.arange(4096) / 4096
    weights = _axis_factor(base, 0, nodes) * (2 * r / 4096)
    probe = np.linspace(0.0, 0.5, 513)
    phi_q = np.exp(2j * np.pi * np.outer(probe, nodes)) @ weights
    min_q_axis = float(np.min(np.abs(phi_q)))
    if min_q_axis <= 0:
        raise ValueError("|phi| vanishes on Q; choose a wider base bump")
    # |phi_nd| = prod |phi_1d(x_j)|; one global amplitude lifts the Q-floor to 1
    amplitude = (1.0 + 1e-6) / min_q_axis**n

    specs = {}
    for e in eps_list:
        L = int(np.ceil(box_factor / e / 2) * 2)
        specs[e] = make_grid(n, L, s)
        for c in xi0:
            if abs(c * L - round(c * L)) > 1e-9:
                raise ValueError(f"xi0={xi0} is not grid-aligned for L={L}")
    # the widest spectrum, xi0 +- eps * base_radius at the largest eps, must
    # lie in the frequency box [-s/2, s/2): outside it every sample is 0
    rho = eps_list[0] * base_radius
    if any(c - rho < -s / 2 or c + rho >= s / 2 for c in xi0):
        raise ValueError(f"xi0={xi0}: the spectrum (radius {rho}) leaves the frequency "
                         f"box [-{s / 2}, {s / 2})")
    if tail > tail_budget:
        raise ValueError(f"measured tail fraction {tail:.2e} exceeds the budget "
                         f"{tail_budget:.1e}; increase box_factor")
    return ScalingFamily(n=n, base=base, xi0=xi0, epsilons=eps_list, s=s,
                         box_factor=float(box_factor), amplitude=float(amplitude),
                         min_q_modulus=float(min_q_axis**n * amplitude),
                         tail_fraction=float(tail), specs=specs)


def amalgam_scaling_slope(fam: ScalingFamily, p: float, q: float) -> SlopeFit:
    """Regression slope of log ||f_eps||_(L^p, l^q) against log(1/eps)."""
    check_exponent(p), check_exponent(q)
    if len(fam.epsilons) < 3:
        raise ValueError("regression needs at least 3 epsilons")
    norms = tuple(amalgam_norm(fam.f(e), p, q) for e in fam.epsilons)
    slope, _, r2 = loglog_slope([1.0 / e for e in fam.epsilons], norms)
    return SlopeFit(slope=slope, r_squared=r2, epsilons=fam.epsilons, norms=norms)


def wiener_scaling_slope(fam: ScalingFamily, p: float, q: float,
                         kappa: Window) -> SlopeFit:
    """Regression slope of log ||f_eps||_W^{p,q} against log(1/eps).

    Requires single-band concentration: the support radius of fhat_eps must
    stay inside the window plateau, so exactly one band is active.
    """
    check_exponent(p), check_exponent(q)
    if len(fam.epsilons) < 3:
        raise ValueError("regression needs at least 3 epsilons")
    norms = []
    for e in fam.epsilons:
        rho = e * max(fam.base.radius)
        if rho >= kappa.plateau_radius:
            raise ValueError(
                f"multi-band leakage: support radius {rho} at eps={e} reaches "
                f"the window plateau {kappa.plateau_radius}")
        f = fam.f(e)
        wn = wiener_norm(f, p, q, kappa, offset=fam.xi0)
        norms.append(wn)
    slope, _, r2 = loglog_slope([1.0 / e for e in fam.epsilons], norms)
    return SlopeFit(slope=slope, r_squared=r2, epsilons=fam.epsilons,
                    norms=tuple(norms))


def bilinear_product_scaling(fam1: ScalingFamily, fam2: ScalingFamily, sigma_fn,
                             space: str, p: float, q: float,
                             kappa: Window | None = None) -> ProductScaling:
    """Measured output-norm growth of T_sigma(f_eps, g_eps).

    ``sigma_fn(xi1, xi2)`` is a vectorized symbol callable, sampled on each
    per-eps grid (families must share their grid policy); it should be smooth
    and nonzero at (xi0, eta0) for the growth to match the space exponent.
    Also records the pointwise floor 2^{-1}|sigma(xi0, eta0)| check on the
    core box |x| <= 1/(2 eps) at the smallest eps.
    """
    if fam1.epsilons != fam2.epsilons or fam1.s != fam2.s \
            or fam1.box_factor != fam2.box_factor or fam1.n != fam2.n:
        raise ValueError("families must share the eps ladder and grid policy")
    if space not in ("amalgam", "wiener"):
        raise ValueError("space must be 'amalgam' or 'wiener'")
    if space == "wiener" and kappa is None:
        raise ValueError("wiener measurement needs a window")
    if fam1.n != 1:
        raise ValueError("product scaling is implemented for n = 1")
    center = np.asarray(fam1.xi0 + fam2.xi0, dtype=float)
    for e in fam1.epsilons:
        L = fam1.specs[e].L
        if np.any(np.abs(center * L - np.round(center * L)) > 1e-9):
            raise ValueError(f"(xi0, eta0)={tuple(center)} is off the symbol grid")
    sig0 = complex(np.asarray(sigma_fn(np.asarray([fam1.xi0[0]]),
                                       np.asarray([fam2.xi0[0]]))).reshape(-1)[0])

    norms, scales = [], []
    min_core = math.inf
    for e in fam1.epsilons:
        spec = fam1.specs[e]
        f1h, f2h = fam1.f_hat(e), fam2.f_hat(e)
        xi = spec.axis_xi()
        T = GridFunction(spec, "space", _grouped_sum(
            lambda idx: np.asarray(sigma_fn(*(xi[i] for i in idx)), dtype=complex),
            f1h.samples, f2h.samples, spec))
        if space == "amalgam":
            norms.append(amalgam_norm(T, p, q))
        else:
            off = np.asarray(fam1.xi0, dtype=float) + np.asarray(fam2.xi0, dtype=float)
            norms.append(wiener_norm(T, p, q, kappa, offset=off))
        scales.append(lp_norm(idft(f1h), math.inf) * lp_norm(idft(f2h), math.inf))
        if e == fam1.epsilons[-1]:
            x = spec.axis_x()
            core = np.abs(x) <= 1.0 / (2 * e)
            min_core = float(np.min(np.abs(T.samples[core])))

    if max(norms) < 1e-12 * max(scales):
        return ProductScaling(slope=None, r_squared=None, epsilons=fam1.epsilons,
                              norms=tuple(norms), degenerate=True,
                              sigma_at_center=sig0, min_modulus_on_core=min_core,
                              half_bound_held=False, smallest_eps=fam1.epsilons[-1])
    slope, _, r2 = loglog_slope([1.0 / e for e in fam1.epsilons], norms)
    held = min_core >= 0.5 * abs(sig0)
    return ProductScaling(slope=slope, r_squared=r2, epsilons=fam1.epsilons,
                          norms=tuple(norms), degenerate=False,
                          sigma_at_center=sig0, min_modulus_on_core=min_core,
                          half_bound_held=held, smallest_eps=fam1.epsilons[-1])


def necessity_verdict(exponents: ExponentTuple, space: str,
                      input_slopes: tuple[float, float],
                      output_slope: float) -> NecessityVerdict:
    """Compare measured output growth against the product of input growths.

    Boundedness forces output <= input1 + input2 (up to measurement error);
    a gap beyond 0.1 certifies the exponent tuple impossible in that space.
    """
    if space == "amalgam":
        citation = AMALGAM_CITATION
    elif space == "wiener":
        citation = WIENER_CITATION
    else:
        raise ValueError("space must be 'amalgam' or 'wiener'")
    s1, s2 = float(input_slopes[0]), float(input_slopes[1])
    gap = float(output_slope) - (s1 + s2)
    status = "violated" if gap > 0.1 else "consistent"
    return NecessityVerdict(status=status, gap=gap, citation=citation,
                            output_slope=float(output_slope),
                            input_slopes=(s1, s2))
