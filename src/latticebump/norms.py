"""Quasi-norm calculators on grids, sequences, and mixed spaces.

All exponents live in (0, infinity]; use ``math.inf`` for the sup norm.
Finite-p norms factor out the largest modulus before powering
(||x|| = alpha * ||x / alpha||) so small p and large entry counts stay inside
the float range.  Cubes k + Q with Q = (-1/2, 1/2]^n partition the torus; a
cube's samples form one contiguous cyclic block of s points per axis, which
the amalgam norm exploits by rolling and reshaping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bumps import Window
from .grid import GridFunction, _centered_ifftn, dft
from .operators import TrigPolynomial, _multiplier_samples

__all__ = [
    "ExponentTuple",
    "TailBudgetWarning",
    "check_exponent",
    "lp_norm",
    "lq_seq_norm",
    "lp_norm_torus",
    "amalgam_norm",
    "wiener_norm",
    "wiener_band_values",
    "mixed_norm_check",
    "bernstein_scaling_check",
    "loglog_slope",
]

# spectrum entries above this fraction of the peak count as support when the
# Wiener norm picks its covering bands
SUPPORT_TOL = 1e-13

_TINY = np.finfo(float).tiny  # smallest normal float


class TailBudgetWarning(UserWarning):
    """Mass near the box boundary exceeded the experiment's tail budget."""


def check_exponent(p: float) -> float:
    p = float(p)
    if not (p > 0):
        raise ValueError(f"exponent must be positive (or inf), got {p}")
    return p


@dataclass(frozen=True)
class ExponentTuple:
    """(p1, p2, p, q1, q2, q), each in (0, inf]."""

    p1: float
    p2: float
    p: float
    q1: float
    q2: float
    q: float

    def __post_init__(self):
        for name in ("p1", "p2", "p", "q1", "q2", "q"):
            check_exponent(getattr(self, name))

    def amalgam_hypothesis(self) -> bool:
        """1/q1 + 1/q2 >= 1/q (conventions: 1/inf = 0)."""
        return 1 / self.q1 + 1 / self.q2 >= 1 / self.q - 1e-12

    def wiener_hypothesis(self) -> bool:
        """1/p1 + 1/p2 >= 1/p."""
        return 1 / self.p1 + 1 / self.p2 >= 1 / self.p - 1e-12


def _power_norm(vals: np.ndarray, p: float, weight: float = 1.0, axis: int | None = None):
    """(weight * sum |vals|^p)^(1/p), max for p = inf; scale-stable.

    With ``axis=None`` the sum runs over every entry and the result is a float;
    with an integer axis it runs along that axis and the result is an array
    (zero slices give 0).  Each slice is computed as
    peak * weight^(1/p) * (sum (|vals| / peak)^p)^(1/p).  The final root of a
    float result is numpy's scalar power and that of an array is its array
    power, which may differ from it in the last bit.
    """
    mags = np.abs(np.asarray(vals, dtype=complex))
    if axis is None:
        mags = mags.ravel()
    red = -1 if axis is None else axis
    peak = mags.max(axis=red, keepdims=True, initial=0.0)
    norm = peak.squeeze(red)
    if not math.isinf(p):
        mags /= np.where(peak == 0.0, 1.0, peak)  # in place: one temporary
        mags **= p
        scale, root = weight ** (1.0 / p), mags.sum(axis=red) ** (1.0 / p)
        lead = norm * scale
        top, norm = norm, lead * root
        if scale < 1.0:
            # a tiny peak times the weight factor can underflow before the
            # root (>= 1) lifts the product back into range: reorder there only
            low = lead < _TINY
            if low.any():
                norm = np.where(low, top * (scale * root), norm)
    return float(norm) if axis is None else norm


def lp_norm(f: GridFunction, p: float, region=None) -> float:
    """Riemann L^p norm (h^n sum |f|^p)^(1/p); sup over the region for p = inf.

    region: None for the whole grid, or (lo, hi) per-axis bounds selecting the
    half-open box {lo < x <= hi} (grid-aligned cubes come out exact).
    """
    p = check_exponent(p)
    spec = f.spec
    if f.side != "space":
        raise ValueError("lp_norm expects a space-side GridFunction")
    vals = f.samples
    if region is not None:
        lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in region)
        mask = np.ones(spec.shape, dtype=bool)
        for j, x in enumerate(spec.space_points()):
            # half-open (lo, hi]: keep the right endpoint under float fuzz,
            # drop the left one
            mask &= (x > lo[j] + 1e-12) & (x <= hi[j] + 1e-12)
        vals = vals[mask]
    return _power_norm(vals, p, weight=spec.h**spec.n)


def lq_seq_norm(v, q: float) -> float:
    """(sum |v|^q)^(1/q) over a finite collection; max for q = inf."""
    q = check_exponent(q)
    if isinstance(v, dict):
        v = list(v.values())
    return _power_norm(np.asarray(v, dtype=complex), q)


def lp_norm_torus(F: TrigPolynomial, p: float, points_per_axis: int = 256) -> float:
    """L^p norm on the torus (unit measure) from exact trig-polynomial values."""
    p = check_exponent(p)
    u = np.arange(points_per_axis) / points_per_axis
    axes = [u.reshape([points_per_axis if k == j else 1 for k in range(F.n)])
            for j in range(F.n)]
    return _power_norm(F.evaluate(*axes), p, weight=points_per_axis ** (-F.n))


def _cube_blocks(f: GridFunction) -> np.ndarray:
    """Reorder samples into shape (L,)*n + (s,)*n: leading axes index cubes
    k + Q (k from -L/2 to L/2-1, torus-wrapped), trailing axes the s^n samples
    inside each cube."""
    spec = f.spec
    L, s, n = spec.L, spec.s, spec.n
    arr = f.samples
    roll = (s + 1) // 2 - 1  # aligns cube boundaries with block boundaries
    arr = np.roll(arr, shift=(roll,) * n, axis=tuple(range(n)))
    arr = arr.reshape(sum(((L, s) for _ in range(n)), ()))
    # axes now (L, s, L, s, ...) -> bring cube axes forward
    order = [2 * j for j in range(n)] + [2 * j + 1 for j in range(n)]
    return arr.transpose(order)


def boundary_mass_fraction(f: GridFunction) -> float:
    """|f|-mass share of the outermost cube shell (tail report for experiments)."""
    blocks = _cube_blocks(f)
    n, L = f.spec.n, f.spec.L
    mags = np.abs(blocks)
    total = float(np.sum(mags))
    if total == 0.0:
        return 0.0
    inner = mags
    for j in range(n):
        inner = np.take(inner, np.arange(1, L - 1), axis=j)
    return float((total - np.sum(inner)) / total)


def amalgam_norm(f: GridFunction, p: float, q: float,
                 tail_budget: float | None = None) -> float:
    """Amalgam quasi-norm: inner L^p over unit cubes k + Q, outer l^q over k.

    With p == q this equals the plain L^p norm.  When ``tail_budget`` is set,
    the boundary-shell mass fraction is checked against it (periodized
    witnesses intentionally fill the torus, so the check is opt-in).
    """
    p, q = check_exponent(p), check_exponent(q)
    if f.side != "space":
        raise ValueError("amalgam_norm expects a space-side GridFunction")
    if tail_budget is not None:
        frac = boundary_mass_fraction(f)
        if frac > tail_budget:
            warnings.warn(f"boundary cube shell holds {frac:.2e} of the mass "
                          f"(budget {tail_budget:.1e})", TailBudgetWarning,
                          stacklevel=2)
    spec = f.spec
    blocks = _cube_blocks(f).reshape(spec.L**spec.n, spec.s**spec.n)
    return lq_seq_norm(_power_norm(blocks, p, weight=spec.h**spec.n, axis=1), q)


def _frequency_support_box(F: np.ndarray, spec) -> tuple[np.ndarray, np.ndarray] | None:
    mags = np.abs(F)
    peak = mags.max()
    if peak == 0.0:
        return None
    mask = mags > SUPPORT_TOL * peak
    xi = spec.axis_xi()
    lo, hi = [], []
    for j in range(spec.n):
        axes = tuple(k for k in range(spec.n) if k != j)
        line = mask.any(axis=axes) if spec.n > 1 else mask
        nz = np.nonzero(line)[0]
        lo.append(xi[nz[0]])
        hi.append(xi[nz[-1]])
    return np.asarray(lo), np.asarray(hi)


def wiener_band_values(f: GridFunction, kappa: Window, offset=None):
    """Band projections kappa(D - k - offset) f for the minimal covering set of
    bands; returns (band indices, stacked space samples)."""
    spec = f.spec
    F = dft(f).samples
    box = _frequency_support_box(F, spec)
    if box is None:
        return [], np.zeros((0,) + spec.shape, dtype=complex)
    lo, hi = box
    off = np.zeros(spec.n) if offset is None else np.atleast_1d(np.asarray(offset, dtype=float))
    r = kappa.outer
    ranges = [np.arange(int(np.ceil(lo[j] - off[j] - r)),
                        int(np.floor(hi[j] - off[j] + r)) + 1) for j in range(spec.n)]
    for j in range(spec.n):
        if (ranges[j][0] + off[j] - r < -spec.s / 2 - 1e-12
                or ranges[j][-1] + off[j] + r > spec.s / 2 + 1e-12):
            raise ValueError("window margin violation: a covering band leaves "
                             "the frequency box")
    grids = np.meshgrid(*ranges, indexing="ij")
    bands = [tuple(int(c) for c in mu) for mu in np.stack([g.ravel() for g in grids], axis=-1)]
    # one band at a time: a batched transform would hold several
    # stack-sized temporaries next to the stack
    stack = np.empty((len(bands),) + spec.shape, dtype=complex)
    for i, mu in enumerate(bands):
        mult = _multiplier_samples(kappa, spec, shift=np.asarray(mu, dtype=float) + off)
        stack[i] = spec.s**spec.n * _centered_ifftn(mult * F)
    return bands, stack


def wiener_norm(f: GridFunction, p: float, q: float, kappa: Window,
                offset=None) -> float:
    """Wiener amalgam quasi-norm: pointwise l^q over band projections, then L^p.

    ``offset`` shifts the band lattice to offset + Z^n (grid-aligned), matching
    witnesses whose frequency support is centered off the integer lattice.
    """
    p, q = check_exponent(p), check_exponent(q)
    return _pooled_band_norm(wiener_band_values(f, kappa, offset=offset)[1], f.spec, p, q)


def _pooled_band_norm(stack: np.ndarray, spec, p: float, q: float) -> float:
    """L^p norm of the pointwise l^q pool of a ``wiener_band_values`` stack
    (0 for an empty stack)."""
    pooled = _power_norm(stack, q, axis=0)
    return lp_norm(GridFunction(spec, "space", pooled.astype(complex)), p)


def mixed_norm_check(F: np.ndarray, p: float, q: float) -> tuple[float, float]:
    """Both sides of the mixed-norm inequality on a 2-D array (counting measure).

    lhs = || ||F||_{p over axis 0} ||_{q over axis 1}
    rhs = || ||F||_{q over axis 1} ||_{p over axis 0}
    Requires p <= q; the caller asserts lhs <= rhs * (1 + eps).
    """
    p, q = check_exponent(p), check_exponent(q)
    if p > q:
        raise ValueError(f"mixed-norm comparison requires p <= q, got p={p} > q={q}")
    F = np.asarray(F, dtype=complex)
    if F.ndim != 2:
        raise ValueError("expected a 2-D array of samples")
    return (_power_norm(_power_norm(F, p, axis=0), q),
            _power_norm(_power_norm(F, q, axis=1), p))


def _dilate_samples(f: GridFunction, lam: int) -> GridFunction:
    """Samples of x -> f(lam x); integer lam maps grid points to grid points,
    out-of-box arguments read as 0 (band-limited inputs decay)."""
    spec = f.spec
    N = spec.N
    i = np.arange(N)
    j = lam * (i - N // 2) + N // 2
    valid = (j >= 0) & (j < N)
    out = f.samples
    for ax in range(spec.n):
        sh_take = np.clip(j, 0, N - 1)
        out = np.take(out, sh_take, axis=ax)
        mask_shape = [1] * spec.n
        mask_shape[ax] = N
        out = out * valid.reshape(mask_shape)
    return GridFunction(spec, "space", out)


def loglog_slope(xs, ys) -> tuple[float, float, float]:
    """Least-squares slope of log(y) against log(x): (slope, intercept, R^2)."""
    lx, ly = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float))
    if lx.size < 2:
        raise ValueError("regression needs at least two points")
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def bernstein_scaling_check(f: GridFunction, r: float, s: float,
                            dilations) -> float:
    """Scaling exponent behind the band-limited L^r -> L^s comparison.

    For f_lam(x) = f(lam x) the ratio ||f_lam||_s / ||f_lam||_r scales like
    lam^(n/r - n/s); returns the fitted log-log slope (expected n/r - n/s).
    """
    r, s = check_exponent(r), check_exponent(s)
    if r > s:
        raise ValueError(f"requires r <= s, got r={r} > s={s}")
    lams = [int(l) for l in dilations]
    if len(lams) < 3:
        raise ValueError("need at least 3 dilations for the regression")
    if any(l < 1 for l in lams):
        raise ValueError("dilations must be positive integers")
    ratios = []
    for lam in lams:
        g = _dilate_samples(f, lam)
        num, den = lp_norm(g, s), lp_norm(g, r)
        if den == 0.0:
            raise ValueError("degenerate input: zero norm")
        ratios.append(num / den)
    slope, _, _ = loglog_slope(lams, ratios)
    return slope
