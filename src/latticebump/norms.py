"""Quasi-norm calculators on grids, sequences, and mixed spaces.

All exponents live in (0, infinity]; use ``math.inf`` for the sup norm.
Finite-p norms factor out the largest modulus before powering
(||x|| = alpha * ||x / alpha||) so small p and large entry counts stay inside
the float range.  Cubes k + Q with Q = (-1/2, 1/2]^n partition the torus; a
cube's samples form one contiguous cyclic block of s points per axis, which
the amalgam norm exploits by rolling and reshaping.  The Wiener amalgam norm
is read from band projections kappa(D - k) f, a frequency-side object: it
takes f on either side, and a spectrum the caller already holds costs no
forward transform.  Bands and windows are read on the slab of the
spectrum's nonzeros: a band whose window times the spectrum is 0 there gets
an exact-zero row and no transform, a live band is transformed in place on
its stack row, and where a single plateau covers the spectrum the stack's
pool is |idft(f)| and needs no band (``_wiener_l2`` tells).  At
p = q = 2 discrete Plancherel, band by band, makes the norm a weighted l^2
of the spectrum F, (L^-n sum_xi omega(xi)^2 |F(xi)|^2)^(1/2) with omega^2 =
sum_k kappa(xi - k - offset)^2 over the covering bands (``_wiener_l2``): no
band stack and no inverse transform.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bumps import Window, window_eval_axes
from .grid import GridFunction, _axis_spans, _nonzero_slab, dft
from .operators import TrigPolynomial

__all__ = [
    "ExponentTuple",
    "check_exponent",
    "lp_norm",
    "lq_seq_norm",
    "lp_norm_torus",
    "amalgam_norm",
    "wiener_norm",
    "wiener_band_values",
    "mixed_norm_check",
    "loglog_slope",
]

# spectrum entries above this fraction of the peak count as support when the
# Wiener norm picks its covering bands
SUPPORT_TOL = 1e-13

_TINY = np.finfo(float).tiny  # smallest normal float
# a log-log ladder whose values spread by at most this many ulps is flat
FLAT_ULPS = 4


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
    return _power_norms(vals, (p,), weight, axis)[0]


def _power_norms(vals: np.ndarray, ps, weight: float = 1.0, axis: int | None = None) -> list:
    """``[_power_norm(vals, p, weight, axis) for p in ps]`` bit for bit, from
    one modulus, one peak and one division by it."""
    mags = np.abs(vals)
    if axis is None:
        mags = mags.ravel()
    red = -1 if axis is None else axis
    peak = mags.max(axis=red, keepdims=True, initial=0.0)
    top = peak.squeeze(red)
    finite = [i for i, p in enumerate(ps) if not math.isinf(p)]
    if finite:
        mags /= np.where(peak == 0.0, 1.0, peak)  # in place: one temporary
    out = []
    for i, p in enumerate(ps):
        norm = top
        if not math.isinf(p):
            if i == finite[-1]:  # the last power needs no copy
                mags **= p
                powered = mags
            else:
                powered = mags ** p
            scale, root = weight ** (1.0 / p), powered.sum(axis=red) ** (1.0 / p)
            lead = top * scale
            norm = lead * root
            if scale < 1.0:
                # a tiny peak times the weight factor can underflow before the
                # root (>= 1) lifts the product back into range: reorder there only
                low = lead < _TINY
                if low.any():
                    norm = np.where(low, top * (scale * root), norm)
        out.append(float(norm) if axis is None else norm)
    return out


def lp_norm(f: GridFunction, p: float) -> float:
    """Riemann L^p norm (h^n sum |f|^p)^(1/p); the sup for p = inf."""
    p = check_exponent(p)
    if f.side != "space":
        raise ValueError("lp_norm expects a space-side GridFunction")
    return _power_norm(f.samples, p, weight=f.spec.h**f.spec.n)


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


def _cube_blocks(samples: np.ndarray, spec) -> np.ndarray:
    """Reorder grid samples into shape (L,)*n + (s,)*n: leading axes index
    cubes k + Q (k from -L/2 to L/2-1, torus-wrapped), trailing axes the s^n
    samples inside each cube."""
    L, s, n = spec.L, spec.s, spec.n
    roll = (s + 1) // 2 - 1  # aligns cube boundaries with block boundaries
    arr = np.roll(samples, shift=(roll,) * n, axis=tuple(range(n)))
    arr = arr.reshape(sum(((L, s) for _ in range(n)), ()))
    # axes now (L, s, L, s, ...) -> bring cube axes forward
    order = [2 * j for j in range(n)] + [2 * j + 1 for j in range(n)]
    return arr.transpose(order)


def amalgam_norm(f: GridFunction, p: float, q: float) -> float:
    """Amalgam quasi-norm: inner L^p over unit cubes k + Q, outer l^q over k.

    With p == q this equals the plain L^p norm.
    """
    p, q = check_exponent(p), check_exponent(q)
    if f.side != "space":
        raise ValueError("amalgam_norm expects a space-side GridFunction")
    return _power_norm(_cube_norms(f.samples, f.spec, p), q)


def _cube_norms(samples: np.ndarray, spec, p: float) -> np.ndarray:
    """The L^p norm on each unit cube k + Q of the space samples (complex, or
    their moduli): the vector the amalgam norm's outer l^q reads."""
    blocks = _cube_blocks(samples, spec).reshape(spec.L**spec.n, spec.s**spec.n)
    return _power_norm(blocks, p, weight=spec.h**spec.n, axis=1)


def _band_windows(F: np.ndarray, spec, kappa: Window, offset):
    """(bands, (slab, values), windows): the minimal covering set of bands of
    the box of F's entries above SUPPORT_TOL of the peak, the bounding slab
    of F's exact nonzeros and F on it (``grid._nonzero_slab``; empty for a
    zero F), and each band's window kappa(xi - mu - offset) on that slab,
    yielded one at a time."""
    off = np.zeros(spec.n) if offset is None else np.atleast_1d(np.asarray(offset, dtype=float))
    slab, F_slab = _nonzero_slab(F)
    if not F_slab.size:
        return [], (slab, F_slab), iter(())
    mags = np.abs(F_slab)
    xi = spec.axis_xi()
    box = [(xi[sl.start + a], xi[sl.start + b])
           for sl, (a, b) in zip(slab, _axis_spans(mags > SUPPORT_TOL * mags.max()))]
    r = kappa.outer
    ranges = [range(int(np.ceil(lo - off[j] - r)), int(np.floor(hi - off[j] + r)) + 1)
              for j, (lo, hi) in enumerate(box)]
    for j in range(spec.n):
        if (ranges[j][0] + off[j] - r < -spec.s / 2 - 1e-12
                or ranges[j][-1] + off[j] + r > spec.s / 2 + 1e-12):
            raise ValueError("window margin violation: a covering band leaves "
                             "the frequency box")
    bands = list(itertools.product(*ranges))
    axes = np.meshgrid(*(xi[sl] for sl in slab), indexing="ij", sparse=True)
    return bands, (slab, F_slab), (
        window_eval_axes(kappa, [ax - (m + c) for ax, m, c in zip(axes, mu, off)])
        for mu in bands)


def _wiener_l2(F: np.ndarray, spec, kappa: Window, offset) -> tuple[float, bool]:
    """The W^{2,2} norm of the function with spectrum F, and whether a single
    plateau covers F, from one pass over the covering bands' windows.

    Discrete Plancherel band by band makes the norm a weighted l^2 of the
    spectrum, (dxi^n sum omega^2 |F|^2)^(1/2) with omega^2 = sum_k
    |kappa(xi - k - offset)|^2, read on the slab of F's nonzeros (0 for a
    zero F).  The plateau flag says that one band's window is exactly 1 on
    that slab and every other band's is 0: then omega^2 is 1 there and the
    pointwise l^2 pool of the band stack is |idft(F)| bit for bit.
    """
    _bands, (_slab, F_slab), windows = _band_windows(F, spec, kappa, offset)
    if not F_slab.size:
        return 0.0, False
    omega2 = np.zeros(F_slab.shape)
    live, plateau = 0, False
    for w in windows:
        if w.any():
            live += 1
            plateau = live == 1 and bool((w == 1).all())
            omega2 += np.abs(w) ** 2
    return _power_norm(np.sqrt(omega2) * F_slab, 2.0, spec.dxi**spec.n), plateau


def _spectrum(f: GridFunction) -> np.ndarray:
    """The spectrum of f (``dft`` convention): a frequency-side f as it is, a
    space-side f transformed once.  Non-finite samples on either side are
    refused."""
    if not np.isfinite(f.samples).all():
        raise ValueError(f"{f.side}-side input has non-finite samples")
    return f.samples if f.side == "frequency" else dft(f).samples


def wiener_band_values(f: GridFunction, kappa: Window, offset=None):
    """Band projections kappa(D - k - offset) f for the minimal covering set of
    bands; returns (band indices, stacked space samples).

    A frequency-side ``f`` is the spectrum itself (``dft`` convention) and is
    used as it is; a space-side ``f`` is transformed once.  Each band's window
    is evaluated only on the bounding slab of the spectrum's exact nonzeros:
    outside it the product with the spectrum is exactly 0 anyway.  A band
    whose product with the spectrum is 0 on the whole slab keeps its place
    with an exact-zero row and no transform.  Each live band is written on
    its row in FFT (ifftshifted) order, transformed there in place and
    shifted back: the samples of one centred transform per band, with one
    row-sized temporary.  Non-finite samples on either side are refused.
    """
    spec = f.spec
    F = _spectrum(f)
    bands, (slab, F_slab), windows = _band_windows(F, spec, kappa, offset)
    stack = np.zeros((len(bands),) + spec.shape, dtype=complex)
    at = np.ix_(*((np.arange(sl.start, sl.stop) - spec.N // 2) % spec.N for sl in slab))
    for row, window in zip(stack, windows):
        band = window * F_slab
        if band.any():
            row[at] = band
            np.fft.ifftn(row, out=row)
            np.multiply(spec.s**spec.n, np.fft.fftshift(row), out=row)
    return bands, stack


def wiener_norm(f: GridFunction, p: float, q: float, kappa: Window,
                offset=None) -> float:
    """Wiener amalgam quasi-norm: pointwise l^q over band projections, then L^p.

    ``offset`` shifts the band lattice to offset + Z^n (grid-aligned), matching
    witnesses whose frequency support is centered off the integer lattice.
    ``f`` may be given on either side (see ``wiener_band_values``): a caller
    that holds the exact spectrum passes it and no forward transform runs.
    At p = q = 2 the norm is the weighted l^2 of the spectrum
    (``_wiener_l2``), and no band is transformed.
    """
    p, q = check_exponent(p), check_exponent(q)
    if p == q == 2.0:
        return _wiener_l2(_spectrum(f), f.spec, kappa, offset)[0]
    return _pooled_band_norm(wiener_band_values(f, kappa, offset=offset)[1], f.spec, p, q)


def _pooled_band_norm(stack: np.ndarray, spec, p: float, q: float) -> float:
    """L^p norm of the pointwise l^q pool of a ``wiener_band_values`` stack
    (0 for an empty stack)."""
    return _power_norm(_power_norm(stack, q, axis=0), p, spec.h**spec.n)


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


def loglog_slope(xs, ys) -> tuple[float, float, float]:
    """Least-squares slope of log(y) against log(x): (slope, intercept, R^2).

    Values that agree within FLAT_ULPS ulps of the largest are a flat ladder:
    its spread is rounding, not growth, so the fit is (0, mean log y, 1)
    instead of a slope and an R^2 fitted to that noise."""
    ys = np.asarray(ys, dtype=float)
    lx, ly = np.log(np.asarray(xs, dtype=float)), np.log(ys)
    if lx.size < 2:
        raise ValueError("regression needs at least two points")
    top = np.max(ys)
    if top - np.min(ys) <= FLAT_ULPS * np.spacing(top):
        return 0.0, float(np.mean(ly)), 1.0
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2
