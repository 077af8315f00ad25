"""Periodic grids and the discrete Fourier transform pair.

The spatial box is [-L/2, L/2)^n sampled at step h = 1/s (N = L*s points per
axis); the dual frequency grid is [-s/2, s/2)^n at step 1/L.  Both grids are
stored in centered order: index i along an axis means coordinate (i - N/2)*h
in space and (i - N/2)/L in frequency.  Because L and s are integers, integer
translations act on the space grid and the integer lattice Z^n sits inside the
frequency grid at index offsets mu*L.

Transform conventions (continuum): fhat(xi) = int f(x) e^{-2pi i x.xi} dx and
its inverse with e^{+2pi i x.xi}.  The discrete pair below realizes these as
Riemann sums on the box/torus and is exactly invertible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BudgetError",
    "check_budget",
    "GridSpec",
    "GridFunction",
    "make_grid",
    "space_function",
    "freq_function",
    "dft",
    "idft",
    "poisson_check",
]

# memory budget, in values, of every large array: grids, dense symbols, translate
# slabs, support pairs, cm blocks, quadratures, the T_period torus and phase matrices
MAX_POINTS = 2**24


class BudgetError(ValueError):
    """An array would hold more than MAX_POINTS values."""


def check_budget(count: int, what: str) -> None:
    """Raise BudgetError before ``what`` with ``count`` values is allocated,
    if that is more than MAX_POINTS."""
    if count > MAX_POINTS:
        raise BudgetError(f"{what} with {count} values exceeds budget {MAX_POINTS}")


@dataclass(frozen=True)
class GridSpec:
    """Discretization of [-L/2, L/2)^n with s samples per unit length."""

    n: int
    L: int
    s: int

    @property
    def N(self) -> int:
        """Points per axis."""
        return self.L * self.s

    @property
    def h(self) -> float:
        """Spatial step 1/s."""
        return 1.0 / self.s

    @property
    def dxi(self) -> float:
        """Frequency step 1/L."""
        return 1.0 / self.L

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    def axis_x(self) -> np.ndarray:
        """Space coordinates along one axis, centered order."""
        return (np.arange(self.N) - self.N // 2) / self.s

    def axis_xi(self) -> np.ndarray:
        """Frequency coordinates along one axis, centered order (read-only,
        built once per spec)."""
        return self._axis_xi

    @cached_property
    def _axis_xi(self) -> np.ndarray:
        xi = (np.arange(self.N) - self.N // 2) / self.L
        xi.flags.writeable = False
        return xi

    def space_points(self) -> list[np.ndarray]:
        """Open meshgrid of space coordinates (one array per axis)."""
        return list(np.meshgrid(*(self.axis_x(),) * self.n, indexing="ij", sparse=True))

    def freq_points(self) -> list[np.ndarray]:
        """Open meshgrid of frequency coordinates (one array per axis)."""
        return list(np.meshgrid(*(self.axis_xi(),) * self.n, indexing="ij", sparse=True))


@dataclass
class GridFunction:
    """Complex samples on a GridSpec, tagged space- or frequency-side."""

    spec: GridSpec
    side: str  # "space" | "frequency"
    samples: np.ndarray

    def __post_init__(self):
        if self.side not in ("space", "frequency"):
            raise ValueError(f"side must be 'space' or 'frequency', got {self.side!r}")
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.shape != self.spec.shape:
            raise ValueError(
                f"samples shape {self.samples.shape} does not match grid {self.spec.shape}"
            )


def _as_int_tuple(v, n: int) -> tuple[int, ...]:
    """A point of Z^n as a tuple of n ints; scalars are accepted for n = 1."""
    t = tuple(int(c) for c in np.atleast_1d(v))
    if len(t) != n:
        raise ValueError(f"point must have {n} components, got {v!r}")
    return t


def make_grid(n: int, L: int, s: int) -> GridSpec:
    """Build a GridSpec; rejects n not in {1, 2}, odd L, s < 1, oversize grids."""
    if n not in (1, 2):
        raise ValueError(f"dimension n must be 1 or 2, got {n}")
    if L <= 0 or L % 2 != 0:
        raise ValueError(f"box side L must be a positive even integer, got {L}")
    if s <= 0:
        raise ValueError(f"samples per unit s must be a positive integer, got {s}")
    check_budget((L * s) ** n, "grid")
    return GridSpec(n=int(n), L=int(L), s=int(s))


def _padded_slice(axis: np.ndarray, lo: float, hi: float) -> slice:
    """The indices of the sorted ``axis`` in [lo, hi], padded by one point
    per side (clipped to the axis)."""
    return slice(max(int(np.searchsorted(axis, lo, "left")) - 1, 0),
                 min(int(np.searchsorted(axis, hi, "right")) + 1, len(axis)))


def _translate_sum(terms, box, spec: GridSpec, evaluate=None, axis_factor=None,
                   amplitude: complex = 1.0):
    """sum_mu c(mu) F(xi - mu) over the (mu, c) ``terms`` on the (N,)*d
    frequency grid, d = len(mu), for F zero off the closed box ``box`` =
    (lo, hi), as the pair (slices, values): the bounding slab of the
    translates' padded slices (empty for no terms) and the sum on it, 0 off
    it (``_embed`` makes the whole array; a slab over MAX_POINTS values is
    refused before it is allocated).  Each translate is added on the
    grid points of mu + box only, padded by one point per side: off them it
    is zero, which would add only +-0, so the values are those of the
    whole-grid loop.

    F is ``evaluate`` on an open meshgrid of d per-axis coordinate arrays,
    or, for a separable F, ``amplitude`` times the product over the axes of
    ``axis_factor(j, u)`` (in axis order, as ``bumps.bump_eval_axes`` takes
    it).  The padded slice and the coordinates (the axis factor) are built
    once per (axis, integer shift) and shared by every translate with that
    shift: keyed by the shift, since xi - m need not be exact.
    """
    xi = spec.axis_xi()
    d = len(box[0])
    axes = {}

    def axis(j: int, m: int):
        if (j, m) not in axes:
            sl = _padded_slice(xi, box[0][j] + m, box[1][j] + m)
            u = xi[sl] - m
            axes[j, m] = sl, (u if axis_factor is None else
                              axis_factor(j, u).reshape((-1,) + (1,) * (d - 1 - j)))
        return axes[j, m]

    placed = []
    for mu, c in terms:
        if not np.isfinite(c):
            raise ValueError("coefficients must be finite")
        placed.append((c, *zip(*(axis(j, m) for j, m in enumerate(mu)))))
    origin, shape = (0,) * d, (0,) * d
    if placed:
        origin = tuple(min(s[j].start for _c, s, _v in placed) for j in range(d))
        shape = tuple(max(s[j].stop for _c, s, _v in placed) - o for j, o in enumerate(origin))
    check_budget(math.prod(shape), "translate slab")
    out = np.zeros(shape, dtype=complex)
    for c, sl, vals in placed:
        if axis_factor is None:
            value = evaluate(np.meshgrid(*vals, indexing="ij", sparse=True))
        else:
            value = np.asarray(amplitude, dtype=complex)
            for v in vals:
                value = value * v
        out[tuple(slice(s.start - o, s.stop - o) for s, o in zip(sl, origin))] += c * value
    return tuple(slice(o, o + k) for o, k in zip(origin, shape)), out


def _embed(slab, shape: tuple[int, ...]) -> np.ndarray:
    """The ``shape`` array that holds the (slices, values) ``slab``, 0 off it."""
    slices, values = slab
    out = np.zeros(shape, dtype=values.dtype)
    out[slices] = values
    return out


def _axis_spans(mask: np.ndarray) -> list[tuple[int, int]]:
    """Per axis, the first and last index of a line on which a nonempty
    ``mask`` holds somewhere."""
    spans = []
    for j in range(mask.ndim):
        line = mask.any(axis=tuple(k for k in range(mask.ndim) if k != j))
        nz = np.flatnonzero(line)
        spans.append((int(nz[0]), int(nz[-1])))
    return spans


def _nonzero_slab(a: np.ndarray):
    """(slices, values): the bounding slab of the entries of ``a`` that are
    not 0, inf and NaN included (empty if none), and a copy of ``a`` on it."""
    nonzero = a != 0
    if not nonzero.any():
        return (slice(0, 0),) * a.ndim, np.zeros((0,) * a.ndim, dtype=a.dtype)
    slices = tuple(slice(lo, hi + 1) for lo, hi in _axis_spans(nonzero))
    return slices, a[slices].copy()


def space_function(spec: GridSpec, values) -> GridFunction:
    """Wrap samples (array or callable on space coordinates) as a space GridFunction."""
    if callable(values):
        values = values(*spec.space_points())
    arr = np.broadcast_to(np.asarray(values, dtype=complex), spec.shape).copy()
    return GridFunction(spec, "space", arr)


def freq_function(spec: GridSpec, values) -> GridFunction:
    """Wrap samples (array or callable on frequency coordinates) as a frequency GridFunction."""
    if callable(values):
        values = values(*spec.freq_points())
    arr = np.broadcast_to(np.asarray(values, dtype=complex), spec.shape).copy()
    return GridFunction(spec, "frequency", arr)


def _whole(a: np.ndarray):
    """The whole-array slab (slices, values) of ``a``."""
    return tuple(slice(0, k) for k in a.shape), a


def _centered(transform, slab, shape: tuple[int, ...], axes=None) -> np.ndarray:
    """``transform`` (``np.fft.fftn`` or ``np.fft.ifftn``) over ``axes`` (all
    by default) of the centred ``shape`` array with the (slices, values)
    ``slab`` (a dense array is its ``_whole`` slab), in one buffer: the
    values are copied into it in FFT order, at most two runs per axis,
    transformed in place and shifted back in place, axis by axis.  Only data
    moves, so the bits are those of ``fftshift(transform(ifftshift(a)))``."""
    along = range(len(shape)) if axes is None else axes
    runs = []
    for j, sl in enumerate(slab[0]):
        N, h = shape[j], shape[j] // 2 if j in along else 0  # index i sits at (i - h) % N
        runs.append([(slice((a - h) % N, (a - h) % N + b - a), slice(a - sl.start, b - sl.start))
                     for a, b in ((sl.start, min(sl.stop, h)), (max(sl.start, h), sl.stop))
                     if a < b])
    buf = np.zeros(shape, dtype=complex)
    for run in itertools.product(*runs):
        buf[tuple(dst for dst, _src in run)] = slab[1][tuple(src for _dst, src in run)]
    transform(buf, axes=axes, out=buf)
    for j in along:  # roll by h = N // 2; numpy buffers the overlap of an odd N
        N, h, lead = shape[j], shape[j] // 2, (slice(None),) * j
        tail = buf[lead + (slice(N - h, N),)].copy()
        buf[lead + (slice(h, N),)] = buf[lead + (slice(0, N - h),)]
        buf[lead + (slice(0, h),)] = tail
    return buf


def _idft_samples(slab, spec: GridSpec) -> np.ndarray:
    """The samples of ``idft`` of the spectrum with (slices, values) ``slab``."""
    out = _centered(np.fft.ifftn, slab, spec.shape)
    out *= float(spec.s) ** spec.n
    return out


def dft(f: GridFunction) -> GridFunction:
    """Forward transform: fhat(xi_k) = h^n * sum_i f(x_i) e^{-2pi i x_i.xi_k}.

    Exact for the discrete pair: idft(dft(f)) == f to machine precision.
    """
    if f.side != "space":
        raise ValueError("dft expects a space-side GridFunction")
    out = _centered(np.fft.fftn, _whole(f.samples), f.spec.shape)
    out *= f.spec.h**f.spec.n
    return GridFunction(f.spec, "frequency", out)


def idft(F: GridFunction) -> GridFunction:
    """Inverse transform: f(x_i) = (1/L)^n * sum_k F(xi_k) e^{+2pi i x_i.xi_k}."""
    if F.side != "frequency":
        raise ValueError("idft expects a frequency-side GridFunction")
    return GridFunction(F.spec, "space", _idft_samples(_whole(F.samples), F.spec))


def poisson_check(f: GridFunction, xi, x, M: int) -> tuple[complex, complex]:
    """Both sides of the Poisson summation identity, truncated at radius M.

    lhs = sum_{|mu|_inf <= M} e^{2pi i mu.x} fhat(xi + mu)
    rhs = sum_{|nu|_inf <= M} e^{-2pi i xi.(x + nu)} f(x + nu)

    xi and x must lie on the frequency/space grids; f should be band-limited
    with |supp fhat|_inf < s/2 - M so the frequency shifts stay in the box.
    Spatial shifts wrap on the torus (tails outside the box must be small).
    Returns (lhs, rhs); the caller asserts |lhs - rhs| <= tol.
    """
    if f.side != "space":
        raise ValueError("poisson_check expects a space-side GridFunction")
    spec = f.spec
    if M < 0 or M > spec.L // 2:
        raise ValueError(f"truncation radius M={M} exceeds the grid (max {spec.L // 2})")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if xi.shape != (spec.n,) or x.shape != (spec.n,):
        raise ValueError(f"xi and x must have {spec.n} components")

    # locate xi and x on their grids
    ki = np.rint((xi + spec.s / 2) * spec.L).astype(int)
    if not np.allclose(ki / spec.L - spec.s / 2, xi, atol=1e-12):
        raise ValueError(f"xi={xi} is not a frequency grid point")
    jx = np.rint((x + spec.L / 2) * spec.s).astype(int)
    if not np.allclose(jx / spec.s - spec.L / 2, x, atol=1e-12):
        raise ValueError(f"x={x} is not a space grid point")

    F = dft(f).samples
    shifts = np.arange(-M, M + 1)
    grids = np.meshgrid(*(shifts,) * spec.n, indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=-1)  # (count, n)

    lhs = 0.0 + 0.0j
    for mu in offs:
        kk = ki + mu * spec.L
        if np.any(kk < 0) or np.any(kk >= spec.N):
            raise ValueError(f"frequency shift mu={tuple(mu)} leaves the grid")
        lhs += np.exp(2j * np.pi * float(mu @ x)) * F[tuple(kk)]

    rhs = 0.0 + 0.0j
    for nu in offs:
        jj = (jx + nu * spec.s) % spec.N  # torus wrap
        rhs += np.exp(-2j * np.pi * float(xi @ (x + nu))) * f.samples[tuple(jj)]
    return complex(lhs), complex(rhs)
