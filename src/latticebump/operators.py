"""Operator families: bilinear multiplier, periodic and sequence models.

* ``apply_T_sigma``   -- bilinear multiplier on the grid, the slow reference:
  T(x) = (1/L)^(2n) sum_{xi1,xi2} sigma fhat1 fhat2 e^{2pi i x.(xi1+xi2)},
  evaluated by grouping the double sum over the output frequency zeta = xi1+xi2
  (``_grouped_sum``, shared with the scaling products of scalinglab).
* ``apply_T_aPhi_fast`` -- the same operator for lattice-bump symbols through
  the truncated tensor-product decomposition (band projections only).
* ``apply_T_period``  -- periodic bilinear operator on trig polynomials,
  computed in coefficient space.
* ``apply_S``         -- the sequence model, an a-weighted convolution.
* ``apply_linear_mult`` / ``band_project`` -- linear multipliers m(D) and the
  translated-window projections used by Wiener amalgam norms.

Products at grid points fold output frequencies modulo the box (that is what
pointwise evaluation of e^{2pi i x.zeta} on the grid does); inputs in the
bilinear tests are kept band-limited to |xi|_inf <= s/4 so no folding occurs,
and any folded mass raises an AliasingWarning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bumps import BumpProfile, Window, bump_eval_axes, window_eval_axes
from .grid import GridFunction, GridSpec, _as_int_tuple, dft, idft
from .symbols import CMDecomposition, LatticeCoefficients, SymbolGrid

__all__ = [
    "TrigPolynomial",
    "Sequence",
    "AliasingWarning",
    "apply_T_sigma",
    "apply_T_aPhi_fast",
    "apply_T_period",
    "apply_S",
    "apply_linear_mult",
    "band_project",
]


class AliasingWarning(UserWarning):
    """Bilinear output frequencies left the box and were folded."""


@dataclass
class TrigPolynomial:
    """Finitely supported Fourier coefficients on Z^n; F(x) = sum c_mu e^{2pi i mu.x}."""

    n: int
    coeffs: dict[tuple[int, ...], complex]

    def evaluate(self, *axes) -> np.ndarray:
        """Evaluate on the tensor grid of per-axis coordinate arrays."""
        if len(axes) != self.n:
            raise ValueError(f"expected {self.n} axis arrays")
        out = 0
        for mu, c in self.coeffs.items():
            phase = 1
            for j, u in enumerate(axes):
                phase = phase * np.exp(2j * np.pi * mu[j] * np.asarray(u, dtype=float))
            out = out + c * phase
        return out if not np.isscalar(out) else np.asarray(out)


@dataclass
class Sequence:
    """Finitely supported map Z^n -> C."""

    n: int
    entries: dict[tuple[int, ...], complex]

    def drop_zeros(self, tol: float = 0.0) -> "Sequence":
        return Sequence(self.n, {k: v for k, v in self.entries.items() if abs(v) > tol})


def sequence_from_dict(n: int, entries: dict) -> Sequence:
    return Sequence(n, {_as_int_tuple(k, n): complex(v) for k, v in entries.items()})


def trig_poly_from_dict(n: int, coeffs: dict) -> TrigPolynomial:
    return TrigPolynomial(n, {_as_int_tuple(k, n): complex(v) for k, v in coeffs.items()})


def apply_S(a: LatticeCoefficients, b1: Sequence, b2: Sequence) -> Sequence:
    """Sequence model: out(mu) = sum_{mu1+mu2=mu} a(mu1,mu2) b1(mu1) b2(mu2)."""
    if not (a.n == b1.n == b2.n):
        raise ValueError("dimension mismatch")
    out: dict[tuple[int, ...], complex] = {}
    for (m1, m2), av in a.items():
        v1 = b1.entries.get(m1)
        if v1 is None:
            continue
        v2 = b2.entries.get(m2)
        if v2 is None:
            continue
        key = tuple(x + y for x, y in zip(m1, m2))
        out[key] = out.get(key, 0.0) + av * v1 * v2
    return Sequence(a.n, out)


def apply_T_period(a: LatticeCoefficients, F1: TrigPolynomial,
                   F2: TrigPolynomial) -> TrigPolynomial:
    """Periodic bilinear operator; its coefficient map is apply_S on the inputs'
    coefficient maps (matching exponentials term by term)."""
    if not (a.n == F1.n == F2.n):
        raise ValueError("dimension mismatch")
    s = apply_S(a, Sequence(F1.n, F1.coeffs), Sequence(F2.n, F2.coeffs))
    return TrigPolynomial(a.n, s.entries)


def _grouped_sum(sigma_at, F1: np.ndarray, F2: np.ndarray, spec: GridSpec,
                 alias_tol: float = 1e-12) -> np.ndarray:
    """Space samples of (1/L)^(2n) sum_{xi1,xi2} sigma F1 F2 e^{2pi i x.(xi1+xi2)}.

    The double sum runs over the support pairs only: ``sigma_at(r, c)`` gives
    the symbol at the C-order flat frequency indices r (of xi1) and c (of
    xi2), broadcast to one row per nonzero F1 entry and one column per nonzero
    F2 entry.  Exact zeros only add +-0 to the sequential bincount sums, so
    skipping them changes no bit.  Output frequencies are grouped per axis
    modulo the box; the folded share of the mass is checked against
    ``alias_tol``.
    """
    n, N = spec.n, spec.N
    i1 = np.flatnonzero(F1 != 0)
    i2 = np.flatnonzero(F2 != 0)
    W = (sigma_at(i1[:, None], i2[None, :])
         * np.outer(F1.ravel()[i1], F2.ravel()[i2]) * spec.dxi ** (2 * n))

    flat_idx = 0
    outside = np.zeros(W.shape, dtype=bool)
    for u1, u2 in zip(np.unravel_index(i1, spec.shape), np.unravel_index(i2, spec.shape)):
        m = u1[:, None] + u2[None, :]  # in [0, 2N-2], frequency (m - N)/L
        outside |= (m < N // 2) | (m >= N + N // 2)
        flat_idx = flat_idx * N + (m - N // 2) % N
    flat_idx = flat_idx.ravel()
    G = (np.bincount(flat_idx, weights=W.real.ravel(), minlength=N**n)
         + 1j * np.bincount(flat_idx, weights=W.imag.ravel(), minlength=N**n))

    total = float(np.sum(np.abs(W)))
    if total > 0:
        frac = float(np.sum(np.abs(W[outside]))) / total
        if frac > alias_tol:
            warnings.warn(f"bilinear output folded {frac:.2e} of its mass back "
                          f"into the frequency box", AliasingWarning, stacklevel=3)

    return N**n * np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(G.reshape(spec.shape))))


def apply_T_sigma(sigma: SymbolGrid, f1: GridFunction, f2: GridFunction,
                  alias_tol: float = 1e-12) -> GridFunction:
    """Slow reference path for the bilinear multiplier.

    Cost O(N^(2n)) at most: the grouped double sum over the support pairs of
    the two input spectra, with the symbol gathered at those pairs.
    """
    spec = sigma.spec
    if f1.spec != spec or f2.spec != spec:
        raise ValueError("grid spec mismatch")
    if f1.side != "space" or f2.side != "space":
        raise ValueError("inputs must be space-side GridFunctions")
    S = sigma.samples.reshape(spec.N**spec.n, spec.N**spec.n)
    samples = _grouped_sum(lambda r, c: S[r, c], dft(f1).samples, dft(f2).samples,
                           spec, alias_tol)
    return GridFunction(spec, "space", samples)


def _multiplier_samples(m, spec: GridSpec, shift=None) -> np.ndarray:
    """Normalize a multiplier (array, GridFunction, profile, window, callable)
    to frequency samples, optionally translated by ``shift``."""
    axes = spec.freq_points()
    if shift is not None:
        shift = np.atleast_1d(np.asarray(shift, dtype=float))
        axes = [ax - shift[j] for j, ax in enumerate(axes)]
    if isinstance(m, Window):
        return np.asarray(window_eval_axes(m, axes), dtype=complex)
    if isinstance(m, BumpProfile):
        return np.asarray(bump_eval_axes(m, axes), dtype=complex)
    if isinstance(m, GridFunction):
        if m.side != "frequency":
            raise ValueError("multiplier GridFunction must be frequency-side")
        if shift is not None:
            raise ValueError("cannot shift sampled multipliers")
        return m.samples
    if callable(m):
        return np.asarray(m(*axes), dtype=complex)
    arr = np.asarray(m, dtype=complex)
    if arr.shape != spec.shape:
        raise ValueError(f"multiplier shape {arr.shape} != grid shape {spec.shape}")
    if shift is not None:
        raise ValueError("cannot shift sampled multipliers")
    return arr


def apply_linear_mult(m, f: GridFunction) -> GridFunction:
    """Linear Fourier multiplier m(D)f = idft(m * dft(f))."""
    samples = _multiplier_samples(m, f.spec)
    return idft(GridFunction(f.spec, "frequency", samples * dft(f).samples))


def band_project(kappa: Window, mu, f: GridFunction, offset=None) -> GridFunction:
    """kappa(D - mu - offset) f: the window translated to the band at mu."""
    spec = f.spec
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.shape != (spec.n,):
        raise ValueError(f"band index must have {spec.n} components")
    total = mu + (0 if offset is None else np.atleast_1d(np.asarray(offset, dtype=float)))
    if np.any(np.abs(total) + kappa.outer > spec.s / 2):
        raise ValueError(f"band at {tuple(total)} leaves the frequency box")
    samples = _multiplier_samples(kappa, spec, shift=total)
    return idft(GridFunction(spec, "frequency", samples * dft(f).samples))


def _cutoff_translates(d: CMDecomposition, spec: GridSpec,
                       mus: list[tuple[int, ...]]) -> dict[tuple[int, ...], np.ndarray]:
    """Samples of the cutoff phi(xi - mu) for each needed integer translate."""
    base = np.asarray(bump_eval_axes(d.cutoff, spec.freq_points()), dtype=complex)
    out = {}
    for mu in mus:
        if max(abs(c) for c in mu) > spec.L // 4:
            raise ValueError(f"translate {mu} exceeds the L/4 support budget")
        out[mu] = np.roll(base, shift=[c * spec.L for c in mu],
                          axis=tuple(range(spec.n)))
    return out


@lru_cache(maxsize=8)
def _phase_matrix(N: int, L: int, M: int, K: float) -> np.ndarray:
    """P[k, i] = e^{2pi i xi_i k / K} on the centered frequency axis."""
    ks = np.arange(-M, M + 1)
    xi = (np.arange(N) - N // 2) / L
    return np.exp(2j * np.pi * np.multiply.outer(ks, xi) / K)


def apply_T_aPhi_fast(a: LatticeCoefficients, d: CMDecomposition,
                      f1: GridFunction, f2: GridFunction) -> GridFunction:
    """Fast path through the truncated decomposition.

    T = sum_{|k|<=M} b(k1,k2) sum_{(mu1,mu2) in supp a} a *
        [phi_{k1}(D-mu1) f1] * [phi_{k2}(D-mu2) f2],

    each factor one band projection; agreement with the slow path is bounded
    by the decomposition's recorded truncation tail.
    """
    spec = f1.spec
    if f2.spec != spec:
        raise ValueError("grid spec mismatch")
    if spec.n != d.n:
        raise ValueError("decomposition dimension mismatch")
    n, N, M, K = spec.n, spec.N, d.M, d.K
    mus1 = sorted({m1 for (m1, _m2) in a.entries})
    mus2 = sorted({m2 for (_m1, m2) in a.entries})
    ks = np.arange(-M, M + 1)
    kcount = (2 * M + 1) ** n
    sp_axes = tuple(range(1, n + 1))

    # per-axis phase matrix, cached across calls on the same grid
    P_ax = _phase_matrix(N, spec.L, M, K)

    def band_stack(f: GridFunction, mus) -> dict:
        """Per mu: stack over k-multi-indices (C-order flattened to match
        coeffs.reshape) of idft(phi_k(. - mu) * fhat), shape (kcount, N**n)."""
        fhat = dft(f).samples
        cuts = _cutoff_translates(d, spec, mus)
        out = {}
        for mu in mus:
            # phi_k(xi - mu) / phi(xi - mu) = prod_j P_ax[k_j] e^{-2pi i k_j mu_j / K},
            # axis j's factor spread over (2M+1,)^n + (N,)^n at axes j and n + j
            phase = 1.0
            for j in range(n):
                fac = P_ax * np.exp(-2j * np.pi * ks * mu[j] / K)[:, None]
                phase = phase * np.expand_dims(
                    fac, tuple(ax for ax in range(2 * n) if ax not in (j, n + j)))
            arr = (phase * (cuts[mu] * fhat)).reshape((kcount,) + spec.shape)
            proj = spec.s**n * np.fft.fftshift(
                np.fft.ifftn(np.fft.ifftshift(arr, axes=sp_axes), axes=sp_axes),
                axes=sp_axes)
            out[mu] = proj.reshape(kcount, N**n)
        return out

    G1 = band_stack(f1, mus1)
    G2 = band_stack(f2, mus2)

    B = d.coeffs.reshape(kcount, kcount)
    # pre-contract the coefficient tensor into side 2 once per mu2
    C2 = {mu: B @ G2[mu] for mu in mus2}
    acc = np.zeros(N**n, dtype=complex)
    for (m1, m2), val in sorted(a.items()):  # fixed order keeps reductions bit-stable
        acc += val * (G1[m1] * C2[m2]).sum(axis=0)
    return GridFunction(spec, "space", acc.reshape(spec.shape))
