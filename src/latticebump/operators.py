"""Operator families: bilinear multiplier, periodic and sequence models.

* ``apply_T_sigma``   -- bilinear multiplier on the grid, the slow reference:
  T(x) = (1/L)^(2n) sum_{xi1,xi2} sigma fhat1 fhat2 e^{2pi i x.(xi1+xi2)},
  evaluated over the support pairs of the two spectra that sigma can weight
  (its nonzero xi1 rows and xi2 columns), grouped by the output frequency
  zeta = xi1+xi2 (``_grouped_sum``, which returns T's spectrum; T is its
  ``idft``.  It also serves the witness path of transference, which
  evaluates sigma at those pairs only, and scalinglab's products).
* ``apply_T_aPhi_fast`` -- the same operator for lattice-bump symbols through
  the truncated decomposition, contracted through its side factors
  b = sum_r outer(w1_r, w2_r), each multiplier built from the series rows of
  ``symbols._cm_rows`` at the translate: one band projection per translate
  and term (one term for a separable Phi), never one per Fourier mode k.
* ``apply_T_period``  -- periodic bilinear operator on trig polynomials,
  computed in coefficient space.
* ``apply_S``         -- the sequence model, an a-weighted convolution.
* ``band_project``    -- the translated-window projection kappa(D - mu) f of
  one band of a Wiener amalgam norm.

Products at grid points fold output frequencies modulo the box (that is what
pointwise evaluation of e^{2pi i x.zeta} on the grid does); inputs in the
bilinear tests are kept band-limited to |xi|_inf <= s/4 so no folding occurs,
and any folded mass raises an AliasingWarning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bumps import Window, window_eval_axes
from .grid import (GridFunction, GridSpec, _as_int_tuple, _centered, check_budget,
                   dft, idft)
from .symbols import CMDecomposition, LatticeCoefficients, SymbolGrid, _cm_rows, _contract

__all__ = [
    "TrigPolynomial",
    "Sequence",
    "AliasingWarning",
    "apply_T_sigma",
    "apply_T_aPhi_fast",
    "apply_T_period",
    "apply_S",
    "band_project",
    "sequence_from_dict",
    "trig_poly_from_dict",
]


class AliasingWarning(UserWarning):
    """Bilinear output frequencies left the box and were folded."""


ALIAS_TOL = 1e-12  # folded share of the bilinear mass above which AliasingWarning fires


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


def _grouped_sum(sigma_at, F1: np.ndarray, F2: np.ndarray, spec: GridSpec) -> GridFunction:
    """The spectrum, in the ``dft`` convention, of
    T = (1/L)^(2n) sum_{xi1,xi2} sigma F1 F2 e^{2pi i x.(xi1+xi2)}; T itself
    is its ``idft``.

    The double sum runs over the support pairs only: ``sigma_at(idx)`` gives
    the symbol at the 2n per-axis frequency indices ``idx`` (those of xi1,
    then those of xi2), which broadcast to one row per nonzero F1 entry and
    one column per nonzero F2 entry.  Exact zeros only add +-0 to the
    sequential bincount sums, so skipping them changes no bit.  Output
    frequencies are grouped per axis modulo the box into G; the folded share
    of the mass is checked against ALIAS_TOL.  The spectrum is L^n * G: a
    caller that reads only the spectrum runs no transform, and one that reads
    T's samples calls ``idft``, so every caller sees the same T bit for bit.
    """
    n, N = spec.n, spec.N
    i1 = np.flatnonzero(F1 != 0)
    i2 = i1 if F2 is F1 else np.flatnonzero(F2 != 0)
    u1 = tuple(u[:, None] for u in np.unravel_index(i1, spec.shape))
    u2 = tuple(u[None, :] for u in np.unravel_index(i2, spec.shape))
    W = sigma_at(u1 + u2) * np.outer(F1.ravel()[i1], F2.ravel()[i2]) * spec.dxi ** (2 * n)

    flat_idx = 0
    outside = np.zeros(W.shape, dtype=bool)
    for v1, v2 in zip(u1, u2):
        m = v1 + v2  # in [0, 2N-2], frequency (m - N)/L
        outside |= (m < N // 2) | (m >= N + N // 2)
        flat_idx = flat_idx * N + (m - N // 2) % N
    flat_idx = flat_idx.ravel()
    G = (np.bincount(flat_idx, weights=W.real.ravel(), minlength=N**n)
         + 1j * np.bincount(flat_idx, weights=W.imag.ravel(), minlength=N**n))

    total = float(np.sum(np.abs(W)))
    if total > 0:
        frac = float(np.sum(np.abs(W[outside]))) / total
        if frac > ALIAS_TOL:
            warnings.warn(f"bilinear output folded {frac:.2e} of its mass back "
                          f"into the frequency box", AliasingWarning, stacklevel=3)

    G = G.reshape(spec.shape)
    G *= spec.L**n
    return GridFunction(spec, "frequency", G)


def apply_T_sigma(sigma: SymbolGrid, f1: GridFunction, f2: GridFunction) -> GridFunction:
    """Slow reference path for the bilinear multiplier.

    The grouped double sum over the pairs that sigma can weight: fhat1 is
    zeroed at each xi1 where sigma vanishes identically, fhat2 at each such
    xi2.  A dropped pair only added +-0, so no bit changes; it could have
    spread an inf or a NaN, so non-finite samples are refused.  Past one
    pass over the symbol, the cost follows its support, not N^(2n).
    """
    spec = sigma.spec
    if f1.spec != spec or f2.spec != spec:
        raise ValueError("grid spec mismatch")
    if f1.side != "space" or f2.side != "space":
        raise ValueError("inputs must be space-side GridFunctions")
    size = spec.N ** spec.n
    weighted = (sigma.samples != 0).reshape(size, size)
    rows, cols = weighted.any(axis=1), weighted.any(axis=0)
    # inf and NaN are nonzero, so a non-finite sample lies in this block
    block = sigma.samples.reshape(size, size)[np.ix_(rows, cols)]
    for what, x in (("symbol", block), ("f1", f1.samples), ("f2", f2.samples)):
        if not np.isfinite(x).all():
            raise ValueError(f"{what} has non-finite samples")
    return idft(_grouped_sum(lambda idx: sigma.samples[idx],
                             np.where(rows.reshape(spec.shape), dft(f1).samples, 0),
                             np.where(cols.reshape(spec.shape), dft(f2).samples, 0), spec))


def band_project(kappa: Window, mu, f: GridFunction, offset=None) -> GridFunction:
    """kappa(D - mu - offset) f: the window translated to the band at mu."""
    spec = f.spec
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.shape != (spec.n,):
        raise ValueError(f"band index must have {spec.n} components")
    total = mu + (0 if offset is None else np.atleast_1d(np.asarray(offset, dtype=float)))
    if np.any(np.abs(total) + kappa.outer > spec.s / 2):
        raise ValueError(f"band at {tuple(total)} leaves the frequency box")
    samples = window_eval_axes(kappa, [ax - t for ax, t in zip(spec.freq_points(), total)])
    return idft(GridFunction(spec, "frequency", samples * dft(f).samples))


def apply_T_aPhi_fast(a: LatticeCoefficients, d: CMDecomposition,
                      f1: GridFunction, f2: GridFunction) -> GridFunction:
    """Fast path through the factored truncated decomposition.

    With b = sum_r outer(w1_r, w2_r) (``d.factors``) and the band multipliers
    m_{j,r}(xi) = phi(xi) sum_{|k|<=M} wj_r[k] e^{2pi i k.xi/K},

    T = sum_{(mu1,mu2) in supp a} a * sum_r [m_{1,r}(D-mu1) f1] * [m_{2,r}(D-mu2) f2].

    Per translate mu the rows of ``symbols._cm_rows`` at xi - mu_j (the
    cutoff evaluated at the translate, never rolled round the box) are
    contracted axis by axis with each factor: one band projection per
    translate and term.  Agreement with the slow path is bounded by the
    decomposition's recorded truncation tail.
    """
    spec = f1.spec
    if f2.spec != spec:
        raise ValueError("grid spec mismatch")
    if spec.n != d.n:
        raise ValueError("decomposition dimension mismatch")
    n, N = spec.n, spec.N
    mus1 = sorted({m1 for (m1, _m2) in a.entries})
    mus2 = sorted({m2 for (_m1, m2) in a.entries})
    for mu in mus1 + mus2:
        if max(abs(c) for c in mu) > spec.L // 4:
            raise ValueError(f"translate {mu} exceeds the L/4 support budget")
    terms = len(d.factors)
    check_budget((len(mus1) + len(mus2)) * terms * N**n, "fast-path band stack")
    xi = spec.axis_xi()
    sp_axes = tuple(range(1, n + 1))

    def bands(f: GridFunction, mus, side: int) -> dict:
        """Per mu: the (terms, N**n) space samples of m_{side,r}(D - mu) f."""
        fhat = dft(f).samples
        out = {}
        for mu in mus:
            rows = [_cm_rows(d, j, xi - c) for j, c in enumerate(mu)]
            mult = np.stack([_contract(factor[side], rows) for factor in d.factors])
            mult *= fhat
            out[mu] = (spec.s**n * _centered(np.fft.ifftn, mult, axes=sp_axes)).reshape(terms, N**n)
        return out

    H1 = bands(f1, mus1, 0)
    H2 = bands(f2, mus2, 1)
    acc = np.zeros(N**n, dtype=complex)
    for (m1, m2), val in sorted(a.items()):  # fixed order keeps reductions bit-stable
        acc += val * (H1[m1] * H2[m2]).sum(axis=0)
    return GridFunction(spec, "space", acc.reshape(spec.shape))
