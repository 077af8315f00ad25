"""Lattice bump symbols and their tensor-product Fourier decomposition.

The symbol is sigma(xi1, xi2) = sum_{mu1,mu2} a(mu1,mu2) Phi(xi1-mu1, xi2-mu2)
for a finitely supported coefficient array a on Z^n x Z^n and a smooth bump
Phi on R^(2n).  Expanding Phi in a Fourier series on the period box KQ x KQ
and multiplying by a plateau cutoff phi (== 1 on the half box, supported in
the box) rewrites the symbol as a rapidly converging sum of separable pieces

    sigma = sum_{k1,k2} b(k1,k2) sigma_{a, phi_k1 (x) phi_k2},
    phi_k(xi) = e^{2 pi i xi.k / K} phi(xi),

which is the basis of the fast operator path in :mod:`latticebump.operators`.
That path contracts b one side at a time through its factorisation
b = sum_r w1_r (x) w2_r over the xi1 and xi2 halves (``CMDecomposition.factors``).
Every evaluation of the truncated series, here and there, takes its per-axis
rows phi_k from ``_cm_rows`` and contracts them against the coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from .bumps import BumpProfile, _axis_factor, bump_eval_axes, make_plateau
from .grid import GridSpec, _as_int_tuple, check_budget

__all__ = [
    "LatticeCoefficients",
    "SymbolGrid",
    "CMDecomposition",
    "lattice_delta",
    "lattice_from_dict",
    "random_lattice_coefficients",
    "check_symbol_budget",
    "sigma_eval",
    "synth_sigma",
    "cm_decompose",
    "cm_reconstruct",
    "sigma_from_cm",
]


@dataclass
class LatticeCoefficients:
    """Finitely supported a : Z^n x Z^n -> C."""

    n: int
    entries: dict[tuple[tuple[int, ...], tuple[int, ...]], complex]

    def items(self):
        return self.entries.items()

    def __len__(self) -> int:
        return len(self.entries)

    def sup_norm(self) -> float:
        return max((abs(v) for v in self.entries.values()), default=0.0)

    def support_radius(self) -> int:
        """max |mu|_inf over both coordinates of the support."""
        r = 0
        for (m1, m2) in self.entries:
            r = max(r, max(abs(c) for c in m1 + m2))
        return r

    def scaled(self, c: complex) -> "LatticeCoefficients":
        return LatticeCoefficients(self.n, {k: c * v for k, v in self.entries.items()})

    def shifted(self, nu1, nu2) -> "LatticeCoefficients":
        nu1, nu2 = _as_int_tuple(nu1, self.n), _as_int_tuple(nu2, self.n)
        return LatticeCoefficients(self.n, {
            (tuple(a + b for a, b in zip(m1, nu1)), tuple(a + b for a, b in zip(m2, nu2))): v
            for (m1, m2), v in self.entries.items()})

    def __add__(self, other: "LatticeCoefficients") -> "LatticeCoefficients":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0.0) + v
        return LatticeCoefficients(self.n, out)


def lattice_from_dict(n: int, entries: dict) -> LatticeCoefficients:
    """Normalize {(mu1, mu2): value} keys; scalars allowed for n = 1."""
    norm = {}
    for (m1, m2), v in entries.items():
        norm[(_as_int_tuple(m1, n), _as_int_tuple(m2, n))] = complex(v)
    return LatticeCoefficients(n, norm)


def lattice_delta(n: int, mu1=None, mu2=None, value: complex = 1.0) -> LatticeCoefficients:
    """Single-entry coefficients, default at the origin."""
    z = (0,) * n
    m1 = _as_int_tuple(mu1, n) if mu1 is not None else z
    m2 = _as_int_tuple(mu2, n) if mu2 is not None else z
    return LatticeCoefficients(n, {(m1, m2): complex(value)})


def random_lattice_coefficients(n: int, radius: int, count: int,
                                seed: int) -> LatticeCoefficients:
    """``count`` standard complex gaussian entries drawn without replacement
    from the index box |mu1|_inf, |mu2|_inf <= radius."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    rng = np.random.default_rng(seed)
    side = 2 * radius + 1
    total = side ** (2 * n)
    if count > total:
        raise ValueError(f"count {count} exceeds {total} available positions")
    if total >= 2**63:
        raise ValueError(f"radius {radius}: {total} positions are too many to draw from")
    flat = rng.choice(total, size=count, replace=False)
    entries = {}
    for pos in flat:
        digits = []
        p = int(pos)
        for _ in range(2 * n):
            digits.append(p % side - radius)
            p //= side
        m1, m2 = tuple(digits[:n]), tuple(digits[n:])
        entries[(m1, m2)] = complex(rng.standard_normal(), rng.standard_normal())
    return LatticeCoefficients(n, entries)


@dataclass
class SymbolGrid:
    """Symbol samples over frequency-grid pairs (xi1, xi2), shape (N,)*(2n)."""

    spec: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        shape = (self.spec.N,) * (2 * self.spec.n)
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.shape != shape:
            raise ValueError(f"symbol shape {self.samples.shape}, expected {shape}")

    def save(self, prefix) -> None:
        """Write raw complex128 little-endian C-order data and a JSON header."""
        prefix = Path(prefix)
        data = np.ascontiguousarray(self.samples.astype("<c16"))
        prefix.with_suffix(".bin").write_bytes(data.tobytes())
        header = {
            "dtype": "complex128-le",
            "order": "C",
            "shape": list(self.samples.shape),
            "grid": {"n": self.spec.n, "L": self.spec.L, "s": self.spec.s},
            "layout": "centered: index i -> frequency (i - N/2)/L per axis",
        }
        prefix.with_suffix(".json").write_text(json.dumps(header, indent=2, sort_keys=True))

    @classmethod
    def load(cls, prefix) -> "SymbolGrid":
        prefix = Path(prefix)
        header = json.loads(prefix.with_suffix(".json").read_text())
        g = header["grid"]
        spec = GridSpec(n=g["n"], L=g["L"], s=g["s"])
        data = np.frombuffer(prefix.with_suffix(".bin").read_bytes(), dtype="<c16")
        return cls(spec, data.reshape(header["shape"]).astype(complex))


def _check_supports(a: LatticeCoefficients, phi: BumpProfile, spec: GridSpec) -> None:
    if a.n != spec.n:
        raise ValueError(f"coefficients are {a.n}-dimensional, grid is {spec.n}")
    if phi.d != 2 * spec.n:
        raise ValueError(f"Phi must live on R^(2n) = R^{2 * spec.n}, got d={phi.d}")
    if a.support_radius() > spec.L // 4:
        raise ValueError(
            f"coefficient support radius {a.support_radius()} exceeds L/4 = {spec.L // 4}")
    if max(phi.radius) >= spec.L / 2:
        raise ValueError(f"Phi support radius {max(phi.radius)} must be < L/2 = {spec.L / 2}")


def check_symbol_budget(spec: GridSpec) -> None:
    """Raise BudgetError if the (N,)*(2n) symbol grid exceeds MAX_POINTS values."""
    check_budget(spec.N ** (2 * spec.n), "symbol grid")


def sigma_eval(a: LatticeCoefficients, phi: BumpProfile, axes: list[np.ndarray]) -> np.ndarray:
    """sigma_{a,Phi} on 2n per-axis coordinate arrays (xi1 axes, then xi2
    axes) that broadcast against each other; the result has their shape."""
    out = np.zeros(np.broadcast_shapes(*(np.shape(u) for u in axes)), dtype=complex)
    for (m1, m2), val in a.items():
        out += val * bump_eval_axes(phi, [u - m for u, m in zip(axes, m1 + m2)])
    return out


def synth_sigma(a: LatticeCoefficients, phi: BumpProfile, spec: GridSpec) -> SymbolGrid:
    """Sample sigma_{a,Phi} exactly at the frequency grid points."""
    _check_supports(a, phi, spec)
    check_symbol_budget(spec)
    axes = np.meshgrid(*(spec.axis_xi(),) * (2 * spec.n), indexing="ij", sparse=True)
    return SymbolGrid(spec, sigma_eval(a, phi, axes))


# ---------------------------------------------------------------------------
# Fourier-series decomposition with plateau cutoff
# ---------------------------------------------------------------------------


@dataclass
class CMDecomposition:
    """Truncated Fourier coefficients b(k1,...,k_{2n}) of Phi on KQ^(2n),
    together with the plateau cutoff phi (== 1 on 2^{-1}KQ, supported in KQ).

    ``factors`` splits the block across the xi1 / xi2 sides: a tuple of
    (side1, side2) tensors, each of shape (2M+1,)*n, with
    ``coeffs`` = sum_r outer(side1_r, side2_r).  A separable Phi gives one
    exact term; otherwise the terms come from the SVD of the
    (2M+1)^n x (2M+1)^n flattening.  The fast operator path contracts through
    them, one band projection per term and translate.

    ``tail`` is sum |b| over the computed coefficients outside the stored
    |k|_inf <= M block (plus nothing beyond the computation range, where the
    coefficients are below roundoff of the quadrature)."""

    n: int
    K: float
    M: int
    coeffs: np.ndarray  # shape (2M+1,)*(2n), index k+M per axis
    factors: tuple[tuple[np.ndarray, np.ndarray], ...]
    cutoff: BumpProfile
    tail: float

    def coefficient(self, k) -> complex:
        idx = tuple(int(c) + self.M for c in np.atleast_1d(k))
        return complex(self.coeffs[idx])

    def decay_constant(self, J: int = 4) -> float:
        """Fitted C_J with |b(k)| <= C_J (1 + sum|k_i|)^{-J} over stored coeffs."""
        grids = np.meshgrid(*(np.arange(-self.M, self.M + 1),) * (2 * self.n),
                            indexing="ij")
        weight = (1.0 + sum(np.abs(g) for g in grids)) ** J
        return float(np.max(np.abs(self.coeffs) * weight))

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n, "K": self.K, "M": self.M,
            "tail": self.tail,
            "cutoff": {"inner": list(self.cutoff.inner), "outer": list(self.cutoff.radius)},
            "coeffs_re": self.coeffs.real.ravel().tolist(),
            "coeffs_im": self.coeffs.imag.ravel().tolist(),
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CMDecomposition":
        doc = json.loads(text)
        n, M = doc["n"], doc["M"]
        shape = (2 * M + 1,) * (2 * n)
        coeffs = (np.asarray(doc["coeffs_re"]) + 1j * np.asarray(doc["coeffs_im"])).reshape(shape)
        cutoff = make_plateau(n, doc["cutoff"]["inner"], doc["cutoff"]["outer"])
        return cls(n=n, K=doc["K"], M=M, coeffs=coeffs, factors=_svd_factors(coeffs, n),
                   cutoff=cutoff, tail=doc["tail"])


def _svd_factors(coeffs: np.ndarray, n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(side1, side2) terms of the block's (2M+1)^n x (2M+1)^n flattening,
    keeping the singular values above numpy's matrix_rank tolerance."""
    side = coeffs.shape[:n]
    B = coeffs.reshape(int(np.prod(side)), -1)
    U, S, Vh = np.linalg.svd(B)
    tol = S[0] * max(B.shape) * np.finfo(float).eps
    return tuple(((U[:, r] * S[r]).reshape(side), Vh[r].reshape(side))
                 for r in range(int(np.sum(S > tol))))


def default_period(phi: BumpProfile) -> float:
    """K = 2 * (smallest integer >= 2 * max support radius)."""
    return 2.0 * int(np.ceil(2.0 * max(phi.radius)))


def _axis_series(phi: BumpProfile, axis: int, K: float, kmax: int,
                 points: int) -> np.ndarray:
    """Fourier coefficients of one axis factor on [-K/2, K/2), k = -kmax..kmax."""
    u = -K / 2 + K * np.arange(points) / points
    samples = _axis_factor(phi, axis, u)
    F = np.fft.fft(np.fft.ifftshift(samples)) / points
    ks = np.arange(-kmax, kmax + 1)
    return F[ks % points]


def cm_decompose(phi: BumpProfile, K: float | None = None, M: int = 16,
                 points_per_unit: int | None = None) -> CMDecomposition:
    """Fourier coefficients of Phi on KQ x KQ, truncated to |k|_inf <= M.

    The coefficient quadrature runs at ``points_per_unit`` nodes per unit
    length (default max(128, 8*(M+32)/K), well beyond the 4x-working-grid
    rule so that quadrature error sits far below the truncation tail).
    """
    n = phi.d // 2
    if phi.d != 2 * n:
        raise ValueError("Phi must have even dimension 2n")
    if M < 0:
        raise ValueError(f"truncation M must be >= 0, got {M}")
    check_budget((2 * M + 1) ** (2 * n), "coefficient block")
    if K is None:
        K = default_period(phi)
    for j in range(phi.d):
        if abs(phi.center[j]) + phi.radius[j] > K / 4 + 1e-12:
            raise ValueError(
                f"supp Phi must fit in 2^-1 KQ per axis: axis {j} reaches "
                f"{abs(phi.center[j]) + phi.radius[j]} > K/4 = {K / 4}")
    if points_per_unit is None:
        points_per_unit = max(128, int(np.ceil(8 * (M + 32) / K)))
    points = int(points_per_unit * K)
    check_budget(points ** (1 if phi.separable else 2), "quadrature")
    kmax = points // 2 - 1
    if kmax < M:
        raise ValueError("quadrature too coarse for the requested truncation M")

    cutoff = make_plateau(n, inner=K / 4, outer=3 * K / 8)

    if phi.separable:
        axis_c = [_axis_series(phi, j, K, kmax, points) for j in range(phi.d)]
        axis_c[0] = axis_c[0] * phi.amplitude
        sl = slice(kmax - M, kmax + M + 1)
        kept_c = [c[sl] for c in axis_c]
        coeffs = reduce(np.multiply.outer, kept_c)
        sides = tuple(reduce(np.multiply.outer, half) for half in (kept_c[:n], kept_c[n:]))
        total = np.prod([np.sum(np.abs(c)) for c in axis_c])
        kept = np.prod([np.sum(np.abs(c)) for c in kept_c])
        tail = float(max(total - kept, 0.0))
        return CMDecomposition(n=n, K=float(K), M=M, coeffs=coeffs, factors=(sides,),
                               cutoff=cutoff, tail=tail)

    if n != 1:
        raise ValueError("non-separable Phi decomposition is only supported for n = 1")
    u = -K / 2 + K * np.arange(points) / points
    samples = bump_eval_axes(phi, [u[:, None], u[None, :]])
    F = np.fft.fft2(np.fft.ifftshift(samples)) / points**2
    ks = np.arange(-kmax, kmax + 1)
    full = F[np.ix_(ks % points, ks % points)]
    sl = slice(kmax - M, kmax + M + 1)
    coeffs = full[sl, sl]
    tail = float(np.sum(np.abs(full)) - np.sum(np.abs(coeffs)))
    return CMDecomposition(n=1, K=float(K), M=M, coeffs=coeffs, factors=_svd_factors(coeffs, 1),
                           cutoff=cutoff, tail=tail)


def cm_reconstruct(d: CMDecomposition, xi1, xi2):
    """Truncated series sum_k b(k1,k2) e^{2pi i (xi1.k1 + xi2.k2)/K} phi(xi1) phi(xi2).

    xi1, xi2: scalars (n = 1) or length-n points; arrays broadcast pointwise.
    The points' 2n coordinates each give one block of ``_cm_rows``, and the
    coefficient axes are contracted against them one by one, point by point.
    """
    xi1, xi2 = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (xi1, xi2))
    n = d.n
    if n == 1:
        xi1, xi2 = xi1[..., None], xi2[..., None]
    if xi1.shape[-1] != n or xi2.shape[-1] != n:
        raise ValueError(f"points must have {n} components")
    pts = [xi1[..., j] for j in range(n)] + [xi2[..., j] for j in range(n)]
    shape = np.broadcast(*pts).shape
    rows = [_cm_rows(d, ax, np.broadcast_to(p, shape).ravel()) for ax, p in enumerate(pts)]
    series = np.einsum("xk,k...->x...", rows[0], d.coeffs)
    for e in rows[1:]:
        series = np.einsum("xk,xk...->x...", e, series)
    out = series.reshape(shape)
    return complex(out.reshape(-1)[0]) if out.size == 1 else out


def sigma_from_cm(a: LatticeCoefficients, d: CMDecomposition,
                  spec: GridSpec) -> SymbolGrid:
    """Assemble sigma_{a,Phi} through the truncated decomposition.

    Agrees with synth_sigma within the recorded truncation tail times
    ||a||_inf times the translate overlap count.
    """
    if spec.n != d.n:
        raise ValueError("dimension mismatch between decomposition and grid")
    check_symbol_budget(spec)
    xi = spec.axis_xi()
    out = np.zeros((spec.N,) * (2 * spec.n), dtype=complex)
    for (m1, m2), val in a.items():
        out += val * _cm_on_axes(d, [xi - shift for shift in m1 + m2])
    return SymbolGrid(spec, out)


def _cm_rows(d: CMDecomposition, axis: int, u: np.ndarray) -> np.ndarray:
    """The (len(u), 2M+1) rows e^{2pi i k u / K} phi_axis(u) of the truncated
    series at the coordinates ``u`` along coordinate ``axis`` (xi1 axes, then
    xi2 axes; both sides share the cutoff's n axes).  Rows where the cutoff
    vanishes are zero and take no exponentials."""
    ks = np.arange(-d.M, d.M + 1)
    cut = _axis_factor(d.cutoff, axis % d.n, u)
    on = cut != 0
    rows = np.zeros((len(u), len(ks)), dtype=complex)
    rows[on] = np.exp(2j * np.pi * np.outer(u[on], ks) / d.K) * cut[on, None]
    return rows


def _contract(block: np.ndarray, rows: list[np.ndarray]) -> np.ndarray:
    """Contract the k axes of ``block`` one by one against ``rows`` (each of
    shape (points, 2M+1)); axis j of the result runs over the points of rows[j]."""
    for e in rows:
        block = np.tensordot(block, e, axes=([0], [1]))  # rotates axes
    return block


def _cm_on_axes(d: CMDecomposition, axes: list[np.ndarray]) -> np.ndarray:
    """The truncated series of ``d`` times its cutoff on the tensor grid of
    2n per-axis coordinate arrays, shape (len(axes[0]), ..., len(axes[-1])):
    the coefficient block contracted against one block of rows per axis."""
    return _contract(d.coeffs, [_cm_rows(d, ax, u) for ax, u in enumerate(axes)])
