"""Witness constructions, factorization checks, and operator-norm estimation.

The two factorization identities verified here connect the continuum bilinear
operator to its periodic and sequence models through witnesses built from a
condition-(B) point:

* amalgam:  T_{a,Phi}(f1, f2)(x) = T_period_a(F1, F2)(x) * g(x), where
  fhat_j = sum_nu Fhat_j(nu) theta_j(. - nu) and g is the theta-pair kernel;
* Wiener:   T_{a,Phi}(f1, f2)(x) = sum_{mu1,mu2} a b1 b2 e^{2pi i x.(mu1+mu2)}
  g(x), whose band projections collapse to S_a(b1, b2)(mu) e^{2pi i mu.x} g(x).

Both sides are computed by independent code paths over the same frequency
Riemann rule (the symbol path never forms g; the model path never forms the
symbol), so the residuals isolate implementation errors rather than quadrature
gaps.  The witness spectra are written translate by translate on their
support slabs (``grid._translate_sum``).  The symbol path evaluates sigma at
the support pairs of the witnesses' exact spectra only, never on the N^(2n)
grid, so n = 2 runs on working grids.
Wiener norms read those exact spectra, and the output's grouped spectrum,
directly: no Wiener path runs a forward transform, and the Wiener estimate
runs no inverse transform of the output either.  A witness's space samples
f1, f2 are made on first read, which no Wiener estimate does; at all-2 each
Wiener norm is a weighted l^2 of its spectrum (``norms._wiener_l2``), so an
all-2 Wiener estimate runs no inverse transform at all.
Operator norms are reported as lower bounds found by a seeded multi-start
search on normalized ratios; the theorems' constants are never asserted, only
family-wise ratio stability against a configured bound.

One function (``_estimate_model``) makes both models from the family and the
exponents, since T_period_a acts on trig polynomials as S_a acts on their
coefficients: the norms of S_a see the coefficients through the identity
synthesis, and those of T_period the trig-polynomial values at torus points.
At all-2 exponents the two are one l^2 x l^2 -> l^2 bilinear form
(Parseval), so T_period gets the S_a model and no torus (its torus is 0),
and the search alternates exact block steps: with one vector fixed the ratio
is a matrix spectral norm, maximised by a top singular vector (De Lathauwer,
De Moor and Vandewalle, SIAM J. Matrix Anal. Appl. 21, 2000), with periodic
Aitken jumps past its slow linear convergence.  At any other exponents a
greedy coordinate ascent scores the steps of a batch of starts in one
vectorised pass per coordinate.  ``_Model.ratios`` holds the model
arithmetic: both engines score their starts with it, and the search
normalises each engine's vectors, scores them with it and keeps the first
best, one rule for both.  Exact norms are NP-hard in general (Hendrickx and
Olshevsky, SIAM J. Matrix Anal. Appl. 31, 2010), so both report lower
bounds.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import cached_property

import numpy as np

from .bumps import BumpProfile, ThetaPair, Window, _bump_translates
from .grid import GridFunction, GridSpec, _embed, check_budget, idft
from .norms import (_pooled_band_norm, _power_norm, amalgam_norm, check_exponent,
                    ExponentTuple, lp_norm, lq_seq_norm, wiener_band_values, wiener_norm)
from .operators import Sequence, TrigPolynomial, _grouped_sum, apply_S, apply_T_period
from .symbols import LatticeCoefficients, _check_supports, sigma_eval

__all__ = [
    "ExponentHypothesisError",
    "WitnessPair",
    "NormEstimate",
    "SearchParams",
    "FactorizationCheck",
    "WienerFactorizationCheck",
    "TransferenceReport",
    "AMALGAM_CITATION",
    "WIENER_CITATION",
    "build_amalgam_witness",
    "verify_amalgam_factorization",
    "build_wiener_witness",
    "wiener_witness_norm_identity",
    "verify_wiener_factorization",
    "estimate_norm_S",
    "estimate_norm_T_period",
    "estimate_norm_T_aPhi",
    "transference_report",
]

AMALGAM_CITATION = (
    "amalgam exponent necessity: a nontrivial bounded bilinear multiplier on "
    "(L^p1,l^q1) x (L^p2,l^q2) -> (L^p,l^q) requires 1/q <= 1/q1 + 1/q2; "
    "scaling families certify this (scalinglab.necessity_verdict, amalgam)")
WIENER_CITATION = (
    "Wiener amalgam exponent necessity: a nontrivial bounded bilinear "
    "multiplier on W^{p1,q1} x W^{p2,q2} -> W^{p,q} requires "
    "1/p <= 1/p1 + 1/p2; scaling families certify this "
    "(scalinglab.necessity_verdict, wiener)")


class ExponentHypothesisError(ValueError):
    """Exponent tuple violates the transference hypothesis."""

    def __init__(self, message: str, citation: str):
        super().__init__(f"{message}  [{citation}]")
        self.citation = citation


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


@dataclass
class WitnessPair:
    """Test functions from the proof machinery with their theta pair (kernel g);
    F1, F2 are set on an amalgam witness, b1, b2 on a Wiener one.  The space
    samples f1, f2 are the idft of the exact spectra, made on first read: the
    Wiener norms read the spectra only."""

    fhat1: GridFunction
    fhat2: GridFunction
    theta: ThetaPair
    F1: TrigPolynomial | None = None
    F2: TrigPolynomial | None = None
    b1: Sequence | None = None
    b2: Sequence | None = None

    @cached_property
    def f1(self) -> GridFunction:
        return idft(self.fhat1)

    @cached_property
    def f2(self) -> GridFunction:
        return idft(self.fhat2)


def _witness(c1: dict, c2: dict, theta: ThetaPair, spec: GridSpec, **models) -> WitnessPair:
    """fhat_j = sum_nu c_j(nu) theta_j(. - nu); f_j = idft(fhat_j) on first read."""
    fhat = []
    for coeffs, t in ((c1, theta.theta1), (c2, theta.theta2)):
        eps = max(t.radius)
        if eps >= 0.5:
            raise ValueError(f"theta radius {eps} must be < 1/2 (translates must not overlap)")
        for nu in coeffs:
            if any(abs(nu[j] + t.center[j]) + eps > spec.s / 2 for j in range(spec.n)):
                raise ValueError(f"mode {nu} pushes the theta ball out of the frequency box")
        fhat.append(GridFunction(spec, "frequency",
                                 _embed(_bump_translates(t, coeffs.items(), spec), spec.shape)))
    return WitnessPair(fhat1=fhat[0], fhat2=fhat[1], theta=theta, **models)


def build_amalgam_witness(F1: TrigPolynomial, F2: TrigPolynomial,
                          theta: ThetaPair, spec: GridSpec) -> WitnessPair:
    """f_j = F_j * (inverse transform of theta_j), realized frequency-side."""
    if F1.n != spec.n or F2.n != spec.n:
        raise ValueError("dimension mismatch")
    return _witness(F1.coeffs, F2.coeffs, theta, spec, F1=F1, F2=F2)


def build_wiener_witness(b1: Sequence, b2: Sequence, theta: ThetaPair,
                         spec: GridSpec, kappa: Window) -> WitnessPair:
    """fhat_j = sum_nu b_j(nu) theta_j(. - nu), with the window compatibility
    check: the band dichotomy needs kappa == 1 on the closed 2*eps ball and
    vanishing nonzero translates there, i.e. plateau radius >= 2*eps."""
    if b1.n != spec.n or b2.n != spec.n:
        raise ValueError("dimension mismatch")
    if kappa.plateau_radius < 2 * theta.eps - 1e-12:
        raise ValueError(
            f"window plateau {kappa.plateau_radius} is smaller than 2*eps = "
            f"{2 * theta.eps}; band projections would leak across bands")
    return _witness(b1.entries, b2.entries, theta, spec, b1=b1, b2=b2)


def wiener_witness_norm_identity(w: WitnessPair, j: int, p: float, q: float,
                                 kappa: Window, spec: GridSpec) -> tuple[float, float]:
    """Both sides of the exact witness norm identity
    ||f_j||_{W^{p,q}} = ||b_j||_{l^q} * ||F^{-1} theta_j||_{L^p}."""
    fhat, b, theta = ((w.fhat1, w.b1, w.theta.theta1) if j == 1
                      else (w.fhat2, w.b2, w.theta.theta2))
    xi0_j = w.theta.xi0[: spec.n] if j == 1 else w.theta.xi0[spec.n:]
    lhs = wiener_norm(fhat, p, q, kappa, offset=xi0_j)
    theta_samples = _embed(_bump_translates(theta, [((0,) * spec.n, 1.0 + 0j)], spec), spec.shape)
    theta_inv = idft(GridFunction(spec, "frequency", theta_samples))
    rhs = lq_seq_norm(b.entries, q) * lp_norm(theta_inv, p)
    return lhs, rhs


# ---------------------------------------------------------------------------
# factorization checks
# ---------------------------------------------------------------------------


@dataclass
class FactorizationCheck:
    residual: float
    domination_margin: float  # min over Q grid points of |lhs| - |T_period|


@dataclass
class WienerFactorizationCheck:
    residual: float
    band_residual: float
    coeff_recovery_rel: float  # worst relative error of recovered S_a(mu)
    lower_bound_gap: float     # ||T||_W - ||S_a(b1,b2)||_q * ||g||_p (>= -tol)


def _T_aPhi_witness(a: LatticeCoefficients, phi: BumpProfile, w: WitnessPair,
                    spec: GridSpec) -> GridFunction:
    """The spectrum of T_{a,Phi}(f1, f2) of a witness (T is its ``idft``):
    the grouped sum over the support pairs of its exact spectra, with sigma
    evaluated at those pairs only."""
    _check_supports(a, phi, spec)
    if w.fhat1.spec != spec:
        raise ValueError("grid spec mismatch")
    xi = spec.axis_xi()
    return _grouped_sum(lambda idx: sigma_eval(a, phi, [xi[i] for i in idx]),
                        w.fhat1.samples, w.fhat2.samples, spec)


def _trig_values(tp: TrigPolynomial, spec: GridSpec) -> np.ndarray:
    return np.asarray(tp.evaluate(*spec.space_points()), dtype=complex)


def _q_mask(spec: GridSpec) -> np.ndarray:
    mask = np.ones(spec.shape, dtype=bool)
    for x in spec.space_points():
        mask &= (x > -0.5) & (x <= 0.5)
    return mask


def verify_amalgam_factorization(a: LatticeCoefficients, phi: BumpProfile,
                                 w: WitnessPair, spec: GridSpec) -> FactorizationCheck:
    """Compare T_{a,Phi}(f1,f2) against T_period_a(F1,F2) * g on the grid.

    The left side runs through the symbol and the grouped double sum; the
    right side runs through coefficient-space convolution and the theta-pair
    kernel.  The identity is exact in the continuum; the residual reflects
    the implementation (and is at roundoff level when both sides share the
    grid's frequency rule).
    """
    if w.F1 is None:
        raise ValueError("witness must come from build_amalgam_witness")
    lhs = idft(_T_aPhi_witness(a, phi, w, spec)).samples
    tper = _trig_values(apply_T_period(a, w.F1, w.F2), spec)
    rhs = tper * w.theta.g.samples
    scale = 1.0 + max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    residual = float(np.max(np.abs(lhs - rhs)) / scale)
    qm = _q_mask(spec)
    margin = float(np.min(np.abs(lhs[qm]) - np.abs(tper[qm])))
    return FactorizationCheck(residual=residual, domination_margin=margin)


def verify_wiener_factorization(a: LatticeCoefficients, phi: BumpProfile,
                                w: WitnessPair, kappa: Window,
                                spec: GridSpec) -> WienerFactorizationCheck:
    """Full-function identity, per-band collapse, and the W^{2,2} norm lower bound.

    Band mu of the output (windows translated to xi0_1 + xi0_2 + mu) must
    equal S_a(b1,b2)(mu) e^{2pi i mu.x} g(x); the recovered coefficients come
    from least squares against that profile.  The bands are those of the
    stack the Wiener norm pools; a mode outside its covering set has a zero
    band.
    """
    if w.b1 is None:
        raise ValueError("witness must come from build_wiener_witness")
    lhs_hat = _T_aPhi_witness(a, phi, w, spec)
    lhs = idft(lhs_hat).samples
    sab = apply_S(a, w.b1, w.b2)
    g = w.theta.g
    rhs = _trig_values(TrigPolynomial(spec.n, sab.entries), spec) * g.samples
    scale = 1.0 + max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    residual = float(np.max(np.abs(lhs - rhs)) / scale)

    bands, stack = wiener_band_values(lhs_hat, kappa, offset=np.asarray(w.theta.xi0_sum, float))
    position = {mu: i for i, mu in enumerate(bands)}
    band_res = 0.0
    coeff_rel = 0.0
    gnorm2 = float(np.sum(np.abs(g.samples) ** 2))
    for mu, val in sorted(sab.entries.items()):
        profile = _trig_values(TrigPolynomial(spec.n, {mu: 1.0}), spec) * g.samples
        band = stack[position[mu]] if mu in position else np.zeros(spec.shape, complex)
        expected = val * profile
        sc = 1.0 + np.max(np.abs(expected))
        band_res = max(band_res, float(np.max(np.abs(band - expected)) / sc))
        recovered = complex(np.sum(band * np.conj(profile)) / gnorm2)
        if abs(val) > 0:
            coeff_rel = max(coeff_rel, abs(recovered - val) / abs(val))

    bound = lq_seq_norm(sab.entries, 2.0) * lp_norm(g, 2.0)
    gap = float(_pooled_band_norm(stack, spec, 2.0, 2.0) - bound)
    return WienerFactorizationCheck(residual=residual, band_residual=band_res,
                                    coeff_recovery_rel=coeff_rel,
                                    lower_bound_gap=gap)


# ---------------------------------------------------------------------------
# operator-norm estimation (lower bounds via seeded search)
# ---------------------------------------------------------------------------


# Step schedule of the coordinate ascent: the first step, relative to the
# largest coefficient of the moving vector; the factor a sweep without an
# accepted step multiplies it by; and the step below which a start ends.
INITIAL_STEP = 0.5
SHRINK = 0.7
MIN_STEP = 1e-9
# Index boxes of the model searches: the support box of a widened by this
# many modes per side, for S_a and for T_period.
SUPPORT_MARGIN = 2
MODE_MARGIN = 1
# Values a batch of starts may hold in a vector pass: per start, D (moving
# coordinates x output values) and four stepped copies of the input and output
# values.  That is every start of a README-sized search, one at n = 2 and 256
# torus points.
BATCH_VALUES = 1 << 21
_DELTAS = np.array([1.0, -1.0, 1j, -1j])
# Sweeps an all-2 start runs at most (``_align``).  Starts run to their fixed
# point, a sweep raising the ratio by at most a relative GAIN.  The plain
# alternation converges linearly, and slowly (thousands of sweeps) near a
# degenerate maximum, so every EXTRAPOLATE-th sweep is an Aitken jump along
# the last step, at most 1 / (1 - MAX_RATE) steps long.
MAX_SWEEPS = 4096
GAIN = 1e-15
EXTRAPOLATE = 5
MAX_RATE = 0.999


@dataclass(frozen=True)
class SearchParams:
    """Multi-start model-search configuration.

    Start 0 is the all-ones vector on the support projections of a, start 1
    the all-ones vector on the inflated candidate box; remaining starts are
    seeded complex gaussians (seed + start index).  Exactly ``starts`` starts
    run, in lockstep, in batches that BATCH_VALUES bounds (see ``_search``),
    so memory does not grow with ``starts``.

    At all-2 exponents each start runs the exact alternating engine
    (``_align``) to its fixed point, at most MAX_SWEEPS sweeps; ``steps``
    does not apply.  At any other exponents each sweep of the greedy ascent
    tries the steps v[i] += step * max|v| * delta, delta in (1, -1, i, -i),
    coordinate by coordinate and accepts, per coordinate, the first that
    raises the ratio by more than a relative 1e-12; the step starts at
    INITIAL_STEP, a sweep without an accepted step multiplies it by SHRINK,
    and the start ends after ``steps`` sweeps or once the step falls below
    MIN_STEP.  ``torus_points`` per axis sample the T_period norms (not at
    all-2 exponents, where Parseval makes the torus needless);
    ``stability_bound`` bounds the ratio spread of a ``transference_report``
    family.

    Invalid values raise ``ValueError``: every field must be a finite real
    number (a bool, Python's or numpy's, is not one, so a report never records
    ``true``), ``starts``, ``steps``, ``seed`` and ``torus_points`` integers
    (an integral float is read as its integer), ``starts``, ``torus_points``
    and ``stability_bound`` (a max/min spread is never below 1) at least 1
    and ``steps`` and ``seed`` at least 0.
    """

    starts: int = 32
    steps: int = 200
    seed: int = 42
    torus_points: int = 256
    stability_bound: float = 10.0

    def __post_init__(self):
        counts = ("starts", "steps", "seed", "torus_points")
        for f in fields(self):
            value = getattr(self, f.name)
            # a bool count is named below, as a non-integer
            if (not isinstance(value, (numbers.Real, np.bool_)) or not math.isfinite(value)
                    or isinstance(value, (bool, np.bool_)) and f.name not in counts):
                raise ValueError(f"search {f.name} must be a finite number, got {value!r}")
        for name in counts:
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not float(value).is_integer():
                raise ValueError(f"search {name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name, lowest in (("starts", 1), ("torus_points", 1), ("steps", 0), ("seed", 0),
                             ("stability_bound", 1)):
            if getattr(self, name) < lowest:
                raise ValueError(f"search {name} must be >= {lowest}, got {getattr(self, name)}")


@dataclass
class NormEstimate:
    """Lower bound on an operator norm with its maximizing witness."""

    value: float
    witness: dict
    trace: dict = field(default_factory=dict)


def _index_box(points: set[tuple[int, ...]], n: int, margin: int) -> list[tuple[int, ...]]:
    if not points:
        raise ValueError("empty coefficient support")
    return list(itertools.product(*(range(min(p[j] for p in points) - margin,
                                          max(p[j] for p in points) + margin + 1)
                                    for j in range(n))))


@dataclass
class _Model:
    """The model ratio ||(A v1 v2) Eo||_p / (||v1 E1||_p1 ||v2 E2||_p2).

    A holds ``coef[t]`` at (i1, i2, output) = ``index[:, t]``, and ``sizes``
    are (len(v1), len(v2), outputs).  E = (E1, E2, Eo) are the matrices that
    map coefficients to the values the norms see, each of weight ``weight``:
    the identity for S_a (and for T_period at all-2 exponents), torus phases
    for T_period.  ``ratios`` is the one direct evaluation of the ratio: it
    scores the starts, and ``_search`` picks its winner by it.
    """

    index: np.ndarray
    coef: np.ndarray
    sizes: tuple[int, int, int]
    E: tuple
    exponents: tuple[float, float, float]
    weight: float

    def values(self, V: np.ndarray, side: int) -> np.ndarray:
        """The values side ``side`` sees, row by row (no row's bits depend on another)."""
        return (V[:, None, :] @ self.E[side])[:, 0]

    def ratios(self, V1: np.ndarray, V2: np.ndarray) -> np.ndarray:
        """The ratio of each row pair of ``V1`` and ``V2``, row by row: A
        contracted with the row of V2, then with the row of V1 (0 where an
        input norm is 0)."""
        (i1, i2, io), (m1, _m2, n_out) = self.index, self.sizes
        out = (V1[:, None, :] @ _contract(self.coef, i1, i2, io, V2, m1, n_out))[:, 0]
        n1, n2, num = (_power_norm(self.values(X, side), p, self.weight, axis=-1)
                       for side, (X, p) in enumerate(zip((V1, V2, out), self.exponents)))
        den = n1 * n2
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0)

    def batch(self) -> int:
        """Starts per batch: as many as BATCH_VALUES holds, and at least one."""
        *n_in, n_out = (E.shape[1] for E in self.E)
        per_start = max(m * n_out + 4 * (n + n_out) for m, n in zip(self.sizes, n_in))
        return max(1, BATCH_VALUES // per_start)


def _contract(coef: np.ndarray, i_v: np.ndarray, i_other: np.ndarray, io: np.ndarray,
              other: np.ndarray, m: int, n_out: int) -> np.ndarray:
    """A contracted with each row of ``other``: (rows, m, n_out), entry t of
    A at (i_v[t], i_other[t], io[t]).  Row by row, so no row's bits depend on
    another."""
    rows = len(other)
    w = (coef * other[:, i_other]).ravel()
    flat = ((np.arange(rows)[:, None] * m + i_v) * n_out + io).ravel()
    return (np.bincount(flat, w.real, rows * m * n_out)
            + 1j * np.bincount(flat, w.imag, rows * m * n_out)).reshape(rows, m, n_out)


def _vector_pass(model: _Model, V: np.ndarray, other: np.ndarray, t: np.ndarray,
                 best: np.ndarray, vi: int) -> np.ndarray:
    """One pass over vector ``vi`` of a batch of starts (rows of ``V``; it
    and ``best`` move in place) with steps of length ``t``; returns which
    starts accepted a step.  With the other vector fixed the step
    v + t*delta*e_i moves y = v E_v by t*delta*E_v[i] and yo = v D by
    t*delta*D[i], D being A contracted with the fixed vector, times Eo.  Per
    coordinate one ``_power_norm`` call per side scores the four steps of
    every start; each accepts the first that beats its best by 1e-12.
    """
    rows, m, n_out = len(V), model.sizes[vi], model.sizes[2]
    D = _contract(model.coef, *model.index[[vi, 1 - vi, 2]], other, m, n_out) @ model.E[2]
    E, (p_in, p_other, p_out) = model.E[vi], (model.exponents[k] for k in (vi, 1 - vi, 2))
    y, yo = model.values(V, vi), (V[:, None, :] @ D)[:, 0]
    n_other = _power_norm(model.values(other, 1 - vi), p_other, model.weight, axis=-1)[:, None]
    steps = t[:, None] * _DELTAS
    improved = np.zeros(rows, dtype=bool)
    for i in range(m):
        vin = steps[:, :, None] * E[i]
        vin += y[:, None, :]
        vout = steps[:, :, None] * D[:, i, None, :]
        vout += yo[:, None, :]
        den = _power_norm(vin, p_in, model.weight, axis=-1) * n_other
        num = _power_norm(vout, p_out, model.weight, axis=-1)
        scores = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        take = scores > best[:, None] * (1.0 + 1e-12)
        ks = np.flatnonzero(take.any(axis=1))
        ds = take[ks].argmax(axis=1)  # the first delta that wins
        V[ks, i] += steps[ks, ds]
        y[ks], yo[ks], best[ks] = vin[ks, ds], vout[ks, ds], scores[ks, ds]
        improved[ks] = True
    return improved


def _starts(box1, box2, supp1, supp2, params: SearchParams):
    """Exactly ``params.starts`` starts: the support indicators, the all-ones
    vectors, then seeded random vectors."""
    ind1 = np.array([1.0 + 0j if m in supp1 else 0.0 for m in box1])
    ind2 = np.array([1.0 + 0j if m in supp2 else 0.0 for m in box2])
    yield [ind1, ind2]
    if params.starts > 1:
        yield [np.ones(len(box1), complex), np.ones(len(box2), complex)]
    for k in range(params.starts - 2):
        rng = np.random.default_rng(params.seed + k)
        v1 = rng.standard_normal(len(box1)) + 1j * rng.standard_normal(len(box1))
        v2 = rng.standard_normal(len(box2)) + 1j * rng.standard_normal(len(box2))
        yield [v1, v2]


def _ascend(model: _Model, starts: list, steps: int):
    """(vectors, histories, capped) of a batch of ``starts`` after at most
    ``steps`` sweeps in lockstep: the two vectors of every start as rows, its
    best score per sweep, and whether it was still running when the sweeps
    ran out."""
    V = [np.array([vecs[vi] for vecs in starts]) for vi in range(2)]
    best = model.ratios(*V)
    history, step = [[b] for b in best], np.full(len(starts), INITIAL_STEP)
    live = np.arange(len(starts))
    for _ in range(steps):
        if not live.size:
            break
        improved = np.zeros(live.size, dtype=bool)
        for vi in range(2):
            moving, b = V[vi][live], best[live]
            t = step[live] * np.maximum(np.abs(moving).max(axis=1), 1e-12)
            improved |= _vector_pass(model, moving, V[1 - vi][live], t, b, vi)
            V[vi][live], best[live] = moving, b
        for k in live:
            history[k].append(best[k])
        step[live[~improved]] *= SHRINK
        live = live[improved | (step[live] >= MIN_STEP)]
    return V, history, np.isin(np.arange(len(starts)), live)


def _top_vectors(model: _Model, keep: tuple, local: tuple, other: np.ndarray, vi: int):
    """Per row of ``other`` (vector 1 - vi on its kept coordinates), the best
    vector vi on the kept coordinates and the ratio it reaches times the
    row's norm: the top right singular vector and singular value of M, A
    contracted with the row.  ``keep[j]`` are the coordinates of side j that
    A touches, ``local[j]`` the entries' positions among them.  The top
    right singular vector of M is the conjugate of the top eigenvector of
    M^T conj(M), whose eigenvalue is the squared singular value; one stacked
    ``eigh`` of these small Gram matrices serves every row, each on its own
    (it costs under half a stacked SVD)."""
    D = _contract(model.coef, local[vi], local[1 - vi], local[2], other,
                  len(keep[vi]), len(keep[2]))
    lam, u = np.linalg.eigh(D @ D.conj().transpose(0, 2, 1))
    return u[:, :, -1].conj(), np.sqrt(np.maximum(lam[:, -1], 0.0))


def _align(model: _Model, starts: list):
    """(vectors, histories, capped) of the runs of a batch of ``starts``
    under the exact all-2 engine: the two vectors of every run as rows, its
    best ratio per sweep, and whether it was still rising after MAX_SWEEPS
    sweeps.

    With v2 fixed the ratio is ||M v1|| / (||v1|| ||v2||), M being A
    contracted with v2, so the best v1 is M's top right singular vector, and
    likewise for v2.  Each start runs twice, as given and after a first v2
    step (rows 2k and 2k + 1), and every run alternates a v1 step and a v2
    step per sweep, all runs in lockstep.  A run leaves once a plain sweep
    raises its ratio by at most a relative GAIN, keeping the vectors it had.

    The plain sweeps converge linearly, at the rate r of the map v2 -> v2.
    So every EXTRAPOLATE-th sweep starts instead from v2 + r / (1 - r) d,
    d the last v2 step and r (at most MAX_RATE) the ratio of the last two
    step lengths, the limit of a geometric sequence of steps; a run takes
    the result only if it raises its ratio, and a jump never ends a run.
    Each v2 is phase-aligned with the one before it, so the steps see no
    phase of the eigensolver.  The steps work on the coordinates the entries
    of a touch, so the vectors vanish elsewhere.
    """
    keep, local = zip(*(np.unique(ix, return_inverse=True) for ix in model.index))
    V = [np.repeat(np.array([vecs[vi] for vecs in starts]), 2, axis=0) for vi in range(2)]
    best = model.ratios(*V)  # each start's own ratio, for both its runs
    V[1][1::2] = 0.0
    V[1][1::2, keep[1]] = _top_vectors(model, keep, local, V[0][1::2][:, keep[0]], 1)[0]
    history, live = [[b] for b in best], np.arange(len(best))
    steps = np.zeros((2, len(best), len(keep[1])), complex)  # each run's last two v2 steps
    for sweep in range(MAX_SWEEPS):
        if not live.size:
            break
        x2 = V[1][live][:, keep[1]]
        jump = sweep % EXTRAPOLATE == EXTRAPOLATE - 1
        if jump:
            last, before = (_power_norm(steps[k, live], 2.0, axis=-1) for k in (1, 0))
            rate = np.minimum(np.divide(last, before, out=np.full_like(last, MAX_RATE),
                                        where=before > 0), MAX_RATE)
            x2 = x2 + (rate / (1.0 - rate))[:, None] * steps[1, live]
        v1 = _top_vectors(model, keep, local, x2, 0)[0]
        v2, s = _top_vectors(model, keep, local, v1, 1)
        phase = (x2.conj() * v2).sum(axis=1)
        v2 *= np.divide(phase.conj(), np.abs(phase), out=np.ones_like(phase),
                        where=phase != 0)[:, None]
        up = s > best[live] * (1.0 if jump else 1.0 + GAIN)
        moved = live[up]
        if not jump:
            steps[:, moved] = steps[1, moved], v2[up] - x2[up]
        for Vi, v, ki in zip(V, (v1, v2), keep):
            Vi[moved] = 0.0
            Vi[np.ix_(moved, ki)] = v[up]
        best[moved] = s[up]
        for k in live:
            history[k].append(best[k])
        if not jump:
            live = moved
    return V, history, np.isin(np.arange(len(best)), live)


def _search(model: _Model, box1, box2, supp1, supp2, params: SearchParams):
    """The model search from each of the ``_starts``; returns (ratio,
    vectors, history, engine, capped) of the best start (the first of
    equals).

    At all-2 exponents the engine is ``alternating`` (``_align``), elsewhere
    ``greedy``: first-improvement coordinate ascent (``_ascend``), vector
    pass by vector pass (``_vector_pass``), where a start leaves once a sweep
    without an accepted step takes its step below MIN_STEP.  The starts come
    in consecutive batches of ``model.batch()``, so at most that many are
    alive at once, and a batch runs in lockstep.  One rule picks the winner
    of either engine: each returned vector is divided by its entry of
    largest modulus, which becomes exactly 1 (a zero vector stays zero), the
    batch is scored with ``model.ratios``, and the first best is kept, with
    that ratio.  The history holds the scores the engine ranks its steps by;
    ``capped`` says whether the best start hit its sweep cap.  Every product
    runs row by row, so no start's bits depend on its batch.
    """
    starts = _starts(box1, box2, supp1, supp2, params)
    batches = iter(lambda: list(itertools.islice(starts, model.batch())), [])
    alternating = model.exponents == (2.0, 2.0, 2.0)
    best = (-1.0,)
    for batch in batches:
        V, histories, capped = (_align(model, batch) if alternating
                                else _ascend(model, batch, params.steps))
        for Vi in V:
            peak = np.abs(Vi).argmax(axis=1)
            top = Vi[np.arange(len(Vi)), peak]
            nz = np.flatnonzero(top)
            Vi[nz] /= top[nz, None]
            Vi[nz, peak[nz]] = 1.0
        ratios = model.ratios(*V)
        k = int(np.argmax(ratios))
        if ratios[k] > best[0]:
            best = (float(ratios[k]), [V[0][k], V[1][k]], histories[k], bool(capped[k]))
    ratio, vecs, history, capped = best
    return ratio, vecs, history, "alternating" if alternating else "greedy", capped


def _estimate_model(a: LatticeCoefficients, exponents, family: str,
                    params: SearchParams) -> NormEstimate:
    """Lower bound on the norm of the model operator ``family`` (``S`` or
    ``T_period``) of ``a``: the largest ratio of its ``_Model`` that the
    search finds.

    The norms see the coefficients (the identity synthesis) for S_a, and
    for T_period at all-2 exponents (Parseval): v1, v2 live on the support
    boxes of a widened by SUPPORT_MARGIN, the output on the sums a reaches.
    Otherwise the torus is P = torus_points per axis, and the norms see the
    trig-polynomial values at its P^n points: v1, v2 live on boxes widened
    by MODE_MARGIN, the output on every sum of the two.  The search runs on
    a / sup|a|, so scaling a scales the estimate exactly (an a with
    sup|a| = 0 is refused).  The witness holds the nonzero entries of the
    best vectors under b1, b2 (S) or F1, F2 (T_period).
    """
    exponents = tuple(check_exponent(x) for x in exponents)
    anorm = a.sup_norm()
    if anorm == 0:
        raise ValueError("coefficient array has no nonzero entry (sup|a| = 0)")
    P = 0 if family == "S" or exponents == (2.0, 2.0, 2.0) else params.torus_points
    supp1, supp2 = ({pair[k] for pair in a.entries} for k in (0, 1))
    box1, box2 = (_index_box(supp, a.n, MODE_MARGIN if P else SUPPORT_MARGIN)
                  for supp in (supp1, supp2))
    i1, i2 = ({m: i for i, m in enumerate(box)} for box in (box1, box2))
    sums = itertools.product(box1, box2) if P else a.entries
    outs = sorted({tuple(x + y for x, y in zip(m1, m2)) for m1, m2 in sums})
    io = {m: i for i, m in enumerate(outs)}
    triples = np.array([(i1[m1], i2[m2], io[tuple(x + y for x, y in zip(m1, m2))])
                        for m1, m2 in a.entries]).T
    if P:  # e^{2 pi i m.k/P} at the torus point k/P is roots[m.k mod P], an exact index
        roots = np.exp(2j * np.pi * np.arange(P) / P)
        pts = np.indices((P,) * a.n).reshape(a.n, -1)
    E = []
    for modes in (box1, box2, outs):
        if P:
            check_budget(len(modes) * P ** a.n, "torus phase matrix")
            k = np.asarray(modes) @ pts  # (len(modes), P^n)
        E.append(roots[np.remainder(k, P, out=k)] if P else np.eye(len(modes), dtype=complex))
    model = _Model(index=triples, coef=np.array([v / anorm for v in a.entries.values()]),
                   sizes=(len(box1), len(box2), len(outs)), E=tuple(E),
                   exponents=exponents, weight=float(P) ** (-a.n) if P else 1.0)
    val, vecs, hist, engine, capped = _search(model, box1, box2, supp1, supp2, params)
    keys = ("b1", "b2") if family == "S" else ("F1", "F2")
    witness = {key: {str(m): [v[i].real, v[i].imag] for m, i in index.items() if abs(v[i]) > 0}
               for key, v, index in zip(keys, vecs, (i1, i2))}
    return NormEstimate(value=anorm * val, witness=witness,
                        trace={"seed": params.seed, "iterations": len(hist),
                               "history": [anorm * h for h in hist],
                               "family": family, "exponents": list(exponents),
                               "engine": engine, "capped": capped,
                               "vectors": vecs, "boxes": [box1, box2]})


def estimate_norm_S(a: LatticeCoefficients, q1: float, q2: float, q: float,
                    params: SearchParams | None = None) -> NormEstimate:
    """Lower bound on the sequence-model norm l^q1 x l^q2 -> l^q."""
    return _estimate_model(a, (q1, q2, q), "S", params or SearchParams())


def estimate_norm_T_period(a: LatticeCoefficients, p1: float, p2: float, p: float,
                           params: SearchParams | None = None) -> NormEstimate:
    """Lower bound on the periodic-model norm L^p1 x L^p2 -> L^p (the model
    estimator with the T_period synthesis).

    ``torus_points`` below the width w1 + w2 - 1 of the output mode box along
    some axis is refused, since a nonzero trig polynomial on those modes can
    then vanish at every torus point; so are the torus and each phase matrix
    over budget, before that matrix is built.  At all-2 exponents the
    estimate is the S_a model's, value for value, and no torus or phase
    matrix is built.
    """
    params = params or SearchParams()
    P = params.torus_points
    if len(a):
        spread = np.ptp(np.array([m1 + m2 for m1, m2 in a.entries]), axis=0)
        width = int(np.max(spread[:a.n] + spread[a.n:])) + 1 + 4 * MODE_MARGIN
        if P < width:
            raise ValueError(f"torus_points {P} is below the width {width} of the output mode "
                             f"box: a trig polynomial can vanish at every torus point")
    check_budget(P ** a.n, "torus")
    return _estimate_model(a, (p1, p2, p), "T_period", params)


def estimate_norm_T_aPhi(a: LatticeCoefficients, phi: BumpProfile,
                         exponents: ExponentTuple, space: str,
                         theta: ThetaPair, spec: GridSpec,
                         kappa: Window | None = None,
                         model_estimate: NormEstimate | None = None) -> NormEstimate:
    """Lower bound on the continuum operator norm in the chosen space.

    The candidates are proof witnesses built from the theta pair (amalgam or
    Wiener, by ``space``): first the one on the support indicators of a, then,
    when ``model_estimate`` is given, the one on the model search's best
    coefficients.  Returns the best ratio (the first of equals), tagged with
    its pool, ``witness-indicator`` or ``witness-model``.  Norm conventions:
    amalgam ratios use the (L^p, l^q) grid norms; Wiener ratios use windows
    translated to the witness frequencies.  An a with sup|a| = 0 is refused,
    as by the model estimators.
    """
    if space not in ("amalgam", "wiener"):
        raise ValueError("space must be 'amalgam' or 'wiener'")
    if space == "wiener" and kappa is None:
        raise ValueError("wiener estimation needs a window")
    if a.sup_norm() == 0:
        raise ValueError("coefficient array has no nonzero entry (sup|a| = 0)")
    n, ex, xi0 = spec.n, exponents, np.asarray(theta.xi0, dtype=float)

    candidates = [("witness-indicator",
                   dict.fromkeys({m1 for (m1, _m2) in a.entries}, 1.0 + 0j),
                   dict.fromkeys({m2 for (_m1, m2) in a.entries}, 1.0 + 0j))]
    if model_estimate is not None and "vectors" in model_estimate.trace:
        v1, v2 = model_estimate.trace["vectors"]
        b1, b2 = model_estimate.trace["boxes"]
        candidates.append(("witness-model",
                           {m: complex(v1[i]) for i, m in enumerate(b1) if abs(v1[i]) > 0},
                           {m: complex(v2[i]) for i, m in enumerate(b2) if abs(v2[i]) > 0}))
    best = NormEstimate(value=-1.0, witness={}, trace={})
    for tag, c1, c2 in candidates:
        if space == "amalgam":
            w = build_amalgam_witness(TrigPolynomial(n, c1), TrigPolynomial(n, c2), theta, spec)
            n1, n2 = amalgam_norm(w.f1, ex.p1, ex.q1), amalgam_norm(w.f2, ex.p2, ex.q2)
            no = amalgam_norm(idft(_T_aPhi_witness(a, phi, w, spec)), ex.p, ex.q)
        else:
            w = build_wiener_witness(Sequence(n, c1), Sequence(n, c2), theta, spec, kappa)
            n1 = wiener_norm(w.fhat1, ex.p1, ex.q1, kappa, offset=xi0[:n])
            n2 = wiener_norm(w.fhat2, ex.p2, ex.q2, kappa, offset=xi0[n:])
            no = wiener_norm(_T_aPhi_witness(a, phi, w, spec), ex.p, ex.q, kappa,
                             offset=xi0[:n] + xi0[n:])
        val = 0.0 if n1 == 0.0 or n2 == 0.0 else no / (n1 * n2)
        if val > best.value:
            best = NormEstimate(
                value=val,
                witness={"pool": tag,
                         "c1": {str(m): [v.real, v.imag] for m, v in c1.items()},
                         "c2": {str(m): [v.real, v.imag] for m, v in c2.items()}},
                trace={"family": "T_aPhi", "space": space, "pool": tag})
    return best


# ---------------------------------------------------------------------------
# family report
# ---------------------------------------------------------------------------


@dataclass
class TransferenceReport:
    space: str
    exponents: ExponentTuple
    stability_bound: float
    rows: list[dict]
    ratio_min: float
    ratio_max: float
    ratio_spread: float  # max / min
    all_finite: bool
    stable: bool

    def to_json_dict(self) -> dict:
        return {**asdict(self), "exponents": list(astuple(self.exponents))}

    def csv_rows(self) -> list[list]:
        return [["index", "operator_norm", "model_norm", "ratio", "winning_pool"]] + [
            [i, r["operator_norm"], r["model_norm"], r["ratio"], r["pool"]]
            for i, r in enumerate(self.rows)]


def transference_report(a_family: list[LatticeCoefficients], phi: BumpProfile,
                        exponents: ExponentTuple, space: str, theta: ThetaPair,
                        spec: GridSpec, kappa: Window | None = None,
                        params: SearchParams | None = None) -> TransferenceReport:
    """Estimated-norm ratio table over a coefficient family.

    Rejects an empty family, and exponent tuples outside the transference
    hypothesis with the necessity citation; otherwise estimates both sides per family member and
    summarizes ratio stability against the configured bound.
    """
    params = params or SearchParams()
    if not a_family:
        raise ValueError("empty coefficient family")
    if space not in ("amalgam", "wiener"):
        raise ValueError("space must be 'amalgam' or 'wiener'")
    if space == "amalgam" and not exponents.amalgam_hypothesis():
        raise ExponentHypothesisError(
            f"exponents q=({exponents.q1}, {exponents.q2}, {exponents.q}) "
            f"violate 1/q <= 1/q1 + 1/q2", AMALGAM_CITATION)
    if space == "wiener" and not exponents.wiener_hypothesis():
        raise ExponentHypothesisError(
            f"exponents p=({exponents.p1}, {exponents.p2}, {exponents.p}) "
            f"violate 1/p <= 1/p1 + 1/p2", WIENER_CITATION)

    rows = []
    for a in a_family:
        model = (estimate_norm_T_period(a, exponents.p1, exponents.p2, exponents.p, params)
                 if space == "amalgam" else
                 estimate_norm_S(a, exponents.q1, exponents.q2, exponents.q, params))
        op = estimate_norm_T_aPhi(a, phi, exponents, space, theta, spec,
                                  kappa=kappa, model_estimate=model)
        ratio = op.value / model.value if model.value > 0 else math.inf
        rows.append({"operator_norm": op.value, "model_norm": model.value,
                     "ratio": ratio, "pool": op.trace.get("pool", ""),
                     "coefficients": {str(k): [v.real, v.imag]
                                      for k, v in a.entries.items()},
                     "operator_witness": op.witness,
                     "model_witness": model.witness})
    ratios = [r["ratio"] for r in rows]
    finite = all(math.isfinite(r) and r > 0 for r in ratios)
    rmin, rmax = min(ratios), max(ratios)
    spread = rmax / rmin if finite and rmin > 0 else math.inf
    return TransferenceReport(space=space, exponents=exponents,
                              stability_bound=params.stability_bound, rows=rows,
                              ratio_min=rmin, ratio_max=rmax, ratio_spread=spread,
                              all_finite=finite,
                              stable=finite and spread <= params.stability_bound)
