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
gaps.  Operator norms are reported as lower bounds found by seeded multi-start
coordinate ascent on normalized ratios; the theorems' constants are never
asserted, only family-wise ratio stability against a configured bound.

One estimator serves both models, since T_period_a acts on trig polynomials
as S_a acts on their coefficients: S_a is the case whose synthesis is the
identity (the norms see the coefficients), T_period the case whose synthesis
is the torus phases (the norms see trig-polynomial values at torus points).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .bumps import BumpProfile, ThetaPair, Window, bump_eval_axes
from .grid import GridFunction, GridSpec, idft
from .norms import (_power_norm, amalgam_norm, check_exponent, ExponentTuple,
                    lp_norm, lq_seq_norm, wiener_norm)
from .operators import (Sequence, TrigPolynomial, apply_S, apply_T_period,
                        apply_T_sigma, band_project)
from .symbols import LatticeCoefficients, check_symbol_budget, synth_sigma

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
    """Test functions from the proof machinery, with the kernel g attached."""

    f1: GridFunction
    f2: GridFunction
    provenance: str  # "amalgam" | "wiener"
    g: GridFunction
    m: float
    theta: ThetaPair
    F1: TrigPolynomial | None = None
    F2: TrigPolynomial | None = None
    b1: Sequence | None = None
    b2: Sequence | None = None


def _witness_fhat(coeffs: dict, theta: BumpProfile, spec: GridSpec) -> np.ndarray:
    """Samples of sum_nu c(nu) theta(xi - nu) on the frequency grid."""
    out = np.zeros(spec.shape, dtype=complex)
    xi = spec.freq_points()
    for nu, c in coeffs.items():
        out += c * bump_eval_axes(theta, [ax - nu[j] for j, ax in enumerate(xi)])
    return out


def _check_witness_modes(coeffs: dict, theta: BumpProfile, spec: GridSpec) -> None:
    eps = max(theta.radius)
    if eps >= 0.5:
        raise ValueError(f"theta radius {eps} must be < 1/2 (translates must not overlap)")
    for nu in coeffs:
        for j in range(spec.n):
            if abs(nu[j] + theta.center[j % spec.n]) + eps > spec.s / 2:
                raise ValueError(f"mode {nu} pushes the theta ball out of the "
                                 f"frequency box")


def build_amalgam_witness(F1: TrigPolynomial, F2: TrigPolynomial,
                          theta: ThetaPair, spec: GridSpec) -> WitnessPair:
    """f_j = F_j * (inverse transform of theta_j), realized frequency-side."""
    if F1.n != spec.n or F2.n != spec.n:
        raise ValueError("dimension mismatch")
    _check_witness_modes(F1.coeffs, theta.theta1, spec)
    _check_witness_modes(F2.coeffs, theta.theta2, spec)
    f1 = idft(GridFunction(spec, "frequency", _witness_fhat(F1.coeffs, theta.theta1, spec)))
    f2 = idft(GridFunction(spec, "frequency", _witness_fhat(F2.coeffs, theta.theta2, spec)))
    return WitnessPair(f1=f1, f2=f2, provenance="amalgam", g=theta.g, m=theta.m,
                       theta=theta, F1=F1, F2=F2)


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
    _check_witness_modes(b1.entries, theta.theta1, spec)
    _check_witness_modes(b2.entries, theta.theta2, spec)
    f1 = idft(GridFunction(spec, "frequency", _witness_fhat(b1.entries, theta.theta1, spec)))
    f2 = idft(GridFunction(spec, "frequency", _witness_fhat(b2.entries, theta.theta2, spec)))
    return WitnessPair(f1=f1, f2=f2, provenance="wiener", g=theta.g, m=theta.m,
                       theta=theta, b1=b1, b2=b2)


def wiener_witness_norm_identity(w: WitnessPair, j: int, p: float, q: float,
                                 kappa: Window, spec: GridSpec) -> tuple[float, float]:
    """Both sides of the exact witness norm identity
    ||f_j||_{W^{p,q}} = ||b_j||_{l^q} * ||F^{-1} theta_j||_{L^p}."""
    f = w.f1 if j == 1 else w.f2
    b = w.b1 if j == 1 else w.b2
    theta = w.theta.theta1 if j == 1 else w.theta.theta2
    xi0_j = w.theta.xi0[: spec.n] if j == 1 else w.theta.xi0[spec.n:]
    lhs = wiener_norm(f, p, q, kappa, offset=xi0_j)
    theta_samples = _witness_fhat({(0,) * spec.n: 1.0 + 0j}, theta, spec)
    theta_inv = idft(GridFunction(spec, "frequency", theta_samples))
    rhs = lq_seq_norm(b.entries, q) * lp_norm(theta_inv, p)
    return lhs, rhs


# ---------------------------------------------------------------------------
# factorization checks
# ---------------------------------------------------------------------------


@dataclass
class FactorizationCheck:
    residual: float
    lhs_max: float
    rhs_max: float
    domination_margin: float  # min over Q grid points of |lhs| - |T_period|


@dataclass
class WienerFactorizationCheck:
    residual: float
    band_residual: float
    coeff_recovery_rel: float  # worst relative error of recovered S_a(mu)
    lower_bound_gap: float     # ||T||_W - ||S_a(b1,b2)||_q * ||g||_p (>= -tol)


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
    if w.provenance != "amalgam" or w.F1 is None:
        raise ValueError("witness must come from build_amalgam_witness")
    lhs = apply_T_sigma(synth_sigma(a, phi, spec), w.f1, w.f2).samples
    tper = _trig_values(apply_T_period(a, w.F1, w.F2), spec)
    rhs = tper * w.g.samples
    scale = 1.0 + max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    residual = float(np.max(np.abs(lhs - rhs)) / scale)
    qm = _q_mask(spec)
    margin = float(np.min(np.abs(lhs[qm]) - np.abs(tper[qm])))
    return FactorizationCheck(residual=residual, lhs_max=float(np.max(np.abs(lhs))),
                              rhs_max=float(np.max(np.abs(rhs))),
                              domination_margin=margin)


def verify_wiener_factorization(a: LatticeCoefficients, phi: BumpProfile,
                                w: WitnessPair, kappa: Window, spec: GridSpec,
                                p: float = 2.0, q: float = 2.0) -> WienerFactorizationCheck:
    """Full-function identity, per-band collapse, and the norm lower bound.

    Band mu of the output (windows translated to xi0_1 + xi0_2 + mu) must
    equal S_a(b1,b2)(mu) e^{2pi i mu.x} g(x); the recovered coefficients come
    from least squares against that profile.
    """
    if w.provenance != "wiener" or w.b1 is None:
        raise ValueError("witness must come from build_wiener_witness")
    lhs_gf = apply_T_sigma(synth_sigma(a, phi, spec), w.f1, w.f2)
    lhs = lhs_gf.samples
    sab = apply_S(a, w.b1, w.b2)
    rhs = _trig_values(TrigPolynomial(spec.n, sab.entries), spec) * w.g.samples
    scale = 1.0 + max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    residual = float(np.max(np.abs(lhs - rhs)) / scale)

    xi0_sum = np.asarray(w.theta.xi0_sum, dtype=float)
    x_axes = spec.space_points()
    band_res = 0.0
    coeff_rel = 0.0
    gnorm2 = float(np.sum(np.abs(w.g.samples) ** 2))
    for mu, val in sorted(sab.entries.items()):
        phase = 1.0
        for j, ax in enumerate(x_axes):
            phase = phase * np.exp(2j * np.pi * mu[j] * ax)
        profile = phase * w.g.samples
        band = band_project(kappa, mu, lhs_gf, offset=xi0_sum).samples
        expected = val * profile
        sc = 1.0 + np.max(np.abs(expected))
        band_res = max(band_res, float(np.max(np.abs(band - expected)) / sc))
        recovered = complex(np.sum(band * np.conj(profile)) / gnorm2)
        if abs(val) > 0:
            coeff_rel = max(coeff_rel, abs(recovered - val) / abs(val))

    w_norm = wiener_norm(lhs_gf, p, q, kappa, offset=xi0_sum)
    bound = lq_seq_norm(sab.entries, q) * lp_norm(w.g, p)
    gap = float(w_norm - bound)
    return WienerFactorizationCheck(residual=residual, band_residual=band_res,
                                    coeff_recovery_rel=coeff_rel,
                                    lower_bound_gap=gap)


# ---------------------------------------------------------------------------
# operator-norm estimation (lower bounds via seeded search)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchParams:
    """Multi-start coordinate-ascent configuration.

    Start 0 is the all-ones vector on the support projections of a, start 1
    the all-ones vector on the inflated candidate box; remaining starts are
    seeded complex gaussians (seed + start index).  Exactly ``starts`` starts
    run.  Each sweep tries the steps v[i] += step * max|v| * delta,
    delta in (1, -1, i, -i), coordinate by coordinate and accepts, per
    coordinate, the first that raises the ratio by more than a relative
    1e-12; a sweep without an accepted step multiplies ``step`` by ``shrink``
    and the start ends after ``steps`` sweeps or once ``step < min_step``.
    The starts run in lockstep, sweep by sweep: the steps of a vector pass
    are screened together by rank-one updates, for as many starts per call
    as the screen's value budget (max(E_v.size, 2^14) values) holds, and
    only those that may be accepted are scored exactly (see ``_search``).
    Every accepted step, and with it the result, is that of running the
    starts one at a time and scoring each step exactly in turn.

    Invalid values raise ``ValueError``: every field must be finite,
    ``starts`` and ``torus_points`` at least 1, ``steps``, ``random_pool``
    and the margins at least 0, ``0 < shrink < 1``, ``initial_step > 0`` and
    ``min_step > 0``.
    """

    starts: int = 32
    steps: int = 200
    initial_step: float = 0.5
    shrink: float = 0.7
    min_step: float = 1e-9
    seed: int = 42
    mode_margin: int = 1
    support_margin: int = 2
    random_pool: int = 6
    torus_points: int = 256
    stability_bound: float = 10.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"search {f.name} must be finite, got {value}")
        for name, lowest in (("starts", 1), ("torus_points", 1), ("steps", 0),
                             ("random_pool", 0), ("mode_margin", 0), ("support_margin", 0)):
            if getattr(self, name) < lowest:
                raise ValueError(f"search {name} must be >= {lowest}, got {getattr(self, name)}")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError(f"search shrink must lie in (0, 1), got {self.shrink}")
        for name in ("initial_step", "min_step"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"search {name} must be > 0, got {getattr(self, name)}")


@dataclass
class NormEstimate:
    """Lower bound on an operator norm with its maximizing witness."""

    value: float
    witness: dict
    trace: dict = field(default_factory=dict)


def _index_box(points: set[tuple[int, ...]], n: int, margin: int) -> list[tuple[int, ...]]:
    if not points:
        raise ValueError("empty coefficient support")
    lo = [min(p[j] for p in points) - margin for j in range(n)]
    hi = [max(p[j] for p in points) + margin for j in range(n)]
    ranges = [np.arange(lo[j], hi[j] + 1) for j in range(n)]
    grids = np.meshgrid(*ranges, indexing="ij")
    return [tuple(int(c) for c in p) for p in np.stack([g.ravel() for g in grids], axis=-1)]


# Relative slack for the rounding of the norm evaluations themselves (moduli,
# powers, pairwise sums of at most 256^n terms, roots): below 4e-14 over both
# paths for exponents >= 1; for exponents below 1 the per-candidate bound of
# ``_Screen`` is far wider.  That bound covers the rounding of the rank-one
# updates, which near zeros of the values grows without limit when an
# exponent is below 1 (3e-11 relative seen for p = 0.5 on T_period, against
# 7e-15 at most for exponents >= 1).  A wider margin only re-scores more
# near-stagnant candidates: 1e-11 re-scores 2.4 times as many on the
# benchmark's README-sized searches.
SCREEN_MARGIN = 1e-13
_DELTAS = (1.0, -1.0, 1j, -1j)


def _norm_bounds(norm, delta, p, measure):
    """Bounds (lo, hi) on a quasi-norm whose values each differ by at most
    ``delta`` from those that gave ``norm`` (Minkowski for p >= 1, the
    p-triangle inequality below); ``measure`` is the values' total weight."""
    e = delta if math.isinf(p) else delta * measure ** (1.0 / p)
    if p >= 1.0:
        return norm - e, norm + e
    return np.maximum(norm ** p - e ** p, 0.0) ** (1.0 / p), (norm ** p + e ** p) ** (1.0 / p)


class _Screen:
    """Approximate model ratios of every single-coordinate step, for a group
    of starts at once.

    The model ratio is ||(A v1 v2) Eo||_p / (||v1 E1||_p1 ||v2 E2||_p2): ``A``
    is the dense (outs, box1, box2) tensor of the coefficient triples and E1,
    E2, Eo map coefficients to the values the norms see (identity for S_a,
    torus phases for T_period).  While a pass moves vector v the other vector
    is fixed, so the output is linear in v: the step v + t*delta*e_i changes
    the input values by t*delta*E[i] and the output values by t*delta*D[i],
    with D = K^T Eo and K the tensor contracted with the fixed vector.
    ``begin`` sets up D, the fixed vector's norm and the moduli sums below for
    every start of a group; ``bounds`` scores the coordinates asked of each
    start, four deltas each, with one call of the axis-aware ``_power_norm``
    per side.

    A call holds at most ``most`` coordinates, so that no temporary outgrows
    max(E_v.size, 2^14) values (or one coordinate, if that is larger).  A
    group has as many starts as fit whole into one call, at least one.  After
    each accepted step a start asks for ``first`` coordinates (2^14 values, or
    one coordinate), then twice as many on each later call, up to ``most``,
    so that little is scored past its next accepted step.

    Each score comes with an upper bound on the exact ratio.  Both paths sum
    products whose moduli add up to at most (||v||_1 + t) on the input side,
    ||other||_1 for the fixed vector and sum |A| |v1| |v2| on the output side
    (|E| = 1), so each value differs between the paths by at most ``gain``
    times that; ``_norm_bounds`` turns this into bounds on the norms, and
    SCREEN_MARGIN covers the rest.
    """

    def __init__(self, triples, E1, E2, Eo, exponents, weight):
        A = np.zeros((Eo.shape[0], E1.shape[0], E2.shape[0]), dtype=complex)
        for oi, a1, a2, av in triples:  # (out, i1, i2, value)
            A[oi, a1, a2] += av
        # per moving vector: A with axes (moving, out, fixed), and sum_out |A|
        self.Av = (A.transpose(1, 0, 2), A.transpose(2, 0, 1))
        self.Sv = tuple(np.abs(Av).sum(axis=1) for Av in self.Av)
        self.E, self.Eo = (E1, E2), Eo
        self.exponents, self.weight = exponents, weight
        self.deltas = np.array(_DELTAS)
        # two paths, complex arithmetic, one term per chained product
        self.gain = 4 * np.finfo(float).eps * (np.count_nonzero(A) + sum(A.shape) + 4)
        self.first, self.most, self.group = [], [], []
        for E in self.E:
            width = 4 * max(E.shape[1], Eo.shape[1])  # values per coordinate
            first = max(1, (1 << 14) // width)
            most = max(first, E.size // width)
            self.first.append(first)
            self.most.append(most)
            self.group.append(max(1, most // E.shape[0]))

    def begin(self, others: np.ndarray, vi: int) -> None:
        """Fix the other vector of each start of a group (the rows of
        ``others``) for a pass over vector ``vi``."""
        Kt = (self.Av[vi] @ others.T).transpose(2, 0, 1)  # (starts, len(v), outs)
        self.D = Kt @ self.Eo
        self.Ev, self.p = self.E[vi], self.exponents[vi]
        E, p = self.E[1 - vi], self.exponents[1 - vi]
        absO = np.abs(others)
        self.n_other = _power_norm(others @ E, p, self.weight, axis=-1)
        self.other_lo = _norm_bounds(self.n_other, self.gain * absO.sum(axis=1), p,
                                     self.weight * E.shape[1])[0]
        self.kabs = absO @ self.Sv[vi].T  # (starts, len(v))

    def bounds(self, V: np.ndarray, t: np.ndarray, i0: np.ndarray, i1: np.ndarray):
        """Start and coordinate of each row, and the scores and upper bounds,
        of shape (rows, 4), of the steps of length ``t[k]`` of start k of the
        group (moving vector ``V[k]``) at its coordinates i0[k], ..., i1[k] - 1,
        start by start."""
        counts = i1 - i0
        ks = np.repeat(np.arange(len(V)), counts)
        cs = np.arange(ks.size) + np.repeat(i0 - (np.cumsum(counts) - counts), counts)
        y, yo = V @ self.Ev, (V[:, None, :] @ self.D)[:, 0]
        absV = np.abs(V)
        d_in = self.gain * (absV.sum(axis=1) + t)
        d_out = self.gain * ((absV * self.kabs).sum(axis=1)[ks] + t[ks] * self.kabs[ks, cs])
        steps = (t[ks, None] * self.deltas)[:, :, None]

        def stepped_norms(base, rows, p):  # one (rows, 4, values) temporary
            vals = steps * rows[:, None, :]
            vals += base[ks, None, :]
            return _power_norm(vals, p, self.weight, axis=-1)

        n_in = stepped_norms(y, self.Ev[cs], self.p)
        n_out = stepped_norms(yo, self.D[ks, cs], self.exponents[2])
        den = n_in * self.n_other[ks, None]
        scores = np.divide(n_out, den, out=np.zeros_like(n_out), where=den > 0)
        in_lo = _norm_bounds(n_in, d_in[ks, None], self.p, self.weight * self.Ev.shape[1])[0]
        out_hi = _norm_bounds(n_out, d_out[:, None], self.exponents[2],
                              self.weight * self.D.shape[2])[1]
        den = in_lo * self.other_lo[ks, None] * (1.0 - SCREEN_MARGIN)
        return ks, cs, scores, np.divide(out_hi, den, out=np.full(den.shape, np.inf),
                                         where=den > 0)


class _Run:
    """One start of the search: its vectors, best ratio, history and step."""

    def __init__(self, vecs: list[np.ndarray], best: float, step: float):
        self.vecs, self.best, self.history, self.step = vecs, best, [best], step
        self.improved = False


def _vector_pass(ratio_fn, screen: _Screen, group: list[_Run], vi: int) -> None:
    """One pass over vector ``vi`` of every start in ``group``: each round
    screens the next coordinates of every start still walking its pass in one
    ``screen.bounds`` call, then each start confirms its own candidates in
    (coordinate, delta) order; an accepted step ends the start's round."""
    screen.begin(np.array([run.vecs[1 - vi] for run in group]), vi)
    size, first, most = len(group[0].vecs[vi]), screen.first[vi], screen.most[vi]
    ts = [run.step * max(float(np.max(np.abs(run.vecs[vi]))), 1e-12) for run in group]
    i0 = np.zeros(len(group), dtype=int)
    block = np.full(len(group), first)
    while np.any(i0 < size):
        i1 = np.minimum(i0 + block, size)
        ks, cs, _scores, upper = screen.bounds(np.array([run.vecs[vi] for run in group]),
                                               np.array(ts), i0, i1)
        i0, block = i1, np.minimum(2 * block, most)
        threshold = np.array([run.best for run in group]) * (1.0 + 1e-12)
        moved = set()
        for j in np.flatnonzero(~(upper <= threshold[ks, None])):  # NaN bounds too
            r, d = divmod(int(j), len(_DELTAS))
            k, i = int(ks[r]), int(cs[r])
            if k in moved:
                continue
            run = group[k]
            cand = run.vecs[vi].copy()
            cand.flat[i] += ts[k] * _DELTAS[d]
            vecs = run.vecs[:vi] + [cand] + run.vecs[vi + 1:]
            val = ratio_fn(vecs)
            if val > run.best * (1.0 + 1e-12):
                run.vecs, run.best, run.improved = vecs, val, True
                i0[k], block[k] = i + 1, first
                moved.add(k)


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


def _search(ratio_fn, screen: _Screen, box1, box2, supp1, supp2, params: SearchParams):
    """Greedy first-improvement coordinate ascent on ``ratio_fn`` from each of
    the ``_starts``; returns (ratio, peak-normalised vectors, history) of the
    best start (the first of equals).

    Each start's search is defined one candidate at a time: in the order
    (vector, coordinate, delta), the step v[i] += step * max|v| * delta is
    accepted when its exact ratio beats best * (1 + 1e-12), and the pass goes
    on with the next coordinate.  The starts run in lockstep instead, sweep by
    sweep and vector pass by vector pass, in groups that share the screen's
    set-up and calls (``_vector_pass``); a start leaves once its step falls
    below ``min_step``.  The screen only chooses which candidates are scored
    exactly: a skipped candidate's exact ratio lies below its start's
    threshold, so that search would have rejected it too.  Accepted steps,
    histories and vectors are those of running the starts one at a time, bit
    for bit.
    """
    runs = [_Run(vecs, ratio_fn(vecs), params.initial_step)
            for vecs in _starts(box1, box2, supp1, supp2, params)]
    live = runs
    for _ in range(params.steps):
        if not live:
            break
        for run in live:
            run.improved = False
        for vi in range(2):
            g = screen.group[vi]
            for k in range(0, len(live), g):
                _vector_pass(ratio_fn, screen, live[k:k + g], vi)
        for run in live:
            run.history.append(run.best)
            if not run.improved:
                run.step *= params.shrink
        live = [run for run in live if run.improved or run.step >= params.min_step]
    win = max(runs, key=lambda run: run.best)
    # renormalize the stored witness for a well-scaled record
    peak = max(float(np.max(np.abs(np.concatenate([v.ravel() for v in win.vecs])))), 1e-300)
    return win.best, [v / peak for v in win.vecs], win.history


def _estimate_model(a: LatticeCoefficients, exponents, margin: int, pairs, synthesis,
                    weight: float, family: str, keys: tuple[str, str],
                    params: SearchParams) -> NormEstimate:
    """Lower bound on the norm of a model operator of ``a``: the largest
    ratio ||(A v1 v2) Eo||_p / (||v1 E1||_p1 ||v2 E2||_p2) the search finds.

    The coefficient vectors v1, v2 live on the support boxes of a widened by
    ``margin``, the output on the sums m1 + m2 of ``pairs(box1, box2)``;
    ``synthesis(modes)`` maps coefficients on ``modes`` to the values a norm
    sees, each value of weight ``weight``.  The search runs on a / sup|a|,
    so scaling a scales the estimate exactly.  The witness holds the nonzero
    entries of the best vectors under ``keys``.
    """
    p1, p2, p = (check_exponent(x) for x in exponents)
    if len(a) == 0:
        raise ValueError("empty coefficient array")
    anorm = a.sup_norm()
    supp1 = {m1 for (m1, _m2) in a.entries}
    supp2 = {m2 for (_m1, m2) in a.entries}
    box1 = _index_box(supp1, a.n, margin)
    box2 = _index_box(supp2, a.n, margin)
    i1 = {m: i for i, m in enumerate(box1)}
    i2 = {m: i for i, m in enumerate(box2)}
    outs = sorted({tuple(x + y for x, y in zip(m1, m2)) for m1, m2 in pairs(box1, box2)})
    io = {m: i for i, m in enumerate(outs)}
    triples = [(io[tuple(x + y for x, y in zip(m1, m2))], i1[m1], i2[m2], v / anorm)
               for (m1, m2), v in a.entries.items()]
    E1, E2, Eo = synthesis(box1), synthesis(box2), synthesis(outs)

    def ratio(vecs) -> float:
        v1, v2 = vecs
        n1 = _power_norm(v1 @ E1, p1, weight)
        n2 = _power_norm(v2 @ E2, p2, weight)
        if n1 == 0.0 or n2 == 0.0:
            return 0.0
        out = np.zeros(len(outs), dtype=complex)
        for oi, a1, a2, av in triples:
            out[oi] += av * v1[a1] * v2[a2]
        return _power_norm(out @ Eo, p, weight) / (n1 * n2)

    screen = _Screen(triples, E1, E2, Eo, (p1, p2, p), weight)
    val, vecs, hist = _search(ratio, screen, box1, box2, supp1, supp2, params)
    witness = {key: {str(m): [v[i].real, v[i].imag] for m, i in index.items() if abs(v[i]) > 0}
               for key, v, index in zip(keys, vecs, (i1, i2))}
    return NormEstimate(value=anorm * val, witness=witness,
                        trace={"seed": params.seed, "iterations": len(hist),
                               "history": [anorm * h for h in hist],
                               "family": family, "exponents": [p1, p2, p],
                               "vectors": vecs, "boxes": [box1, box2]})


def estimate_norm_S(a: LatticeCoefficients, q1: float, q2: float, q: float,
                    params: SearchParams | None = None) -> NormEstimate:
    """Lower bound on the sequence-model norm l^q1 x l^q2 -> l^q: the model
    estimator with the identity as synthesis, outputs on the sums a reaches."""
    params = params or SearchParams()
    return _estimate_model(a, (q1, q2, q), margin=params.support_margin,
                           pairs=lambda _box1, _box2: a.entries,
                           synthesis=lambda modes: np.eye(len(modes), dtype=complex),
                           weight=1.0, family="S", keys=("b1", "b2"), params=params)


def estimate_norm_T_period(a: LatticeCoefficients, p1: float, p2: float, p: float,
                           params: SearchParams | None = None) -> NormEstimate:
    """Lower bound on the periodic-model norm L^p1 x L^p2 -> L^p: the model
    estimator with exact trig-polynomial values at the torus_points^n torus
    points as synthesis, outputs on every sum of the two mode boxes."""
    params = params or SearchParams()
    P = params.torus_points
    u = np.arange(P) / P
    pts = np.stack([g.ravel() for g in np.meshgrid(*(u,) * a.n, indexing="ij")], axis=-1)

    def phase_matrix(modes):
        dots = pts @ np.asarray(modes, dtype=float).T  # (P^n, len(modes))
        phases = np.multiply(2j * np.pi, dots, out=np.empty(dots.shape, dtype=complex))
        del dots  # one complex buffer at the peak, not three arrays
        return np.exp(phases, out=phases).T  # (modes, P^n)

    return _estimate_model(a, (p1, p2, p), margin=params.mode_margin, pairs=itertools.product,
                           synthesis=phase_matrix, weight=float(P) ** (-a.n),
                           family="T_period", keys=("F1", "F2"), params=params)


def estimate_norm_T_aPhi(a: LatticeCoefficients, phi: BumpProfile,
                         exponents: ExponentTuple, space: str,
                         theta: ThetaPair, spec: GridSpec,
                         kappa: Window | None = None,
                         params: SearchParams | None = None,
                         model_estimate: NormEstimate | None = None) -> NormEstimate:
    """Lower bound on the continuum operator norm in the chosen space.

    Candidate pools: (i) proof witnesses built from the model search's best
    coefficients (plus deterministic indicator candidates), (ii) random
    band-limited inputs.  Returns the best ratio, tagged with the winning
    pool.  Norm conventions: amalgam ratios use the (L^p, l^q) grid norms;
    Wiener ratios use windows translated to the witness frequencies.
    """
    params = params or SearchParams()
    if space not in ("amalgam", "wiener"):
        raise ValueError("space must be 'amalgam' or 'wiener'")
    if space == "wiener" and kappa is None:
        raise ValueError("wiener estimation needs a window")
    if len(a) == 0:
        return NormEstimate(value=0.0, witness={}, trace={"family": "T_aPhi",
                                                          "pool": "empty"})
    sigma = synth_sigma(a, phi, spec)
    n = spec.n
    ex = exponents
    xi0 = np.asarray(theta.xi0, dtype=float)

    def op_ratio(f1: GridFunction, f2: GridFunction) -> float:
        out = apply_T_sigma(sigma, f1, f2)
        if space == "amalgam":
            n1 = amalgam_norm(f1, ex.p1, ex.q1)
            n2 = amalgam_norm(f2, ex.p2, ex.q2)
            no = amalgam_norm(out, ex.p, ex.q)
        else:
            n1 = wiener_norm(f1, ex.p1, ex.q1, kappa, offset=xi0[:n])
            n2 = wiener_norm(f2, ex.p2, ex.q2, kappa, offset=xi0[n:])
            no = wiener_norm(out, ex.p, ex.q, kappa, offset=xi0[:n] + xi0[n:])
        if n1 == 0.0 or n2 == 0.0:
            return 0.0
        return no / (n1 * n2)

    supp1 = {m1 for (m1, _m2) in a.entries}
    supp2 = {m2 for (_m1, m2) in a.entries}
    candidates: list[tuple[str, dict, dict]] = []
    ind1 = {m: 1.0 + 0j for m in supp1}
    ind2 = {m: 1.0 + 0j for m in supp2}
    candidates.append(("witness-indicator", ind1, ind2))
    if model_estimate is not None and "vectors" in model_estimate.trace:
        v1, v2 = model_estimate.trace["vectors"]
        b1, b2 = model_estimate.trace["boxes"]
        candidates.append(("witness-model",
                           {m: complex(v1[i]) for i, m in enumerate(b1) if abs(v1[i]) > 0},
                           {m: complex(v2[i]) for i, m in enumerate(b2) if abs(v2[i]) > 0}))
    rng = np.random.default_rng(params.seed)
    box1 = _index_box(supp1, n, 1)
    box2 = _index_box(supp2, n, 1)
    for _ in range(2):
        c1 = {m: complex(rng.standard_normal(), rng.standard_normal()) for m in box1}
        c2 = {m: complex(rng.standard_normal(), rng.standard_normal()) for m in box2}
        candidates.append(("witness-random", c1, c2))

    best = NormEstimate(value=-1.0, witness={}, trace={})
    for tag, c1, c2 in candidates:
        if space == "amalgam":
            w = build_amalgam_witness(TrigPolynomial(n, c1), TrigPolynomial(n, c2),
                                      theta, spec)
        else:
            w = build_wiener_witness(Sequence(n, c1), Sequence(n, c2), theta,
                                     spec, kappa)
        val = op_ratio(w.f1, w.f2)
        if val > best.value:
            best = NormEstimate(
                value=val,
                witness={"pool": tag,
                         "c1": {str(m): [v.real, v.imag] for m, v in c1.items()},
                         "c2": {str(m): [v.real, v.imag] for m, v in c2.items()}},
                trace={"family": "T_aPhi", "space": space, "pool": tag,
                       "seed": params.seed})

    # pool (ii): random band-limited functions
    mask = np.ones(spec.shape, dtype=bool)
    for xi in spec.freq_points():
        mask &= np.abs(xi) < spec.s / 4
    for k in range(params.random_pool):
        rng_k = np.random.default_rng(params.seed + 1000 + k)
        fs = []
        for _ in range(2):
            Fh = np.zeros(spec.shape, dtype=complex)
            vals = rng_k.standard_normal(int(mask.sum())) + 1j * rng_k.standard_normal(int(mask.sum()))
            Fh[mask] = vals
            fs.append(idft(GridFunction(spec, "frequency", Fh)))
        val = op_ratio(fs[0], fs[1])
        if val > best.value:
            best = NormEstimate(value=val,
                                witness={"pool": "random-band-limited", "draw": k},
                                trace={"family": "T_aPhi", "space": space,
                                       "pool": "random-band-limited",
                                       "seed": params.seed + 1000 + k})
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
        return {
            "space": self.space,
            "exponents": [self.exponents.p1, self.exponents.p2, self.exponents.p,
                          self.exponents.q1, self.exponents.q2, self.exponents.q],
            "stability_bound": self.stability_bound,
            "rows": self.rows,
            "ratio_min": self.ratio_min,
            "ratio_max": self.ratio_max,
            "ratio_spread": self.ratio_spread,
            "all_finite": self.all_finite,
            "stable": self.stable,
        }

    def csv_rows(self) -> list[list]:
        out = [["index", "operator_norm", "model_norm", "ratio", "winning_pool"]]
        for i, r in enumerate(self.rows):
            out.append([i, r["operator_norm"], r["model_norm"], r["ratio"], r["pool"]])
        return out


def transference_report(a_family: list[LatticeCoefficients], phi: BumpProfile,
                        exponents: ExponentTuple, space: str, theta: ThetaPair,
                        spec: GridSpec, kappa: Window | None = None,
                        params: SearchParams | None = None) -> TransferenceReport:
    """Estimated-norm ratio table over a coefficient family.

    Rejects exponent tuples outside the transference hypothesis with the
    necessity citation; otherwise estimates both sides per family member and
    summarizes ratio stability against the configured bound.
    """
    params = params or SearchParams()
    if space == "amalgam":
        if not exponents.amalgam_hypothesis():
            raise ExponentHypothesisError(
                f"exponents q=({exponents.q1}, {exponents.q2}, {exponents.q}) "
                f"violate 1/q <= 1/q1 + 1/q2", AMALGAM_CITATION)
    elif space == "wiener":
        if not exponents.wiener_hypothesis():
            raise ExponentHypothesisError(
                f"exponents p=({exponents.p1}, {exponents.p2}, {exponents.p}) "
                f"violate 1/p <= 1/p1 + 1/p2", WIENER_CITATION)
    else:
        raise ValueError("space must be 'amalgam' or 'wiener'")
    check_symbol_budget(spec)  # before the model searches, not at the first symbol

    rows = []
    for a in a_family:
        if space == "amalgam":
            model = estimate_norm_T_period(a, exponents.p1, exponents.p2,
                                           exponents.p, params)
        else:
            model = estimate_norm_S(a, exponents.q1, exponents.q2, exponents.q, params)
        op = estimate_norm_T_aPhi(a, phi, exponents, space, theta, spec,
                                  kappa=kappa, params=params, model_estimate=model)
        ratio = op.value / model.value if model.value > 0 else math.inf
        rows.append({"operator_norm": op.value, "model_norm": model.value,
                     "ratio": ratio, "pool": op.trace.get("pool", ""),
                     "coefficients": {str(k): [v.real, v.imag]
                                      for k, v in a.entries.items()},
                     "operator_witness": op.witness,
                     "model_witness": model.witness})
    ratios = [r["ratio"] for r in rows]
    finite = all(math.isfinite(r) and r > 0 for r in ratios)
    rmin, rmax = (min(ratios), max(ratios)) if ratios else (math.nan, math.nan)
    spread = rmax / rmin if finite and rmin > 0 else math.inf
    return TransferenceReport(space=space, exponents=exponents,
                              stability_bound=params.stability_bound, rows=rows,
                              ratio_min=rmin, ratio_max=rmax, ratio_spread=spread,
                              all_finite=finite,
                              stable=finite and spread <= params.stability_bound)
