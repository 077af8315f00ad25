import itertools
import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from latticebump.bumps import (bump_eval_axes, check_condition_B, make_bump, make_theta_pair,
                               make_window)
from latticebump.cli import main
from latticebump.grid import BudgetError, dft, make_grid
from latticebump.norms import amalgam_norm, lp_norm, lp_norm_torus, lq_seq_norm, \
    wiener_norm, ExponentTuple
from latticebump.operators import (Sequence, TrigPolynomial, apply_S, apply_T_period,
                                   apply_T_sigma, sequence_from_dict, trig_poly_from_dict)
from latticebump.symbols import (lattice_delta, lattice_from_dict,
                                 random_lattice_coefficients, synth_sigma)
from latticebump import operators, symbols, transference
from latticebump.transference import (AMALGAM_CITATION, SCREEN_MARGIN,
                                      ExponentHypothesisError,
                                      SearchParams, _starts, build_amalgam_witness,
                                      build_wiener_witness, estimate_norm_S,
                                      estimate_norm_T_aPhi,
                                      estimate_norm_T_period,
                                      transference_report,
                                      verify_amalgam_factorization,
                                      verify_wiener_factorization,
                                      wiener_witness_norm_identity)

LIGHT = SearchParams(starts=6, steps=40)


def _random_trig(rng, modes=(-1, 0, 1)):
    return trig_poly_from_dict(1, {m: complex(*rng.standard_normal(2)) for m in modes})


def _random_seq(rng, modes):
    return sequence_from_dict(1, {m: complex(*rng.standard_normal(2)) for m in modes})


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def test_amalgam_witness_single_mode_is_theta_inverse(spec, theta):
    one = trig_poly_from_dict(1, {0: 1.0})
    w = build_amalgam_witness(one, one, theta, spec)
    from latticebump.grid import freq_function, idft
    from latticebump.bumps import bump_eval_axes
    ref = idft(freq_function(spec, lambda xi: bump_eval_axes(theta.theta1, [xi])))
    assert np.max(np.abs(w.f1.samples - ref.samples)) <= 1e-12 * np.max(np.abs(ref.samples))


def test_amalgam_witness_spectrum_confined(spec, theta, rng):
    F1, F2 = _random_trig(rng), _random_trig(rng)
    w = build_amalgam_witness(F1, F2, theta, spec)
    F = dft(w.f1).samples
    xi = spec.axis_xi()
    allowed = np.zeros(spec.shape, dtype=bool)
    for nu in F1.coeffs:
        allowed |= np.abs(xi - nu[0] - theta.xi0[0]) <= theta.eps
    outside = np.sum(np.abs(F[~allowed]) ** 2)
    assert outside <= 1e-10 * np.sum(np.abs(F) ** 2)


def test_amalgam_witness_norm_constant_reported(spec, theta, rng):
    # fitted constant of ||f_j||_(p,q) <= c ||F_j||_{L^p(T)} over a family
    ratios = []
    for _ in range(5):
        F = _random_trig(rng)
        w = build_amalgam_witness(F, F, theta, spec)
        ratios.append(amalgam_norm(w.f1, 2.0, 2.0) / lp_norm_torus(F, 2.0))
    c = max(ratios)
    assert math.isfinite(c) and c > 0
    print(f"\namalgam witness norm constant over family: c = {c:.4f}")


def test_amalgam_witness_rejects_wide_theta(spec, phi04):
    # a theta radius >= 1/2 would let translates overlap
    with pytest.raises(ValueError):
        make_theta_pair(phi04, (0.0, 0.0), 0.5, spec)


def test_amalgam_factorization_delta_identity(spec, phi04, theta):
    one = trig_poly_from_dict(1, {0: 1.0})
    w = build_amalgam_witness(one, one, theta, spec)
    chk = verify_amalgam_factorization(lattice_delta(1), phi04, w, spec)
    assert chk.residual <= 1e-8
    assert chk.domination_margin >= 0.0


def test_amalgam_factorization_random_fixtures(spec, phi04, theta, rng):
    for seed in range(4):
        a = random_lattice_coefficients(1, 1, 9, seed=40 + seed)
        w = build_amalgam_witness(_random_trig(rng), _random_trig(rng), theta, spec)
        chk = verify_amalgam_factorization(a, phi04, w, spec)
        assert chk.residual <= 1e-6
        assert chk.domination_margin >= 0.0


def test_wiener_witness_delta_and_identity(spec, theta, kappa):
    d0 = sequence_from_dict(1, {0: 1.0})
    w = build_wiener_witness(d0, d0, theta, spec, kappa)
    lhs, rhs = wiener_witness_norm_identity(w, 1, 2.0, 2.0, kappa, spec)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_wiener_witness_norm_identity_random(spec, theta, kappa, rng):
    b1 = _random_seq(rng, (-1, 0, 1, 2))
    b2 = _random_seq(rng, (0, 1))
    w = build_wiener_witness(b1, b2, theta, spec, kappa)
    for j in (1, 2):
        lhs, rhs = wiener_witness_norm_identity(w, j, 2.0, 1.0, kappa, spec)
        assert abs(lhs - rhs) <= 1e-6 * rhs


def test_wiener_witness_band_projections(spec, theta, kappa, rng):
    from latticebump.operators import band_project
    from latticebump.grid import freq_function, idft
    from latticebump.bumps import bump_eval_axes
    b1 = _random_seq(rng, (-1, 0, 2))
    b2 = sequence_from_dict(1, {0: 1.0})
    w = build_wiener_witness(b1, b2, theta, spec, kappa)
    theta_inv = idft(freq_function(
        spec, lambda xi: bump_eval_axes(theta.theta1, [xi]))).samples
    x = spec.axis_x()
    for mu, val in b1.entries.items():
        proj = band_project(kappa, mu, w.f1, offset=np.asarray(theta.xi0[:1])).samples
        expected = val * np.exp(2j * np.pi * mu[0] * x) * theta_inv
        assert np.max(np.abs(proj - expected)) <= 1e-8 * (1 + np.max(np.abs(expected)))


def test_wiener_witness_rejects_incompatible_window(spec, phi04, theta):
    tight = make_window(1, 0.9)  # plateau 0.1 < 2 eps = 0.3
    d0 = sequence_from_dict(1, {0: 1.0})
    with pytest.raises(ValueError):
        build_wiener_witness(d0, d0, theta, spec, tight)


def test_wiener_factorization_delta(spec, phi04, theta, kappa):
    d0 = sequence_from_dict(1, {0: 1.0})
    w = build_wiener_witness(d0, d0, theta, spec, kappa)
    chk = verify_wiener_factorization(lattice_delta(1), phi04, w, kappa, spec)
    assert chk.residual <= 1e-8
    assert chk.band_residual <= 1e-8
    assert chk.coeff_recovery_rel <= 1e-8


def test_wiener_factorization_random(spec, phi04, theta, kappa, rng):
    a = random_lattice_coefficients(1, 1, 9, seed=50)
    b1 = _random_seq(rng, (-1, 0, 1))
    b2 = _random_seq(rng, (0, 1))
    w = build_wiener_witness(b1, b2, theta, spec, kappa)
    chk = verify_wiener_factorization(a, phi04, w, kappa, spec)
    assert chk.residual <= 1e-6
    assert chk.band_residual <= 1e-6
    assert chk.coeff_recovery_rel <= 1e-6
    assert chk.lower_bound_gap >= -1e-10


def test_wiener_lower_bound_with_q_restriction(spec, phi04, theta, kappa, rng):
    # ||T||_W >= ||S_a(b1,b2)||_q * min(1, ||g||_{L^p(Q)})
    a = random_lattice_coefficients(1, 1, 6, seed=51)
    b1 = _random_seq(rng, (-1, 0))
    b2 = _random_seq(rng, (0, 1))
    w = build_wiener_witness(b1, b2, theta, spec, kappa)
    out = apply_T_sigma(synth_sigma(a, phi04, spec), w.f1, w.f2)
    p = q = 2.0
    wn = wiener_norm(out, p, q, kappa, offset=np.asarray(theta.xi0_sum))
    sab = apply_S(a, b1, b2)
    g_q = lp_norm(w.g, p, region=((-0.5,), (0.5,)))
    assert wn >= lq_seq_norm(sab.entries, q) * min(1.0, g_q) * (1 - 1e-10)


# ---------------------------------------------------------------------------
# norm estimation
# ---------------------------------------------------------------------------


def test_estimate_S_delta_is_one():
    est = estimate_norm_S(lattice_delta(1), 2.0, 2.0, 2.0, LIGHT)
    assert est.value == 1.0


def test_estimate_S_young_l1():
    a = lattice_from_dict(1, {((i,), (j,)): 1.0 for i in range(3) for j in range(3)})
    est = estimate_norm_S(a, 1.0, 1.0, 1.0, LIGHT)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_estimate_S_sup_case_matches_brute_force():
    a = lattice_from_dict(1, {((i,), (j,)): 1.0 for i in range(3) for j in range(3)})
    est = estimate_norm_S(a, math.inf, math.inf, math.inf, LIGHT)
    assert est.value == pytest.approx(3.0, abs=1e-9)
    # independent brute force over small real grids confirms the sup
    grid_vals = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    best = 0.0
    idx = [(i,) for i in range(3)]
    for b1 in np.stack(np.meshgrid(*(grid_vals,) * 3), axis=-1).reshape(-1, 3):
        n1 = np.max(np.abs(b1))
        if n1 == 0:
            continue
        for b2 in ([1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 0.0, 1.0]):
            b2 = np.asarray(b2)
            s1 = Sequence(1, {k: v for k, v in zip(idx, b1) if v})
            s2 = Sequence(1, {k: v for k, v in zip(idx, b2) if v})
            if not s2.entries:
                continue
            out = apply_S(a, s1, s2)
            val = lq_seq_norm(out.entries, math.inf) / (n1 * np.max(np.abs(b2)))
            best = max(best, val)
    assert best == pytest.approx(3.0, abs=1e-12)


def test_estimate_S_scale_covariance():
    a = random_lattice_coefficients(1, 1, 7, seed=60)
    c = 3.7 - 1.2j
    e1 = estimate_norm_S(a, 2.0, 2.0, 2.0, LIGHT)
    e2 = estimate_norm_S(a.scaled(c), 2.0, 2.0, 2.0, LIGHT)
    assert e2.value == pytest.approx(abs(c) * e1.value, rel=1e-12)


def test_estimate_S_witness_reevaluates(rng):
    a = random_lattice_coefficients(1, 1, 7, seed=61)
    est = estimate_norm_S(a, 2.0, 1.0, 2.0, LIGHT)
    v1, v2 = est.trace["vectors"]
    box1, box2 = est.trace["boxes"]
    b1 = Sequence(1, {m: complex(v1[i]) for i, m in enumerate(box1) if abs(v1[i]) > 0})
    b2 = Sequence(1, {m: complex(v2[i]) for i, m in enumerate(box2) if abs(v2[i]) > 0})
    out = apply_S(a, b1, b2)
    ratio = lq_seq_norm(out.entries, 2.0) / (lq_seq_norm(b1.entries, 2.0)
                                             * lq_seq_norm(b2.entries, 1.0))
    assert ratio == pytest.approx(est.value, rel=1e-10)


def test_estimate_S_rejects_empty():
    with pytest.raises(ValueError):
        estimate_norm_S(lattice_from_dict(1, {}), 2, 2, 2, LIGHT)


def test_estimate_T_period_delta_is_one():
    est = estimate_norm_T_period(lattice_delta(1), 2.0, 2.0, 2.0, LIGHT)
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.trace["history"][-1] <= 1.0 + 1e-6  # ascent stagnates at the ceiling


def test_estimate_T_period_cauchy_schwarz_ceiling():
    modes = (0, 1, 2)
    a = lattice_from_dict(1, {((i,), (j,)): 1.0 for i in modes for j in modes})
    est = estimate_norm_T_period(a, 2.0, 2.0, 1.0, LIGHT)
    assert est.value <= 1.0 + 1e-6
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_estimate_T_period_l2_matches_coefficient_form(rng):
    # at p = 2 the torus-grid norms agree with Plancherel coefficient sums
    F = _random_trig(rng)
    assert lp_norm_torus(F, 2.0) == pytest.approx(
        math.sqrt(sum(abs(c) ** 2 for c in F.coeffs.values())), rel=1e-12)


def test_estimate_T_period_reproducible_across_seeds():
    a = random_lattice_coefficients(1, 1, 5, seed=62)
    vals = [estimate_norm_T_period(a, 2.0, 2.0, 2.0,
                                   SearchParams(starts=10, steps=60, seed=s)).value
            for s in (42, 43, 44)]
    spread = max(vals) / min(vals)
    assert spread <= 1.02


def _screened(screen, v, i0, t):
    """Scores and upper bounds of the screen over the coordinates i0.. of v,
    for a group of one start."""
    if i0 == v.size:
        return np.zeros((0, 4)), np.zeros((0, 4))
    _ks, _cs, scores, upper = screen.bounds(v[None, :], np.array([t]), np.array([i0]),
                                            np.array([v.size]))
    return scores, upper


def _reference_ascent(ratio_fn, screen, vecs, params, seen):
    """The search's definition for one start: one candidate at a time, each
    scored exactly.  Also records (exact, screened, upper bound) for every
    candidate scored."""
    best = ratio_fn(vecs)
    history = [best]
    step = transference.INITIAL_STEP
    for _ in range(params.steps):
        improved = False
        for vi in range(len(vecs)):
            v = vecs[vi]
            scale = max(float(np.max(np.abs(v))), 1e-12)
            screen.begin(np.array([vecs[1 - vi]]), vi)
            i0, (scores, upper) = 0, _screened(screen, v, 0, step * scale)
            for i in range(v.size):
                for d, delta in enumerate((1.0, -1.0, 1j, -1j)):
                    cand = v.copy()
                    cand.flat[i] += step * scale * delta
                    val = ratio_fn(vecs[:vi] + [cand] + vecs[vi + 1:])
                    seen.append((val, scores[i - i0, d], upper[i - i0, d]))
                    if val > best * (1.0 + 1e-12):
                        vecs[vi] = cand
                        v = cand
                        best = val
                        improved = True
                        i0, (scores, upper) = i + 1, _screened(screen, v, i + 1, step * scale)
                        break
        history.append(best)
        if not improved:
            step *= transference.SHRINK
            if step < transference.MIN_STEP:
                break
    peak = max(float(np.max(np.abs(np.concatenate([v.ravel() for v in vecs])))), 1e-300)
    vecs = [v / peak for v in vecs]
    return best, vecs, history


def _reference_search(seen, sweeps):
    """A stand-in for ``transference._search`` that runs the starts one at a
    time with ``_reference_ascent`` and records each start's sweep count."""
    def search(ratio_fn, screen, box1, box2, supp1, supp2, params):
        best_val, best_vecs, best_hist = -1.0, None, []
        for vecs in _starts(box1, box2, supp1, supp2, params):
            val, out, hist = _reference_ascent(ratio_fn, screen, vecs, params, seen)
            sweeps.append(len(hist) - 1)
            if val > best_val:
                best_val, best_vecs, best_hist = val, out, hist
        return best_val, best_vecs, best_hist
    return search


def _assert_matches_reference(monkeypatch, estimate, ex, a, params):
    """The lockstep search against the one-at-a-time reference; returns the
    reference's sweep count per start."""
    fast = estimate(a, *ex, params)
    seen, sweeps = [], []
    monkeypatch.setattr(transference, "_search", _reference_search(seen, sweeps))
    ref = estimate(a, *ex, params)
    assert fast.value == ref.value
    assert fast.trace["history"] == ref.trace["history"]
    assert [v.tobytes() for v in fast.trace["vectors"]] == \
        [v.tobytes() for v in ref.trace["vectors"]]
    assert fast.witness == ref.witness
    exact, scores, upper = (np.array(c) for c in zip(*seen))
    # the bound that decides what is re-scored holds on every candidate
    assert np.all(exact <= upper)
    if min(ex) >= 1:
        # rounding alone: far below the margin (below 1 the error near zeros
        # of the values is unbounded, so only the per-candidate bound holds)
        assert np.max(np.abs(scores - exact) / exact) <= SCREEN_MARGIN / 10
    return sweeps


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("ex", [0.5, 1.0, 2.0, math.inf, (2.0, 1.0, 2.0), (0.5, 2.0, 1.0),
                                (math.inf, 2.0, 1.0)], ids=str)
@pytest.mark.parametrize("estimate", [estimate_norm_S, estimate_norm_T_period],
                         ids=["S", "T_period"])
def test_screened_search_matches_reference(monkeypatch, estimate, ex, n):
    # screened lockstep search must keep the one-at-a-time trajectory bit for bit
    ex = ex if isinstance(ex, tuple) else (ex,) * 3
    a = random_lattice_coefficients(n, 1, 9 if n == 1 else 4, seed=90 + n)
    params = (SearchParams(starts=3, steps=25) if n == 1
              else SearchParams(starts=2, steps=4, torus_points=64))
    _assert_matches_reference(monkeypatch, estimate, ex, a, params)


@pytest.mark.parametrize("estimate, n, ex, count, min_step, params", [
    (estimate_norm_S, 1, math.inf, 9, 1e-3, SearchParams(starts=5, steps=40)),
    (estimate_norm_T_period, 1, 1.0, 9, 1e-2, SearchParams(starts=5, steps=40)),
    (estimate_norm_S, 2, math.inf, 4, 1e-3, SearchParams(starts=5, steps=40)),
    (estimate_norm_T_period, 2, 0.5, 3, 5e-2, SearchParams(starts=5, steps=40, torus_points=16)),
], ids=["S-1", "T_period-1", "S-2", "T_period-2"])
def test_lockstep_starts_leaving_at_different_sweeps(monkeypatch, estimate, n, ex, count,
                                                     min_step, params):
    # starts that leave the lockstep early must not disturb those still running
    monkeypatch.setattr(transference, "MIN_STEP", min_step)
    a = random_lattice_coefficients(n, 1, count, seed=90 + n)
    sweeps = _assert_matches_reference(monkeypatch, estimate, (ex,) * 3, a, params)
    assert len(sweeps) == params.starts and len(set(sweeps)) > 1


def test_screen_calls_stay_within_the_value_budget(monkeypatch):
    # no screen call may hold more than max(E_v.size, 2^14) candidate values,
    # however many starts run
    a = random_lattice_coefficients(2, 1, 9, seed=5)
    params = SearchParams(starts=8, steps=3, torus_points=64)
    budget, sizes = [], []
    begin, power = transference._Screen.begin, transference._power_norm

    def spy_begin(self, others, vi):
        budget.append(max(self.E[vi].size, 1 << 14))
        return begin(self, others, vi)

    def spy_power(vals, p, weight=1.0, axis=None):
        if axis is not None:
            sizes.append((np.size(vals), budget[-1]))
        return power(vals, p, weight, axis)

    monkeypatch.setattr(transference._Screen, "begin", spy_begin)
    monkeypatch.setattr(transference, "_power_norm", spy_power)
    estimate_norm_T_period(a, 2.0, 2.0, 2.0, params)
    assert len(sizes) > 2 * len(budget)
    assert all(size <= limit for size, limit in sizes)


def test_search_keeps_one_chunk_of_starts_alive(monkeypatch):
    # memory does not grow with starts: they run in chunks of the largest
    # screen group, and only the best result outlives its chunk
    alive, peak, screens = [0], [0], []

    class SpyRun(transference._Run):
        def __init__(self, *args):
            super().__init__(*args)
            alive[0] += 1
            peak[0] = max(peak[0], alive[0])

        def __del__(self):
            alive[0] -= 1

    search = transference._search

    def spy_search(ratio_fn, screen, *args):
        screens.append(screen)
        return search(ratio_fn, screen, *args)

    monkeypatch.setattr(transference, "_Run", SpyRun)
    monkeypatch.setattr(transference, "_search", spy_search)
    a = random_lattice_coefficients(1, 1, 9, seed=5)
    estimate_norm_T_period(a, 2.0, 2.0, 2.0, SearchParams(starts=10, steps=3))
    assert peak[0] == max(screens[0].group) < 10
    assert alive[0] == 0


def test_T_period_budgets_fire_before_allocating():
    # the torus and each phase matrix are checked before they are built
    a = random_lattice_coefficients(1, 1, 9, seed=5)
    wide = lattice_from_dict(1, {((-127,), (0,)): 1.0, ((127,), (0,)): 1.0})
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="torus with 1000000000 values"):
            estimate_norm_T_period(a, 2.0, 2.0, 2.0, SearchParams(torus_points=10**9))
        # 257 modes x 2^16 torus points: 269 MB of phases, refused
        with pytest.raises(BudgetError, match="torus phase matrix"):
            estimate_norm_T_period(wide, 2.0, 2.0, 2.0, SearchParams(torus_points=2**16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_stability_bound_below_one_is_rejected():
    # a max/min spread is never below 1, so such a bound fails every family
    with pytest.raises(ValueError, match="stability_bound must be >= 1"):
        SearchParams(stability_bound=0.5)
    assert SearchParams(stability_bound=1.0).stability_bound == 1.0


def _screen_of(monkeypatch, estimate, a, ex, params):
    """The screen an estimator hands to ``_search`` (the search itself is skipped)."""
    got = []

    def capture(ratio_fn, screen, box1, box2, supp1, supp2, params):
        got.append(screen)
        return 0.0, [np.zeros(len(box1)), np.zeros(len(box2))], [0.0]

    monkeypatch.setattr(transference, "_search", capture)
    estimate(a, *ex, params)
    return got[0]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("ex", [(2.0, 0.5, 1.0), (math.inf, 1.0, 2.0)], ids=str)
@pytest.mark.parametrize("estimate", [estimate_norm_S, estimate_norm_T_period],
                         ids=["S", "T_period"])
def test_screen_bounds_the_fixed_vector_norm_from_below(monkeypatch, estimate, ex, n):
    # other_lo lies below the fixed vector's norm as the exact ratio computes it
    # (and strictly below the screen's own batched norm), and every upper bound
    # allows for the fixed vector's norm being as low as other_lo
    a = random_lattice_coefficients(n, 1, 9 if n == 1 else 4, seed=70 + n)
    screen = _screen_of(monkeypatch, estimate, a, ex, SearchParams(torus_points=16))
    rng = np.random.default_rng(n)
    for vi in range(2):
        sizes = screen.E[vi].shape[0], screen.E[1 - vi].shape[0]
        others = rng.standard_normal((3, sizes[1])) + 1j * rng.standard_normal((3, sizes[1]))
        screen.begin(others, vi)
        exact = [transference._power_norm(o @ screen.E[1 - vi], ex[1 - vi], screen.weight)
                 for o in others]
        assert np.all(screen.other_lo <= exact)
        assert np.all(screen.other_lo < screen.n_other)
        V = rng.standard_normal((3, sizes[0])) + 1j * rng.standard_normal((3, sizes[0]))
        ks, _cs, scores, upper = screen.bounds(V, np.full(3, 0.1), np.zeros(3, dtype=int),
                                               np.full(3, sizes[0]))
        assert np.all(upper >= scores * (screen.n_other / screen.other_lo)[ks, None])


@pytest.mark.parametrize("starts", [1, 2, 3, 5])
def test_starts_yields_exactly_the_configured_count(starts):
    box = [(m,) for m in range(-2, 3)]
    got = list(_starts(box, box, {(0,)}, {(0,)}, SearchParams(starts=starts)))
    assert len(got) == starts


@pytest.mark.parametrize("bad", [
    {"starts": 0}, {"steps": -1}, {"torus_points": 0}, {"shrink": 0.0}, {"shrink": 1.0},
    {"initial_step": 0.0}, {"min_step": 0.0}, {"min_step": math.nan},
    {"stability_bound": math.inf}, {"random_pool": -1}, {"mode_margin": -1},
], ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()))
def test_search_params_reject_invalid(bad):
    # a removed knob (the step schedule, the margins, random_pool) is no field at all
    known = {f.name for f in fields(SearchParams)}
    with pytest.raises(ValueError if set(bad) <= known else TypeError):
        SearchParams(**bad)


def test_estimate_T_aPhi_zero(spec, phi04, theta):
    est = estimate_norm_T_aPhi(lattice_from_dict(1, {}), phi04,
                               ExponentTuple(2, 2, 2, 2, 2, 2), "amalgam",
                               theta, spec)
    assert est.value == 0.0


def test_estimate_T_aPhi_witness_chain(spec, phi04, theta):
    # lower-bound chain at the witness level, each comparison to rel 1e-8:
    # ||T(f1,f2)||_(p,q) >= ||T(f1,f2)||_{L^p(Q)} >= ||T_period(F1,F2)||_{L^p(Q)}
    rng = np.random.default_rng(63)
    a = random_lattice_coefficients(1, 1, 9, seed=63)
    F1, F2 = _random_trig(rng), _random_trig(rng)
    w = build_amalgam_witness(F1, F2, theta, spec)
    out = apply_T_sigma(synth_sigma(a, phi04, spec), w.f1, w.f2)
    p = q = 2.0
    full = amalgam_norm(out, p, q)
    on_q = lp_norm(out, p, region=((-0.5,), (0.5,)))
    tper = apply_T_period(a, F1, F2)
    x = spec.axis_x()
    vals = tper.evaluate(x)
    mask = (x > -0.5) & (x <= 0.5)
    tper_q = (spec.h * np.sum(np.abs(vals[mask]) ** p)) ** (1 / p)
    assert full >= on_q * (1 - 1e-8)
    assert on_q >= tper_q * (1 - 1e-8)


def test_estimate_T_aPhi_delta_upper_bound(spec, phi04, theta):
    # Young-type upper bound at all-2 exponents for the delta symbol: the
    # estimate can never exceed sup|sigma| * (l1 mass of one spectrum factor)
    a = lattice_delta(1)
    est = estimate_norm_T_aPhi(a, phi04, ExponentTuple(2, 2, 2, 2, 2, 2),
                               "amalgam", theta, spec)
    sig = synth_sigma(a, phi04, spec)
    # ratio-form bound: |T(f1,f2)|_2 <= sup|sigma| (dxi sum|f1hat|) ||f2||_2
    # and dxi sum |f1hat| <= sqrt(width) ||f1||_2 with width = band measure
    width = 2 * (0.4 + 1)  # bump radius + one lattice step margin
    bound = float(np.max(np.abs(sig.samples))) * math.sqrt(width)
    assert est.value <= bound
    print(f"\ndelta upper bound: estimate {est.value:.4f} <= {bound:.4f}")


def test_estimate_T_aPhi_pools_tagged(spec, phi04, theta, kappa):
    a = random_lattice_coefficients(1, 1, 9, seed=64)
    est = estimate_norm_T_aPhi(a, phi04, ExponentTuple(2, 2, 2, 2, 2, 2),
                               "wiener", theta, spec, kappa=kappa)
    assert est.trace["pool"] in {"witness-indicator", "witness-model"}
    assert est.value > 0


@pytest.mark.parametrize("space", ["amalgam", "wiener"])
def test_estimate_T_aPhi_scores_the_proof_witnesses_only(monkeypatch, spec, phi04, theta,
                                                         kappa, space):
    # the support-indicator witness, plus the model witness when a model
    # estimate is given: one symbol-path product per candidate, nothing else
    a = random_lattice_coefficients(1, 1, 9, seed=64)
    ex = ExponentTuple(2, 2, 2, 2, 2, 2)
    model = (estimate_norm_T_period(a, 2, 2, 2, LIGHT) if space == "amalgam"
             else estimate_norm_S(a, 2, 2, 2, LIGHT))
    calls, real = [], transference._T_aPhi_witness

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transference, "_T_aPhi_witness", spy)
    est = estimate_norm_T_aPhi(a, phi04, ex, space, theta, spec, kappa=kappa,
                               model_estimate=model)
    assert (len(calls), est.trace["pool"]) == (2, "witness-model")
    calls.clear()
    est = estimate_norm_T_aPhi(a, phi04, ex, space, theta, spec, kappa=kappa)
    assert (len(calls), est.trace["pool"]) == (1, "witness-indicator")


# ---------------------------------------------------------------------------
# family report
# ---------------------------------------------------------------------------


def test_report_single_delta_unit_spread(spec, phi04, theta, kappa):
    rep = transference_report([lattice_delta(1)], phi04,
                              ExponentTuple(2, 2, 2, 2, 2, 2), "amalgam",
                              theta, spec, kappa=kappa, params=LIGHT)
    assert rep.ratio_spread == pytest.approx(1.0)
    assert rep.all_finite


def test_report_rejects_bad_amalgam_exponents(spec, phi04, theta):
    with pytest.raises(ExponentHypothesisError) as err:
        transference_report([lattice_delta(1)], phi04,
                            ExponentTuple(2, 2, 2, 2, 2, 0.5), "amalgam",
                            theta, spec, params=LIGHT)
    assert "1/q <= 1/q1 + 1/q2" in err.value.citation


def test_report_rejects_bad_wiener_exponents(spec, phi04, theta, kappa):
    with pytest.raises(ExponentHypothesisError) as err:
        transference_report([lattice_delta(1)], phi04,
                            ExponentTuple(math.inf, math.inf, 1, 1, 1, 1),
                            "wiener", theta, spec, kappa=kappa, params=LIGHT)
    assert "1/p <= 1/p1 + 1/p2" in err.value.citation


def test_report_small_family_stable(spec, phi04, theta, kappa):
    fam = [random_lattice_coefficients(1, 1, 9, seed=70 + i) for i in range(3)]
    rep = transference_report(fam, phi04, ExponentTuple(2, 2, 2, 2, 2, 2),
                              "wiener", theta, spec, kappa=kappa, params=LIGHT)
    assert rep.all_finite
    assert rep.ratio_spread <= rep.stability_bound
    rows = rep.csv_rows()
    assert len(rows) == 4 and rows[0][0] == "index"


def test_estimate_T_period_witness_reevaluates(rng):
    a = random_lattice_coefficients(1, 1, 6, seed=65)
    est = estimate_norm_T_period(a, 2.0, 1.0, 2.0, LIGHT)
    v1, v2 = est.trace["vectors"]
    box1, box2 = est.trace["boxes"]
    F1 = trig_poly_from_dict(1, {m[0]: complex(v1[i]) for i, m in enumerate(box1)
                                 if abs(v1[i]) > 0})
    F2 = trig_poly_from_dict(1, {m[0]: complex(v2[i]) for i, m in enumerate(box2)
                                 if abs(v2[i]) > 0})
    out = apply_T_period(a, F1, F2)
    ratio = lp_norm_torus(out, 2.0) / (lp_norm_torus(F1, 2.0) * lp_norm_torus(F2, 1.0))
    assert ratio == pytest.approx(est.value, rel=1e-10)


def test_wiener_sweep_estimate_dominates_sequence_model(spec, phi04, theta, kappa):
    # exponents (p1,p2,p,q1,q2,q) = (2,2,1,1,1,1): for the model's witness,
    # the output Wiener norm factors exactly and dominates the sequence value
    # through the kernel floor m >= 1 on Q
    ex = ExponentTuple(2, 2, 1, 1, 1, 1)
    for seed in (80, 81, 82):
        a = random_lattice_coefficients(1, 1, 9, seed=seed)
        s_est = estimate_norm_S(a, ex.q1, ex.q2, ex.q, LIGHT)
        op = estimate_norm_T_aPhi(a, phi04, ex, "wiener", theta, spec,
                                  kappa=kappa, model_estimate=s_est)
        # rebuild the model witness and check the exact factorization chain
        v1, v2 = s_est.trace["vectors"]
        box1, box2 = s_est.trace["boxes"]
        b1 = Sequence(1, {m: complex(v1[i]) for i, m in enumerate(box1) if abs(v1[i]) > 0})
        b2 = Sequence(1, {m: complex(v2[i]) for i, m in enumerate(box2) if abs(v2[i]) > 0})
        w = build_wiener_witness(b1, b2, theta, spec, kappa)
        out = apply_T_sigma(synth_sigma(a, phi04, spec), w.f1, w.f2)
        wn = wiener_norm(out, ex.p, ex.q, kappa, offset=np.asarray(theta.xi0_sum))
        sab = apply_S(a, b1, b2)
        ident = lq_seq_norm(sab.entries, ex.q) * lp_norm(w.g, ex.p)
        assert wn == pytest.approx(ident, rel=1e-10)   # exact band factorization
        floor = lq_seq_norm(sab.entries, ex.q) * w.m   # |g| >= m on the unit cube
        assert wn >= floor * (1 - 1e-10)
        n1 = wiener_norm(w.f1, ex.p1, ex.q1, kappa, offset=np.asarray(theta.xi0[:1]))
        n2 = wiener_norm(w.f2, ex.p2, ex.q2, kappa, offset=np.asarray(theta.xi0[1:]))
        assert op.value >= floor / (n1 * n2) * (1 - 1e-10)


def test_amalgam_factorization_2d():
    # full chain in two dimensions on a small grid
    from latticebump.bumps import check_condition_B, make_theta_pair
    from latticebump.grid import make_grid
    spec2 = make_grid(2, 8, 4)
    phi = make_bump(4, "tensor-exp", radius=0.4)
    cb = check_condition_B(phi)
    theta2 = make_theta_pair(phi, cb.witness, cb.slack / 4, spec2)
    rng = np.random.default_rng(95)
    F1 = trig_poly_from_dict(2, {(m1, m2): complex(*rng.standard_normal(2))
                                 for m1 in (-1, 0) for m2 in (0, 1)})
    F2 = trig_poly_from_dict(2, {(0, 0): 1.0, (1, -1): 0.5 + 0.25j})
    a = lattice_from_dict(2, {((0, 0), (0, 0)): 1.0,
                              ((1, 0), (0, -1)): -0.75 + 0.5j,
                              ((0, 1), (1, 0)): 0.3j})
    w = build_amalgam_witness(F1, F2, theta2, spec2)
    chk = verify_amalgam_factorization(a, phi, w, spec2)
    assert chk.residual <= 1e-6
    assert chk.domination_margin >= 0.0


# ---------------------------------------------------------------------------
# the witness symbol path: sigma at the support pairs of the exact spectra
# ---------------------------------------------------------------------------


def _fixture(n, L, s):
    spec_ = make_grid(n, L, s)
    phi = make_bump(2 * n, "tensor-exp", radius=0.4)
    cb = check_condition_B(phi)
    return spec_, phi, make_theta_pair(phi, cb.witness, cb.slack / 4, spec_)


def _random_modes(rng, n):
    return {m: complex(*rng.standard_normal(2))
            for m in itertools.product((-1, 0, 1), repeat=n)}


@pytest.mark.parametrize("n, L, s, kind", [
    (1, 8, 32, "tensor-exp"), (1, 8, 128, "tensor-exp"), (2, 4, 8, "tensor-exp"),
    (1, 8, 32, "radial-exp")])
def test_witness_symbol_path_matches_dense_oracle(n, L, s, kind):
    spec_, phi, theta_ = _fixture(n, L, s)
    sym = make_bump(2 * n, kind, radius=0.4)  # the theta pair needs a tensor Phi, T does not
    rng = np.random.default_rng(97)
    w = build_amalgam_witness(TrigPolynomial(n, _random_modes(rng, n)),
                              TrigPolynomial(n, _random_modes(rng, n)), theta_, spec_)
    a = random_lattice_coefficients(n, 1, 9, seed=97)
    got = transference._T_aPhi_witness(a, sym, w, spec_).samples
    ref = apply_T_sigma(synth_sigma(a, sym, spec_), w.f1, w.f2).samples
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the spectra keep their exact zeros: one theta ball of nodes per mode
    # (the idft -> dft round trip would turn them into roundoff)
    ball = np.count_nonzero(bump_eval_axes(theta_.theta1, spec_.freq_points()))
    assert np.count_nonzero(w.fhat1.samples) == 3 ** n * ball
    if (n, L, s) == (1, 8, 32):
        assert (np.count_nonzero(w.fhat1.samples), w.fhat1.samples.size) == (9, 256)


def test_witness_paths_form_no_dense_symbol(monkeypatch, tmp_path, spec, phi04, theta, kappa):
    def refuse(*_args, **_kw):
        raise AssertionError("the dense N^(2n) symbol path was called")

    for module in (symbols, operators, transference):
        for name in ("synth_sigma", "apply_T_sigma"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    rng = np.random.default_rng(98)
    a = random_lattice_coefficients(1, 1, 9, seed=98)
    w = build_amalgam_witness(_random_trig(rng), _random_trig(rng), theta, spec)
    assert verify_amalgam_factorization(a, phi04, w, spec).residual <= 1e-6
    ww = build_wiener_witness(_random_seq(rng, (-1, 0, 1)), _random_seq(rng, (0, 1)),
                              theta, spec, kappa)
    assert verify_wiener_factorization(a, phi04, ww, kappa, spec).residual <= 1e-6
    est = estimate_norm_T_aPhi(a, phi04, ExponentTuple(2, 2, 2, 2, 2, 2), "wiener", theta,
                               spec, kappa=kappa)
    assert est.value > 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "phi": "tensor-0.4", "exponents": [2, 2, 2, 2, 2, 2],
                               "a": {"random": {"radius": 1, "count": 9, "seed": 98}},
                               "search": {"starts": 2, "steps": 2}}))
    assert main(["transfer", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_witness_chains_2d_at_working_grid():
    # make_grid(2, 8, 32): the symbol grid would hold 2^32 values, the
    # witness spectra have 81 nonzero nodes each
    spec2, phi, theta2 = _fixture(2, 8, 32)
    kappa2 = make_window(2, 0.6)
    rng = np.random.default_rng(99)
    a = random_lattice_coefficients(2, 1, 9, seed=99)
    w = build_amalgam_witness(TrigPolynomial(2, _random_modes(rng, 2)),
                              TrigPolynomial(2, _random_modes(rng, 2)), theta2, spec2)
    chk = verify_amalgam_factorization(a, phi, w, spec2)
    assert chk.residual <= 1e-6
    assert chk.domination_margin >= 0.0
    ww = build_wiener_witness(Sequence(2, _random_modes(rng, 2)),
                              Sequence(2, _random_modes(rng, 2)), theta2, spec2, kappa2)
    wchk = verify_wiener_factorization(a, phi, ww, kappa2, spec2)
    assert wchk.residual <= 1e-6
    assert wchk.band_residual <= 1e-6
