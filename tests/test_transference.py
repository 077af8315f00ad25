import itertools
import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from latticebump.bumps import (bump_eval_axes, check_condition_B, make_bump, make_theta_pair,
                               make_window)
from latticebump.cli import main
from latticebump.grid import BudgetError, dft, idft, make_grid
from latticebump.norms import _power_norm, amalgam_norm, lp_norm, lp_norm_torus, lq_seq_norm, \
    wiener_norm, ExponentTuple
from latticebump.operators import (Sequence, TrigPolynomial, apply_S, apply_T_period,
                                   apply_T_sigma, sequence_from_dict, trig_poly_from_dict)
from latticebump.symbols import (lattice_delta, lattice_from_dict,
                                 random_lattice_coefficients, synth_sigma)
from latticebump import operators, symbols, transference
from latticebump.transference import (AMALGAM_CITATION, ExponentHypothesisError,
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


def _lp_on_q(f, p):
    """Riemann L^p norm of the space samples of f on the unit cube Q."""
    return _power_norm(f.samples[transference._q_mask(f.spec)], p, weight=f.spec.h ** f.spec.n)


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


def test_wiener_witness_paths_make_no_forward_transform(monkeypatch, spec, phi04, theta,
                                                        kappa, rng):
    # the Wiener verify, the Wiener estimate and the witness norm identity
    # read the witnesses' exact spectra and the grouped spectrum of T
    calls = []
    fftn = np.fft.fftn

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return fftn(a, *args, **kwargs)
    monkeypatch.setattr(np.fft, "fftn", counted)
    a = random_lattice_coefficients(1, 1, 6, seed=51)
    w = build_wiener_witness(_random_seq(rng, (-1, 0)), _random_seq(rng, (0, 1)), theta,
                             spec, kappa)
    assert verify_wiener_factorization(a, phi04, w, kappa, spec).residual <= 1e-6
    model = estimate_norm_S(a, 2, 2, 2, LIGHT)
    est = estimate_norm_T_aPhi(a, phi04, ExponentTuple(2, 2, 2, 2, 2, 2), "wiener", theta,
                               spec, kappa=kappa, model_estimate=model)
    assert est.value > 0
    lhs, rhs = wiener_witness_norm_identity(w, 1, 2.0, 1.0, kappa, spec)
    assert lhs == pytest.approx(rhs, rel=1e-9)
    assert calls == []


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
    g_q = _lp_on_q(w.theta.g, p)
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


def _exact_ratio(model):
    """The model ratio of one pair of vectors, one candidate at a time: a
    Python loop over the coefficient triples, then the synthesis matrices."""
    E1, E2, Eo = model.E
    p1, p2, p = model.exponents

    def ratio(vecs):
        v1, v2 = vecs
        n1 = transference._power_norm(v1 @ E1, p1, model.weight)
        n2 = transference._power_norm(v2 @ E2, p2, model.weight)
        if n1 == 0.0 or n2 == 0.0:
            return 0.0
        out = np.zeros(model.sizes[2], dtype=complex)
        for a1, a2, oi, av in zip(*model.index, model.coef):
            out[oi] += av * v1[a1] * v2[a2]
        return transference._power_norm(out @ Eo, p, model.weight) / (n1 * n2)
    return ratio


def _reference_ascent(ratio_fn, vecs, params):
    """The greedy search's definition for one start: one candidate at a
    time, each scored exactly; the result is the ratio of the vectors, each
    divided by its entry of largest modulus."""
    best = ratio_fn(vecs)
    history = [best]
    step = transference.INITIAL_STEP
    capped = True
    for _ in range(params.steps):
        improved = False
        for vi in range(len(vecs)):
            v = vecs[vi]
            scale = max(float(np.max(np.abs(v))), 1e-12)
            for i in range(v.size):
                for delta in (1.0, -1.0, 1j, -1j):
                    cand = v.copy()
                    cand.flat[i] += step * scale * delta
                    val = ratio_fn(vecs[:vi] + [cand] + vecs[vi + 1:])
                    if val > best * (1.0 + 1e-12):
                        vecs[vi] = v = cand
                        best = val
                        improved = True
                        break
        history.append(best)
        if not improved:
            step *= transference.SHRINK
            if step < transference.MIN_STEP:
                capped = False
                break
    vecs = [v / v[np.argmax(np.abs(v))] if np.any(v) else v for v in vecs]
    return ratio_fn(vecs), vecs, history, capped


def _reference_search(sweeps):
    """A stand-in for ``transference._search`` that runs the starts one at a
    time with ``_reference_ascent``, whatever the exponents, and records each
    start's sweep count."""
    def search(model, box1, box2, supp1, supp2, params):
        ratio_fn = _exact_ratio(model)
        best_val, best_vecs, best_hist, best_capped = -1.0, None, [], False
        for vecs in _starts(box1, box2, supp1, supp2, params):
            val, out, hist, capped = _reference_ascent(ratio_fn, vecs, params)
            sweeps.append(len(hist) - 1)
            if val > best_val:
                best_val, best_vecs, best_hist, best_capped = val, out, hist, capped
        return best_val, best_vecs, best_hist, "greedy", best_capped
    return search


def _assert_matches_reference(monkeypatch, estimate, ex, a, params):
    """The search against the one-at-a-time greedy reference: a bound at
    least as high (up to rounding) and a history that never decreases;
    returns the reference's sweep count per start.  At all-2 exponents this
    compares the alternating engine against the greedy."""
    fast = estimate(a, *ex, params)
    sweeps = []
    with monkeypatch.context() as m:
        m.setattr(transference, "_search", _reference_search(sweeps))
        ref = estimate(a, *ex, params)
    assert fast.value >= ref.value * (1 - 1e-12)
    hist = fast.trace["history"]
    assert all(later >= earlier for earlier, later in zip(hist, hist[1:]))
    return sweeps


def _assert_batch_independent(monkeypatch, estimate, ex, a, params):
    """The search bit for bit as with one start per batch; returns the
    number of starts of each batch of the default run."""
    engine = "_align" if ex == (2.0, 2.0, 2.0) else "_ascend"
    sizes, run = [], getattr(transference, engine)

    def spy(model, starts, *steps):
        sizes.append(len(starts))
        return run(model, starts, *steps)

    monkeypatch.setattr(transference, engine, spy)
    batched = estimate(a, *ex, params)
    default, sizes[:] = sizes[:], []
    monkeypatch.setattr(transference, "BATCH_VALUES", 1)
    alone = estimate(a, *ex, params)
    assert sizes == [1] * params.starts
    assert batched.value == alone.value
    assert batched.trace["history"] == alone.trace["history"]
    assert [v.tobytes() for v in batched.trace["vectors"]] == \
        [v.tobytes() for v in alone.trace["vectors"]]
    assert batched.witness == alone.witness
    return default


_CASES = dict(
    argnames="estimate, ex, n",
    argvalues=[(estimate, ex, n)
               for estimate in (estimate_norm_S, estimate_norm_T_period)
               for ex in (0.5, 1.0, 2.0, math.inf, (2.0, 1.0, 2.0), (0.5, 2.0, 1.0),
                          (math.inf, 2.0, 1.0))
               for n in (1, 2)],
    ids=lambda v: {estimate_norm_S: "S", estimate_norm_T_period: "T_period"}.get(v, str(v)))


def _case(ex, n):
    ex = ex if isinstance(ex, tuple) else (ex,) * 3
    a = random_lattice_coefficients(n, 1, 9 if n == 1 else 4, seed=90 + n)
    params = (SearchParams(starts=3, steps=25) if n == 1
              else SearchParams(starts=2, steps=4, torus_points=64))
    return ex, a, params


@pytest.mark.parametrize(**_CASES)
def test_screened_search_matches_reference(monkeypatch, estimate, ex, n):
    # the batched search must find at least the one-at-a-time bound
    _assert_matches_reference(monkeypatch, estimate, *_case(ex, n))


@pytest.mark.parametrize(**_CASES)
def test_batched_search_matches_one_start_per_batch(monkeypatch, estimate, ex, n):
    # a start's bits never depend on which starts share its batch
    ex, a, params = _case(ex, n)
    assert _assert_batch_independent(monkeypatch, estimate, ex, a, params) == [params.starts]


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
    rows, vector_pass = [], transference._vector_pass

    def spy(model, V, *args):
        rows.append(len(V))
        return vector_pass(model, V, *args)

    monkeypatch.setattr(transference, "_vector_pass", spy)
    estimate(a, *(ex,) * 3, params)
    assert rows[0] == params.starts and len(set(rows)) > 1  # the live rows shrink
    monkeypatch.setattr(transference, "_vector_pass", vector_pass)
    assert _assert_batch_independent(monkeypatch, estimate, (ex,) * 3, a, params) == \
        [params.starts]


def test_screen_calls_stay_within_the_value_budget(monkeypatch):
    # the vector pass that scores the candidate steps holds D and the stepped
    # values of at most BATCH_VALUES values, however many starts run
    a = random_lattice_coefficients(2, 1, 9, seed=5)
    params = SearchParams(starts=8, steps=3, torus_points=64)
    budget = 400_000  # two starts of these boxes (25 modes, 4096 torus points)
    monkeypatch.setattr(transference, "BATCH_VALUES", budget)
    passes, batches = [], []
    vector_pass, power, ascend = (transference._vector_pass, transference._power_norm,
                                  transference._ascend)

    def spy_pass(model, V, other, *args):
        passes.append([len(V) * V.shape[1] * model.E[2].shape[1]])  # the values of D
        return vector_pass(model, V, other, *args)

    def spy_power(vals, p, weight=1.0, axis=None):
        if np.ndim(vals) == 3:  # the four stepped copies, inputs then outputs
            passes[-1].append(np.size(vals))
        return power(vals, p, weight, axis)

    def spy_ascend(model, starts, steps):
        batches.append(len(starts))
        return ascend(model, starts, steps)

    monkeypatch.setattr(transference, "_vector_pass", spy_pass)
    monkeypatch.setattr(transference, "_power_norm", spy_power)
    monkeypatch.setattr(transference, "_ascend", spy_ascend)
    estimate_norm_T_period(a, 1.0, 1.0, 1.0, params)  # the greedy ascent: not all-2
    assert batches == [2, 2, 2, 2]
    assert all(d + stepped_in + stepped_out <= budget
               for d, stepped_in, stepped_out, *_ in passes)


def test_search_keeps_one_chunk_of_starts_alive(monkeypatch):
    # memory does not grow with starts: they are drawn batch by batch, each
    # batch only once the one before it has finished
    a = random_lattice_coefficients(1, 1, 9, seed=5)
    monkeypatch.setattr(transference, "BATCH_VALUES", 3 * 3328)  # three starts (5, 5, 256)
    drawn, seen = [0], []
    starts, ascend = transference._starts, transference._ascend

    def spy_starts(*args):
        for start in starts(*args):
            drawn[0] += 1
            yield start

    def spy_ascend(model, batch, steps):
        seen.append((len(batch), drawn[0]))
        return ascend(model, batch, steps)

    monkeypatch.setattr(transference, "_starts", spy_starts)
    monkeypatch.setattr(transference, "_ascend", spy_ascend)
    estimate_norm_T_period(a, 1.0, 1.0, 1.0, SearchParams(starts=10, steps=3))
    sizes = [size for size, _ in seen]
    assert sizes == [3, 3, 3, 1]
    assert [d for _, d in seen] == list(itertools.accumulate(sizes))


_SEARCH = transference._search


def _greedy_search(model, box1, box2, supp1, supp2, params):
    """``transference._search`` with the greedy ascent in place of the all-2
    engine, so its winner comes from the search's own rule."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(transference, "_align",
                  lambda model, batch: transference._ascend(model, batch, params.steps))
        ratio, vecs, history, _engine, capped = _SEARCH(model, box1, box2, supp1, supp2, params)
    return ratio, vecs, history, "greedy", capped


def test_alternating_search_beats_the_greedy(monkeypatch):
    # at all-2 exponents the exact engine finds at least the greedy's bound,
    # on the acceptance family and on an n = 2 family where running each
    # start in one update order only lost 6.8% to the greedy; T_period runs
    # the S_a model there, so one greedy run serves both models
    cases = [(random_lattice_coefficients(1, 1, 9, seed=600 + i), SearchParams(starts=6, steps=40))
             for i in range(20)]
    cases += [(random_lattice_coefficients(2, 1, 9, seed=s), SearchParams(starts=4, steps=20))
              for s in range(50, 56)]
    for a, params in cases:
        new = [estimate(a, 2.0, 2.0, 2.0, params)
               for estimate in (estimate_norm_S, estimate_norm_T_period)]
        with monkeypatch.context() as m:
            m.setattr(transference, "_search", _greedy_search)
            old = estimate_norm_S(a, 2.0, 2.0, 2.0, params)
        assert [e.trace["engine"] for e in new + [old]] == ["alternating"] * 2 + ["greedy"]
        assert new[0].value == new[1].value >= old.value * (1 - 1e-12)


@pytest.mark.parametrize("estimate", [estimate_norm_S, estimate_norm_T_period],
                         ids=["S", "T_period"])
@pytest.mark.parametrize("n", [1, 2])
def test_alternating_search_reruns_bitwise_and_grows_with_starts(estimate, n):
    # the same search twice gives the same bits, and one more start (the
    # first k run exactly as before) never lowers the bound
    a = random_lattice_coefficients(n, 1, 9, seed=70 + n)
    runs = [estimate(a, 2.0, 2.0, 2.0, SearchParams(starts=k, seed=7)) for k in range(1, 8)]
    again = estimate(a, 2.0, 2.0, 2.0, SearchParams(starts=7, seed=7))
    assert again.value == runs[-1].value and again.witness == runs[-1].witness
    assert again.trace["history"] == runs[-1].trace["history"]
    assert [v.tobytes() for v in again.trace["vectors"]] == \
        [v.tobytes() for v in runs[-1].trace["vectors"]]
    assert all(later.value >= earlier.value for earlier, later in zip(runs, runs[1:]))


def _flattening_bound(a):
    """The smallest spectral norm of the three flattenings of a's coefficient
    tensor (m1, m2, m1 + m2): an upper bound on the all-2 model norm."""
    axes = [sorted({key(m1, m2) for m1, m2 in a.entries}) for key in
            (lambda m1, m2: m1, lambda m1, m2: m2,
             lambda m1, m2: tuple(x + y for x, y in zip(m1, m2)))]
    A = np.zeros([len(ax) for ax in axes], dtype=complex)
    for (m1, m2), c in a.entries.items():
        A[axes[0].index(m1), axes[1].index(m2),
          axes[2].index(tuple(x + y for x, y in zip(m1, m2)))] = c
    return min(np.linalg.norm(np.moveaxis(A, k, 0).reshape(A.shape[k], -1), 2) for k in range(3))


def _indicator_ratio(a):
    """The all-2 S_a ratio of the support indicators of a."""
    b1, b2 = (Sequence(a.n, dict.fromkeys({pair[k] for pair in a.entries}, 1.0 + 0j))
              for k in (0, 1))
    return lq_seq_norm(apply_S(a, b1, b2).entries, 2.0) / (
        lq_seq_norm(b1.entries, 2.0) * lq_seq_norm(b2.entries, 2.0))


@seed(20261018)
@settings(max_examples=40, deadline=None, database=None)
@given(st.one_of(st.tuples(st.just(1), st.integers(1, 2)), st.tuples(st.just(2), st.just(1)))
       .flatmap(lambda nr: st.tuples(st.just(nr[0]), st.just(nr[1]),
                                     st.integers(1, min(12, (2 * nr[1] + 1) ** (2 * nr[0]))),
                                     st.integers(0, 2**31 - 1))))
def test_alternating_search_stays_between_its_bounds(case):
    # the exact engine never overshoots the flattening bound, never ends below
    # the indicator start, and T_period at all-2 is S_a, value for value
    n, radius, count, s = case
    a = random_lattice_coefficients(n, radius, count, seed=s)
    params = SearchParams(starts=4)
    est = estimate_norm_S(a, 2.0, 2.0, 2.0, params)
    assert est.value <= _flattening_bound(a) * (1 + 1e-12)
    assert est.value >= _indicator_ratio(a) * (1 - 1e-12)
    assert estimate_norm_T_period(a, 2.0, 2.0, 2.0, params).value == est.value


def test_T_period_at_exponent_2_builds_no_torus(monkeypatch):
    # at all-2 exponents T_period is S_a (Parseval): the same value to the
    # bit, with only the torus budget checked, and no torus or phase matrix
    a = random_lattice_coefficients(2, 1, 9, seed=5)
    params = SearchParams(starts=8, steps=60, torus_points=256)
    budgets, check_budget = [], transference.check_budget

    def spy(count, what):
        budgets.append(what)
        return check_budget(count, what)

    monkeypatch.setattr(transference, "check_budget", spy)
    tracemalloc.start()
    try:
        est = estimate_norm_T_period(a, 2.0, 2.0, 2.0, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert budgets == ["torus"]
    assert peak < 2**19  # the 256^2 torus points alone are 1 MiB
    assert est.value == estimate_norm_S(a, 2.0, 2.0, 2.0, params).value
    assert est.trace["family"] == "T_period" and set(est.witness) == {"F1", "F2"}


@pytest.mark.parametrize("estimate", [estimate_norm_S, estimate_norm_T_period],
                         ids=["S", "T_period"])
def test_search_trace_names_its_engine_and_cap(monkeypatch, estimate):
    a = random_lattice_coefficients(1, 1, 9, seed=3)
    exact = estimate(a, 2.0, 2.0, 2.0, LIGHT)
    assert (exact.trace["engine"], exact.trace["capped"]) == ("alternating", False)
    greedy = estimate(a, 1.0, 1.0, 1.0, SearchParams(starts=2, steps=2))
    assert (greedy.trace["engine"], greedy.trace["capped"]) == ("greedy", True)
    assert greedy.trace["iterations"] == 3
    monkeypatch.setattr(transference, "MAX_SWEEPS", 2)
    capped = estimate(a, 2.0, 2.0, 2.0, LIGHT)
    assert capped.trace["capped"] is True and capped.trace["iterations"] == 3
    assert capped.value <= exact.value


@pytest.mark.parametrize("estimate", [estimate_norm_S, estimate_norm_T_period],
                         ids=["S", "T_period"])
@pytest.mark.parametrize("ex", [(2.0, 2.0, 2.0), (1.0, 2.0, 0.5)], ids=["alternating", "greedy"])
@pytest.mark.parametrize("n", [1, 2])
def test_both_engines_pick_their_winner_by_one_rule(monkeypatch, estimate, ex, n):
    # each returned vector holds an entry exactly 1, the value is sup|a|
    # times the ratio of the returned vectors, and that is the first largest
    # ratio of the batch the search scored, all to the bit
    a = random_lattice_coefficients(n, 1, 9, seed=40 + n)
    params = SearchParams(starts=3, steps=10, torus_points=16)
    scored, ratios = [], transference._Model.ratios

    def spy(model, V1, V2):
        out = ratios(model, V1, V2)
        scored.append((model, V1.copy(), V2.copy(), out))
        return out

    monkeypatch.setattr(transference._Model, "ratios", spy)
    est = estimate(a, *ex, params)
    model, V1, V2, batch = scored[-1]  # the search's scoring of its one batch
    runs = 2 if ex == (2.0, 2.0, 2.0) else 1
    assert len(batch) == runs * params.starts
    v1, v2 = est.trace["vectors"]
    assert all(np.count_nonzero(v == 1.0) >= 1 for v in (v1, v2))
    k = int(np.argmax(batch))
    assert v1.tobytes() == V1[k].tobytes() and v2.tobytes() == V2[k].tobytes()
    ratio = ratios(model, v1[None], v2[None])[0]
    assert ratio == batch[k] == batch.max()
    assert est.value == a.sup_norm() * ratio


@seed(20261019)
@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from([estimate_norm_S, estimate_norm_T_period]),
       st.tuples(*[st.sampled_from([0.5, 1.0, 2.0, math.inf])] * 3),
       st.integers(1, 2), st.integers(1, 9), st.integers(0, 2**31 - 1))
def test_model_estimates_stay_below_the_triangle_bound(estimate, ex, n, count, s):
    # |S_a(b1, b2)(m)| <= sum |a| |b1(m1)| |b2(m2)| with |b(m)| <= ||b||_q for
    # every q, so by the (q-)triangle inequality no estimate exceeds ||a|| in
    # l^min(q, 1); for T_period, |F^(m)| <= ||F||_1 <= ||F||_p on the
    # probability torus needs p1, p2 >= 1
    p1, p2, p = ex
    assume(estimate is estimate_norm_S or min(p1, p2) >= 1.0)
    a = random_lattice_coefficients(n, 1, count, seed=s)
    est = estimate(a, *ex, SearchParams(starts=3, steps=15, torus_points=16))
    assert est.value <= lq_seq_norm(a.entries, min(p, 1.0)) * (1 + 1e-12)


@pytest.mark.parametrize("family_seed, search_seed", [(1688143384, 314702509),
                                                      (119838137, 584937361),
                                                      (1489995495, 421658883)])
def test_alternating_search_jumps_past_slow_convergence(family_seed, search_seed):
    # members of the transfer benchmark whose plain alternation crawls to a
    # (nearly) degenerate maximum: 1869 sweeps, and twice still rising after
    # MAX_SWEEPS; the extrapolated jumps end each within a few hundred
    a = random_lattice_coefficients(1, 1, 9, seed=family_seed)
    est = estimate_norm_S(a, 2.0, 2.0, 2.0, SearchParams(starts=8, steps=60, seed=search_seed))
    assert est.trace["capped"] is False and est.trace["iterations"] <= 256
    # every member's norm is at least sup|a|, the ratio of a pair of deltas
    assert est.value >= a.sup_norm() * (1 - 1e-11)


def test_T_period_budgets_fire_before_allocating():
    # the torus and each phase matrix are checked before they are built (the
    # torus check comes first at every exponent; all-2 builds no phase matrix)
    a = random_lattice_coefficients(1, 1, 9, seed=5)
    wide = lattice_from_dict(1, {((-127,), (0,)): 1.0, ((127,), (0,)): 1.0})
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="torus with 1000000000 values"):
            estimate_norm_T_period(a, 2.0, 2.0, 2.0, SearchParams(torus_points=10**9))
        # 257 modes x 2^16 torus points: 269 MB of phases, refused
        with pytest.raises(BudgetError, match="torus phase matrix"):
            estimate_norm_T_period(wide, 1.0, 1.0, 1.0, SearchParams(torus_points=2**16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("radius, torus_points", [(40, 16), (100, 64), (300, 256)])
def test_T_period_rejects_a_torus_too_coarse_for_its_modes(radius, torus_points):
    # on fewer torus points than the output mode box is wide, a nonzero trig
    # polynomial can vanish at every point (at 16 points radius 40 once gave
    # a bound of 1.7e28, against 2.43 at 256); refused before any phase matrix
    a = random_lattice_coefficients(1, radius, 9, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"torus_points {torus_points} is below the width"):
            estimate_norm_T_period(a, 2.0, 2.0, 2.0, SearchParams(torus_points=torus_points))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_T_period_accepts_a_torus_as_wide_as_its_output_box():
    # supports {0} and {0}: boxes 3 wide, output box 5 wide
    est = estimate_norm_T_period(lattice_delta(1), 2.0, 2.0, 2.0,
                                 SearchParams(starts=2, steps=2, torus_points=5))
    assert est.value == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="torus_points 4 is below the width 5"):
        estimate_norm_T_period(lattice_delta(1), 2.0, 2.0, 2.0, SearchParams(torus_points=4))


def test_stability_bound_below_one_is_rejected():
    # a max/min spread is never below 1, so such a bound fails every family
    with pytest.raises(ValueError, match="stability_bound must be >= 1"):
        SearchParams(stability_bound=0.5)
    assert SearchParams(stability_bound=1.0).stability_bound == 1.0


@pytest.mark.parametrize("starts", [1, 2, 3, 5])
def test_starts_yields_exactly_the_configured_count(starts):
    box = [(m,) for m in range(-2, 3)]
    got = list(_starts(box, box, {(0,)}, {(0,)}, SearchParams(starts=starts)))
    assert len(got) == starts


@pytest.mark.parametrize("name", ["starts", "steps", "seed", "torus_points"])
@pytest.mark.parametrize("value", [2.5, 64.5, True, False, np.True_])
def test_search_params_reject_non_integer_counts(name, value):
    # 64.5 torus points once sampled 65 points at weight 1/64.5, the norm of
    # nothing; 2.5 starts (or seed) raised a TypeError inside the search
    with pytest.raises(ValueError, match=f"search {name} must be an integer"):
        SearchParams(**{name: value})


@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "np.bool_"])
def test_search_params_reject_a_bool_stability_bound(value):
    # True once passed as 1 and was stored as True, so a report wrote
    # "stability_bound": true
    with pytest.raises(ValueError, match="search stability_bound must be a finite number"):
        SearchParams(stability_bound=value)


def test_search_params_reject_a_negative_seed():
    # seed -1 once failed inside np.random.default_rng, and only when a third
    # start was drawn
    with pytest.raises(ValueError, match="search seed must be >= 0, got -1"):
        SearchParams(seed=-1)
    assert SearchParams(seed=0).seed == 0


@pytest.mark.parametrize("name", [f.name for f in fields(SearchParams)])
@pytest.mark.parametrize("value", ["3", None, [3], 1 + 0j], ids=["str", "None", "list", "complex"])
def test_search_params_reject_non_real_fields(name, value):
    # these once raised a bare TypeError from math.isfinite
    with pytest.raises(ValueError, match=f"search {name} must be a finite number"):
        SearchParams(**{name: value})


def test_search_params_read_integral_floats_as_integers():
    params = SearchParams(starts=3.0, steps=np.float64(4), seed=42.0, torus_points=64.0)
    counts = (params.starts, params.steps, params.seed, params.torus_points)
    assert counts == (3, 4, 42, 64) and all(type(v) is int for v in counts)
    a = random_lattice_coefficients(1, 1, 9, seed=3)
    assert estimate_norm_T_period(a, 1.0, 1.0, 1.0, params).value == \
        estimate_norm_T_period(a, 1.0, 1.0, 1.0, SearchParams(starts=3, steps=4,
                                                               torus_points=64)).value


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


def test_estimate_T_aPhi_zero(spec, phi04, theta, kappa):
    # an empty or all-zero a is refused as the model estimators refuse it
    for entries, space in itertools.product([{}, {(0, 0): 0.0}], ["amalgam", "wiener"]):
        with pytest.raises(ValueError, match=r"sup\|a\| = 0"):
            estimate_norm_T_aPhi(lattice_from_dict(1, entries), phi04,
                                 ExponentTuple(2, 2, 2, 2, 2, 2), space, theta, spec,
                                 kappa=kappa)


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
    on_q = _lp_on_q(out, p)
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


def test_report_rejects_an_empty_family(spec, phi04, theta, kappa):
    # an empty family once reported NaN ratio_min and ratio_max as all_finite
    with pytest.raises(ValueError, match="empty coefficient family"):
        transference_report([], phi04, ExponentTuple(2, 2, 2, 2, 2, 2), "wiener",
                            theta, spec, kappa=kappa, params=LIGHT)


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
        ident = lq_seq_norm(sab.entries, ex.q) * lp_norm(w.theta.g, ex.p)
        assert wn == pytest.approx(ident, rel=1e-10)   # exact band factorization
        floor = lq_seq_norm(sab.entries, ex.q) * w.theta.m   # |g| >= m on the unit cube
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
    got = idft(transference._T_aPhi_witness(a, sym, w, spec_)).samples
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
