"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured values at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` for the live matrix.
"""

import math
import time

import numpy as np
import pytest

from latticebump.bumps import (check_condition_B, make_bump, make_plateau,
                               make_theta_pair, make_window)
from latticebump.grid import make_grid
from latticebump.norms import (ExponentTuple, amalgam_norm, lp_norm, lq_seq_norm,
                               mixed_norm_check)
from latticebump.operators import (apply_S, apply_T_aPhi_fast, apply_T_period,
                                   apply_T_sigma, sequence_from_dict,
                                   trig_poly_from_dict)
from latticebump.scalinglab import (amalgam_scaling_slope,
                                    bilinear_product_scaling,
                                    make_scaling_family, necessity_verdict,
                                    wiener_scaling_slope)
from latticebump.symbols import (cm_decompose, lattice_from_dict,
                                 random_lattice_coefficients, sigma_from_cm,
                                 synth_sigma)
from latticebump.transference import (ExponentHypothesisError, SearchParams,
                                      build_amalgam_witness,
                                      build_wiener_witness,
                                      transference_report,
                                      verify_amalgam_factorization,
                                      verify_wiener_factorization,
                                      wiener_witness_norm_identity)

# recorded acceptance-run search configuration (spec defaults are heavier;
# the ratio-stability criterion fixes its own budget, not the search depth)
ACCEPT_SEARCH = SearchParams(starts=6, steps=40)

RESIDUAL_FLOOR = 1e-10  # below this the residual is roundoff; refinement claims are vacuous


def _random_trig(rng, modes=(-1, 0, 1)):
    return trig_poly_from_dict(1, {m: complex(*rng.standard_normal(2)) for m in modes})


def _random_seq(rng, modes):
    return sequence_from_dict(1, {m: complex(*rng.standard_normal(2)) for m in modes})


def test_acceptance_1_amalgam_factorization(spec, phi04, condition_b, theta):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(10):
        a = random_lattice_coefficients(1, 1, 9, seed=300 + i)
        w = build_amalgam_witness(_random_trig(rng), _random_trig(rng), theta, spec)
        chk = verify_amalgam_factorization(a, phi04, w, spec)
        assert chk.residual <= 1e-6
        worst = max(worst, chk.residual)

    # refinement ladder: the residual may not grow as s refines; below the
    # roundoff floor the monotone comparison is vacuous (identity is exact)
    ladder = []
    a = random_lattice_coefficients(1, 1, 9, seed=299)
    for s in (16, 32, 64):
        sp = make_grid(1, 8, s)
        th = make_theta_pair(phi04, condition_b.witness, condition_b.slack / 4, sp)
        w = build_amalgam_witness(_random_trig(rng), _random_trig(rng), th, sp)
        ladder.append(verify_amalgam_factorization(a, phi04, w, sp).residual)
    for r1, r2 in zip(ladder, ladder[1:]):
        assert r2 <= r1 or max(r1, r2) <= RESIDUAL_FLOOR
    dt = time.perf_counter() - t0
    assert dt <= 60.0
    print(f"\nACCEPTANCE 1 PASS: amalgam factorization residual <= 1e-6 "
          f"(worst {worst:.2e}); s-ladder {['%.1e' % r for r in ladder]} "
          f"monotone-or-floor; {dt:.1f}s <= 60s")


def test_acceptance_2_wiener_factorization(spec, phi04, theta, kappa):
    rng = np.random.default_rng(2025)
    worst_full = worst_band = worst_rec = 0.0
    for i in range(10):
        a = random_lattice_coefficients(1, 1, 9, seed=400 + i)
        b1 = _random_seq(rng, (-1, 0, 1))
        b2 = _random_seq(rng, (0, 1))
        w = build_wiener_witness(b1, b2, theta, spec, kappa)
        chk = verify_wiener_factorization(a, phi04, w, kappa, spec)
        assert chk.residual <= 1e-6
        assert chk.band_residual <= 1e-6
        assert chk.coeff_recovery_rel <= 1e-6
        worst_full = max(worst_full, chk.residual)
        worst_band = max(worst_band, chk.band_residual)
        worst_rec = max(worst_rec, chk.coeff_recovery_rel)
    print(f"\nACCEPTANCE 2 PASS: wiener factorization residuals <= 1e-6 "
          f"(full {worst_full:.2e}, band {worst_band:.2e}, "
          f"coefficient recovery {worst_rec:.2e})")


def test_acceptance_3_wiener_witness_norm_identity(spec, theta, kappa):
    rng = np.random.default_rng(2026)
    b1 = _random_seq(rng, (-1, 0, 1, 2))
    b2 = _random_seq(rng, (0, 1))
    w = build_wiener_witness(b1, b2, theta, spec, kappa)
    worst = 0.0
    exps = (0.5, 1.0, 2.0, math.inf)
    for p in exps:
        for q in exps:
            for j in (1, 2):
                lhs, rhs = wiener_witness_norm_identity(w, j, p, q, kappa, spec)
                rel = abs(lhs - rhs) / rhs
                assert rel <= 1e-6
                worst = max(worst, rel)
    print(f"\nACCEPTANCE 3 PASS: witness norm identity over (p,q) in "
          f"{{1/2,1,2,inf}}^2, worst rel {worst:.2e} <= 1e-6")


def test_acceptance_4_pointwise_domination(spec, phi04, theta):
    rng = np.random.default_rng(2027)
    margins = []
    for i in range(10):
        a = random_lattice_coefficients(1, 1, 9, seed=300 + i)
        w = build_amalgam_witness(_random_trig(rng), _random_trig(rng), theta, spec)
        chk = verify_amalgam_factorization(a, phi04, w, spec)
        assert chk.domination_margin >= 0.0
        margins.append(chk.domination_margin)
    print(f"\nACCEPTANCE 4 PASS: |T_aPhi| >= |T_period| at every Q grid point "
          f"(min margin {min(margins):.2e} >= 0)")


def test_acceptance_5_scaling_slopes():
    t0 = time.perf_counter()
    fam = make_scaling_family()  # eps {1/2, 1/4, 1/8}, n = 1
    kap = make_window(1, 0.6)
    lines = []
    for q in (1.0, 2.0, math.inf):
        fit = amalgam_scaling_slope(fam, q)
        expected = 0.0 if math.isinf(q) else 1.0 / q
        assert abs(fit.slope - expected) <= 0.1
        if math.isinf(q):
            # R^2 is vacuous at zero slope; boundedness is the real content
            assert max(fit.norms) / min(fit.norms) <= 1.05
        else:
            assert fit.r_squared >= 0.99
        lines.append(f"amalgam q={q}: {fit.slope:+.3f}")
    for p in (1.0, 2.0, math.inf):
        fit = wiener_scaling_slope(fam, p, kap)
        expected = 0.0 if math.isinf(p) else 1.0 / p
        assert abs(fit.slope - expected) <= 0.1
        if math.isinf(p):
            assert max(fit.norms) / min(fit.norms) <= 1.05
        else:
            assert fit.r_squared >= 0.99
        lines.append(f"wiener p={p}: {fit.slope:+.3f}")
    dt = time.perf_counter() - t0
    assert dt <= 120.0
    print(f"\nACCEPTANCE 5 PASS: slopes within 0.1 of n/q resp. n/p "
          f"({'; '.join(lines)}); {dt:.1f}s <= 120s")


def test_acceptance_6_oracle_equivalences(spec, phi04):
    rng = np.random.default_rng(2028)
    # S_a against a brute-force triple loop, supports <= 5
    worst_s = 0.0
    for trial in range(10):
        a = random_lattice_coefficients(1, 2, 7, seed=500 + trial)
        b1 = _random_seq(rng, tuple(rng.integers(-4, 5, size=5)))
        b2 = _random_seq(rng, tuple(rng.integers(-4, 5, size=4)))
        out = apply_S(a, b1, b2)
        brute = {}
        for (m1, m2), av in a.items():
            for n1, v1 in b1.entries.items():
                for n2, v2 in b2.entries.items():
                    if n1 == m1 and n2 == m2:
                        key = (m1[0] + m2[0],)
                        brute[key] = brute.get(key, 0.0) + av * v1 * v2
        for k in set(out.entries) | set(brute):
            err = abs(out.entries.get(k, 0.0) - brute.get(k, 0.0))
            assert err <= 1e-12
            worst_s = max(worst_s, err)

    # periodic operator coefficients equal the sequence model exactly
    a = random_lattice_coefficients(1, 1, 9, seed=501)
    F1, F2 = _random_trig(rng), _random_trig(rng)
    per = apply_T_period(a, F1, F2)
    seq = apply_S(a, sequence_from_dict(1, F1.coeffs), sequence_from_dict(1, F2.coeffs))
    assert per.coeffs == seq.entries

    # fast decomposition path against the slow grouped double sum
    from latticebump.grid import idft, freq_function
    mask = np.abs(spec.axis_xi()) < spec.s / 4
    mk = lambda seed: idft(freq_function(spec, np.where(
        mask, np.random.default_rng(seed).standard_normal(spec.N)
        + 1j * np.random.default_rng(seed + 1).standard_normal(spec.N), 0)))
    f1, f2 = mk(502), mk(504)
    slow = apply_T_sigma(synth_sigma(a, phi04, spec), f1, f2).samples
    d = cm_decompose(phi04, M=128)
    fast = apply_T_aPhi_fast(a, d, f1, f2).samples
    rel_fast = float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
    assert rel_fast <= 1e-5

    # symbol assembly through the decomposition stays within its tail bound
    d64 = cm_decompose(phi04, M=64)
    gap = float(np.max(np.abs(sigma_from_cm(a, d64, spec).samples
                              - synth_sigma(a, phi04, spec).samples)))
    bound = d64.tail * a.sup_norm() * 4
    assert gap <= bound
    print(f"\nACCEPTANCE 6 PASS: S_a brute force exact ({worst_s:.1e} <= 1e-12); "
          f"T_period == S_a coefficients; fast/slow rel {rel_fast:.2e} <= 1e-5 "
          f"(M=128); sigma_from_cm gap {gap:.2e} <= tail bound {bound:.2e}")


def test_acceptance_7_inequality_suite(spec):
    rng = np.random.default_rng(2029)
    count = 0
    for (p, q) in ((1.0, 2.0), (0.5, 3.0), (2.0, math.inf)):
        for _ in range(100):
            F = rng.random((8, 8))
            lhs, rhs = mixed_norm_check(F, p, q)
            assert lhs <= rhs * (1 + 1e-12)
            count += 1
    for _ in range(50):
        v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        norms_seq = [lq_seq_norm(v, q) for q in (0.5, 1.0, 2.0, math.inf)]
        for a, b in zip(norms_seq, norms_seq[1:]):
            assert a >= b - 1e-12 * abs(a)
    from latticebump.grid import space_function
    worst = 0.0
    for p in (0.5, 1.0, 2.0, 7.0, math.inf):
        f = space_function(spec, rng.standard_normal(spec.shape)
                           + 1j * rng.standard_normal(spec.shape))
        rel = abs(amalgam_norm(f, p, p) - lp_norm(f, p)) / lp_norm(f, p)
        assert rel <= 1e-12
        worst = max(worst, rel)
    print(f"\nACCEPTANCE 7 PASS: mixed-norm inequality on {count} random arrays; "
          f"l^q monotone in q; amalgam(p,p)=L^p (worst rel {worst:.1e} <= 1e-12)")


def test_acceptance_8_condition_B(phi04, condition_b):
    assert condition_b.holds and condition_b.witness == (0.0, 0.0)
    wide = make_plateau(2, 0.9, 1.0)
    assert not check_condition_B(wide).holds
    from test_bumps import _brute_force_condition_b
    fixtures = [phi04, wide,
                make_bump(2, "tensor-exp", center=(0.5, 0.5), radius=0.4),
                make_bump(2, "tensor-exp", radius=0.7),
                make_plateau(2, 1.1, 1.2)]
    for fx in fixtures:
        assert check_condition_B(fx).holds == _brute_force_condition_b(fx)
    print(f"\nACCEPTANCE 8 PASS: condition (B) checker (radius-0.4 holds at "
          f"{condition_b.witness}, box [-1,1]^2 fails, brute-force agreement "
          f"on {len(fixtures)} fixtures)")


def test_acceptance_9_transference_ratio_stability(spec, phi04, theta, kappa):
    t0 = time.perf_counter()
    family = [random_lattice_coefficients(1, 1, 9, seed=600 + i) for i in range(20)]
    ex = ExponentTuple(2, 2, 2, 2, 2, 2)
    spreads = {}
    for space in ("amalgam", "wiener"):
        rep = transference_report(family, phi04, ex, space, theta, spec,
                                  kappa=kappa, params=ACCEPT_SEARCH)
        assert rep.all_finite
        assert rep.ratio_spread <= 10.0  # configured artifact bound, not a paper constant
        spreads[space] = rep.ratio_spread
    dt = time.perf_counter() - t0
    assert dt <= 600.0
    print(f"\nACCEPTANCE 9 PASS: 20-member ratio stability, max/min = "
          f"{spreads['amalgam']:.2f} (amalgam), {spreads['wiener']:.2f} (wiener) "
          f"<= 10; {dt:.0f}s <= 600s")


def test_acceptance_10_necessity_verdicts(spec, phi04, theta, kappa):
    # rejection with citation
    with pytest.raises(ExponentHypothesisError) as e1:
        transference_report([random_lattice_coefficients(1, 1, 4, seed=1)], phi04,
                            ExponentTuple(2, 2, 2, 2, 2, 0.5), "amalgam",
                            theta, spec, params=ACCEPT_SEARCH)
    assert "1/q <= 1/q1 + 1/q2" in e1.value.citation
    with pytest.raises(ExponentHypothesisError) as e2:
        transference_report([random_lattice_coefficients(1, 1, 4, seed=1)], phi04,
                            ExponentTuple(math.inf, math.inf, 1, 1, 1, 1),
                            "wiener", theta, spec, kappa=kappa, params=ACCEPT_SEARCH)
    assert "1/p <= 1/p1 + 1/p2" in e2.value.citation

    # measured slope gaps exceed 0.1 in the violated direction
    fam = make_scaling_family()
    one = lambda u, v: np.ones(np.broadcast(u, v).shape)
    s_in = amalgam_scaling_slope(fam, 2.0).slope
    out = bilinear_product_scaling(fam, one, [("amalgam", 0.5)])[0].slope
    v_a = necessity_verdict("amalgam", (s_in, s_in), out)
    assert v_a.status == "violated" and v_a.gap > 0.1

    w_in = wiener_scaling_slope(fam, math.inf, kappa).slope
    w_out = bilinear_product_scaling(fam, one, [("wiener", 1.0)],
                                     kappa=kappa)[0].slope
    v_w = necessity_verdict("wiener", (w_in, w_in), w_out)
    assert v_w.status == "violated" and v_w.gap > 0.1
    print(f"\nACCEPTANCE 10 PASS: necessity rejections carry the scaling citations; "
          f"measured gaps amalgam {v_a.gap:.2f}, wiener {v_w.gap:.2f} > 0.1")
