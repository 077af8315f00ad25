import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latticebump.bumps import (bump_eval_axes, check_condition_B, make_bump, make_theta_pair,
                               make_window, window_eval_axes)
from latticebump.grid import _centered, dft, freq_function, idft, make_grid, space_function
from latticebump.norms import (ExponentTuple, _pooled_band_norm, _power_norm, _power_norms,
                               _wiener_l2, amalgam_norm, loglog_slope, lp_norm, lp_norm_torus,
                               lq_seq_norm, mixed_norm_check, wiener_band_values, wiener_norm)
from latticebump.operators import sequence_from_dict, trig_poly_from_dict
from latticebump.symbols import random_lattice_coefficients
from latticebump.transference import _T_aPhi_witness, build_wiener_witness


def _window_at(kappa, spec, shift):
    """Frequency samples of kappa(xi - shift): one band's multiplier."""
    return window_eval_axes(kappa, [ax - t for ax, t in zip(spec.freq_points(), shift)])


def _indicator_q(spec, half_width=0.5):
    return space_function(
        spec, lambda x: ((x > -half_width) & (x <= half_width)).astype(complex))


exponents = st.one_of(st.floats(0.25, 8.0), st.just(math.inf))


def test_lp_of_unit_cube_indicator(spec):
    f = _indicator_q(spec)
    for p in (0.5, 1.0, 2.0, 7.0):
        assert lp_norm(f, p) == pytest.approx(1.0, rel=1e-12)


def test_lp_homogeneity(spec, rng):
    f = space_function(spec, rng.standard_normal(spec.shape)
                       + 1j * rng.standard_normal(spec.shape))
    c = 3.7 - 1.2j
    g = space_function(spec, c * f.samples)
    for p in (0.5, 1.0, 2.0, math.inf):
        assert lp_norm(g, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12)


def test_lp_sup_of_bump(spec):
    b = make_bump(1, "tensor-exp", radius=1.0)
    f = space_function(spec, lambda x: bump_eval_axes(b, [x]))
    assert lp_norm(f, math.inf) == pytest.approx(np.exp(-1.0))


def test_lq_examples():
    assert lq_seq_norm([3, 4], 2) == pytest.approx(5.0)
    assert lq_seq_norm([3, 4], math.inf) == 4.0
    assert lq_seq_norm([1, 1, 1, 1], 0.5) == pytest.approx(16.0)
    assert lq_seq_norm({(0,): 3, (5,): 4}, 2) == pytest.approx(5.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=12))
def test_lq_monotone_in_q(vals):
    qs = (0.5, 1.0, 2.0, math.inf)
    norms = [lq_seq_norm(vals, q) for q in qs]
    for a, b in zip(norms, norms[1:]):
        assert a >= b - 1e-9 * max(1.0, abs(a))


def test_amalgam_unit_cube_any_exponents(spec):
    f = _indicator_q(spec)
    for p in (0.5, 1.0, 3.0, math.inf):
        for q in (0.5, 1.0, 2.0, math.inf):
            assert amalgam_norm(f, p, q) == pytest.approx(1.0, rel=1e-12)


def test_amalgam_three_cubes(spec):
    f = _indicator_q(spec, half_width=1.5)
    for q in (0.5, 1.0, 2.0, 4.0):
        assert amalgam_norm(f, 17.0, q) == pytest.approx(3.0 ** (1.0 / q), rel=1e-12)
    assert amalgam_norm(f, 17.0, math.inf) == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(exponents)
def test_amalgam_pp_is_lp(p):
    spec = make_grid(1, 8, 8)
    rng = np.random.default_rng(99)
    f = space_function(spec, rng.standard_normal(spec.shape)
                       + 1j * rng.standard_normal(spec.shape))
    lhs = amalgam_norm(f, p, p)
    rhs = lp_norm(f, p)
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_amalgam_homogeneity_small_p(spec, rng):
    f = space_function(spec, rng.standard_normal(spec.shape))
    g = space_function(spec, -2.5 * f.samples)
    assert amalgam_norm(g, 0.5, 0.25) == pytest.approx(
        2.5 * amalgam_norm(f, 0.5, 0.25), rel=1e-12)


def test_wiener_single_band_is_lp(spec, kappa):
    env = make_bump(1, "tensor-exp", radius=0.3)
    mu0 = 3
    f = idft(freq_function(spec, lambda xi: bump_eval_axes(env, [xi - mu0])))
    envelope = idft(freq_function(spec, lambda xi: bump_eval_axes(env, [xi])))
    for p, q in ((2.0, 1.0), (0.5, 3.0), (math.inf, math.inf)):
        assert wiener_norm(f, p, q, kappa) == pytest.approx(
            lp_norm(envelope, p), rel=1e-12)


def test_wiener_zero(spec, kappa):
    z = space_function(spec, np.zeros(spec.shape))
    assert wiener_norm(z, 2.0, 2.0, kappa) == 0.0


def test_wiener_margin_violation(spec, kappa):
    env = make_bump(1, "tensor-exp", radius=0.3)
    edge = spec.s / 2 - 0.4
    f = idft(freq_function(spec, lambda xi: bump_eval_axes(env, [xi - edge])))
    with pytest.raises(ValueError):
        wiener_norm(f, 2.0, 2.0, kappa)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("side", ["space", "frequency"])
def test_wiener_refuses_non_finite_samples(spec, kappa, side, bad):
    # one bad sample would spread over the whole spectrum and leave no
    # support box to cover: it is named instead
    env = make_bump(1, "tensor-exp", radius=0.3)
    F = freq_function(spec, lambda xi: bump_eval_axes(env, [xi - 1]))
    f = F if side == "frequency" else idft(F)
    f.samples[7] = bad
    with pytest.raises(ValueError, match=f"{side}-side input has non-finite samples"):
        wiener_band_values(f, kappa)
    with pytest.raises(ValueError, match=f"{side}-side input has non-finite samples"):
        wiener_norm(f, 2.0, 2.0, kappa)


@pytest.mark.parametrize("n, L, s", [(1, 8, 32), (1, 16, 64), (2, 8, 32), (2, 16, 32)])
@pytest.mark.parametrize("outer", [0.55, 0.6, 0.65])
def test_wiener_2_2_norm_is_the_weighted_l2_of_the_spectrum(n, L, s, outer):
    # discrete Plancherel band by band: the W^{2,2} norm of the band stack is
    # (L^-n sum omega^2 |F|^2)^(1/2), omega^2 = sum_k kappa(xi - k - offset)^2,
    # on both witness spectra and the output spectrum, each at its offset
    spec = make_grid(n, L, s)
    phi = make_bump(2 * n, "tensor-exp", radius=0.4)
    cb = check_condition_B(phi)
    theta = make_theta_pair(phi, cb.witness, cb.slack / 4, spec)
    kappa = make_window(n, outer)
    rng = np.random.default_rng(60 + L + n)
    b1, b2 = (sequence_from_dict(n, {m: complex(*rng.standard_normal(2))
                                     for m in itertools.product((-1, 0, 1), repeat=n)})
              for _ in range(2))
    a = random_lattice_coefficients(n, 1, 9, 61 + L)
    w = build_wiener_witness(b1, b2, theta, spec, kappa)
    xi0 = np.asarray(theta.xi0, dtype=float)
    for F, offset in ((w.fhat1, xi0[:n]), (w.fhat2, xi0[n:]),
                      (_T_aPhi_witness(a, phi, w, spec), xi0[:n] + xi0[n:])):
        stack = wiener_band_values(F, kappa, offset=offset)[1]
        want = _pooled_band_norm(stack, spec, 2.0, 2.0)
        del stack
        got = _wiener_l2(F.samples, spec, kappa, offset)[0]
        assert got == pytest.approx(want, rel=1e-14, abs=0)
        assert wiener_norm(F, 2.0, 2.0, kappa, offset=offset) == got
        assert wiener_norm(idft(F), 2.0, 2.0, kappa, offset=offset) == pytest.approx(
            got, rel=1e-12, abs=0)


@pytest.mark.parametrize("p, q", [(2.0, 2.0), (2.0, 1.0), (1.0, 2.0)])
@pytest.mark.parametrize("side", ["space", "frequency"])
def test_wiener_refusals_and_zero_hold_at_2_2_as_off_it(spec, kappa, p, q, side):
    env = make_bump(1, "tensor-exp", radius=0.3)
    for shift, bad in ((1.0, np.nan), (1.0, np.inf), (spec.s / 2 - 0.4, None)):
        F = freq_function(spec, lambda xi: bump_eval_axes(env, [xi - shift]))
        f = F if side == "frequency" else idft(F)
        if bad is None:
            with pytest.raises(ValueError, match="window margin violation"):
                wiener_norm(f, p, q, kappa)
            continue
        f.samples[7] = bad
        with pytest.raises(ValueError, match=f"{side}-side input has non-finite samples"):
            wiener_norm(f, p, q, kappa)
    zero = (freq_function if side == "frequency" else space_function)(
        spec, np.zeros(spec.shape))
    assert wiener_norm(zero, p, q, kappa) == 0.0


def test_wiener_window_equivalence_reported(spec, rng):
    # two admissible windows give equivalent quasi-norms; record the factor
    k1, k2 = make_window(1, 0.55), make_window(1, 0.75)
    ratios = []
    for seed in range(5):
        r = np.random.default_rng(seed)
        mask = np.abs(spec.axis_xi()) < spec.s / 4
        F = np.where(mask, r.standard_normal(spec.N) + 1j * r.standard_normal(spec.N), 0)
        f = idft(freq_function(spec, F))
        ratios.append(wiener_norm(f, 2.0, 1.0, k1) / wiener_norm(f, 2.0, 1.0, k2))
    c = max(max(ratios), 1.0 / min(ratios))
    assert math.isfinite(c) and c >= 1.0
    print(f"\nwindow equivalence factor over fixtures: C = {c:.4f}")


def test_mixed_norm_separable_equality(rng):
    u = rng.random(6) + 0.1
    v = rng.random(9) + 0.1
    F = np.outer(u, v)
    lhs, rhs = mixed_norm_check(F, 1.0, 2.5)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_mixed_norm_identity_matrix():
    lhs, rhs = mixed_norm_check(np.eye(2), 1.0, 2.0)
    assert lhs == pytest.approx(np.sqrt(2.0))
    assert rhs == pytest.approx(2.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([(1.0, 2.0), (0.5, 3.0), (2.0, math.inf)]))
def test_mixed_norm_inequality_random(seed, pq):
    p, q = pq
    rng = np.random.default_rng(seed)
    F = rng.random((8, 8))
    lhs, rhs = mixed_norm_check(F, p, q)
    assert lhs <= rhs * (1 + 1e-12)


def test_mixed_norm_rejects_p_above_q():
    with pytest.raises(ValueError):
        mixed_norm_check(np.eye(2), 3.0, 1.0)


def test_lp_norm_torus_matches_plancherel(rng):
    F = trig_poly_from_dict(1, {m: complex(*rng.standard_normal(2)) for m in (-2, 0, 3)})
    l2 = lp_norm_torus(F, 2.0)
    coeff = np.sqrt(sum(abs(c) ** 2 for c in F.coeffs.values()))
    assert l2 == pytest.approx(coeff, rel=1e-12)


def test_exponent_tuple_hypotheses():
    t = ExponentTuple(2, 2, 2, 2, 2, 2)
    assert t.amalgam_hypothesis() and t.wiener_hypothesis()
    assert not ExponentTuple(2, 2, 2, 2, 2, 0.5).amalgam_hypothesis()
    assert not ExponentTuple(math.inf, math.inf, 1, 2, 2, 2).wiener_hypothesis()
    with pytest.raises(ValueError):
        ExponentTuple(0, 2, 2, 2, 2, 2)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("weight", [1.0, 0.37])
def test_power_norm_axis_rows_match_flat_calls(p, weight):
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((5, 4, 33)) + 1j * rng.standard_normal((5, 4, 33))
    vals[1, 2] = 0.0          # a zero row
    vals[3] *= 1e-300         # tiny magnitudes stay in range
    rows = _power_norm(vals, p, weight, axis=-1)
    flat = np.array([[_power_norm(r, p, weight) for r in block] for block in vals])
    assert rows.shape == (5, 4) and rows[1, 2] == 0.0
    if p in (1.0, math.inf):
        # everything up to the root is shared, and these roots are exact
        assert rows.tobytes() == flat.tobytes()
    else:
        # a float result takes numpy's scalar power for the root, an array its
        # array power; the two can differ in the last bit
        np.testing.assert_array_max_ulp(rows, flat, maxulp=1)
    # a leading axis (the Wiener band axis) sums in another order
    cols = _power_norm(np.moveaxis(vals, -1, 0), p, weight, axis=0)
    np.testing.assert_allclose(cols, rows, rtol=1e-14, atol=0)


@pytest.mark.parametrize("p", [0.05, 0.5, 1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("axis", [None, 0, -1])
def test_power_norm_of_real_input_equals_its_complex_cast_bitwise(p, axis):
    # |x| = hypot(x, 0) bit for bit, so a real array needs no complex copy
    vals = np.random.default_rng(12).standard_normal((6, 40))
    vals[2] = 0.0
    vals[4] *= 1e-300
    got = _power_norm(vals, p, 0.37, axis=axis)
    want = _power_norm(vals.astype(complex), p, 0.37, axis=axis)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("axis", [None, 0, -1])
@pytest.mark.parametrize("ps", [[0.5, 1.0, 2.0, math.inf], [math.inf, 3.0, 3.0, 0.05], [2.0],
                                [math.inf]])
def test_power_norms_equal_one_call_per_exponent_bitwise(ps, axis):
    # one modulus, peak and division serve every exponent
    vals = np.random.default_rng(13).standard_normal((6, 40)) + 1j
    vals[2] = 0.0
    vals[4] *= 1e-300
    got = _power_norms(vals, ps, 0.37, axis=axis)
    assert [np.asarray(g).tobytes() for g in got] == [
        np.asarray(_power_norm(vals, p, 0.37, axis=axis)).tobytes() for p in ps]


# ---------------------------------------------------------------------------
# scale-stable power sums at the ends of the float range
# ---------------------------------------------------------------------------

small_exponents = st.one_of(st.sampled_from([0.05, 0.5, 1.0, 2.0]), st.floats(0.05, 8.0),
                            st.just(math.inf))


@st.composite
def _scaled_vectors(draw, rows=1):
    """Complex (rows, k) arrays m * 2^e: mantissa parts in [-1, 1] (exact zeros
    included) and one exponent per row, from the subnormal range to ~1e300."""
    k = draw(st.integers(1, 12))
    parts = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    m = np.array(draw(st.lists(parts, min_size=2 * rows * k, max_size=2 * rows * k)))
    m = (m[: rows * k] + 1j * m[rows * k:]).reshape(rows, k)
    e = np.array(draw(st.lists(st.integers(-1074, 996), min_size=rows, max_size=rows)))
    return np.ldexp(m.real, e[:, None]) + 1j * np.ldexp(m.imag, e[:, None])


def _norm_is_normal(vals, p, weight):
    """Whether the exact (weight * sum |vals|^p)^(1/p) is a normal float, with
    a margin of 2^2 at both ends for the computed value's rounding."""
    mags = np.abs(vals).ravel()
    peak = mags.max(initial=0.0)
    if peak == 0.0:
        return False
    log2 = math.log2(peak)
    if not math.isinf(p):
        log2 += (math.log2(weight) + math.log2(np.sum((mags / peak) ** p))) / p
    return -1020 <= log2 <= 1021


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_scaled_vectors(), small_exponents, st.sampled_from([1.0, 2.0**-5, 0.37]),
       st.integers(-80, 80), st.integers(0, 3))
def test_power_norm_is_homogeneous(vals, p, weight, k, turns):
    c = 2.0**k * 1j**turns  # exact: scales by a power of two, rotates by quarter turns
    with np.errstate(all="ignore"):
        scaled = c * vals
        exact = np.array_equal(scaled / c, vals)  # no bit lost to under/overflow
    assume(exact)
    assume(_norm_is_normal(vals, p, weight) and _norm_is_normal(scaled, p, weight))
    assert _power_norm(scaled, p, weight) == pytest.approx(
        2.0**k * _power_norm(vals, p, weight), rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_scaled_vectors(), small_exponents, st.integers(-80, 80))
def test_lp_norm_is_homogeneous(vals, p, k):
    spec = make_grid(2, 2, 2)  # 16 samples, weight h^2 = 1/4
    f = space_function(spec, np.resize(vals, spec.shape))
    with np.errstate(all="ignore"):
        g = space_function(spec, 2.0**k * f.samples)
        exact = np.array_equal(g.samples / 2.0**k, f.samples)
    assume(exact)
    assume(_norm_is_normal(f.samples, p, 0.25) and _norm_is_normal(g.samples, p, 0.25))
    assert lp_norm(g, p) == pytest.approx(2.0**k * lp_norm(f, p), rel=1e-12, abs=0.0)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 3).flatmap(lambda n: st.tuples(*(st.integers(0, 4),) * n)),
       small_exponents, st.sampled_from([1.0, 2.0**-5, 0.37]))
def test_power_norm_of_zeros_is_zero(shape, p, weight):
    zeros = np.zeros(shape, dtype=complex)
    assert _power_norm(zeros, p, weight) == 0.0
    if zeros.ndim:
        rows = _power_norm(zeros, p, weight, axis=-1)
        assert rows.shape == shape[:-1] and not np.any(rows)
    assert lp_norm(space_function(make_grid(1, 2, 2), 0.0), p) == 0.0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(_scaled_vectors), small_exponents,
       st.sampled_from([1.0, 2.0**-5, 0.37]))
def test_power_norm_rows_match_flat_calls_across_the_range(vals, p, weight):
    assume(all(_norm_is_normal(r, p, weight) or not np.any(r) for r in vals))
    rows = _power_norm(vals, p, weight, axis=-1)
    flat = np.array([_power_norm(r, p, weight) for r in vals])
    np.testing.assert_array_max_ulp(rows, flat, maxulp=1)


@pytest.mark.parametrize("mag", [1e-290, 1e-300, 1e-305])
def test_lp_norm_of_a_tiny_constant_keeps_its_digits(spec, mag):
    # the peak times h^(1/p) = 2^-100 leaves the normal range although the
    # norm mag * (h N)^(1/p) does not
    f = space_function(spec, mag)
    assert lp_norm(f, 0.05) == pytest.approx(mag * (spec.h * spec.N) ** 20, rel=1e-12, abs=0.0)


def test_power_norm_overflow_raises():
    # the exact norm 1e300 * 3^20 exceeds the float range: under the
    # error::RuntimeWarning filter the overflow is an error, not an inf
    with pytest.raises(RuntimeWarning, match="overflow"):
        _power_norm(np.full(3, 1e300), 0.05)


def test_wiener_band_stack_is_built_band_by_band():
    # n = 2 Wiener witness at a working grid: 9 bands of 256^2 samples
    spec = make_grid(2, 8, 32)
    phi = make_bump(4, "tensor-exp", radius=0.4)
    cb = check_condition_B(phi)
    theta = make_theta_pair(phi, cb.witness, cb.slack / 4, spec)
    kappa = make_window(2, 0.6)
    rng = np.random.default_rng(50)
    b1 = sequence_from_dict(2, {m: complex(*rng.standard_normal(2))
                                for m in itertools.product((-1, 0, 1), repeat=2)})
    f1 = build_wiener_witness(b1, b1, theta, spec, kappa).f1
    offset = theta.xi0[:2]
    tracemalloc.start()
    try:
        bands, stack = wiener_band_values(f1, kappa, offset=offset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # oracle: one batched transform over the whole stack
    F = dft(f1).samples
    pieces = np.stack([_window_at(kappa, spec, np.asarray(mu, float) + offset) * F
                       for mu in bands])
    assert np.array_equal(stack, spec.s**2 * _centered(np.fft.ifftn, pieces, axes=(1, 2)))
    assert peak <= 2 * stack.nbytes


def test_band_whose_window_is_zero_on_the_slab_is_an_exact_zero_row(monkeypatch):
    # the spectrum's top bin sits at 0.4 = 1 - outer: band 1's window touches
    # it at its outer edge, where it is exactly 0, so band 1 covers the box
    # and keeps its place, with a zero row and no transform
    spec = make_grid(1, 10, 4)
    kappa = make_window(1, 0.6)
    F = np.zeros(spec.shape, dtype=complex)
    F[spec.N // 2 + 2: spec.N // 2 + 5] = [1.0, 2.0 - 1j, 0.5j]  # xi = 0.2, 0.3, 0.4
    transforms = []
    ifftn = np.fft.ifftn

    def counted(*args, **kwargs):
        transforms.append(args[0].shape)
        return ifftn(*args, **kwargs)
    monkeypatch.setattr(np.fft, "ifftn", counted)
    bands, stack = wiener_band_values(freq_function(spec, F), kappa)
    assert bands == [(0,), (1,)]
    assert len(transforms) == 1
    assert stack[1].tobytes() == np.zeros(spec.shape, dtype=complex).tobytes()
    mult = _window_at(kappa, spec, np.zeros(1))
    assert np.array_equal(stack[0], spec.s * _centered(np.fft.ifftn, mult * F))


def test_band_stack_transforms_only_the_bands_its_spectrum_reaches(monkeypatch):
    # four scattered bins span a slab that most covering bands' windows
    # touch, but each bin lies in the support of at most four of them: only
    # a band whose window meets a nonzero bin is transformed, the others
    # keep an exact-zero row
    spec = make_grid(2, 8, 16)
    kappa = make_window(2, 0.6)
    F = np.zeros(spec.shape, dtype=complex)
    for (u, v), c in {(-2.5, 0.25): 1.0, (0.0, 1.5): 2.0 - 1j, (1.5, -2.0): 0.5j,
                      (2.375, 2.5): -1.0}.items():
        F[spec.N // 2 + int(u * spec.L), spec.N // 2 + int(v * spec.L)] = c
    transforms = []
    ifftn = np.fft.ifftn

    def counted(*args, **kwargs):
        transforms.append(args[0].shape)
        return ifftn(*args, **kwargs)
    monkeypatch.setattr(np.fft, "ifftn", counted)
    bands, stack = wiener_band_values(freq_function(spec, F), kappa)
    monkeypatch.undo()
    live = [bool((_window_at(kappa, spec, np.asarray(mu, float)) * F).any()) for mu in bands]
    assert len(bands) == 36 and sum(live) <= 12
    assert transforms == [spec.shape] * sum(live)
    for mu, band, on in zip(bands, stack, live):
        mult = _window_at(kappa, spec, np.asarray(mu, float))
        assert np.array_equal(band, spec.s**2 * _centered(np.fft.ifftn, mult * F))
        assert band.any() == on


def test_spectrum_side_band_stack_is_the_full_window_product_bitwise():
    # an exact witness spectrum is 0 off its theta balls: the window is
    # evaluated on the bounding slab of its nonzeros only, and no bit moves
    spec = make_grid(2, 8, 32)
    phi = make_bump(4, "tensor-exp", radius=0.4)
    cb = check_condition_B(phi)
    theta = make_theta_pair(phi, cb.witness, cb.slack / 4, spec)
    kappa = make_window(2, 0.6)
    b1 = sequence_from_dict(2, {(0, 0): 1.0, (1, -1): 0.5j})
    fhat = build_wiener_witness(b1, b1, theta, spec, kappa).fhat1
    offset = theta.xi0[:2]
    bands, stack = wiener_band_values(fhat, kappa, offset=offset)
    rows, cols = np.nonzero(fhat.samples)
    assert np.ptp(rows) < spec.N // 4 and np.ptp(cols) < spec.N // 4
    for mu, band in zip(bands, stack):
        mult = _window_at(kappa, spec, np.asarray(mu, float) + offset)
        assert np.array_equal(band, spec.s**2 * _centered(np.fft.ifftn, mult * fhat.samples))


@pytest.mark.parametrize("ulps", [[0, 0, 0, 0, 0, 0], [0, 2, 1, 0, 2, 1], [2, 0, 0, 1, 0, 0]])
def test_loglog_slope_of_a_ladder_flat_to_two_ulps_is_exactly_flat(ulps):
    base = 1.0735427826163053
    ys = []
    for k in ulps:
        y = base
        for _ in range(k):
            y = np.nextafter(y, 2.0)
        ys.append(y)
    slope, _intercept, r2 = loglog_slope([2.0 ** j for j in range(1, 7)], ys)
    assert (slope, r2) == (0.0, 1.0)

