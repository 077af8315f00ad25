import math
import tracemalloc

import numpy as np
import pytest

from latticebump.bumps import _axis_factor, make_bump, make_window
from latticebump.grid import GridFunction, idft
from latticebump.norms import (amalgam_norm, loglog_slope, lp_norm, wiener_band_values,
                               wiener_norm)
from latticebump.operators import AliasingWarning, _grouped_sum
from latticebump.norms import _plateau_band
from latticebump.scalinglab import (ScalingFamily, _eps_row, _phi_axis_data, _q_floor,
                                    _scaling_pass,
                                    amalgam_scaling_slope, bilinear_product_scaling,
                                    make_scaling_family, necessity_verdict, scaling_slopes,
                                    wiener_scaling_slope)

ONE = lambda u, v: np.ones(np.broadcast(u, v).shape)


@pytest.fixture(scope="module")
def fam():
    return make_scaling_family()


@pytest.fixture(scope="module")
def kap():
    return make_window(1, 0.6)


def test_family_certificates(fam):
    assert fam.min_q_modulus >= 1.0
    assert fam.tail_fraction <= 1e-6
    assert fam.epsilons == (0.5, 0.25, 0.125)
    # boxes follow the policy L(eps) >= 16/eps
    for e, spec in fam.specs.items():
        assert spec.L >= 16 / e


def test_family_base_case_norms_finite():
    fam1 = make_scaling_family(epsilons=(1.0, 0.5, 0.25), box_factor=96.0,
                               tail_budget=1e-4)
    f = fam1.f(1.0)
    assert math.isfinite(lp_norm(f, 2.0)) and lp_norm(f, 2.0) > 0


def test_modulation_does_not_change_modulus(fam):
    fam_mod = make_scaling_family(xi0=1.5)
    e = 0.25
    lhs = np.abs(fam.f(e).samples)
    rhs = np.abs(fam_mod.f(e).samples)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(lhs)


def test_frequency_support_is_exact(fam):
    e = 0.25
    F = fam.f_hat(e)
    xi = F.spec.axis_xi()
    outside = np.abs(xi) > e * max(fam.base.radius)
    assert np.all(F.samples[outside] == 0)


@pytest.mark.parametrize("n, xi0", [(1, 0.75), (1, -3.5), (2, (0.5, -0.25))])
def test_f_hat_on_its_support_slab_is_the_whole_grid_product_bitwise(n, xi0):
    fam = make_scaling_family(n=n, xi0=xi0, epsilons=(1.0, 0.5, 0.25), box_factor=16.0,
                              tail_budget=1.0)
    for e in fam.epsilons:
        spec, prof = fam.specs[e], fam.scaled_profile(e)
        want = np.full(spec.shape, e ** (-n) * prof.amplitude, dtype=complex)
        for j, xi in enumerate(spec.freq_points()):
            want = want * _axis_factor(prof, j, xi)
        assert fam.f_hat(e).samples.tobytes() == want.tobytes()


def test_family_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_scaling_family(epsilons=(0.25, 0.5))  # not decreasing
    with pytest.raises(ValueError, match="strictly decreasing"):
        make_scaling_family(epsilons=(0.5, 0.5, 0.5))  # a repeated eps adds no point
    with pytest.raises(ValueError):
        make_scaling_family(box_factor=8.0)  # below the 16/eps policy
    with pytest.raises(ValueError):
        make_scaling_family(box_factor=16.0)  # tail budget unattainable
    with pytest.raises(ValueError):
        make_scaling_family(xi0=1 / 7)  # off-grid modulation


@pytest.mark.parametrize("xi0", [1e300, 3.875, -4.0])
def test_family_rejects_a_spectrum_outside_the_frequency_box(xi0):
    # s = 8: the box is [-4, 4), and the widest spectrum has radius 0.5 * 0.3
    with pytest.raises(ValueError, match="leaves the frequency box"):
        make_scaling_family(xi0=xi0, s=8)
    assert make_scaling_family(xi0=3.75, s=8).xi0 == (3.75,)


def test_exact_dilation_law(fam):
    # ||phi(eps .)||_p = eps^{-1/p} ||phi||_p up to box truncation
    norms = [lp_norm(fam.f(e), 2.0) for e in fam.epsilons]
    for (e1, n1), (e2, n2) in zip(zip(fam.epsilons, norms),
                                  list(zip(fam.epsilons, norms))[1:]):
        assert n2 / n1 == pytest.approx((e1 / e2) ** 0.5, rel=1e-3)


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_amalgam_slopes(fam, q):
    fit = amalgam_scaling_slope(fam, q)
    expected = 0.0 if math.isinf(q) else 1.0 / q
    assert fit.slope == pytest.approx(expected, abs=0.1)
    if not math.isinf(q):
        assert fit.r_squared >= 0.99
    else:
        # zero-slope fits have no meaningful R^2; the bounded-norm check stands in
        assert max(fit.norms) / min(fit.norms) <= 1.05


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_wiener_slopes(fam, kap, p):
    fit = wiener_scaling_slope(fam, p, kap)
    expected = 0.0 if math.isinf(p) else 1.0 / p
    assert fit.slope == pytest.approx(expected, abs=0.1)
    if not math.isinf(p):
        assert fit.r_squared >= 0.99
    else:
        assert max(fit.norms) / min(fit.norms) <= 1.05


def test_wiener_single_band_collapse(fam, kap):
    e = fam.epsilons[-1]
    f = fam.f(e)
    wn = wiener_norm(f, 2.0, 5.0, kap, offset=fam.xi0)
    ln = lp_norm(f, 2.0)
    assert abs(wn - ln) <= 1e-8 * ln


def test_wiener_rejects_leaky_family(kap):
    wide = make_scaling_family(base_radius=1.0, box_factor=96.0, tail_budget=1e-2)
    with pytest.raises(ValueError):
        wiener_scaling_slope(wide, 2.0, kap)


def test_regression_needs_three_points():
    fam2 = make_scaling_family(epsilons=(0.5, 0.25))
    with pytest.raises(ValueError):
        amalgam_scaling_slope(fam2, 2.0)


def test_product_scaling_constant_symbol(fam):
    ps = bilinear_product_scaling(fam, ONE, [("amalgam", 2.0)])[0]
    assert not ps.degenerate
    assert ps.slope == pytest.approx(0.5, abs=0.1)
    assert ps.r_squared >= 0.99
    assert ps.half_bound_held
    assert ps.min_modulus_on_core >= 0.5 * abs(ps.sigma_at_center)


def test_product_scaling_wiener(fam, kap):
    ps = bilinear_product_scaling(fam, ONE, [("wiener", 1.0)], kappa=kap)[0]
    assert ps.slope == pytest.approx(1.0, abs=0.1)


def test_product_scaling_degenerate_symbol(fam):
    vanish = lambda u, v: np.where((np.abs(u) > 0.2) & (np.abs(v) > 0.2), 1.0, 0.0)
    ps = bilinear_product_scaling(fam, vanish, [("amalgam", 2.0)])[0]
    assert ps.degenerate
    assert ps.slope is None


def _product_samples(sigma_fn, f1h, f2h):
    """Reference oracle (n = 1): T_sigma(f1, f2) by direct summation over the
    support nodes, folded with np.add.at; T is the idft of its spectrum L * G."""
    spec = f1h.spec
    xi = spec.axis_xi()
    i1 = np.nonzero(np.abs(f1h.samples) > 0)[0]
    i2 = np.nonzero(np.abs(f2h.samples) > 0)[0]
    W = (np.asarray(sigma_fn(xi[i1][:, None], xi[i2][None, :]), dtype=complex)
         * np.outer(f1h.samples[i1], f2h.samples[i2]) * spec.dxi ** 2)
    folded = (i1[:, None] + i2[None, :] - spec.N // 2) % spec.N
    G = np.zeros(spec.N, dtype=complex)
    np.add.at(G, folded.ravel(), W.ravel())
    return idft(GridFunction(spec, "frequency", spec.L * G)).samples


@pytest.mark.parametrize("sigma_fn", [ONE, lambda u, v: np.exp(-(u - v) ** 2) + 0.5j * u],
                         ids=["one", "smooth"])
def test_product_scaling_equals_support_sum_reference(sigma_fn):
    # the benchmark's ladder: eps 1/2 ... 1/64 at a grid-aligned xi0
    fam = make_scaling_family(xi0=0.75, epsilons=[2.0 ** -j for j in range(1, 7)])
    ps = bilinear_product_scaling(fam, sigma_fn, [("amalgam", 1.0)])[0]
    ref = [amalgam_norm(GridFunction(fam.specs[e], "space",
                                     _product_samples(sigma_fn, fam.f_hat(e), fam.f_hat(e))),
                        2.0, 1.0) for e in fam.epsilons]
    assert ps.norms == tuple(ref)


def test_product_scaling_batch_equals_single_measurements(kap):
    # one product per eps serves every measurement, bit for bit
    fam = make_scaling_family(xi0=0.75, epsilons=[2.0 ** -j for j in range(1, 7)])
    wanted = [("amalgam", 0.5), ("wiener", 1.0), ("amalgam", 1.0)]
    batch = bilinear_product_scaling(fam, ONE, wanted, kappa=kap)
    assert len(batch) == len(wanted)
    for m, ps in zip(wanted, batch):
        assert ps == bilinear_product_scaling(fam, ONE, [m], kappa=kap)[0]


def test_product_scaling_warns_when_output_folds():
    # 2 * xi0 = 5 lies outside the s = 8 frequency box [-4, 4)
    fam = make_scaling_family(xi0=2.5, s=8)
    with pytest.warns(AliasingWarning):
        bilinear_product_scaling(fam, ONE, [("amalgam", 2.0)])


def test_necessity_verdicts_measured(fam, kap):
    # amalgam, boundary case (2,2,1): consistent
    in1 = amalgam_scaling_slope(fam, 2.0).slope
    ps1 = bilinear_product_scaling(fam, ONE, [("amalgam", 1.0)])[0]
    v = necessity_verdict("amalgam", (in1, in1), ps1.slope)
    assert v.status == "consistent"

    # amalgam violation (2,2,1/2): output doubles the input growth
    ps2 = bilinear_product_scaling(fam, ONE, [("amalgam", 0.5)])[0]
    v2 = necessity_verdict("amalgam", (in1, in1), ps2.slope)
    assert v2.status == "violated"
    assert v2.gap > 0.1
    assert "1/q <= 1/q1 + 1/q2" in v2.citation

    # wiener violation (inf, inf, 1)
    win = wiener_scaling_slope(fam, math.inf, kap).slope
    ps3 = bilinear_product_scaling(fam, ONE, [("wiener", 1.0)], kappa=kap)[0]
    v3 = necessity_verdict("wiener", (win, win), ps3.slope)
    assert v3.status == "violated"
    assert v3.gap > 0.1
    assert "1/p <= 1/p1 + 1/p2" in v3.citation


def test_dilation_law_improves_with_box(fam):
    # the exact dilation identity is box-truncation limited; a larger box
    # brings the measured ratio closer to the continuum value
    small = make_scaling_family(box_factor=96.0, tail_budget=1e-4)
    big = fam  # box_factor 192
    def dev(family):
        n1 = lp_norm(family.f(0.5), 1.0)
        n2 = lp_norm(family.f(0.25), 1.0)
        return abs(n2 / n1 - 2.0)
    assert dev(big) <= dev(small) + 1e-12


def test_scalar_xi0_is_the_centre_on_every_axis():
    fam2 = make_scaling_family(n=2, xi0=0.5, epsilons=(1.0, 0.75, 0.5))
    assert fam2.xi0 == (0.5, 0.5)
    with pytest.raises(ValueError, match="xi0 must have 2 components"):
        make_scaling_family(n=2, xi0=[0.5], epsilons=(1.0, 0.75, 0.5))


def test_family_build_stays_under_its_memory_bound():
    # a loose bound: the Q-floor is one quadrature at x = 1/2, and no
    # probe-sized phase matrix is built at all
    tracemalloc.start()
    try:
        make_scaling_family()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_family_build_stays_under_8_mib():
    # the Q-floor reads one point; the FFT tail ladder (2^17 samples) is
    # the largest array of the build
    tracemalloc.start()
    try:
        make_scaling_family()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_phi_axis_data_is_the_nonnegative_branch_of_the_full_transform(fam):
    # oracle: the complex FFT of the same zero-padded samples, its x >= 0
    # bins sorted; the real FFT gives the same points, each modulus to 1e-12
    # relative of the peak (the family's tail fraction moved by 3.9e-10
    # relative when it switched)
    x, mag = _phi_axis_data(fam.base)
    pad, samples, r = 1 << 17, 2048, fam.base.radius[0]
    vals = _axis_factor(fam.base, 0, -r + 2 * r * np.arange(samples) / samples)
    padded = np.zeros(pad)
    padded[:samples // 2], padded[-(samples // 2):] = vals[samples // 2:], vals[:samples // 2]
    du = 2 * r / samples
    x_full = np.fft.fftfreq(pad, d=du)
    keep = x_full >= 0
    order = np.argsort(x_full[keep])
    assert np.array_equal(x, x_full[keep][order])
    ref = np.abs(np.fft.fft(padded) * du)[keep][order]
    assert np.max(np.abs(mag - ref)) <= 1e-12 * np.max(ref)


def _dense_q_floor(base):
    # min |phi_1d| over an endpoint-inclusive 513-point probe of [0, 1/2],
    # with the same 4096-node quadrature as the one-point floor
    r = base.radius[0]
    nodes = -r + 2 * r * np.arange(4096) / 4096
    weights = _axis_factor(base, 0, nodes) * (2 * r / 4096)
    probe = np.linspace(0.0, 0.5, 513)
    return float(np.min(np.abs(np.exp(2j * np.pi * np.outer(probe, nodes)) @ weights)))


@pytest.mark.parametrize("n", [1, 2])
def test_one_point_q_floor_is_the_dense_probe_minimum(n):
    radii = list(np.linspace(0.04, 1.0, 25))
    assert radii[-1] == 1.0
    for r in radii:
        base = make_bump(n, "tensor-exp", radius=r)
        dense = _dense_q_floor(base)
        assert abs(_q_floor(base) - dense) <= 1e-15 * dense, r


def test_family_amplitude_reads_the_q_floor_at_n2():
    fam2 = make_scaling_family(n=2, xi0=0.5, epsilons=(1.0, 0.75, 0.5))
    floor = _q_floor(fam2.base)
    assert fam2.amplitude == (1.0 + 1e-6) / floor**2
    assert fam2.amplitude == pytest.approx((1.0 + 1e-6) / _dense_q_floor(fam2.base)**2,
                                           rel=3e-15)
    assert fam2.min_q_modulus >= 1.0


@pytest.fixture(scope="module")
def ladder():
    # the benchmark's ladder: eps 1/2 ... 1/64 at a grid-aligned xi0
    return make_scaling_family(xi0=0.75, epsilons=[2.0 ** -j for j in range(1, 7)],
                               box_factor=192.0)


EXPONENTS = [0.5, 1.0, 2.0, math.inf]


def test_batched_amalgam_fits_equal_single_norms_bitwise(ladder):
    fits = scaling_slopes(ladder, "amalgam", EXPONENTS)
    for q, fit in zip(EXPONENTS, fits):
        assert fit.norms == tuple(amalgam_norm(ladder.f(e), 2.0, q) for e in ladder.epsilons)
        assert amalgam_scaling_slope(ladder, q) == fit


def test_batched_wiener_fits_equal_single_norms_bitwise(ladder, kap):
    # the ladder reads each Wiener norm from the exact spectrum f_hat
    fits = scaling_slopes(ladder, "wiener", EXPONENTS, kap)
    for p, fit in zip(EXPONENTS, fits):
        assert fit.norms == tuple(wiener_norm(ladder.f_hat(e), p, 2.0, kap, offset=ladder.xi0)
                                  for e in ladder.epsilons)
        assert wiener_scaling_slope(ladder, p, kap) == fit


def test_scaling_slopes_rejects_an_unknown_space_or_a_missing_window(ladder):
    with pytest.raises(ValueError, match="space must be"):
        scaling_slopes(ladder, "besov", [2.0])
    with pytest.raises(ValueError, match="needs a window"):
        scaling_slopes(ladder, "wiener", [2.0])


def test_product_norms_equal_the_companion_2_norms_of_the_product_bitwise(ladder, kap):
    # every product norm is the amalgam (L^2, l^r) norm of T_1(f_eps, f_eps)
    # or the Wiener W^{r,2} norm of its grouped spectrum, centred at 2 * xi0
    wanted = [(space, r) for space in ("amalgam", "wiener") for r in EXPONENTS]
    batch = bilinear_product_scaling(ladder, ONE, wanted, kappa=kap)
    offset = 2 * np.asarray(ladder.xi0)
    products = []
    for e in ladder.epsilons:
        spec, fh = ladder.specs[e], ladder.f_hat(e).samples
        xi = spec.axis_xi()
        T_hat = _grouped_sum(
            lambda idx: np.asarray(ONE(*(xi[i] for i in idx)), dtype=complex), fh, fh, spec)
        products.append((idft(T_hat), T_hat))
    for (space, r), ps in zip(wanted, batch):
        assert ps.norms == tuple(amalgam_norm(T, 2.0, r) if space == "amalgam"
                                 else wiener_norm(T_hat, r, 2.0, kap, offset=offset)
                                 for T, T_hat in products)


def test_spectrum_side_wiener_norms_match_the_space_side(ladder, kap):
    # reading the exact spectrum skips an idft -> dft round trip: the same
    # bands, and norms within 1e-12 relative (about 4e-14 seen at p = 0.5)
    for e in ladder.epsilons:
        fh, f = ladder.f_hat(e), ladder.f(e)
        bands, stack = wiener_band_values(fh, kap, offset=ladder.xi0)
        bands_space, stack_space = wiener_band_values(f, kap, offset=ladder.xi0)
        assert bands == bands_space
        assert np.max(np.abs(stack - stack_space)) <= 1e-12 * np.max(np.abs(stack_space))
        for p in EXPONENTS:
            assert wiener_norm(fh, p, 2.0, kap, offset=ladder.xi0) == pytest.approx(
                wiener_norm(f, p, 2.0, kap, offset=ladder.xi0), rel=1e-12, abs=0)


def test_spectrum_side_band_stack_stays_under_its_memory_bound(ladder, kap):
    # eps = 1/64 of the benchmark ladder, 98,304 points: one band, a zeroed
    # product and the inverse transform's temporaries (about 6.8 MiB seen;
    # the space side adds a forward transform, about 9.0 MiB)
    e = ladder.epsilons[-1]
    fh = ladder.f_hat(e)
    tracemalloc.start()
    try:
        bands, _stack = wiener_band_values(fh, kap, offset=ladder.xi0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bands) == 1
    assert peak < 7.5 * 2**20


def test_product_scaling_builds_one_dilate_per_eps(ladder, kap, monkeypatch):
    # one f_hat per eps serves both factors and the sup of the degenerate check
    calls = []
    f_hat = ScalingFamily.f_hat

    def counted(self, eps):
        calls.append(eps)
        return f_hat(self, eps)
    monkeypatch.setattr(ScalingFamily, "f_hat", counted)
    bilinear_product_scaling(ladder, ONE, [("amalgam", 0.5), ("wiener", 1.0)], kappa=kap)
    assert calls == list(ladder.epsilons)


def test_flat_ladder_fits_zero_slope_and_a_growing_ladder_keeps_its_fit(ladder, kap):
    # the Wiener p = inf norms of the benchmark ladder agree to a few ulps:
    # their fit is exactly flat, not a slope fitted to rounding
    fit = scaling_slopes(ladder, "wiener", [math.inf], kap)[0]
    assert max(fit.norms) - min(fit.norms) <= 4 * np.spacing(max(fit.norms))
    assert (fit.slope, fit.r_squared) == (0.0, 1.0)
    # the amalgam q = inf norms grow by about 6e-3: the least-squares fit stands
    norms = scaling_slopes(ladder, "amalgam", [math.inf])[0].norms
    assert max(norms) / min(norms) - 1 > 1e-3
    lx, ly = np.log([1.0 / e for e in ladder.epsilons]), np.log(norms)
    slope, intercept = np.polyfit(lx, ly, 1)
    r2 = 1.0 - float(np.sum((ly - (slope * lx + intercept)) ** 2)) / float(
        np.sum((ly - np.mean(ly)) ** 2))
    assert loglog_slope([1.0 / e for e in ladder.epsilons], norms) == (
        float(slope), float(intercept), r2)


@pytest.mark.parametrize("xi0", [0.0, 0.25, 0.5])
def test_scaling_pass_makes_two_inverse_transforms_per_eps(xi0, kap, monkeypatch):
    # per eps: f_eps and the product T; each Wiener band is the function
    # itself (its window is exactly 1 on the spectrum's slab)
    fam = make_scaling_family(xi0=xi0, epsilons=(0.5, 0.25, 0.125))
    shapes = []
    ifftn = np.fft.ifftn

    def counted(*args, **kwargs):
        shapes.append(args[0].shape)
        return ifftn(*args, **kwargs)
    monkeypatch.setattr(np.fft, "ifftn", counted)
    _scaling_pass(fam, [(space, r) for space in ("amalgam", "wiener") for r in EXPONENTS],
                  [("amalgam", 0.5), ("wiener", 1.0)], kap, ONE)
    assert shapes == [spec.shape for spec in fam.specs.values() for _ in range(2)]


def test_a_repeated_pair_is_fitted_once_and_read_by_key(fam, monkeypatch):
    from latticebump import scalinglab
    fitted = []

    def counted(x, y):
        fitted.append(y)
        return loglog_slope(x, y)
    monkeypatch.setattr(scalinglab, "loglog_slope", counted)
    fits, products = _scaling_pass(fam, [("amalgam", 1), ("amalgam", 2), ("amalgam", 1.0)], [])
    assert list(fits) == [("amalgam", 1.0), ("amalgam", 2.0)] and products == []
    assert len(fitted) == 2
    fitted.clear()
    one, again = scaling_slopes(fam, "amalgam", [1, 1.0])
    assert one == again and len(fitted) == 1
    assert one == fits["amalgam", 1.0]


@pytest.mark.parametrize("family, outer, with_products", [
    (None, 0.6, True),
    ({"n": 2, "xi0": 0.5, "epsilons": (1.0, 0.75, 0.5), "box_factor": 16.0,
      "tail_budget": 1.0}, 0.6, False),
    # the plateau 0.2 is narrower than the support radius 0.3 at eps = 1:
    # there the ladder's Wiener norms fall back to the band transform
    ({"xi0": 0.5, "epsilons": (1.0, 0.5, 0.25)}, 0.8, True)],
    ids=["benchmark-ladder", "n2-ladder", "plateau-fallback"])
def test_eps_rows_equal_the_public_norms_bitwise(family, outer, with_products, ladder):
    fam = ladder if family is None else make_scaling_family(**family)
    kappa = make_window(fam.n, outer)
    ladders = [(space, r) for space in ("amalgam", "wiener") for r in EXPONENTS]
    products = ladders if with_products else []
    plateau = []
    for e in fam.epsilons:
        norms, product_norms, min_core, sup = _eps_row(fam, e, ladders, products, kappa, ONE)
        fh = fam.f_hat(e)
        f = idft(fh)
        plateau.append(_plateau_band(fh.samples, fh.spec, kappa, fam.xi0))
        assert norms == [amalgam_norm(f, 2.0, r) if space == "amalgam"
                         else wiener_norm(fh, r, 2.0, kappa, offset=fam.xi0)
                         for space, r in ladders]
        assert sup == lp_norm(f, math.inf)
        if not with_products:
            continue
        spec = fh.spec
        xi = spec.axis_xi()
        T_hat = _grouped_sum(
            lambda idx: np.asarray(ONE(*(xi[i] for i in idx)), dtype=complex),
            fh.samples, fh.samples, spec)
        T = idft(T_hat)
        assert product_norms == [
            amalgam_norm(T, 2.0, r) if space == "amalgam"
            else wiener_norm(T_hat, r, 2.0, kappa, offset=2 * np.asarray(fam.xi0))
            for space, r in products]
        core = np.abs(spec.axis_x()) <= 1.0 / (2 * e)
        assert min_core == (float(np.min(np.abs(T.samples[core])))
                            if e == fam.epsilons[-1] else None)
    assert plateau == ([False, True, True] if outer == 0.8 else [True] * len(fam.epsilons))
