import math

import numpy as np
import pytest

from latticebump.bumps import make_window
from latticebump.grid import GridFunction
from latticebump.norms import ExponentTuple, amalgam_norm, lp_norm, wiener_norm
from latticebump.operators import AliasingWarning
from latticebump.scalinglab import (amalgam_scaling_slope,
                                    bilinear_product_scaling,
                                    make_scaling_family, necessity_verdict,
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


def test_family_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_scaling_family(epsilons=(0.25, 0.5))  # not decreasing
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
    fit = amalgam_scaling_slope(fam, 2.0, q)
    expected = 0.0 if math.isinf(q) else 1.0 / q
    assert fit.slope == pytest.approx(expected, abs=0.1)
    if not math.isinf(q):
        assert fit.r_squared >= 0.99
    else:
        # zero-slope fits have no meaningful R^2; the bounded-norm check stands in
        assert max(fit.norms) / min(fit.norms) <= 1.05


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_wiener_slopes(fam, kap, p):
    fit = wiener_scaling_slope(fam, p, 2.0, kap)
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
        wiener_scaling_slope(wide, 2.0, 2.0, kap)


def test_regression_needs_three_points():
    fam2 = make_scaling_family(epsilons=(0.5, 0.25))
    with pytest.raises(ValueError):
        amalgam_scaling_slope(fam2, 2.0, 2.0)


def test_product_scaling_constant_symbol(fam):
    ps = bilinear_product_scaling(fam, fam, ONE, "amalgam", 2.0, 2.0)
    assert not ps.degenerate
    assert ps.slope == pytest.approx(0.5, abs=0.1)
    assert ps.r_squared >= 0.99
    assert ps.half_bound_held
    assert ps.min_modulus_on_core >= 0.5 * abs(ps.sigma_at_center)


def test_product_scaling_wiener(fam, kap):
    ps = bilinear_product_scaling(fam, fam, ONE, "wiener", 1.0, 2.0, kappa=kap)
    assert ps.slope == pytest.approx(1.0, abs=0.1)


def test_product_scaling_degenerate_symbol(fam):
    vanish = lambda u, v: np.where((np.abs(u) > 0.2) & (np.abs(v) > 0.2), 1.0, 0.0)
    ps = bilinear_product_scaling(fam, fam, vanish, "amalgam", 2.0, 2.0)
    assert ps.degenerate
    assert ps.slope is None


def _product_samples(sigma_fn, f1h, f2h):
    """Reference oracle (n = 1): T_sigma(f1, f2) by direct summation over the
    support nodes, folded with np.add.at."""
    spec = f1h.spec
    xi = spec.axis_xi()
    i1 = np.nonzero(np.abs(f1h.samples) > 0)[0]
    i2 = np.nonzero(np.abs(f2h.samples) > 0)[0]
    W = (np.asarray(sigma_fn(xi[i1][:, None], xi[i2][None, :]), dtype=complex)
         * np.outer(f1h.samples[i1], f2h.samples[i2]) * spec.dxi ** 2)
    folded = (i1[:, None] + i2[None, :] - spec.N // 2) % spec.N
    G = np.zeros(spec.N, dtype=complex)
    np.add.at(G, folded.ravel(), W.ravel())
    return spec.N * np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(G)))


@pytest.mark.parametrize("sigma_fn", [ONE, lambda u, v: np.exp(-(u - v) ** 2) + 0.5j * u],
                         ids=["one", "smooth"])
def test_product_scaling_equals_support_sum_reference(sigma_fn):
    # the benchmark's ladder: eps 1/2 ... 1/64 at a grid-aligned xi0
    fam = make_scaling_family(xi0=0.75, epsilons=[2.0 ** -j for j in range(1, 7)])
    ps = bilinear_product_scaling(fam, fam, sigma_fn, "amalgam", 2.0, 1.0)
    ref = [amalgam_norm(GridFunction(fam.specs[e], "space",
                                     _product_samples(sigma_fn, fam.f_hat(e), fam.f_hat(e))),
                        2.0, 1.0) for e in fam.epsilons]
    assert ps.norms == tuple(ref)


def test_product_scaling_warns_when_output_folds():
    # 2 * xi0 = 5 lies outside the s = 8 frequency box [-4, 4)
    fam = make_scaling_family(xi0=2.5, s=8)
    with pytest.warns(AliasingWarning):
        bilinear_product_scaling(fam, fam, ONE, "amalgam", 2.0, 2.0)


def test_product_scaling_rejects_mismatched_families(fam):
    other = make_scaling_family(box_factor=256.0)
    with pytest.raises(ValueError):
        bilinear_product_scaling(fam, other, ONE, "amalgam", 2.0, 2.0)


def test_necessity_verdicts_measured(fam, kap):
    # amalgam, boundary case (2,2,1): consistent
    in1 = amalgam_scaling_slope(fam, 2.0, 2.0).slope
    ps1 = bilinear_product_scaling(fam, fam, ONE, "amalgam", 2.0, 1.0)
    v = necessity_verdict(ExponentTuple(2, 2, 2, 2, 2, 1.0), "amalgam",
                          (in1, in1), ps1.slope)
    assert v.status == "consistent"

    # amalgam violation (2,2,1/2): output doubles the input growth
    ps2 = bilinear_product_scaling(fam, fam, ONE, "amalgam", 2.0, 0.5)
    v2 = necessity_verdict(ExponentTuple(2, 2, 2, 2, 2, 0.5), "amalgam",
                           (in1, in1), ps2.slope)
    assert v2.status == "violated"
    assert v2.gap > 0.1
    assert "1/q <= 1/q1 + 1/q2" in v2.citation

    # wiener violation (inf, inf, 1)
    win = wiener_scaling_slope(fam, math.inf, 2.0, kap).slope
    ps3 = bilinear_product_scaling(fam, fam, ONE, "wiener", 1.0, 2.0, kappa=kap)
    v3 = necessity_verdict(ExponentTuple(math.inf, math.inf, 1.0, 2, 2, 2),
                           "wiener", (win, win), ps3.slope)
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
