import itertools

import numpy as np
import pytest

from latticebump.bumps import (_axis_factor, bump_eval, bump_eval_axes, check_condition_B,
                               make_bump, make_plateau, make_theta_pair, make_window,
                               translate_slack, window_eval)
from latticebump.grid import make_grid


def test_radial_bump_center_value():
    b = make_bump(1, "radial-exp", center=0.0, radius=1.0)
    assert bump_eval(b, 0.0) == pytest.approx(np.exp(-1.0))


def test_bump_vanishes_on_support_boundary():
    b = make_bump(1, "radial-exp", radius=1.0)
    assert bump_eval(b, 1.0) == 0.0
    assert bump_eval(b, -1.0) == 0.0


def test_plateau_value_is_exact_amplitude():
    b = make_plateau(1, 0.4, 0.6, amplitude=2.5 - 1j)
    assert bump_eval(b, 0.3) == 2.5 - 1j


def test_exact_support_at_random_points(rng):
    b = make_bump(2, "tensor-exp", center=(0.25, -0.5), radius=(0.4, 0.7))
    pts = rng.uniform(-3, 3, size=(10_000, 2))
    lo, hi = b.support_box()
    outside = np.any((pts < lo) | (pts > hi), axis=1)
    vals = bump_eval(b, pts)
    assert np.all(vals[outside] == 0)
    inside = ~outside & np.all((pts > lo + 1e-9) & (pts < hi - 1e-9), axis=1)
    assert np.all(np.abs(vals[inside]) > 0)


def test_plateau_exact_on_inner_box(rng):
    b = make_plateau(2, (0.3, 0.5), (0.6, 0.9), amplitude=1 + 2j)
    pts = rng.uniform(-1, 1, size=(1000, 2)) * np.array([0.3, 0.5])
    vals = bump_eval(b, pts)
    assert np.all(vals == 1 + 2j)


def test_make_plateau_shape():
    b = make_plateau(1, 0.5, 1.0)
    assert bump_eval(b, 0.5) == 1.0
    assert bump_eval(b, 1.0) == 0.0
    xs = np.linspace(0.5, 1.0, 200)
    vals = np.real(bump_eval(b, xs))
    assert np.all(np.diff(vals) <= 1e-15)


def test_cutoff_scaled_to_period_two():
    # phi == 1 on (-1/2, 1/2], supported inside (-1, 1]
    K = 2.0
    b = make_plateau(1, K / 4, 3 * K / 8)
    xs = np.linspace(-0.5, 0.5, 101)
    assert np.all(bump_eval(b, xs) == 1.0)
    assert bump_eval(b, 0.76) == 0.0
    assert bump_eval(b, -1.0) == 0.0


def test_make_plateau_rejects_bad_radii():
    with pytest.raises(ValueError):
        make_plateau(1, 0.9, 0.5)
    with pytest.raises(ValueError):
        make_plateau(1, 0.0, 0.5)


def test_window_partition_of_unity(rng):
    w = make_window(1, 0.6)
    xs = rng.uniform(-5, 5, 1000)
    total = sum(np.asarray(window_eval(w, xs - k)) for k in range(-7, 8))
    assert np.max(np.abs(total - 1)) <= 1e-12


def test_window_plateau_and_two_term_overlap():
    w = make_window(1, 0.6)
    xs = np.linspace(-0.399, 0.399, 101)
    assert np.max(np.abs(np.asarray(window_eval(w, xs)) - 1)) <= 1e-15
    assert window_eval(w, 0.5) + window_eval(w, -0.5) == pytest.approx(1.0)


def test_window_eval_rejects_points_with_extra_components():
    # both evaluators share one point check: an extra coordinate is an error
    with pytest.raises(ValueError, match="points must have 2 components"):
        window_eval(make_window(2, 0.6), [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="points must have 2 components"):
        bump_eval(make_bump(2, "tensor-exp", radius=0.4), [0.1, 0.2, 0.3])


def _full_axis_window(w, axis, u):
    # oracle: the base normalised by its integer-translate sum
    u = np.asarray(u, dtype=float)
    num = _axis_factor(w.base, axis, u)
    den = np.zeros_like(num)
    k0 = np.floor(u - w.base.center[axis]).astype(int)
    for off in (-1, 0, 1, 2):
        den = den + _axis_factor(w.base, axis, u - (k0 + off))
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _window_and_oracle(w, L):
    u = make_grid(1, L, 4).axis_xi()
    return np.asarray(window_eval(w, u)).real, _full_axis_window(w, 0, u)


@pytest.mark.parametrize("outer", [0.51, 0.6, 0.9, 0.999999])
def test_window_is_its_normalised_plateau_to_rounding(outer):
    # S(t) + S(1 - t) = 1 makes the translate sum 1; the worst gap to the
    # normalised oracle is at outer 0.51 on the finest grid
    for L in (8, 96, 12288):
        got, want = _window_and_oracle(make_window(1, outer), L)
        assert np.max(np.abs(got - want)) <= 4e-15


@pytest.mark.parametrize("outer", [0.51, 0.6, 0.7])
def test_window_equals_its_normalised_plateau_on_the_working_grid_bitwise(outer):
    # the outers the reports use, on the L = 8 frequency grid
    got, want = _window_and_oracle(make_window(1, outer), 8)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("outer", [0.501, 0.51, 0.6, 0.9, 0.999999])
def test_window_translates_sum_to_one(outer):
    w = make_window(1, outer)
    u = make_grid(1, 12288, 4).axis_xi()
    total = sum(np.asarray(window_eval(w, u - k)).real for k in range(-3, 4))
    assert np.max(np.abs(total - 1)) <= 1e-13


def test_window_rejects_radii_outside_half_one():
    with pytest.raises(ValueError):
        make_window(1, 0.45)
    with pytest.raises(ValueError):
        make_window(1, 1.0)


def test_window_partition_2d(rng):
    w = make_window(2, 0.7)
    pts = rng.uniform(-2, 2, size=(200, 2))
    total = np.zeros(len(pts), dtype=complex)
    for k1 in range(-4, 5):
        for k2 in range(-4, 5):
            total += np.asarray(window_eval(w, pts - np.array([k1, k2])))
    assert np.max(np.abs(total - 1)) <= 1e-12


# ---------------------------------------------------------------------------
# condition (B)
# ---------------------------------------------------------------------------


def _brute_force_condition_b(phi, samples_per_axis=41):
    """Dense sampled check over {Phi != 0} with translates |mu|_inf <= 3."""
    lo, hi = phi.support_box()
    axes = [np.linspace(lo[j] + 1e-6, hi[j] - 1e-6, samples_per_axis)
            for j in range(phi.d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = np.abs(bump_eval(phi, pts))
    pts = pts[vals > 0]
    shift_range = np.arange(-3, 4)
    shifts = np.stack([g.ravel() for g in
                       np.meshgrid(*(shift_range,) * phi.d, indexing="ij")], axis=-1)
    shifts = shifts[np.any(shifts != 0, axis=1)]
    for pt in pts:
        covered = False
        for mu in shifts:
            if np.all(np.abs(pt - mu - np.asarray(phi.center)) <= np.asarray(phi.radius)):
                covered = True
                break
        if not covered:
            return True
    return False


@pytest.mark.parametrize("phi,expected", [
    (make_bump(2, "tensor-exp", radius=0.4), True),
    (make_plateau(2, 0.9, 1.0), False),
    (make_bump(2, "tensor-exp", center=(0.5, 0.5), radius=0.4), True),
    (make_bump(2, "tensor-exp", radius=0.7), True),
    (make_plateau(2, 0.3, 0.55), True),
    (make_plateau(2, 1.1, 1.2), False),
])
def test_condition_b_agrees_with_brute_force(phi, expected):
    res = check_condition_B(phi)
    assert res.holds == expected
    assert _brute_force_condition_b(phi) == expected
    if res.holds:
        assert abs(bump_eval(phi, res.witness)) > 0
        assert translate_slack(phi, res.witness) > 0


def _slack_over_every_translate(b, xi0):
    """translate_slack as a loop over the product of the per-axis shift
    ranges: the distance to every nonzero translate's box, then the min."""
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    lo, hi = b.support_box()
    best = np.inf
    ranges = [np.arange(int(np.floor(xi0[j] - hi[j])) - 1, int(np.ceil(xi0[j] - lo[j])) + 2)
              for j in range(b.d)]
    for mu in itertools.product(*ranges):
        mu = np.array(mu)
        if np.any(mu):
            dj = np.maximum(0.0, np.maximum(lo + mu - xi0, xi0 - (hi + mu)))
            best = min(best, float(np.max(dj)))
    return best


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_per_axis_slack_is_the_product_loop_bitwise(d, rng):
    for k in range(12):
        center, radius = rng.uniform(-1, 1, d), rng.uniform(0.1, 1.5, d)
        b = (make_bump(d, "tensor-exp", center=center, radius=radius) if k % 2 else
             make_plateau(d, 0.5 * radius, radius, center=center))
        # inside the support box, then outside it on some axes (up to 3 radii)
        for scale in (rng.uniform(-1, 1, d), rng.choice([-1, 1], d) * rng.uniform(0.5, 3, d)):
            xi0 = center + scale * radius
            assert translate_slack(b, xi0) == _slack_over_every_translate(b, xi0)
    # on a box edge and at a point whose nearest translate ties on two axes
    b = make_bump(d, "tensor-exp", radius=0.4)
    for xi0 in (np.full(d, 0.4), np.full(d, 0.5), np.zeros(d)):
        assert translate_slack(b, xi0) == _slack_over_every_translate(b, xi0)


def test_condition_b_witness_examples():
    res = check_condition_B(make_bump(2, "tensor-exp", radius=0.4))
    assert res.witness == (0.0, 0.0)
    assert res.slack == pytest.approx(0.6)
    off = check_condition_B(make_bump(2, "tensor-exp", center=(0.5, 0.5), radius=0.4))
    assert off.witness == (0.5, 0.5)


def test_condition_b_rejects_radial_in_higher_dim():
    with pytest.raises(ValueError):
        check_condition_B(make_bump(2, "radial-exp", radius=0.4))


# ---------------------------------------------------------------------------
# theta pair
# ---------------------------------------------------------------------------


def test_theta_pair_floor_and_rescale(phi04, condition_b, spec, theta):
    assert theta.m >= 1.0
    # the grid samples of g respect the floor on Q
    x = spec.axis_x()
    in_q = (x > -0.5) & (x <= 0.5)
    assert np.min(np.abs(theta.g.samples[in_q])) >= 1.0


def test_theta_pair_g_matches_independent_quadrature(phi04, condition_b, spec, theta):
    # test-local nested-loop realization of the same frequency Riemann rule
    xi = spec.axis_xi()
    n1 = xi[np.abs(xi - theta.xi0[0]) < theta.eps]
    n2 = xi[np.abs(xi - theta.xi0[1]) < theta.eps]
    xs = np.linspace(-0.5, 0.5, 33)
    ref = np.zeros(len(xs), dtype=complex)
    for i, x in enumerate(xs):
        acc = 0.0 + 0.0j
        for u in n1:
            for v in n2:
                acc += (bump_eval(phi04, (u, v))
                        * bump_eval(theta.theta1, u) * bump_eval(theta.theta2, v)
                        * np.exp(2j * np.pi * x * (u + v)))
        ref[i] = acc * spec.dxi**2
    mine = theta.g_eval([xs])
    assert np.max(np.abs(mine - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_theta_pair_modulus_nearly_constant_on_q(phi04, spec):
    tp = make_theta_pair(phi04, (0.0, 0.0), 0.1, spec)
    xs = np.linspace(-0.5, 0.5, 129)
    vals = np.abs(tp.g_eval([xs]))
    center = abs(tp.g_eval([np.array([0.0])])[0])
    assert np.max(np.abs(vals - center)) <= 0.05 * center


def test_theta_pair_rejects_bad_eps(phi04, spec):
    with pytest.raises(ValueError):
        make_theta_pair(phi04, (0.0, 0.0), 0.0, spec)
    with pytest.raises(ValueError):
        make_theta_pair(phi04, (0.0, 0.0), 0.5, spec)  # 2 eps > slack
    with pytest.raises(ValueError):
        make_theta_pair(phi04, (0.01, 0.0), 0.1, spec)  # off-grid witness


def test_theta_pair_rejects_non_separable_phi(spec):
    # the error check_condition_B gives for the same Phi, not a dense fallback
    radial = make_bump(2, "radial-exp", radius=0.4)
    with pytest.raises(ValueError) as cond_b:
        check_condition_B(radial)
    with pytest.raises(ValueError) as theta:
        make_theta_pair(radial, (0.0, 0.0), 0.1, spec)
    assert str(theta.value) == str(cond_b.value)
