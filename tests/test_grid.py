import numpy as np
import pytest

from latticebump.bumps import bump_eval_axes, make_bump
from latticebump.grid import (GridSpec, _centered, dft, freq_function, idft, make_grid,
                              poisson_check, space_function)

from conftest import BUMP_INTEGRAL


def test_make_grid_derived_quantities():
    g = make_grid(1, 8, 16)
    assert g.N == 128
    assert g.h == 1 / 16
    assert g.dxi == 1 / 8


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_grid(1, 7, 16)  # odd L
    with pytest.raises(ValueError):
        make_grid(1, 8, 0)
    with pytest.raises(ValueError):
        make_grid(3, 8, 8)
    with pytest.raises(ValueError):
        make_grid(2, 8, 1024)  # oversize


def test_make_grid_2d_point_count():
    g = make_grid(2, 8, 8)
    assert g.N**g.n == 4096


def test_axes_cover_boxes():
    g = make_grid(1, 8, 16)
    x = g.axis_x()
    assert x[0] == -4.0 and x[-1] == 4.0 - 1 / 16
    xi = g.axis_xi()
    assert xi[0] == -8.0 and xi[-1] == 8.0 - 1 / 8
    assert xi[g.N // 2 + g.L] == 1.0  # integer frequencies sit at index offsets mu * L


def test_axis_xi_is_built_once_and_read_only():
    g = make_grid(1, 8, 16)
    xi = g.axis_xi()
    assert g.axis_xi() is xi
    with pytest.raises(ValueError, match="read-only"):
        xi[0] = 1.0
    # the cached array is not a field: equality and hash stay those of (n, L, s)
    assert g == GridSpec(1, 8, 16) and hash(g) == hash(GridSpec(1, 8, 16))
    assert g != make_grid(1, 8, 32)


@pytest.mark.parametrize("shape, axes", [((3072 * 2**k,), None) for k in range(6)]
                         + [((96, 160), None), ((3, 64, 48), (1, 2)), ((64, 5), (0,))]
                         + [((n,), None) for n in (1, 96, 256, 1024)]
                         + [((n, n), None) for n in (32, 48, 64, 256)])
def test_centered_ifftn_in_one_buffer_is_the_shifted_transform_bitwise(shape, axes):
    # both directions: dft and idft share the one-buffer helper
    rng = np.random.default_rng(len(shape) * 7919 + shape[-1])
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    before = a.copy()
    for transform in (np.fft.ifftn, np.fft.fftn):
        got = _centered(transform, a, axes=axes)
        shifted = np.fft.fftshift(transform(np.fft.ifftshift(a, axes=axes), axes=axes),
                                  axes=axes)
        assert got.tobytes() == shifted.tobytes()
        assert a.tobytes() == before.tobytes()  # the input is not touched


def test_dft_of_zero_is_zero(spec):
    z = space_function(spec, np.zeros(spec.shape))
    assert np.all(dft(z).samples == 0)


def test_dft_of_standard_bump_matches_quadrature_oracle(spec):
    b1 = make_bump(1, "tensor-exp", radius=1.0)
    f = space_function(spec, lambda x: bump_eval_axes(b1, [x]))
    val = dft(f).samples[spec.N // 2]
    assert abs(val - BUMP_INTEGRAL) <= 1e-6


def test_modulation_shifts_spectrum_exactly(spec, rng):
    base = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    g = space_function(spec, base)
    mu0 = 2
    x = spec.axis_x()
    f = space_function(spec, base * np.exp(2j * np.pi * mu0 * x))
    lhs = dft(f).samples
    rhs = np.roll(dft(g).samples, mu0 * spec.L)
    # translates wrap on the frequency torus; identical index permutation
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_idft_inverts_dft_exactly(spec, rng):
    f = space_function(spec, rng.standard_normal(spec.shape)
                       + 1j * rng.standard_normal(spec.shape))
    back = idft(dft(f))
    assert np.max(np.abs(back.samples - f.samples)) <= 1e-12 * np.max(np.abs(f.samples))


def test_idft_of_unit_mass_single_mode(spec):
    F = np.zeros(spec.shape, dtype=complex)
    F[spec.N // 2 + spec.L] = spec.L  # xi = 1, unit mass: (1/L) * L = 1
    f = idft(freq_function(spec, F))
    x = spec.axis_x()
    assert np.max(np.abs(f.samples - np.exp(2j * np.pi * x))) <= 1e-12


def test_side_tags_enforced(spec):
    f = space_function(spec, np.ones(spec.shape))
    with pytest.raises(ValueError):
        idft(f)
    with pytest.raises(ValueError):
        dft(freq_function(spec, np.ones(spec.shape)))


def test_plancherel(spec, rng):
    f = space_function(spec, rng.standard_normal(spec.shape)
                       + 1j * rng.standard_normal(spec.shape))
    lhs = spec.h * np.sum(np.abs(f.samples) ** 2)
    rhs = spec.dxi * np.sum(np.abs(dft(f).samples) ** 2)
    assert abs(lhs - rhs) <= 1e-12 * lhs


def test_integer_translation_is_phase(spec, rng):
    f = space_function(spec, rng.standard_normal(spec.shape)
                       + 1j * rng.standard_normal(spec.shape))
    rho = 3
    shifted = space_function(spec, np.roll(f.samples, rho * spec.s))
    lhs = dft(shifted).samples
    rhs = np.exp(-2j * np.pi * rho * spec.axis_xi()) * dft(f).samples
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_round_trip_2d():
    g = make_grid(2, 4, 4)
    rng = np.random.default_rng(7)
    f = space_function(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    back = idft(dft(f))
    assert np.max(np.abs(back.samples - f.samples)) <= 1e-12 * np.max(np.abs(f.samples))
    lhs = g.h**2 * np.sum(np.abs(f.samples) ** 2)
    rhs = g.dxi**2 * np.sum(np.abs(dft(f).samples) ** 2)
    assert abs(lhs - rhs) <= 1e-12 * lhs


def _band_limited_bump(spec_p, radius):
    prof = make_bump(1, "tensor-exp", radius=radius)
    return idft(freq_function(spec_p, lambda xi: bump_eval_axes(prof, [xi])))


def test_poisson_zero():
    g = make_grid(1, 8, 8)
    z = space_function(g, np.zeros(g.shape))
    lhs, rhs = poisson_check(z, (0.0,), (0.0,), 2)
    assert lhs == 0 and rhs == 0


def test_poisson_identity_at_half_box_truncation():
    g = make_grid(1, 24, 32)
    f = _band_limited_bump(g, 2.0)
    lhs, rhs = poisson_check(f, (0.0,), (0.0,), g.L // 2)
    assert abs(lhs - rhs) <= 1e-6


def test_poisson_residual_decreases_with_truncation():
    g = make_grid(1, 32, 32)
    f = _band_limited_bump(g, 2.0)
    res = [abs(np.subtract(*poisson_check(f, (0.0,), (0.0,), M))) for M in (2, 4, 8)]
    assert res[0] >= res[1] >= res[2]


def test_poisson_single_frequency_term():
    # fhat supported in |xi| < 1/2: only mu = 0 survives on the left, with unit phase
    g = make_grid(1, 16, 16)
    f = _band_limited_bump(g, 0.4)
    xi = (2 / g.L,)
    x = (1 / g.s,)
    lhs, rhs = poisson_check(f, xi, x, 4)
    only = dft(f).samples[g.N // 2 + 2]
    assert abs(lhs - only) <= 1e-12
    assert abs(lhs - rhs) <= 5e-3  # spatial truncation at M=4 for this width


def test_poisson_rejects_bad_arguments():
    g = make_grid(1, 8, 8)
    f = _band_limited_bump(g, 0.4)
    with pytest.raises(ValueError):
        poisson_check(f, (0.0,), (0.0,), 5)  # M > L/2
    with pytest.raises(ValueError):
        poisson_check(f, (0.05,), (0.0,), 2)  # xi off the frequency grid
    with pytest.raises(ValueError):
        poisson_check(f, (3.9,), (0.0,), 2)  # frequency shift leaves the grid
