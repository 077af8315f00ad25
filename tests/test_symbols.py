import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from latticebump.bumps import bump_eval, bump_eval_axes, make_bump, make_plateau
from latticebump.grid import BudgetError, make_grid
from latticebump.symbols import (CMDecomposition, _cm_on_axes, cm_decompose, cm_reconstruct,
                                 lattice_delta, lattice_from_dict, random_lattice_coefficients,
                                 sigma_from_cm, synth_sigma, SymbolGrid)

from conftest import BUMP_INTEGRAL


def _quad_bump_coefficient(r, K, k):
    """Oracle: (1/K) int B(u/r) cos(2 pi u k / K) du by adaptive quadrature."""
    fn = lambda u: np.exp(-1.0 / (1.0 - (u / r) ** 2)) * np.cos(2 * np.pi * u * k / K)
    val, _ = integrate.quad(fn, -r * (1 - 1e-14), r * (1 - 1e-14),
                            epsabs=1e-14, limit=800)
    return val / K


def test_synth_sigma_delta_is_phi(spec, phi04):
    sig = synth_sigma(lattice_delta(1), phi04, spec)
    xi = spec.axis_xi()
    exact = bump_eval_axes(phi04, [xi[:, None], xi[None, :]])
    assert np.array_equal(sig.samples, exact)


def test_synth_sigma_sup_without_overlap(spec, phi04, rng):
    a = random_lattice_coefficients(1, 1, 9, seed=2)
    sig = synth_sigma(a, phi04, spec)
    # radius 0.4 translates never overlap, so the sup is attained at a center
    assert np.max(np.abs(sig.samples)) == pytest.approx(
        a.sup_norm() * abs(bump_eval(phi04, (0.0, 0.0))), rel=1e-12)


def test_synth_sigma_overlap_sum_matches_pointwise_oracle(spec):
    phi = make_bump(2, "tensor-exp", radius=0.7)
    a = lattice_from_dict(1, {((i,), (j,)): 1.0 for i in (0, 1) for j in (0, 1)})
    sig = synth_sigma(a, phi, spec)
    pt = (0.5, 0.5)
    idx = tuple(spec.freq_index((0,))[0] + spec.L // 2 for _ in range(2))
    oracle = sum(bump_eval(phi, (pt[0] - i, pt[1] - j))
                 for i in (0, 1) for j in (0, 1))
    assert sig.samples[idx] == pytest.approx(oracle, rel=1e-12)


def test_synth_sigma_shift_and_linearity(spec, phi04):
    a = random_lattice_coefficients(1, 1, 5, seed=9)
    b = random_lattice_coefficients(1, 1, 4, seed=10)
    sig_a = synth_sigma(a, phi04, spec).samples
    sig_b = synth_sigma(b, phi04, spec).samples
    sig_sum = synth_sigma(a + b, phi04, spec).samples
    scale = np.max(np.abs(sig_a + sig_b))
    assert np.max(np.abs(sig_sum - (sig_a + sig_b))) <= 1e-14 * scale
    shifted = synth_sigma(a.shifted((1,), (-1,)), phi04, spec).samples
    rolled = np.roll(sig_a, (spec.L, -spec.L), axis=(0, 1))
    assert np.max(np.abs(shifted - rolled)) <= 1e-12 * np.max(np.abs(rolled))


def test_synth_sigma_rejects_support_overflow(spec, phi04):
    wide = lattice_from_dict(1, {((3,), (0,)): 1.0})
    with pytest.raises(ValueError):
        synth_sigma(wide, phi04, spec)  # |mu| > L/4
    with pytest.raises(ValueError):
        synth_sigma(lattice_delta(1), make_bump(2, "tensor-exp", radius=4.5), spec)


def test_cm_b00_matches_quadrature_oracle(phi04):
    d = cm_decompose(phi04, M=16)
    assert d.K == 2.0
    oracle = _quad_bump_coefficient(0.4, 2.0, 0) ** 2
    # sanity: the oracle itself reduces to the frozen bump integral
    assert oracle == pytest.approx((0.4 * BUMP_INTEGRAL / 2.0) ** 2, rel=1e-12)
    assert d.coefficient((0, 0)) == pytest.approx(oracle, rel=1e-10)


def test_cm_coefficients_match_oracle_at_high_k(phi04):
    # decay scale at the truncation edge: |b(16, 0)| ~ 1.4e-5, frozen against
    # the adaptive-quadrature oracle (the bump's transform decays like e^{-c sqrt(k)})
    d = cm_decompose(phi04, M=16)
    oracle = _quad_bump_coefficient(0.4, 2.0, 16) * _quad_bump_coefficient(0.4, 2.0, 0)
    assert d.coefficient((16, 0)) == pytest.approx(oracle, rel=1e-6, abs=1e-14)
    edge = max(abs(d.coefficient((16, k))) for k in range(-16, 17))
    assert 1e-6 < edge / abs(d.coefficient((0, 0))) < 1e-2


def test_cm_conjugate_symmetry(phi04):
    d = cm_decompose(phi04, M=8)
    for k1 in range(-8, 9):
        for k2 in range(-8, 9):
            assert d.coefficient((-k1, -k2)) == pytest.approx(
                np.conj(d.coefficient((k1, k2))), abs=1e-15)


def test_cm_quadrature_resolution_stable(phi04):
    d1 = cm_decompose(phi04, M=8, points_per_unit=128)
    d2 = cm_decompose(phi04, M=8, points_per_unit=512)
    assert np.max(np.abs(d1.coeffs - d2.coeffs)) <= 1e-8 * np.max(np.abs(d2.coeffs))


def test_cm_decay_fit_extends(phi04):
    # fit the J=4 envelope on the inner half, check it on everything (4x headroom)
    d = cm_decompose(phi04, M=32)
    M = d.M
    half = cm_decompose(phi04, M=16)
    c_half = half.decay_constant(4)
    grids = np.meshgrid(*(np.arange(-M, M + 1),) * 2, indexing="ij")
    weight = (1.0 + np.abs(grids[0]) + np.abs(grids[1])) ** 4
    assert np.all(np.abs(d.coeffs) <= 4 * c_half / weight)


def test_cm_reconstruct_zero_outside_cutoff(phi04):
    d = cm_decompose(phi04, M=8)
    assert cm_reconstruct(d, 0.8, 0.0) == 0.0
    assert cm_reconstruct(d, 0.0, -0.8) == 0.0


def test_cm_reconstruct_error_ladder(phi04):
    probe = np.linspace(-0.45, 0.45, 33)
    exact = bump_eval_axes(phi04, [probe[:, None], probe[None, :]])
    sups = []
    for M in (4, 8, 16):
        d = cm_decompose(phi04, M=M)
        rec = cm_reconstruct(d, probe[:, None], probe[None, :])
        sups.append(float(np.max(np.abs(rec - exact))))
    assert sups[0] >= sups[1] >= sups[2]
    # measured scale at M=16 (see ledger: the 1e-6 sketch needs M ~ 128)
    assert sups[2] < 5e-3
    deep = cm_decompose(phi04, M=128)
    rec = cm_reconstruct(deep, probe[:, None], probe[None, :])
    assert np.max(np.abs(rec - exact)) <= 1e-6
    center = abs(cm_reconstruct(deep, 0.0, 0.0) - bump_eval(phi04, (0.0, 0.0)))
    assert center <= 1e-6


def test_sigma_from_cm_delta_matches_reconstruct(spec, phi04):
    d = cm_decompose(phi04, M=16)
    sig = sigma_from_cm(lattice_delta(1), d, spec)
    xi = spec.axis_xi()
    rec = cm_reconstruct(d, xi[:, None], xi[None, :])
    assert np.max(np.abs(sig.samples - rec)) <= 1e-13


def test_sigma_from_cm_within_tail_bound(spec, phi04):
    a = random_lattice_coefficients(1, 1, 9, seed=3)
    for M in (0, 16, 64):
        d = cm_decompose(phi04, M=M)
        gap = np.max(np.abs(sigma_from_cm(a, d, spec).samples
                            - synth_sigma(a, phi04, spec).samples))
        # overlap count for radius-0.4 translates with the 3K/8 cutoff is <= 2 per axis
        assert gap <= d.tail * a.sup_norm() * 4
    d64 = cm_decompose(phi04, M=64)
    gap = np.max(np.abs(sigma_from_cm(a, d64, spec).samples
                        - synth_sigma(a, phi04, spec).samples))
    assert gap <= 2e-5


def test_symbol_grid_save_load_round_trip(tmp_path, spec, phi04):
    sig = synth_sigma(random_lattice_coefficients(1, 1, 4, seed=8), phi04, spec)
    sig.save(tmp_path / "sigma")
    back = SymbolGrid.load(tmp_path / "sigma")
    assert back.spec == spec
    assert np.array_equal(back.samples, sig.samples)


def test_random_coefficients_deterministic_and_bounded():
    a = random_lattice_coefficients(1, 2, 12, seed=5)
    b = random_lattice_coefficients(1, 2, 12, seed=5)
    assert a.entries == b.entries
    assert len(a) == 12
    assert a.support_radius() <= 2
    with pytest.raises(ValueError):
        random_lattice_coefficients(1, 1, 10, seed=0)  # only 9 slots


def test_cm_decomposition_json_round_trip(phi04):
    d = cm_decompose(phi04, M=8)
    back = CMDecomposition.from_json(d.to_json())
    assert back.K == d.K and back.M == d.M
    assert np.max(np.abs(back.coeffs - d.coeffs)) == 0.0
    assert back.tail == d.tail
    assert back.cutoff.inner == d.cutoff.inner and back.cutoff.radius == d.cutoff.radius


def test_sigma_from_cm_2d_within_tail():
    spec2 = make_grid(2, 4, 4)
    phi = make_bump(4, "tensor-exp", radius=0.4)
    a = lattice_from_dict(2, {((0, 0), (0, 0)): 1.0, ((1, 0), (0, -1)): 0.5 - 0.5j})
    d = cm_decompose(phi, M=12)
    gap = np.max(np.abs(sigma_from_cm(a, d, spec2).samples
                        - synth_sigma(a, phi, spec2).samples))
    assert gap <= d.tail * a.sup_norm() * 4


def test_random_lattice_coefficients_rejects_a_negative_radius():
    with pytest.raises(ValueError, match="radius must be >= 0"):
        random_lattice_coefficients(1, -1, 1, seed=0)


def test_cm_decompose_refuses_a_negative_or_oversized_M(phi04):
    with pytest.raises(ValueError, match="M must be >= 0"):
        cm_decompose(phi04, M=-2)
    # (2M+1)^2 coefficients at M = 10^6 would take 64 TB; refused first
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="coefficient block"):
            cm_decompose(phi04, M=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", [1, 2])
def test_cm_on_axes_is_cm_reconstruct_on_the_tensor_grid(n):
    # the per-axis contraction puts axis j of the result on coordinate j
    phi = make_bump(2 * n, "tensor-exp", radius=0.4)
    d = cm_decompose(phi, M=6)
    axes = [np.linspace(-0.5, 0.5, 3 + j) for j in range(2 * n)]
    got = _cm_on_axes(d, axes)
    assert got.shape == tuple(len(u) for u in axes)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    ref = cm_reconstruct(d, pts[..., :n], pts[..., n:])
    np.testing.assert_allclose(got, np.reshape(ref, got.shape), rtol=0, atol=1e-15)


@pytest.mark.parametrize("d, kind, M", [(2, "tensor-exp", 16), (4, "tensor-exp", 8),
                                        (2, "radial-exp", 16)])
def test_cm_factors_rebuild_the_coefficient_block(d, kind, M):
    dec = cm_decompose(make_bump(d, kind, radius=0.4), M=M)
    eps, scale = np.finfo(float).eps, np.max(np.abs(dec.coeffs))
    side = (2 * M + 1) ** (d // 2)
    # SVD factors keep the singular values above numpy's matrix_rank
    # tolerance, which bounds what they drop
    svd_tol = np.linalg.norm(dec.coeffs.reshape(side, side), 2) * side * eps
    back = CMDecomposition.from_json(dec.to_json())
    for cm, bound in ((dec, 4 * eps * scale if kind == "tensor-exp" else svd_tol),
                      (back, svd_tol)):
        if kind == "tensor-exp":
            assert len(cm.factors) == 1  # separable: one term, also after the SVD
        rebuilt = sum(np.multiply.outer(s1, s2) for s1, s2 in cm.factors)
        assert np.max(np.abs(rebuilt - dec.coeffs)) <= bound
