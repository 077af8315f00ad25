import ctypes
import glob
import os
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticebump.bumps import (bump_eval_axes, check_condition_B, make_bump, make_plateau,
                               make_theta_pair, make_window)
from latticebump.grid import (MAX_POINTS, BudgetError, GridFunction, dft, freq_function, idft,
                             make_grid, space_function)
from latticebump.operators import (AliasingWarning, TrigPolynomial,
                                   apply_S, apply_T_aPhi_fast,
                                   apply_T_period, apply_T_sigma,
                                   band_project,
                                   sequence_from_dict, trig_poly_from_dict)
from latticebump.symbols import (CMDecomposition, cm_decompose, lattice_delta, lattice_from_dict,
                                 random_lattice_coefficients, sigma_eval, synth_sigma,
                                 SymbolGrid)
from latticebump.norms import wiener_band_values
from latticebump.transference import build_amalgam_witness
from latticebump import operators, transference

from test_symbols import _dense_synth_sigma


def _linear_mult(m, f):
    """m(D) f for a profile m: the one-sided oracle of the separable symbol."""
    mult = bump_eval_axes(m, f.spec.freq_points())
    return idft(GridFunction(f.spec, "frequency", mult * dft(f).samples))


def _band_limited(spec, seed, frac=4.0):
    rng = np.random.default_rng(seed)
    mask = np.abs(spec.axis_xi()) < spec.s / frac
    F = np.where(mask, rng.standard_normal(spec.N) + 1j * rng.standard_normal(spec.N), 0)
    return idft(freq_function(spec, F))


# ---------------------------------------------------------------------------
# sequence and periodic models
# ---------------------------------------------------------------------------


def test_apply_S_plain_convolution():
    a = lattice_from_dict(1, {((i,), (j,)): 1.0 for i in (0, 1) for j in (0, 1)})
    b = sequence_from_dict(1, {0: 1.0, 1: 1.0})
    out = apply_S(a, b, b)
    assert out.entries == {(0,): 1.0, (1,): 2.0, (2,): 1.0}


def test_apply_S_weighted():
    a = lattice_from_dict(1, {((i,), (j,)): float(i * j) for i in (0, 1) for j in (0, 1)})
    b = sequence_from_dict(1, {0: 1.0, 1: 1.0})
    out = apply_S(a, b, b)
    assert {k: v for k, v in out.entries.items() if v != 0} == {(2,): 1.0}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_apply_S_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    a_entries = {}
    for _ in range(rng.integers(1, 8)):
        m1, m2 = rng.integers(-3, 4, size=2)
        a_entries[((int(m1),), (int(m2),))] = complex(*rng.standard_normal(2))
    a = lattice_from_dict(1, a_entries)
    mk = lambda size: sequence_from_dict(
        1, {int(m): complex(*rng.standard_normal(2))
            for m in rng.integers(-4, 5, size=size)})
    b1, b2 = mk(rng.integers(1, 6)), mk(rng.integers(1, 6))
    out = apply_S(a, b1, b2)
    brute = {}
    for (m1, m2), av in a.items():
        for n1, v1 in b1.entries.items():
            for n2, v2 in b2.entries.items():
                if n1 == m1 and n2 == m2:
                    k = (m1[0] + m2[0],)
                    brute[k] = brute.get(k, 0.0) + av * v1 * v2
    keys = set(out.entries) | set(brute)
    for k in keys:
        assert abs(out.entries.get(k, 0.0) - brute.get(k, 0.0)) <= 1e-12
    # support propagation
    sums = {(x[0] + y[0],) for x in b1.entries for y in b2.entries}
    assert set(out.entries) <= sums


def test_apply_T_period_constants():
    a = lattice_from_dict(1, {((0,), (0,)): 2.5 + 1j})
    one = trig_poly_from_dict(1, {0: 1.0})
    out = apply_T_period(a, one, one)
    assert out.coeffs == {(0,): 2.5 + 1j}


def test_apply_T_period_is_product_for_full_ones():
    modes = (-1, 0, 1)
    rng = np.random.default_rng(3)
    F1 = trig_poly_from_dict(1, {m: complex(*rng.standard_normal(2)) for m in modes})
    F2 = trig_poly_from_dict(1, {m: complex(*rng.standard_normal(2)) for m in modes})
    a = lattice_from_dict(1, {((i,), (j,)): 1.0 for i in modes for j in modes})
    out = apply_T_period(a, F1, F2)
    x = np.linspace(0, 1, 257)[:-1]
    prod = F1.evaluate(x) * F2.evaluate(x)
    assert np.max(np.abs(out.evaluate(x) - prod)) <= 1e-12 * np.max(np.abs(prod))


def test_T_period_coefficients_equal_S(rng):
    a = random_lattice_coefficients(1, 2, 7, seed=1)
    F1 = trig_poly_from_dict(1, {m: complex(*rng.standard_normal(2)) for m in (-2, 0, 1)})
    F2 = trig_poly_from_dict(1, {m: complex(*rng.standard_normal(2)) for m in (-1, 2)})
    out = apply_T_period(a, F1, F2)
    s = apply_S(a, sequence_from_dict(1, F1.coeffs), sequence_from_dict(1, F2.coeffs))
    assert out.coeffs == s.entries  # same finite arithmetic, exact equality


# ---------------------------------------------------------------------------
# bilinear multiplier, slow and fast paths
# ---------------------------------------------------------------------------


def test_T_sigma_constant_symbol_is_product(spec):
    one = SymbolGrid(spec, np.ones((spec.N, spec.N), complex))
    f1, f2 = _band_limited(spec, 5), _band_limited(spec, 6)
    out = apply_T_sigma(one, f1, f2)
    prod = f1.samples * f2.samples
    assert np.max(np.abs(out.samples - prod)) <= 1e-10 * np.max(np.abs(prod))


def test_T_sigma_zero_symbol(spec):
    zero = SymbolGrid(spec, np.zeros((spec.N, spec.N), complex))
    f1, f2 = _band_limited(spec, 7), _band_limited(spec, 8)
    assert np.all(apply_T_sigma(zero, f1, f2).samples == 0)


def test_T_sigma_separable_matches_linear_composition(spec):
    m1 = make_bump(1, "tensor-exp", radius=3.0)
    m2 = make_plateau(1, 2.0, 4.0)
    xi = spec.axis_xi()
    sep = SymbolGrid(spec, np.outer(bump_eval_axes(m1, [xi]), bump_eval_axes(m2, [xi])))
    f1, f2 = _band_limited(spec, 9), _band_limited(spec, 10)
    lhs = apply_T_sigma(sep, f1, f2).samples
    rhs = _linear_mult(m1, f1).samples * _linear_mult(m2, f2).samples
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_T_sigma_bilinear(spec, phi04):
    sig = synth_sigma(random_lattice_coefficients(1, 1, 5, seed=4), phi04, spec)
    f1, f2, g1 = (_band_limited(spec, s) for s in (11, 12, 13))
    c = 0.7 - 0.3j
    lhs = apply_T_sigma(sig, space_function(spec, c * f1.samples + g1.samples), f2).samples
    rhs = c * apply_T_sigma(sig, f1, f2).samples + apply_T_sigma(sig, g1, f2).samples
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_T_sigma_warns_on_aliasing(spec):
    one = SymbolGrid(spec, np.ones((spec.N, spec.N), complex))
    f = _band_limited(spec, 14, frac=1.5)  # too wide: products fold
    with pytest.warns(AliasingWarning):
        apply_T_sigma(one, f, f)


def _dense_T_sigma(sigma, f1, f2, alias_tol=1e-12):
    """Reference oracle: the grouped double sum over the full dense
    sigma * fhat1 (x) fhat2 tensor, every grid pair included."""
    spec = sigma.spec
    n, N = spec.n, spec.N
    outer = np.multiply.outer(dft(f1).samples, dft(f2).samples)
    W = sigma.samples * outer * spec.dxi ** (2 * n)
    idx1 = [np.arange(N).reshape([-1 if k == j else 1 for k in range(2 * n)])
            for j in range(n)]
    idx2 = [np.arange(N).reshape([-1 if k == n + j else 1 for k in range(2 * n)])
            for j in range(n)]
    flat_idx = 0
    outside = np.zeros(W.shape, dtype=bool)
    for j in range(n):
        m = idx1[j] + idx2[j]
        outside = outside | np.broadcast_to((m < N // 2) | (m >= N + N // 2), W.shape)
        flat_idx = flat_idx * N + (m - N // 2) % N
    flat_idx = np.broadcast_to(flat_idx, W.shape).ravel()
    out_flat = (np.bincount(flat_idx, weights=W.real.ravel(), minlength=N**n)
                + 1j * np.bincount(flat_idx, weights=W.imag.ravel(), minlength=N**n))
    frac = float(np.sum(np.abs(W[outside]))) / float(np.sum(np.abs(W)))
    if frac > alias_tol:
        warnings.warn("folded", AliasingWarning)
    G = out_flat.reshape((N,) * n)
    return N**n * np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(G)))


def _witness_inputs(n, L, s, seed):
    spec = make_grid(n, L, s)
    phi = make_bump(2 * n, "tensor-exp", radius=0.4)
    cb = check_condition_B(phi)
    theta = make_theta_pair(phi, cb.witness, cb.slack / 4, spec)
    rng = np.random.default_rng(seed)
    modes = [tuple(m) for m in np.ndindex(*(3,) * n)]
    F1, F2 = (TrigPolynomial(n, {tuple(c - 1 for c in m): complex(*rng.standard_normal(2))
                                 for m in modes}) for _ in range(2))
    w = build_amalgam_witness(F1, F2, theta, spec)
    a = random_lattice_coefficients(n, 1, 9, seed=seed)
    return spec, phi, a, w.f1, w.f2


def _bilinear_cases(spec, phi04):
    a = random_lattice_coefficients(1, 1, 9, seed=40)
    yield synth_sigma(a, phi04, spec), _band_limited(spec, 41), _band_limited(spec, 42)
    sp1, phi1, a1, f1, f2 = _witness_inputs(1, 8, 32, 43)
    yield synth_sigma(a1, phi1, sp1), f1, f2
    # exact-zero spectra: the support-pair sum skips the zero rows and columns
    sp1, phi1, a1, f1, f2 = _witness_inputs(1, 8, 32, 44)
    Fz = dft(f1).samples * (np.abs(sp1.axis_xi()) < 1.0)
    yield synth_sigma(a1, phi1, sp1), idft(GridFunction(sp1, "frequency", Fz)), f2
    sp2, phi2, a2, g1, g2 = _witness_inputs(2, 4, 8, 45)
    yield synth_sigma(a2, phi2, sp2), g1, g2
    # overlapping translates: rows and columns where several translates meet
    wide = make_bump(2, "tensor-exp", radius=0.9)
    yield synth_sigma(a, wide, spec), _band_limited(spec, 46), _band_limited(spec, 47)


def test_T_sigma_equals_dense_reference_bitwise(spec, phi04):
    for sigma, f1, f2 in _bilinear_cases(spec, phi04):
        assert np.array_equal(apply_T_sigma(sigma, f1, f2).samples,
                              _dense_T_sigma(sigma, f1, f2))


def test_T_sigma_equals_dense_reference_when_aliasing(spec):
    one = SymbolGrid(spec, np.ones((spec.N, spec.N), complex))
    f = _band_limited(spec, 14, frac=1.5)
    with pytest.warns(AliasingWarning):
        ref = _dense_T_sigma(one, f, f)
    with pytest.warns(AliasingWarning):
        out = apply_T_sigma(one, f, f).samples
    assert np.array_equal(out, ref)


def _folded_space_samples(sigma_at, F1, F2, spec):
    """T's samples in the convention the kernel used before it returned only
    the spectrum: N^n ifft(G) of the support-pair sum G, folded with
    np.add.at (T is now the idft of L^n G)."""
    n, N = spec.n, spec.N
    i1, i2 = np.flatnonzero(F1), np.flatnonzero(F2)
    u1 = tuple(u[:, None] for u in np.unravel_index(i1, spec.shape))
    u2 = tuple(u[None, :] for u in np.unravel_index(i2, spec.shape))
    W = sigma_at(u1 + u2) * np.outer(F1.ravel()[i1], F2.ravel()[i2]) * spec.dxi ** (2 * n)
    flat = np.ravel_multi_index(
        [np.broadcast_to((v1 + v2 - N // 2) % N, W.shape) for v1, v2 in zip(u1, u2)], spec.shape)
    G = np.zeros(N**n, dtype=complex)
    np.add.at(G, flat.ravel(), W.ravel())
    return N**n * np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(G.reshape(spec.shape))))


@pytest.mark.parametrize("n, L, s", [(1, 8, 32), (2, 4, 8)])
def test_T_sigma_is_the_idft_of_the_grouped_spectrum(n, L, s, monkeypatch):
    spec, phi, a, f1, f2 = _witness_inputs(n, L, s, 48)
    spectra = []
    grouped_sum = operators._grouped_sum

    def kept(*args):
        spectra.append(grouped_sum(*args))
        return spectra[-1]
    monkeypatch.setattr(operators, "_grouped_sum", kept)
    T = apply_T_sigma(synth_sigma(a, phi, spec), f1, f2)
    assert spectra[0].side == "frequency"
    assert np.array_equal(T.samples, idft(spectra[0]).samples)


@pytest.mark.parametrize("n, L, s", [(1, 8, 32), (1, 8, 128), (2, 4, 8), (1, 12, 8), (2, 6, 8)])
def test_witness_product_samples_against_the_folded_convention(n, L, s):
    # T = idft(L^n G) equals the former N^n ifft(G) bit for bit where L and s
    # are powers of two (every scaling is exact), so the transfer and
    # witness-chain grids see the same bits; elsewhere the two differ in the
    # last bits only (about 3e-16 relative)
    spec = make_grid(n, L, s)
    phi = make_bump(2 * n, "tensor-exp", radius=0.4)
    cb = check_condition_B(phi)
    theta = make_theta_pair(phi, cb.witness, cb.slack / 4, spec)
    rng = np.random.default_rng(5)
    F1, F2 = (TrigPolynomial(n, {tuple(c - 1 for c in m): complex(*rng.standard_normal(2))
                                 for m in np.ndindex(*(3,) * n)}) for _ in range(2))
    w = build_amalgam_witness(F1, F2, theta, spec)
    a = random_lattice_coefficients(n, 1, 9, seed=5)
    T_hat = transference._T_aPhi_witness(a, phi, w, spec)
    xi = spec.axis_xi()
    old = _folded_space_samples(lambda idx: sigma_eval(a, phi, [xi[i] for i in idx]),
                                w.fhat1.samples, w.fhat2.samples, spec)
    new = idft(T_hat).samples
    if (L * s) & (L * s - 1) == 0:
        assert np.array_equal(new, old)
    else:
        gap = np.max(np.abs(new - old)) / np.max(np.abs(old))
        assert 0 < gap <= 1e-15


def _phase_matrix(N: int, L: int, M: int, K: float) -> np.ndarray:
    """P[k, i] = e^{2pi i xi_i k / K} on the centered frequency axis."""
    ks = np.arange(-M, M + 1)
    xi = (np.arange(N) - N // 2) / L
    return np.exp(2j * np.pi * np.multiply.outer(ks, xi) / K)


def _cutoff_translates(d, spec, mus):
    """Samples of the cutoff phi(xi - mu) for each needed integer translate."""
    base = np.asarray(bump_eval_axes(d.cutoff, spec.freq_points()), dtype=complex)
    return {mu: np.roll(base, shift=[c * spec.L for c in mu], axis=tuple(range(spec.n)))
            for mu in mus}


def _loop_fast(a, d, f1, f2):
    """Reference oracle for apply_T_aPhi_fast: each (mu, k) band projection
    built one multi-index k at a time."""
    spec = f1.spec
    n, N, M, K = spec.n, spec.N, d.M, d.K
    ks = np.arange(-M, M + 1)
    kcount = (2 * M + 1) ** n
    P_ax = _phase_matrix(N, spec.L, M, K)
    sp_axes = tuple(range(1, n + 1))

    def stack(f, mus):
        cuts = _cutoff_translates(d, spec, mus)
        out = {}
        for mu in mus:
            base = cuts[mu] * dft(f).samples
            arr = np.empty((kcount,) + spec.shape, dtype=complex)
            for flat in range(kcount):
                phase = 1.0
                for ax, ki in enumerate(np.unravel_index(flat, (2 * M + 1,) * n)):
                    sh = [1] * n
                    sh[ax] = N
                    phase = phase * (P_ax[ki] * np.exp(-2j * np.pi * ks[ki] * mu[ax] / K)
                                     ).reshape(sh)
                arr[flat] = phase * base
            proj = spec.s**n * np.fft.fftshift(
                np.fft.ifftn(np.fft.ifftshift(arr, axes=sp_axes), axes=sp_axes), axes=sp_axes)
            out[mu] = proj.reshape(kcount, N**n)
        return out

    mus1 = sorted({m1 for m1, _ in a.entries})
    mus2 = sorted({m2 for _, m2 in a.entries})
    G1, G2 = stack(f1, mus1), stack(f2, mus2)
    B = d.coeffs.reshape(kcount, kcount)
    C2 = {mu: B @ G2[mu] for mu in mus2}
    acc = np.zeros(N**n, dtype=complex)
    for (m1, m2), val in sorted(a.items()):
        acc += val * (G1[m1] * C2[m2]).sum(axis=0)
    return acc.reshape(spec.shape)


@pytest.mark.parametrize("n, L, s, M, kind", [(1, 8, 32, 16, "tensor-exp"),
                                              (2, 4, 8, 4, "tensor-exp"),
                                              (1, 8, 32, 16, "radial-exp")],
                         ids=["1-8-32-16", "2-4-8-4", "1-8-32-16-radial-exp"])
def test_fast_path_equals_loop_reference(n, L, s, M, kind):
    # the factored contraction reassociates the sum over k, so only a
    # rounding-level bound holds, not bit equality
    spec, phi, a, f1, f2 = _witness_inputs(n, L, s, 46)
    if kind != "tensor-exp":
        phi = make_bump(2 * n, kind, radius=0.4)
    d = cm_decompose(phi, M=M)
    fast = apply_T_aPhi_fast(a, d, f1, f2).samples
    ref = _loop_fast(a, d, f1, f2)
    assert np.max(np.abs(fast - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_fast_path_of_round_tripped_decomposition():
    # from_json rebuilds the factors by SVD; the operator must not move
    spec, phi, a, f1, f2 = _witness_inputs(1, 8, 32, 47)
    d = cm_decompose(phi, M=16)
    back = CMDecomposition.from_json(d.to_json())
    fast = apply_T_aPhi_fast(a, d, f1, f2).samples
    assert np.max(np.abs(apply_T_aPhi_fast(a, back, f1, f2).samples - fast)) \
        <= 1e-14 * np.max(np.abs(fast))


def test_fast_path_n2_working_grid_memory():
    # n = 2 at a working grid (N = 256) with the default truncation M = 16
    spec, phi, a, f1, f2 = _witness_inputs(2, 8, 32, 48)
    d = cm_decompose(phi, M=16)
    tracemalloc.start()
    try:
        apply_T_aPhi_fast(a, d, f1, f2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_fast_path_budget_fires_before_allocating():
    spec, phi, a, f1, f2 = _witness_inputs(2, 8, 32, 49)
    # enough repeated terms that the translates' stacks of 256^2 samples
    # per term pass the budget
    bands = len({m1 for m1, _ in a.entries}) + len({m2 for _, m2 in a.entries})
    d = cm_decompose(phi, M=4)
    d = replace(d, factors=d.factors * (MAX_POINTS // (bands * spec.N ** 2) + 1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="fast-path band stack"):
            apply_T_aPhi_fast(a, d, f1, f2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < spec.N ** 2 * 16


def test_fast_path_large_reach_matches_slow_path():
    # translates out to the L/4 limit, in and outside the box [-4, 4): the
    # multipliers are built on the N-point box per translate, whatever the reach
    spec = make_grid(1, 64, 8)
    phi = make_bump(2, "tensor-exp", radius=0.4)
    a = lattice_from_dict(1, {((16,), (0,)): 1.0, ((-2,), (1,)): 0.5j,
                              ((1,), (-1,)): -0.3, ((0,), (-16,)): 0.2})
    f1, f2 = _band_limited(spec, 52), _band_limited(spec, 53)
    slow = apply_T_sigma(synth_sigma(a, phi, spec), f1, f2).samples
    d = cm_decompose(phi, M=128)
    fast = apply_T_aPhi_fast(a, d, f1, f2).samples
    assert np.max(np.abs(fast - slow)) <= 1e-5 * np.max(np.abs(slow))


def test_fast_path_large_reach_n2_memory():
    # n = 2, s = 4 and the translate (L/4, L/4): the working memory follows
    # the N^2 box, not the reach
    spec = make_grid(2, 128, 4)
    a = lattice_from_dict(2, {((32, 32), (0, 0)): 1.0})
    d = cm_decompose(make_bump(4, "tensor-exp", radius=0.4), M=2)
    f = space_function(spec, np.random.default_rng(54).standard_normal(spec.shape))
    tracemalloc.start()
    try:
        out = apply_T_aPhi_fast(a, d, f, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # phi(xi - (32, 32)) vanishes on the box, and so does the symbol
    assert np.all(out.samples == 0)
    assert peak < 12 * spec.N ** 2 * 16  # a dozen N^2 complex arrays


def test_fast_path_cutoff_does_not_wrap_around_the_box():
    # each translate's cutoff lies on 3.25 <= |xi1| <= 4.75, outside the box
    # [-2, 2): the symbol vanishes on the box and so must the fast path, not
    # multiply the spectra (on |xi| < 1.6) on the far side of the box
    spec = make_grid(1, 16, 4)
    phi = make_bump(2, "tensor-exp", radius=0.4)
    a = lattice_from_dict(1, {((4,), (0,)): 1.0, ((-4,), (1,)): 0.5j})
    f1, f2 = _band_limited(spec, 50, frac=2.5), _band_limited(spec, 51, frac=2.5)
    assert np.all(apply_T_sigma(synth_sigma(a, phi, spec), f1, f2).samples == 0)
    assert np.all(apply_T_aPhi_fast(a, cm_decompose(phi, M=16), f1, f2).samples == 0)


def test_T_sigma_rejects_mismatched_grids(spec, phi04):
    other = make_grid(1, 8, 16)
    sig = synth_sigma(lattice_delta(1), phi04, spec)
    f_other = space_function(other, np.ones(other.shape))
    f_ok = space_function(spec, np.ones(spec.shape))
    with pytest.raises(ValueError):
        apply_T_sigma(sig, f_other, f_ok)


def test_fourier_support_propagation(spec, phi04, theta):
    # output spectrum lives in supp fhat1 + supp fhat2 + symbol translate offsets
    a = random_lattice_coefficients(1, 1, 9, seed=15)
    sig = synth_sigma(a, phi04, spec)
    f1, f2 = _band_limited(spec, 16, frac=8), _band_limited(spec, 17, frac=8)
    out_hat = dft(apply_T_sigma(sig, f1, f2)).samples
    xi = spec.axis_xi()
    # sumset radius: input bands s/8 each, plus translate radius 1 + bump radius .4
    allowed = np.abs(xi) <= 2 * spec.s / 8 + 1 + 0.4 + 1e-9
    energy_out = np.sum(np.abs(out_hat[~allowed]) ** 2)
    total = np.sum(np.abs(out_hat) ** 2)
    assert energy_out <= 1e-10 * total


def test_band_project_support_geometry(spec, kappa):
    env = make_bump(1, "tensor-exp", radius=0.3)  # inside the 0.4 plateau
    mu0 = 3
    f = idft(freq_function(spec, lambda xi: bump_eval_axes(env, [xi - mu0])))
    proj = band_project(kappa, (mu0,), f)
    assert np.max(np.abs(proj.samples - f.samples)) <= 1e-12 * np.max(np.abs(f.samples))
    for far in (mu0 - 2, mu0 + 2):
        assert np.max(np.abs(band_project(kappa, (far,), f).samples)) <= 1e-14


def test_band_projections_partition(spec, kappa):
    f = _band_limited(spec, 20)
    total = sum(band_project(kappa, (k,), f).samples for k in range(-9, 10))
    assert np.max(np.abs(total - f.samples)) <= 1e-10 * np.max(np.abs(f.samples))


def test_band_project_single_mode(spec, kappa):
    x = spec.axis_x()
    mu0 = 2
    f = space_function(spec, np.exp(2j * np.pi * mu0 * x))
    from latticebump.bumps import window_eval
    for mu in (1, 2, 3):
        proj = band_project(kappa, (mu,), f)
        expected = complex(window_eval(kappa, float(mu0 - mu))) * f.samples
        assert np.max(np.abs(proj.samples - expected)) <= 1e-12 * (1 + abs(
            complex(window_eval(kappa, float(mu0 - mu)))))


@pytest.mark.parametrize("n, offset", [(1, None), (1, (0.375,)), (2, None), (2, (0.25, -0.5))])
def test_band_project_is_each_row_of_the_wiener_band_stack(n, offset):
    # band_project and the norms' band stack evaluate the same translated
    # window through separate code: every band of the covering set agrees
    spec = make_grid(n, 8, 16)
    rng = np.random.default_rng(22 + n)
    near = np.ones(spec.shape, dtype=bool)
    for ax in spec.freq_points():
        near = near & (np.abs(ax) < 2.5)
    F = np.where(near, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape), 0)
    f = idft(freq_function(spec, F))
    kappa = make_window(n, 0.6)
    bands, stack = wiener_band_values(f, kappa, offset=offset)
    assert len(bands) >= 5**n
    scale = np.max(np.abs(stack))
    for mu, row in zip(bands, stack):
        proj = band_project(kappa, mu, f, offset=offset).samples
        assert np.max(np.abs(proj - row)) <= 1e-14 * scale, mu


def test_band_project_rejects_out_of_box(spec, kappa):
    f = _band_limited(spec, 21)
    with pytest.raises(ValueError):
        band_project(kappa, (spec.s // 2,), f)


def test_fast_path_zero_coefficients(spec, phi04):
    d = cm_decompose(phi04, M=8)
    a0 = lattice_from_dict(1, {})
    f1, f2 = _band_limited(spec, 22), _band_limited(spec, 23)
    out = apply_T_aPhi_fast(a0, d, f1, f2)
    assert np.all(out.samples == 0)


def test_fast_path_matches_slow_reference(spec, phi04):
    a = random_lattice_coefficients(1, 1, 9, seed=24)
    f1, f2 = _band_limited(spec, 25), _band_limited(spec, 26)
    slow = apply_T_sigma(synth_sigma(a, phi04, spec), f1, f2).samples
    fast = apply_T_aPhi_fast(a, cm_decompose(phi04, M=128), f1, f2).samples
    assert np.max(np.abs(fast - slow)) <= 1e-5 * np.max(np.abs(slow))


def test_fast_path_delta(spec, phi04):
    f1, f2 = _band_limited(spec, 27), _band_limited(spec, 28)
    slow = apply_T_sigma(synth_sigma(lattice_delta(1), phi04, spec), f1, f2).samples
    fast = apply_T_aPhi_fast(lattice_delta(1), cm_decompose(phi04, M=128), f1, f2).samples
    assert np.max(np.abs(fast - slow)) <= 1e-5 * np.max(np.abs(slow))


def test_blas_runs_the_pinned_thread_count():
    # the wall-clock tests below need the root conftest's pin to reach
    # OpenBLAS, which reads it only when numpy is first imported
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*"))
    if not libs or "OPENBLAS_NUM_THREADS" not in os.environ:
        pytest.skip("no bundled OpenBLAS or no thread pin")
    threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_()
    assert threads == int(os.environ["OPENBLAS_NUM_THREADS"])


def test_fast_path_speedup():
    # performance example: N = 512, |supp a| = 9, default truncation
    spec = make_grid(1, 8, 64)
    phi = make_bump(2, "tensor-exp", radius=0.4)
    a = random_lattice_coefficients(1, 1, 9, seed=29)
    d = cm_decompose(phi, M=16)
    f1, f2 = _band_limited(spec, 30), _band_limited(spec, 31)
    # the slow arm is the dense N^(2n) reference: the library's own slow
    # path now costs in proportion to the support of sigma
    apply_T_aPhi_fast(a, d, f1, f2)  # warm up
    _dense_T_sigma(_dense_synth_sigma(a, phi, spec), f1, f2)
    # interleaved pairs cancel common-mode load; best pair decides
    ratios = []
    for _ in range(12):
        t_slow = _timed(lambda: _dense_T_sigma(_dense_synth_sigma(a, phi, spec), f1, f2))
        t_fast = _timed(lambda: apply_T_aPhi_fast(a, d, f1, f2))
        ratios.append(t_slow / t_fast)
    assert max(ratios) >= 5.0, f"best slow/fast ratio {max(ratios):.2f}"


def test_support_slabs_beat_the_dense_reference():
    # the witness-chain grid, N^2 = 2^20 symbol values of which ~441 are nonzero
    spec, phi, a, f1, f2 = _witness_inputs(1, 8, 128, 48)
    sparse = lambda: apply_T_sigma(synth_sigma(a, phi, spec), f1, f2)
    dense = lambda: _dense_T_sigma(_dense_synth_sigma(a, phi, spec), f1, f2)
    sparse(), dense()  # warm up
    ratios = [_timed(dense) / _timed(sparse) for _ in range(6)]
    assert max(ratios) >= 5.0, f"best dense/slab ratio {max(ratios):.2f}"


def test_T_sigma_peak_memory_follows_the_symbol_support():
    spec = make_grid(1, 8, 128)
    sigma = synth_sigma(random_lattice_coefficients(1, 1, 9, seed=49),
                        make_bump(2, "tensor-exp", radius=0.4), spec)
    rng = np.random.default_rng(50)
    f1, f2 = (space_function(spec, rng.standard_normal(spec.N) + 1j * rng.standard_normal(spec.N))
              for _ in range(2))
    tracemalloc.start()
    try:
        apply_T_sigma(sigma, f1, f2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("where", ["symbol", "f1", "f2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_T_sigma_rejects_non_finite_samples(spec, phi04, where, bad):
    # a pair the symbol cannot weight is skipped, so it no longer spreads an
    # inf or a NaN: they are refused instead
    sigma = synth_sigma(lattice_delta(1), phi04, spec)
    f1, f2 = _band_limited(spec, 51), _band_limited(spec, 52)
    target = {"symbol": sigma, "f1": f1, "f2": f2}[where]
    target.samples[(0,) * target.samples.ndim] = bad
    with pytest.raises(ValueError, match=f"{where} has non-finite samples"):
        apply_T_sigma(sigma, f1, f2)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_fast_path_2d_small_grid():
    spec = make_grid(2, 4, 4)
    phi = make_bump(4, "tensor-exp", radius=0.4)
    a = lattice_from_dict(2, {((0, 0), (0, 0)): 1.0, ((1, 0), (0, -1)): 0.5 - 0.5j})
    rng = np.random.default_rng(32)
    mask = np.ones(spec.shape, bool)
    xi = spec.axis_xi()
    for j in range(2):
        sh = [1, 1]
        sh[j] = spec.N
        mask &= (np.abs(xi) < spec.s / 4).reshape(sh)
    def mk(seed):
        r = np.random.default_rng(seed)
        F = np.zeros(spec.shape, complex)
        F[mask] = r.standard_normal(mask.sum()) + 1j * r.standard_normal(mask.sum())
        return idft(freq_function(spec, F))
    f1, f2 = mk(33), mk(34)
    slow = apply_T_sigma(synth_sigma(a, phi, spec), f1, f2).samples
    d = cm_decompose(phi, M=16)
    fast = apply_T_aPhi_fast(a, d, f1, f2).samples
    gap = np.max(np.abs(fast - slow))
    l1 = [spec.dxi**2 * np.sum(np.abs(dft(f).samples)) for f in (f1, f2)]
    assert gap <= d.tail * a.sup_norm() * 4 * l1[0] * l1[1]
    assert gap <= 5e-2 * np.max(np.abs(slow))


def test_band_limited_square_function_lemma_constant(spec, kappa, rng):
    # Plancherel-sharp multiplier bound for band-limited stacks:
    # || ||phi(D-mu) g_mu||_{l2_mu} ||_{L2} <= sup_xi (sum_mu |phi(xi-mu)|^2)^{1/2}
    #                                          * || ||g_mu||_{l2_mu} ||_{L2}
    phi = kappa.base
    mus = range(-2, 3)
    gs = [_band_limited(spec, 100 + i, frac=8) for i, _ in enumerate(mus)]
    proj = [band_project(kappa, (m,), g).samples for m, g in zip(mus, gs)]
    lhs_sq = sum(np.abs(p) ** 2 for p in proj)
    lhs = np.sqrt(spec.h * np.sum(lhs_sq))
    xi = np.linspace(-4, 4, 4001)
    const = np.sqrt(max(sum(np.abs(bump_eval_axes(phi, [xi - m])) ** 2 for m in range(-8, 9))))
    rhs_sq = sum(np.abs(g.samples) ** 2 for g in gs)
    rhs = float(const) * np.sqrt(spec.h * np.sum(rhs_sq))
    assert lhs <= rhs * (1 + 1e-10)


def test_window_multiplier_stack_general_exponents_reported(spec, kappa):
    # the sharp constant is only asserted at p = q = 2; other exponents are
    # reported as observed ratios (they stay finite for band-limited stacks)
    mus = range(-2, 3)
    gs = [_band_limited(spec, 200 + i, frac=8) for i, _ in enumerate(mus)]
    proj = [band_project(kappa, (m,), g).samples for m, g in zip(mus, gs)]
    from latticebump.norms import lp_norm
    from latticebump.grid import space_function
    for p, q in ((1.0, 1.0), (0.5, 2.0), (4.0, 1.0)):
        def mixed(stack):
            mags = np.stack([np.abs(s) for s in stack])
            pooled = np.sum(mags**q, axis=0) ** (1 / q)
            return lp_norm(space_function(spec, pooled.astype(complex)), p)
        ratio = mixed(proj) / mixed([g.samples for g in gs])
        assert np.isfinite(ratio) and ratio > 0
        print(f"\nwindow stack constant at (p,q)=({p},{q}): {ratio:.4f} (reported)")


def test_discrete_models_bilinear_exactly(rng):
    a = random_lattice_coefficients(1, 1, 7, seed=90)
    b1 = sequence_from_dict(1, {m: complex(*rng.standard_normal(2)) for m in (-1, 0, 1)})
    b1b = sequence_from_dict(1, {m: complex(*rng.standard_normal(2)) for m in (0, 2)})
    b2 = sequence_from_dict(1, {m: complex(*rng.standard_normal(2)) for m in (0, 1)})
    c = 1.5 - 2.5j
    combo = sequence_from_dict(1, {})
    combo.entries.update({k: c * v for k, v in b1.entries.items()})
    for k, v in b1b.entries.items():
        combo.entries[k] = combo.entries.get(k, 0.0) + v
    lhs = apply_S(a, combo, b2).entries
    r1 = apply_S(a, b1, b2).entries
    r2 = apply_S(a, b1b, b2).entries
    keys = set(lhs) | set(r1) | set(r2)
    for k in keys:
        want = c * r1.get(k, 0.0) + r2.get(k, 0.0)
        assert abs(lhs.get(k, 0.0) - want) <= 1e-14 * max(1.0, abs(want))
