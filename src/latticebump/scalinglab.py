"""Necessity experiments: norm growth of modulated dilates as eps -> 0.

The family f_eps(x) = e^{2pi i xi0.x} phi(eps x) (frequency side:
eps^{-n} phihat(eps^{-1}(xi - xi0))) concentrates its Fourier support while
spreading in space.  Amalgam norms grow like eps^{-n/q}, Wiener amalgam norms
like eps^{-n/p}; regression of log-norm against log(1/eps) recovers the
exponents, and comparing the output growth of a bilinear product against the
input growths decides whether an exponent tuple can possibly be bounded.

Each eps gets its own grid: L(eps) = box_factor / eps at fixed s, so the
dilate always occupies the same fraction of the box.  The recorded tail
fraction (|phi| mass outside the box, measured from the base profile's
inverse transform) depends only on box_factor; the default 192 brings it
under 1e-6 (the 16/eps floor would leave about 2e-2).

The certified floor min_Q |phi| >= 1 needs one quadrature only: each axis
factor of phi decreases on [0, 1/2] for an even, nonnegative base of radius
<= 1, so its minimum on Q sits at the corner |x_j| = 1/2 (``_q_floor``).

The second, companion exponent of a space cannot move a slope (amalgam
norms grow like eps^{-n/q} whatever the inner p, Wiener norms like
eps^{-n/p} whatever the outer q), so it is fixed at 2 in one place,
``_norms``.  Every measurement runs in one eps-major pass
(``_scaling_pass``, behind ``scaling_slopes``, ``bilinear_product_scaling``
and the ``scaling`` command): each eps builds f_hat once, on its support
slab, transforms it once and takes |f_eps| once, for the per-cube L^2
profile (amalgam), sup |f_eps| and the Wiener pool.  The band lattice is
offset to xi0 and the support radius stays under the window plateau, so one
band's window is exactly 1 on the spectrum's slab and the pool of the band
stack is |f_eps| bit for bit (``norms._wiener_l2`` checks it; where it
fails the stack is built from f_hat).  Every exponent of a space reads one
normalised reduction, except the Wiener p = 2: W^{2,2} is the weighted l^2
of f_hat, read in the same pass over the windows.  The same f_hat gives the spectrum of the product
T_sigma(f_eps, f_eps), and T is its idft, so the same single-plateau rule
(offset to 2 xi0) serves it: |T| gives its cube profile, the core minimum
and its Wiener pool.  So each eps makes two inverse transforms, and its
arrays are gone before the next eps is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bumps import BumpProfile, Window, _axis_factor, _bump_translates, make_bump
from .grid import GridFunction, GridSpec, _embed, idft, make_grid
from .norms import (_cube_norms, _power_norm, _power_norms, _wiener_l2, check_exponent,
                    loglog_slope, wiener_band_values)
from .operators import _grouped_sum
from .transference import AMALGAM_CITATION, WIENER_CITATION

__all__ = [
    "ScalingFamily",
    "SlopeFit",
    "ProductScaling",
    "NecessityVerdict",
    "make_scaling_family",
    "scaling_slopes",
    "amalgam_scaling_slope",
    "wiener_scaling_slope",
    "bilinear_product_scaling",
    "necessity_verdict",
]


@dataclass
class SlopeFit:
    slope: float
    r_squared: float
    epsilons: tuple[float, ...]
    norms: tuple[float, ...]


@dataclass
class ProductScaling:
    slope: float | None
    r_squared: float | None
    epsilons: tuple[float, ...]
    norms: tuple[float, ...]
    degenerate: bool
    sigma_at_center: complex
    min_modulus_on_core: float   # min |T| over |x|_inf <= 1/(2 eps_min)
    half_bound_held: bool        # min >= 0.5 |sigma(xi0, eta0)| at smallest eps


@dataclass
class NecessityVerdict:
    status: str  # "consistent" | "violated"
    gap: float   # output slope minus sum of input slopes
    citation: str
    output_slope: float
    input_slopes: tuple[float, float]


@dataclass
class ScalingFamily:
    """Modulated dilates with per-eps grids and a floor certificate on Q."""

    n: int
    base: BumpProfile          # phihat at eps = 1 (per-axis radius <= 1)
    xi0: tuple[float, ...]
    epsilons: tuple[float, ...]
    s: int
    amplitude: float           # scale applied so min_Q |phi| >= 1
    min_q_modulus: float       # certified floor of |phi| on Q
    tail_fraction: float       # recorded |phi| l1 mass outside the box (per axis)
    specs: dict[float, GridSpec]

    def scaled_profile(self, eps: float) -> BumpProfile:
        """phihat(eps^{-1}(. - xi0)) as a profile: radius eps * base radius."""
        return BumpProfile(
            d=self.n, kind=self.base.kind, center=self.xi0,
            radius=tuple(eps * r for r in self.base.radius),
            amplitude=self.base.amplitude * self.amplitude,
            inner=None if self.base.inner is None
            else tuple(eps * r for r in self.base.inner))

    def f_hat(self, eps: float) -> GridFunction:
        """Frequency samples eps^{-n} phihat(eps^{-1}(xi - xi0)): the one
        translate (0, 1) of the scaled profile times eps^{-n}, written on its
        support slab and embedded in the whole grid."""
        prof = self.scaled_profile(eps).scaled(eps ** (-self.n))
        spec = self.specs[eps]
        slab = _bump_translates(prof, [((0,) * self.n, 1.0)], spec)
        return GridFunction(spec, "frequency", _embed(slab, spec.shape))

    def f(self, eps: float) -> GridFunction:
        return idft(self.f_hat(eps))


def _phi_axis_data(base: BumpProfile, pad: int = 1 << 17,
                   samples: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """(x, |phi_1d(x)|) for the 1-D inverse transform of one base axis,
    via a zero-padded real FFT: its first pad/2 bins are the x >= 0 branch,
    in increasing order."""
    r = base.radius[0]
    u = -r + 2 * r * np.arange(samples) / samples
    vals = _axis_factor(base, 0, u)
    du = 2 * r / samples
    padded = np.zeros(pad)
    half = samples // 2
    padded[:half] = vals[half:]
    padded[-half:] = vals[:half]
    # inverse transform up to conjugation; the modulus is equal
    F = np.fft.rfft(padded)[: pad // 2] * du
    return np.fft.rfftfreq(pad, d=du)[: pad // 2], np.abs(F)


def _q_floor(base: BumpProfile) -> float:
    """min over Q = [-1/2, 1/2] of |phi_1d|, the inverse transform of one
    axis of the tensor-exp base, from a 4096-node direct quadrature at
    x = 1/2 alone.

    The axis factor phihat is even, >= 0 and supported in [-r, r] with
    r <= 1, so phi(x) = int phihat(u) cos(2 pi x u) du is even and
    phi'(x) = -int 2 pi u phihat(u) sin(2 pi x u) du <= 0 on [0, 1/2]
    (t sin t >= 0 for |t| <= pi).  The same holds term by term for the
    quadrature, whose weights are >= 0 and whose nodes are symmetric (the
    unpaired node -r carries weight phihat(-r) = 0).  So phi decreases on
    [0, 1/2] and its minimum modulus on Q is |phi(1/2)|, unless
    phi(1/2) <= 0, in which case phi has a zero on Q.  (The FFT ladder of
    ``_phi_axis_data`` resolves tails, not this corner value.)
    """
    r = base.radius[0]
    u = -r + 2 * r * np.arange(4096) / 4096
    phi_half = np.exp(1j * np.pi * u) @ (_axis_factor(base, 0, u) * (2 * r / 4096))
    if phi_half.real <= 0:
        raise ValueError("|phi| vanishes on Q; choose a wider base bump")
    return float(abs(phi_half))


@functools.lru_cache(maxsize=16)
def _axis_constants(base: BumpProfile, box_factor: float) -> tuple[float, float]:
    """(tail fraction, Q-floor) of one axis of the base: the |phi| l1 mass
    outside the box [-box_factor/2, box_factor/2] (``_phi_axis_data``) and
    ``_q_floor``.  Memoised as two scalars per (base, box_factor), so a
    repeated family build runs no FFT; the arrays die here."""
    x, mag = _phi_axis_data(base)
    dx = x[1] - x[0]
    total = 2.0 * np.trapezoid(mag, dx=dx)
    tail = 2.0 * np.trapezoid(mag[x > box_factor / 2], dx=dx) / total
    return float(tail), _q_floor(base)


def make_scaling_family(xi0=0.0, epsilons=(0.5, 0.25, 0.125), n: int = 1,
                        s: int = 8, box_factor: float = 192.0,
                        base_radius: float = 0.3,
                        tail_budget: float = 1e-6) -> ScalingFamily:
    """Build the dilate family with its per-eps grids.

    The base frequency bump has per-axis radius ``base_radius`` (<= 1); small
    radii keep the Fourier support of every f_eps inside window plateaus for
    the Wiener experiments.  The amplitude is chosen so that |phi| >= 1 on
    Q: |phi| is a product of per-axis factors, each smallest at the corner
    |x_j| = 1/2 (see ``_q_floor``), so one quadrature at x = 1/2 certifies
    the floor; a phi that vanishes on Q is refused.
    """
    if not 0 < base_radius <= 1:
        raise ValueError("base radius must lie in (0, 1]")
    eps_list = tuple(float(e) for e in epsilons)
    # a repeated eps would give the regression a point with no new information
    if any(not 0 < e <= 1 for e in eps_list) or any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError(f"epsilons must be a strictly decreasing list in (0, 1], got "
                         f"{list(eps_list)}")
    if box_factor < 16.0:
        raise ValueError("box policy requires L(eps) >= 16/eps")
    # a scalar centre is the same on every axis; a list names one per axis
    xi0 = (float(xi0),) * n if np.ndim(xi0) == 0 else tuple(float(c) for c in xi0)
    if len(xi0) != n:
        raise ValueError(f"xi0 must have {n} components")

    base = make_bump(n, "tensor-exp", center=(0.0,) * n, radius=base_radius)
    tail, min_q_axis = _axis_constants(base, box_factor)
    # |phi_nd| = prod |phi_1d(x_j)|; one global amplitude lifts the Q-floor to 1
    amplitude = (1.0 + 1e-6) / min_q_axis**n

    specs = {}
    for e in eps_list:
        L = int(np.ceil(box_factor / e / 2) * 2)
        specs[e] = make_grid(n, L, s)
        for c in xi0:
            if abs(c * L - round(c * L)) > 1e-9:
                raise ValueError(f"xi0={xi0} is not grid-aligned for L={L}")
    # the widest spectrum, xi0 +- eps * base_radius at the largest eps, must
    # lie in the frequency box [-s/2, s/2): outside it every sample is 0
    rho = eps_list[0] * base_radius
    if any(c - rho < -s / 2 or c + rho >= s / 2 for c in xi0):
        raise ValueError(f"xi0={xi0}: the spectrum (radius {rho}) leaves the frequency "
                         f"box [-{s / 2}, {s / 2})")
    if tail > tail_budget:
        raise ValueError(f"measured tail fraction {tail:.2e} exceeds the budget "
                         f"{tail_budget:.1e}; increase box_factor")
    return ScalingFamily(n=n, base=base, xi0=xi0, epsilons=eps_list, s=s,
                         amplitude=float(amplitude),
                         min_q_modulus=float(min_q_axis**n * amplitude),
                         tail_fraction=float(tail), specs=specs)


def _check_space(space: str, kappa: Window | None) -> None:
    if space not in ("amalgam", "wiener"):
        raise ValueError("space must be 'amalgam' or 'wiener'")
    if space == "wiener" and kappa is None:
        raise ValueError("wiener measurement needs a window")


def _norms(mod: np.ndarray, ghat: GridFunction, measurements, kappa: Window | None,
           offset) -> list[float]:
    """The norm for each (space, r) in ``measurements`` of the function with
    spectrum ``ghat`` and space-side modulus ``mod`` = |idft(ghat)|: its
    amalgam (L^2, l^r) or Wiener W^{r,2} norm, one reduction and
    normalisation per space.  The Wiener W^{2,2} norm is the weighted l^2 of
    the spectrum (``_wiener_l2``); the same pass over the windows tells
    whether a single plateau covers the spectrum, and then the Wiener pool
    of every other r is ``mod``."""
    spec = ghat.spec
    norms = {}
    for space in dict.fromkeys(space for space, _r in measurements):
        rs = list(dict.fromkeys(r for sp, r in measurements if sp == space))
        if space == "amalgam":
            norms.update(zip(((space, r) for r in rs),
                             _power_norms(_cube_norms(mod, spec, 2.0), rs)))
            continue
        norms[space, 2.0], plateau = _wiener_l2(ghat.samples, spec, kappa, offset)
        rs = [r for r in rs if r != 2.0]
        if rs:
            pool = mod if plateau else _power_norm(
                wiener_band_values(ghat, kappa, offset=offset)[1], 2.0, axis=0)
            norms.update(zip(((space, r) for r in rs), _power_norms(pool, rs, spec.h**spec.n)))
    return [norms[m] for m in measurements]


def _product_row(fam: ScalingFamily, e: float, fh: GridFunction, products, kappa,
                 sigma_fn) -> tuple[list[float], float | None]:
    """The (space, r) norms of T_sigma(f_eps, f_eps), formed from the
    spectrum ``fh`` of f_eps, and min |T| on the core box |x| <= 1/(2 eps) at
    the smallest eps."""
    spec = fam.specs[e]
    xi = spec.axis_xi()
    T_hat = _grouped_sum(
        lambda idx: np.asarray(sigma_fn(*(xi[i] for i in idx)), dtype=complex),
        fh.samples, fh.samples, spec)
    mod = np.abs(idft(T_hat).samples)
    min_core = None
    if e == fam.epsilons[-1]:
        min_core = float(np.min(mod[np.abs(spec.axis_x()) <= 1.0 / (2 * e)]))
    # the product's spectrum is centred at 2 * xi0
    return _norms(mod, T_hat, products, kappa, 2 * np.asarray(fam.xi0)), min_core


def _eps_row(fam: ScalingFamily, e: float, ladders, products, kappa, sigma_fn):
    """One eps of the pass: (ladder norms, product norms, min |T| on the core
    box, sup |f_eps|).  f_eps is transformed once and its modulus taken once;
    every array of the eps dies before it returns."""
    fh = fam.f_hat(e)
    product_norms, min_core = (_product_row(fam, e, fh, products, kappa, sigma_fn)
                               if products else ([], None))
    mod = np.abs(idft(fh).samples)
    return (_norms(mod, fh, ladders, kappa, fam.xi0), product_norms, min_core,
            float(mod.max()))


def _scaling_pass(fam: ScalingFamily, slopes, products, kappa: Window | None = None,
                  sigma_fn=None) -> tuple[dict[tuple[str, float], SlopeFit],
                                          list[ProductScaling]]:
    """Every scaling measurement of one family in one eps-major pass.

    ``slopes`` lists the (space, r) norms of f_eps fitted against
    log(1/eps), a repeated pair fitted once; ``products`` lists the
    (space, r) norms of T_sigma(f_eps, f_eps) for the vectorized symbol
    ``sigma_fn``.  Each eps builds f_hat and its inverse transform once,
    reduces f_eps once per slope space, takes sup |f_eps| from that same
    array and forms and reduces the product once per space.  Returns the
    SlopeFits keyed by (space, r), r a float (``check_exponent``), and one
    ProductScaling per product measurement.
    """
    ladders = list(dict.fromkeys((space, check_exponent(r)) for space, r in slopes))
    products = [(space, check_exponent(r)) for space, r in products]
    for space in dict.fromkeys(space for space, _r in [*ladders, *products]):
        _check_space(space, kappa)
    if ladders and len(fam.epsilons) < 3:
        raise ValueError("regression needs at least 3 epsilons")
    e = fam.epsilons[0]  # the widest spectrum
    rho = e * max(fam.base.radius)
    if any(space == "wiener" for space, _r in ladders) and rho >= kappa.plateau_radius:
        raise ValueError(f"multi-band leakage: support radius {rho} at eps={e} reaches "
                         f"the window plateau {kappa.plateau_radius}")
    if products and fam.n != 1:
        raise ValueError("product scaling is implemented for n = 1")

    if not ladders and not products:
        return {}, []
    ladder_rows, product_rows, cores, sups = zip(*(
        _eps_row(fam, e, ladders, products, kappa, sigma_fn) for e in fam.epsilons))
    x = [1.0 / e for e in fam.epsilons]
    fits = {}
    for key, norms in zip(ladders, zip(*ladder_rows)):
        slope, _, r2 = loglog_slope(x, norms)
        fits[key] = SlopeFit(slope=slope, r_squared=r2, epsilons=fam.epsilons, norms=norms)
    if not products:
        return fits, []
    center = np.asarray(fam.xi0)
    sig0 = complex(np.asarray(sigma_fn(center, center)).reshape(-1)[0])
    scale = max(sup * sup for sup in sups)
    min_core = cores[-1]
    out = []
    for norms in zip(*product_rows):
        degenerate = max(norms) < 1e-12 * scale
        slope = r2 = None
        if not degenerate:
            slope, _, r2 = loglog_slope(x, norms)
        out.append(ProductScaling(slope=slope, r_squared=r2, epsilons=fam.epsilons,
                                  norms=norms, degenerate=degenerate,
                                  sigma_at_center=sig0, min_modulus_on_core=min_core,
                                  half_bound_held=not degenerate and min_core >= 0.5 * abs(sig0)))
    return fits, out


def scaling_slopes(fam: ScalingFamily, space: str, rs, kappa: Window | None = None
                   ) -> list[SlopeFit]:
    """Regression slopes of log ||f_eps|| against log(1/eps), one per r in
    ``rs``: the amalgam (L^2, l^r) or the Wiener W^{r,2} norm.  Each eps builds
    f_eps and reduces it once, and every r reads its norm from that reduction.

    Wiener slopes require single-band concentration: the support radius of
    fhat_eps must stay inside the window plateau, so exactly one band is active.
    """
    fits = _scaling_pass(fam, [(space, r) for r in rs], [], kappa)[0]
    return [fits[space, check_exponent(r)] for r in rs]


def amalgam_scaling_slope(fam: ScalingFamily, q: float) -> SlopeFit:
    """Regression slope of log ||f_eps||_(L^2, l^q) against log(1/eps)."""
    return scaling_slopes(fam, "amalgam", [q])[0]


def wiener_scaling_slope(fam: ScalingFamily, p: float, kappa: Window) -> SlopeFit:
    """Regression slope of log ||f_eps||_W^{p,2} against log(1/eps)."""
    return scaling_slopes(fam, "wiener", [p], kappa)[0]


def bilinear_product_scaling(fam: ScalingFamily, sigma_fn, measurements,
                             kappa: Window | None = None) -> list[ProductScaling]:
    """Measured output-norm growth of T_sigma(f_eps, f_eps), one
    ProductScaling per (space, r) in ``measurements``: the amalgam (L^2, l^r)
    or the Wiener W^{r,2} norm.  Each eps builds f_hat once, forms the product
    once and reduces it once per space, and every measurement reads its norm
    from that reduction.

    ``sigma_fn(xi1, xi2)`` is a vectorized symbol callable, sampled on each
    per-eps grid; it should be smooth and nonzero at (xi0, xi0) for the growth
    to match the space exponent.  Also records the pointwise floor
    2^{-1}|sigma(xi0, xi0)| check on the core box |x| <= 1/(2 eps) at the
    smallest eps.
    """
    return _scaling_pass(fam, {}, measurements, kappa, sigma_fn)[1]


def necessity_verdict(space: str, input_slopes: tuple[float, float],
                      output_slope: float) -> NecessityVerdict:
    """Compare measured output growth against the product of input growths.

    The slopes are measured at one exponent tuple's (r1, r2, r) in ``space``
    (amalgam q, Wiener p).  Boundedness forces output <= input1 + input2 (up
    to measurement error); a gap beyond 0.1 certifies that tuple impossible
    in that space.
    """
    if space == "amalgam":
        citation = AMALGAM_CITATION
    elif space == "wiener":
        citation = WIENER_CITATION
    else:
        raise ValueError("space must be 'amalgam' or 'wiener'")
    s1, s2 = float(input_slopes[0]), float(input_slopes[1])
    gap = float(output_slope) - (s1 + s2)
    status = "violated" if gap > 0.1 else "consistent"
    return NecessityVerdict(status=status, gap=gap, citation=citation,
                            output_slope=float(output_slope),
                            input_slopes=(s1, s2))
