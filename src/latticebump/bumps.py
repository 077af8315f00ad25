"""Smooth compactly supported profiles with exactly known supports.

Three kinds are provided, all built from the transition exp(-1/t):

* ``tensor-exp``  -- product over axes of exp(-1/(1 - t^2)) scaled to the
  per-axis radius; nonzero set is the open sup-norm box.
* ``radial-exp``  -- exp(-1/(1 - rho^2)) in the scaled Euclidean radius;
  nonzero set is the open ellipsoid inscribed in the declared box.
* ``plateau``     -- per-axis smoothed step pair; identically ``amplitude``
  on the closed inner box, zero outside the closed outer box.

Supports are tracked symbolically as boxes (never by thresholding), which is
what makes the translate-geometry decision in :func:`check_condition_B` exact.
A window is a plateau of inner radius 1 - outer: its smoothstep S satisfies
S(t) + S(1 - t) = 1, so the integer translates already sum to one and the
window is evaluated as the plateau itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .grid import GridFunction, GridSpec, _translate_sum

__all__ = [
    "BumpProfile",
    "Window",
    "ThetaPair",
    "ConditionBResult",
    "make_bump",
    "make_plateau",
    "make_window",
    "bump_eval",
    "bump_eval_axes",
    "window_eval",
    "window_eval_axes",
    "check_condition_B",
    "translate_slack",
    "make_theta_pair",
]

_KINDS = ("radial-exp", "tensor-exp", "plateau")


def _bump01(t: np.ndarray) -> np.ndarray:
    """exp(-1/(1-t^2)) on |t|<1, zero elsewhere; vectorized, overflow-safe."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    tm = t[m]
    out[m] = np.exp(-1.0 / (1.0 - tm * tm))
    return out


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t<=0, 1 for t>=1, built from exp(-1/t)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    m = (t > 0.0) & (t < 1.0)
    tm = t[m]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[m] = a / (a + b)
    return out


@dataclass(frozen=True)
class BumpProfile:
    """Analytically described smooth profile with exact sup-norm support box."""

    d: int
    kind: str
    center: tuple[float, ...]
    radius: tuple[float, ...]
    amplitude: complex = 1.0 + 0.0j
    inner: tuple[float, ...] | None = None  # plateau only

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed box [center - radius, center + radius] containing the support."""
        c = np.asarray(self.center, dtype=float)
        r = np.asarray(self.radius, dtype=float)
        return c - r, c + r

    @property
    def separable(self) -> bool:
        """True when the profile is a product of per-axis factors."""
        return self.kind != "radial-exp" or self.d == 1

    def scaled(self, factor: complex) -> "BumpProfile":
        return replace(self, amplitude=self.amplitude * factor)


def _as_tuple(v, d: int, name: str) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.size == 1:
        arr = np.full(d, arr[0])
    if arr.shape != (d,):
        raise ValueError(f"{name} must be a scalar or length-{d}, got {v!r}")
    return tuple(float(x) for x in arr)


def make_bump(d: int, kind: str = "tensor-exp", center=0.0, radius=1.0,
              amplitude: complex = 1.0) -> BumpProfile:
    """Construct a radial-exp or tensor-exp profile."""
    if kind not in ("radial-exp", "tensor-exp"):
        raise ValueError(f"kind must be 'radial-exp' or 'tensor-exp', got {kind!r}")
    r = _as_tuple(radius, d, "radius")
    if any(x <= 0 for x in r):
        raise ValueError(f"radius must be positive, got {radius!r}")
    return BumpProfile(d=d, kind=kind, center=_as_tuple(center, d, "center"),
                       radius=r, amplitude=complex(amplitude))


def make_plateau(d: int, inner, outer, center=0.0, amplitude: complex = 1.0) -> BumpProfile:
    """Plateau profile: == amplitude on the closed inner box, 0 outside the outer box."""
    ri = _as_tuple(inner, d, "inner")
    ro = _as_tuple(outer, d, "outer")
    if any(a <= 0 or a >= b for a, b in zip(ri, ro)):
        raise ValueError(f"need 0 < inner < outer per axis, got inner={inner!r} outer={outer!r}")
    return BumpProfile(d=d, kind="plateau", center=_as_tuple(center, d, "center"),
                       radius=ro, amplitude=complex(amplitude), inner=ri)


def _axis_factor(b: BumpProfile, axis: int, u: np.ndarray) -> np.ndarray:
    """Per-axis factor of a separable profile (amplitude excluded)."""
    u = np.asarray(u, dtype=float) - b.center[axis]
    if b.kind == "plateau":
        ri, ro = b.inner[axis], b.radius[axis]
        return _smoothstep((ro - np.abs(u)) / (ro - ri))
    return _bump01(u / b.radius[axis])


def bump_eval_axes(b: BumpProfile, axes: list[np.ndarray]) -> np.ndarray:
    """Evaluate on the tensor grid spanned by per-axis coordinate arrays.

    Axes are broadcast against each other (open-meshgrid style); the result
    has the broadcast shape.  Exactly zero outside the support.
    """
    if len(axes) != b.d:
        raise ValueError(f"expected {b.d} axis arrays, got {len(axes)}")
    if b.separable:
        out = np.asarray(b.amplitude, dtype=complex)
        for j, u in enumerate(axes):
            out = out * _axis_factor(b, j, u)
        return out
    rho2 = 0.0
    for j, u in enumerate(axes):
        t = (np.asarray(u, dtype=float) - b.center[j]) / b.radius[j]
        rho2 = rho2 + t * t
    out = np.zeros(np.broadcast(*axes).shape if len(axes) > 1 else np.shape(axes[0]))
    m = rho2 < 1.0
    rho2 = np.broadcast_to(rho2, out.shape)
    out[m] = np.exp(-1.0 / (1.0 - rho2[m]))
    return b.amplitude * out


def _at_points(eval_axes, d: int, x) -> np.ndarray | complex:
    """``eval_axes`` (a function of d per-axis arrays) at a point (shape (d,),
    a scalar if d = 1) or at an array of points (shape (..., d)); a single
    point gives a complex number."""
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    if d == 1 and pts.ndim == 1 and pts.shape != (1,):
        pts = pts[:, None]
    elif pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[-1] != d:
        raise ValueError(f"points must have {d} components, got shape {pts.shape}")
    vals = eval_axes([pts[..., j] for j in range(d)])
    if np.isscalar(x) or (np.asarray(x).ndim <= 1 and np.asarray(x).size == d):
        return complex(vals.reshape(-1)[0])
    return vals


def bump_eval(b: BumpProfile, x) -> np.ndarray | complex:
    """Evaluate at a point (shape (d,)) or an array of points (shape (..., d))."""
    return _at_points(lambda axes: bump_eval_axes(b, axes), b.d, x)


def _bump_translates(b: BumpProfile, terms, spec: GridSpec):
    """sum_mu c(mu) b(xi - mu) over the (mu, c) ``terms`` on the frequency
    grid, as the (slices, values) slab that ``grid._translate_sum`` writes:
    a separable profile through its axis factors, each computed once per
    (axis, shift), any other through ``bump_eval_axes`` on each translate's
    open mesh.  Either way the samples are those of ``bump_eval_axes`` at
    every translate."""
    if b.separable:
        return _translate_sum(terms, b.support_box(), spec, amplitude=b.amplitude,
                              axis_factor=lambda j, u: _axis_factor(b, j, u))
    return _translate_sum(terms, b.support_box(), spec,
                          evaluate=lambda axes: bump_eval_axes(b, axes))


@dataclass(frozen=True)
class Window:
    """Partition-of-unity window kappa = base, a plateau of inner radius
    1 - outer and outer radius ``outer`` per axis.

    On the overlap 1 - outer <= u <= outer of an axis only base(u) and
    base(u - 1) are nonzero, at transition parameters t and 1 - t, so they
    sum to S(t) + S(1 - t) = 1 for S(t) = a / (a + b), a = e^{-1/t},
    b = e^{-1/(1-t)}; the d-dimensional sum is the product of the axis sums.
    In floating point the sum is 1 to rounding (a few ulps, more as outer
    nears 1/2).  ``make_window`` builds valid windows; a hand-built base
    with gaps or overlaps breaks the partition, and checks see it.
    """

    base: BumpProfile

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def outer(self) -> float:
        return max(self.base.radius)

    @property
    def plateau_radius(self) -> float:
        """kappa == 1 on |xi|_inf < plateau_radius and translates vanish there."""
        return 1.0 - self.outer


def make_window(d: int, outer: float) -> Window:
    """Window from a plateau base with support radius ``outer`` in (1/2, 1).

    Inner radius 1 - outer makes the translates sum to one (see ``Window``);
    outer in (1/2, 1) keeps 0 < 1 - outer < outer, so the transition has
    positive width, and the window is identically 1 on |xi|_inf <= 1 - outer.
    """
    if not 0.5 < outer < 1.0:
        raise ValueError(f"window outer radius must lie in (1/2, 1), got {outer}")
    base = make_plateau(d, inner=1.0 - outer, outer=outer)
    return Window(base=base)


def window_eval_axes(w: Window, axes: list[np.ndarray]) -> np.ndarray:
    """Evaluate kappa(xi) on the tensor grid of per-axis arrays: the base
    plateau itself, whose translates already sum to one."""
    return bump_eval_axes(w.base, axes)


def window_eval(w: Window, x) -> np.ndarray | complex:
    """Evaluate at a point or points (same conventions as bump_eval)."""
    return _at_points(lambda axes: window_eval_axes(w, axes), w.d, x)


# ---------------------------------------------------------------------------
# condition (B): a point where Phi != 0 that no nonzero integer translate of
# supp Phi reaches.  Exact for kinds whose nonzero set is the open support box.
# ---------------------------------------------------------------------------


_NON_SEPARABLE = "unsupported profile kind: radial-exp support in d>=2 is not the support box"


@dataclass(frozen=True)
class ConditionBResult:
    holds: bool
    witness: tuple[float, ...] | None
    slack: float  # sup-norm distance from the witness to the nearest translate
    detail: str


def _axis_free_cells(lo: float, hi: float) -> list[tuple[float, float]]:
    """Open subintervals of (lo, hi) covered by no nonzero integer translate.

    A point t is covered by translate m iff lo + m <= t <= hi + m, i.e.
    m in [t - hi, t - lo]; the cell decomposition by the breakpoints
    {lo + m, hi + m} makes that membership constant per cell.
    """
    if hi - lo >= 2.0:  # t - 1 or t + 1 lies in [lo, hi] for every t in (lo, hi)
        return []
    ms = np.arange(int(np.floor(lo - hi)) - 1, int(np.ceil(hi - lo)) + 2)
    pts = sorted({lo, hi} | {lo + m for m in ms} | {hi + m for m in ms})
    pts = [p for p in pts if lo <= p <= hi]
    free = []
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a < 1e-15:
            continue
        mid = 0.5 * (a + b)
        m_lo = int(np.ceil(mid - hi - 1e-12))
        m_hi = int(np.floor(mid - lo + 1e-12))
        if m_lo == 0 and m_hi == 0:
            free.append((a, b))
    return free


def translate_slack(b: BumpProfile, xi0) -> float:
    """Sup-norm distance from xi0 to the nearest nonzero-translate support box.

    That distance is a max over axes, so the nearest nonzero translate moves
    one axis to its nearest nonzero shift and keeps every other axis at its
    nearest shift (among the shifts within reach of xi0 on each axis)."""
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    lo, hi = b.support_box()
    near, moved = [], []
    for j in range(b.d):
        m = np.arange(int(np.floor(xi0[j] - hi[j])) - 1, int(np.ceil(xi0[j] - lo[j])) + 2)
        dist = np.maximum(0.0, np.maximum(lo[j] + m - xi0[j], xi0[j] - (hi[j] + m)))
        near.append(dist.min())
        moved.append(dist[m != 0].min())
    return float(min(max([moved[k], *near[:k], *near[k + 1:]]) for k in range(b.d)))


def check_condition_B(phi: BumpProfile) -> ConditionBResult:
    """Decide condition (B) for a profile whose nonzero set is its open box.

    Returns a witness point (product of free-cell midpoints) or a failure
    certificate (some axis of the open box is fully covered by nonzero
    integer translates).  radial-exp in d >= 2 is rejected: its nonzero set
    is an ellipsoid, not the box, so the box geometry is not exact for it.
    """
    if not phi.separable:
        raise ValueError(_NON_SEPARABLE)
    per_axis = []
    for j in range(phi.d):
        lo = phi.center[j] - phi.radius[j]
        hi = phi.center[j] + phi.radius[j]
        cells = _axis_free_cells(lo, hi)
        if not cells:
            return ConditionBResult(
                holds=False, witness=None, slack=0.0,
                detail=f"axis {j}: every point of the open support interval "
                       f"({lo}, {hi}) lies in a nonzero integer translate")
        per_axis.append(max(cells, key=lambda ab: ab[1] - ab[0]))
    witness = tuple(0.5 * (a + b) for a, b in per_axis)
    val = bump_eval(phi, witness)
    if abs(val) == 0.0:
        raise AssertionError("free-cell midpoint evaluated to zero; geometry bug")
    slack = translate_slack(phi, witness)
    return ConditionBResult(holds=True, witness=witness, slack=slack,
                            detail="witness at free-cell midpoints")


# ---------------------------------------------------------------------------
# theta pair and the kernel function g
# ---------------------------------------------------------------------------


@dataclass
class ThetaPair:
    """Witness bumps theta_1, theta_2 with the kernel g and its floor on Q.

    g(x) is the double frequency integral of Phi * theta_1 * theta_2 against
    e^{2pi i x.(xi_1 + xi_2)}, realized by the grid's frequency-node Riemann
    rule (step 1/L) so that it matches the operator quadrature exactly.
    ``g_eval`` evaluates the same rule at arbitrary points.
    """

    theta1: BumpProfile
    theta2: BumpProfile
    g: GridFunction
    m: float
    xi0: tuple[float, ...]
    eps: float
    g_eval: Callable[[list[np.ndarray]], np.ndarray] = field(repr=False)

    @property
    def xi0_sum(self) -> tuple[float, ...]:
        n = len(self.xi0) // 2
        return tuple(self.xi0[j] + self.xi0[n + j] for j in range(n))


# make_theta_pair: relative margin of min_Q |g| over 1, and how many times eps
# is halved before it gives up on a g that vanishes on Q
THETA_SAFETY = 1e-6
THETA_HALVINGS = 4


def _axis_nodes(spec: GridSpec, center: float, radius: float) -> np.ndarray:
    """Frequency-grid nodes within distance < radius of center (1D)."""
    xi = spec.axis_xi()
    return xi[np.abs(xi - center) < radius]


def _g_rule(phi: BumpProfile, th1: BumpProfile, th2: BumpProfile,
            spec: GridSpec) -> Callable[[list[np.ndarray]], np.ndarray]:
    """Riemann rule for g on the grid's frequency nodes, evaluable anywhere.

    Phi is separable (``make_theta_pair`` checks it), so g is a product of
    per-axis double sums.
    """
    n = spec.n
    w = spec.dxi ** (2 * n)
    axis_data = []
    for j in range(n):
        u = _axis_nodes(spec, th1.center[j], th1.radius[j])
        v = _axis_nodes(spec, th2.center[j], th2.radius[j])
        a = _axis_factor(phi, j, u) * _axis_factor(th1, j, u)
        bfac = _axis_factor(phi, n + j, v) * _axis_factor(th2, j, v)
        axis_data.append((u, v, a, bfac))
    amp = phi.amplitude * th1.amplitude * th2.amplitude

    def evaluate(axes: list[np.ndarray]) -> np.ndarray:
        out = amp * w
        for j, x in enumerate(axes):
            u, v, a, bfac = axis_data[j]
            x = np.asarray(x, dtype=float)
            e1 = np.exp(2j * np.pi * np.multiply.outer(x, u))
            e2 = np.exp(2j * np.pi * np.multiply.outer(x, v))
            out = out * ((e1 @ a) * (e2 @ bfac))
        return out

    return evaluate


def _q_probe(spec: GridSpec, per_axis: int = 129) -> list[np.ndarray]:
    """Probe points of Q = (-1/2, 1/2]: dense ladder plus the grid's own Q points."""
    dense = np.linspace(-0.5, 0.5, per_axis + 1)[1:]
    x = spec.axis_x()
    own = x[(x > -0.5) & (x <= 0.5)]
    return [np.unique(np.concatenate([dense, own]))] * spec.n


def make_theta_pair(phi: BumpProfile, xi0, eps: float, spec: GridSpec) -> ThetaPair:
    """Build theta_1, theta_2 around the condition-(B) witness and the kernel g.

    theta_j is a tensor-exp bump of radius eps at xi0_j; theta_1 is rescaled by
    a single real factor so that min over Q of |g| is at least 1 + THETA_SAFETY.
    If g vanishes somewhere on Q, eps is halved and the construction retried,
    up to THETA_HALVINGS times.

    Phi must be separable, as condition (B) needs (the same error as
    ``check_condition_B`` otherwise).  xi0 must lie on the frequency grid
    (multiples of 1/L per axis) so the translate algebra downstream is exact
    index arithmetic.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if phi.d % 2 != 0 or phi.d != 2 * spec.n:
        raise ValueError(f"Phi must live on R^(2n) with n={spec.n}, got d={phi.d}")
    if not phi.separable:
        raise ValueError(_NON_SEPARABLE)
    n = spec.n
    xi0 = tuple(float(c) for c in np.atleast_1d(np.asarray(xi0, dtype=float)))
    if len(xi0) != 2 * n:
        raise ValueError(f"xi0 must have {2 * n} components")
    for c in xi0:
        if abs(c * spec.L - round(c * spec.L)) > 1e-9:
            raise ValueError(f"xi0={xi0} is not on the frequency grid (step 1/L)")
    if abs(bump_eval(phi, xi0)) == 0.0:
        raise ValueError(f"Phi vanishes at xi0={xi0}")

    slack = translate_slack(phi, xi0)
    current = float(eps)
    for _ in range(THETA_HALVINGS + 1):
        if 2.0 * current > slack + 1e-12:
            raise ValueError(
                f"2*eps={2 * current} exceeds the translate slack {slack} at xi0={xi0}")
        th1 = make_bump(n, "tensor-exp", center=xi0[:n], radius=current)
        th2 = make_bump(n, "tensor-exp", center=xi0[n:], radius=current)
        rule = _g_rule(phi, th1, th2, spec)
        m_raw = float(np.min(np.abs(rule(_q_probe(spec)))))
        if m_raw > 1e-250:
            scale = (1.0 + THETA_SAFETY) / m_raw
            th1 = th1.scaled(scale)
            rule = _g_rule(phi, th1, th2, spec)
            g = GridFunction(spec, "space", rule(spec.space_points()))
            m = float(np.min(np.abs(rule(_q_probe(spec)))))
            return ThetaPair(theta1=th1, theta2=th2, g=g, m=m,
                             xi0=xi0, eps=current, g_eval=rule)
        current *= 0.5
    raise ValueError(f"no rescaling achieves min_Q|g| >= 1 after {THETA_HALVINGS} halvings")
