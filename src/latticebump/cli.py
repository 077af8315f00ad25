"""Command-line front end: deterministic experiment runs with JSON/CSV output.

Subcommands: synth, decompose, opnorm, transfer, scaling, selftest.
The five config commands run in one frame (``_run``): it reads one JSON
config (--config), resolves the output directory (--out, else the config's
``out``, else ``<command>-out``), and around the command's own CSV tables
writes a deterministic ``report.json`` (sorted keys; no timestamps) and a
separate ``meta.json`` of wall-clock metadata, so reports stay
byte-identical across reruns with the same config and seed.

Exit codes: 0 pass, 2 config error, 3 exponent-hypothesis violation,
4 assertion failure.  ``main`` is the one place that maps errors to them:
every ValueError a config command raises (a ConfigError of the readers
below, a BudgetError, or a value the library rejects) is exit 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import bumps, grid, norms, operators, scalinglab, symbols, transference

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_ASSERTION = 4


class ConfigError(ValueError):
    pass


# the keys each config object may hold: a command's top level, or a nested
# block; any other key is a config error, so a misspelt key never runs on
# defaults
KEYS = {
    "synth": ("n", "grid", "seed", "phi", "a", "cm", "out"),
    "decompose": ("n", "phi", "cm", "out"),
    "opnorm": ("n", "grid", "seed", "family", "phi", "space", "exponents", "a",
               "search", "window", "out"),
    "transfer": ("n", "grid", "seed", "phi", "space", "exponents", "a", "a_family",
                 "search", "window", "out"),
    "scaling": ("n", "seed", "scaling", "window", "out"),
    "grid": ("L", "s"),
    "phi": ("d", "kind", "center", "radius", "amplitude", "inner"),
    "a": ("entries", "random"),
    "a.random": ("radius", "count", "seed"),
    "a_family": ("members", "radius", "count", "seed"),
    "cm": ("M", "K"),
    "search": tuple(f.name for f in dataclasses.fields(transference.SearchParams)),
    "window": ("outer",),
    "scaling block": ("epsilons", "box_factor", "s", "xi0", "base_radius", "amalgam_q",
                      "wiener_p", "verdicts"),
    "verdict": ("space", "exponents"),
}


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                          f"allowed: {', '.join(sorted(allowed))}")


def _section(doc: dict, key: str, where: str | None = None) -> dict | None:
    """``doc[key]`` (None if absent) as an object with only ``KEYS[where or key]``."""
    where = where or key
    sec = doc.get(key)
    if sec is None:
        return None
    if not isinstance(sec, dict):
        raise ConfigError(f"'{where}' must be an object")
    _check_keys(sec, KEYS[where], where)
    return sec


def _integer(v, where: str) -> int:
    """One integer from a config; a non-integral number, a boolean or a string
    is an error, not truncated, read as 0/1 or parsed."""
    try:
        if isinstance(v, (bool, str)) or isinstance(v, float) and not v.is_integer():
            raise ValueError
        return int(v)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{where}: expected an integer, got {v!r}") from e


def _dimension(cfg: dict) -> int:
    """The config's ``n``: 1 or 2."""
    n = _integer(cfg.get("n", 1), "n")
    if n not in (1, 2):
        raise ConfigError(f"n must be 1 or 2, got {n}")
    return n


def _number(v, where: str) -> float:
    """One finite number from a config (not a boolean or a string)."""
    try:
        x = math.nan if isinstance(v, (bool, str)) else float(v)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{where}: expected a finite number, got {v!r}") from e
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite number, got {v!r}")
    return x


def _numbers(v, where: str) -> float | list[float]:
    """A finite number or a list of them (one per axis) from a config."""
    return [_number(c, where) for c in v] if isinstance(v, list) else _number(v, where)


def _list(block: dict, key: str, default: list, where: str) -> list:
    """``block[key]`` (``default`` if absent), which must be a list."""
    v = block.get(key, default)
    if not isinstance(v, list):
        raise ConfigError(f"{where} {key} must be a list")
    return v


def _integers(block: dict, where: str, **defaults) -> list[int]:
    """The integer fields named in ``defaults``, in that order."""
    return [_integer(block.get(k, v), f"{where} {k}") for k, v in defaults.items()]


# named Phi fixtures (d = 2n)
def _phi_fixture(name: str, n: int) -> bumps.BumpProfile:
    if name == "tensor-0.4":
        return bumps.make_bump(2 * n, "tensor-exp", radius=0.4)
    if name == "tensor-0.3":
        return bumps.make_bump(2 * n, "tensor-exp", radius=0.3)
    if name == "plateau-wide":
        return bumps.make_plateau(2 * n, inner=0.9, outer=1.0)
    raise ConfigError(f"unknown Phi fixture {name!r}")


def _seed(cfg: dict, args) -> int:
    return args.seed if args.seed is not None else _integer(cfg.get("seed", 42), "seed")


def _grid_from(cfg: dict, args) -> grid.GridSpec:
    n = _dimension(cfg)
    g = _section(cfg, "grid") or {}
    if args.grid is not None:
        try:
            L, s = (int(v) for v in args.grid.split(","))
        except ValueError as e:
            raise ConfigError(f"--grid expects L,s got {args.grid!r}") from e
    else:
        L, s = _integers(g, "grid", L=8, s=32)
    return grid.make_grid(n, L, s)


def _phi_from(cfg: dict, n: int) -> bumps.BumpProfile:
    spec = cfg.get("phi")
    if spec is None:
        raise ConfigError("config needs a 'phi' fixture")
    if isinstance(spec, str):
        return _phi_fixture(spec, n)
    if not isinstance(spec, dict):
        raise ConfigError("'phi' must be a fixture name or a profile object")
    if "fixture" in spec:
        _check_keys(spec, ("fixture",), "phi")
        return _phi_fixture(spec["fixture"], n)
    _check_keys(spec, KEYS["phi"], "phi")
    kind, d = spec.get("kind"), _integer(spec.get("d"), "phi d")
    if kind not in ("tensor-exp", "radial-exp", "plateau"):
        raise ConfigError(f"phi kind {kind!r}: expected 'tensor-exp', 'radial-exp' or 'plateau'")
    if d != 2 * n:
        raise ConfigError(f"phi d must be 2n = {2 * n}, got {d}")
    pair = spec.get("amplitude")
    amp = (complex(*(_number(c, "phi amplitude") for c in pair))
           if isinstance(pair, list) and len(pair) == 2 else 0)
    if amp == 0:
        raise ConfigError(f"phi amplitude must be a nonzero [re, im], got {pair!r}")
    center = _numbers(spec.get("center"), "phi center")
    radius = _numbers(spec.get("radius"), "phi radius")
    if kind == "plateau":
        return bumps.make_plateau(d, _numbers(spec.get("inner"), "phi inner"), radius,
                                  center=center, amplitude=amp)
    return bumps.make_bump(d, kind, center=center, radius=radius, amplitude=amp)


def _multi_index(m, n: int) -> tuple[int, ...]:
    """A lattice point of Z^n: a list of n integers (a bare integer if n = 1)."""
    m = m if isinstance(m, list) else [m]
    if len(m) != n:
        raise ConfigError(f"a.entries index {m!r}: expected {n} integer(s)")
    return tuple(_integer(c, "a.entries index") for c in m)


def _coeffs_from(cfg: dict, n: int, seed: int) -> symbols.LatticeCoefficients:
    a = _section(cfg, "a")
    if a is None:
        raise ConfigError("config needs an 'a' section")
    if "entries" in a:
        if not isinstance(a["entries"], list):
            raise ConfigError("a.entries must be a list of [m1, m2, re, im] rows")
        entries = {}
        for row in a["entries"]:
            if not isinstance(row, list) or len(row) != 4:
                raise ConfigError(f"a.entries row {row!r}: expected [m1, m2, re, im]")
            m1, m2, re, im = row
            key = (_multi_index(m1, n), _multi_index(m2, n))
            if key in entries:  # a later row would silently replace the earlier one
                raise ConfigError(f"a.entries index {key} is given more than once")
            entries[key] = complex(_number(re, "a.entries re"), _number(im, "a.entries im"))
        return symbols.LatticeCoefficients(n, entries)
    r = _section(a, "random", "a.random")
    if r is not None:
        return symbols.random_lattice_coefficients(
            n, *_integers(r, "a.random", radius=1, count=9, seed=seed))
    raise ConfigError("'a' needs 'entries' or 'random'")


def _family_from(cfg: dict, n: int, seed: int) -> list[symbols.LatticeCoefficients]:
    fam = _section(cfg, "a_family")
    if fam is None:
        return [_coeffs_from(cfg, n, seed)]
    if "a" in cfg:
        raise ConfigError("give 'a' or 'a_family', not both: an 'a_family' run reads no 'a'")
    radius, count, base, members = _integers(fam, "a_family", radius=1, count=9,
                                             seed=seed, members=20)
    if members < 1:
        raise ConfigError(f"a_family members must be >= 1, got {members}")
    return [symbols.random_lattice_coefficients(n, radius, count, base + i)
            for i in range(members)]


def _cm_from(cfg: dict, phi: bumps.BumpProfile) -> symbols.CMDecomposition:
    """The decomposition of Phi the ``cm`` block asks for (no K: the default period)."""
    cm = _section(cfg, "cm") or {}
    M, K = _integer(cm.get("M", 16), "cm M"), cm.get("K")
    K = None if K is None else _number(K, "cm K")
    return symbols.cm_decompose(phi, K=K, M=M)


def _window_from(cfg: dict, n: int) -> bumps.Window:
    outer = _number((_section(cfg, "window") or {}).get("outer", 0.6), "window outer")
    return bumps.make_window(n, outer)


def _theta_from(phi: bumps.BumpProfile, spec: grid.GridSpec):
    """The condition-(B) result of Phi and the theta pair built on its witness."""
    cb = bumps.check_condition_B(phi)
    if not cb.holds:
        raise ConfigError(f"Phi fixture fails condition (B) ({cb.detail}); "
                          f"no witness-pool estimation possible")
    return cb, bumps.make_theta_pair(phi, cb.witness, cb.slack / 4, spec)


def _search_from(cfg: dict, seed: int) -> transference.SearchParams:
    s = _section(cfg, "search") or {}
    defaults = dict(dataclasses.asdict(transference.SearchParams()), seed=seed)
    return transference.SearchParams(**{
        k: (_integer if isinstance(v, int) else _number)(s.get(k, v), f"search {k}")
        for k, v in defaults.items()})


def _exponent(v) -> float:
    """One exponent from a config: a positive number, or "inf" (or null); no
    other string."""
    try:
        if isinstance(v, bool) or isinstance(v, str) and v != "inf":
            raise TypeError
        return norms.check_exponent(math.inf if v in ("inf", None) else float(v))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad exponent {v!r}: expected a positive number or \"inf\"") from e


def _exponent_tuple(ex) -> norms.ExponentTuple:
    if not isinstance(ex, list) or len(ex) != 6:
        raise ConfigError("'exponents' must be a list of six entries [p1,p2,p,q1,q2,q]")
    return norms.ExponentTuple(*(_exponent(v) for v in ex))


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _run(args) -> int:
    """The run frame of a config command: load the config at ``args.config``
    with only the command's top-level keys, resolve the output directory, run
    ``args.fn(cfg, args, out)`` and write the ``report.json`` it returns
    (with its ``"command"``) and the run's ``meta.json``.  Returns the
    command's exit code."""
    t0 = time.time()
    if args.config is None:
        raise ConfigError("--config PATH is required for this command")
    p = Path(args.config)
    if not p.exists():
        raise ConfigError(f"config file not found: {args.config}")
    if not p.is_file():  # "" is the current directory
        raise ConfigError(f"--config must be a regular file, got {args.config!r}")
    cfg = json.loads(p.read_text())  # a JSONDecodeError is a ValueError: exit 2
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, KEYS[args.command], f"{args.command} config")
    if "out" in cfg and not (isinstance(cfg["out"], str) and cfg["out"]):
        raise ConfigError(f"out must be a non-empty string, got {cfg['out']!r}")
    if args.out == "":
        raise ConfigError("--out must be a non-empty path, got ''")
    out = Path(args.out if args.out is not None else cfg.get("out", f"{args.command}-out"))
    report, code = args.fn(cfg, args, out)
    _write_json(out / "report.json", dict(report, command=args.command))
    _write_json(out / "meta.json", {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                                    "runtime_seconds": round(time.time() - t0, 3)})
    return code


def cmd_synth(cfg: dict, args, out: Path) -> tuple[dict, int]:
    spec = _grid_from(cfg, args)
    seed = _seed(cfg, args)
    phi = _phi_from(cfg, spec.n)
    a = _coeffs_from(cfg, spec.n, seed)
    out.mkdir(parents=True, exist_ok=True)

    sigma = symbols.synth_sigma(a, phi, spec)
    sigma.save(out / "sigma")
    d = _cm_from(cfg, phi)
    (out / "cm.json").write_text(d.to_json())

    # reconstruction error ladder over truncations up to M
    probes = [np.linspace(-max(phi.radius), max(phi.radius), 33)] * phi.d
    exact = bumps.bump_eval_axes(phi, list(np.ix_(*probes)))
    rows = [["M", "sup_error", "center_error", "tail_bound"]]
    for m in sorted({max(d.M // 4, 1), max(d.M // 2, 1), d.M}):
        dm = symbols.cm_decompose(phi, K=d.K, M=m)
        sup_err = float(np.max(np.abs(symbols._cm_on_axes(dm, probes) - exact)))
        center = abs(symbols.cm_reconstruct(dm, np.zeros(spec.n), np.zeros(spec.n))
                     - bumps.bump_eval(phi, np.zeros(2 * spec.n)))
        rows.append([m, sup_err, float(center), dm.tail])
    _write_csv(out / "recon_error.csv", rows)
    return {"grid": {"n": spec.n, "L": spec.L, "s": spec.s}, "entries": len(a),
            "cm_M": d.M, "cm_tail": d.tail, "seed": seed}, EXIT_OK


def cmd_decompose(cfg: dict, args, out: Path) -> tuple[dict, int]:
    n = _dimension(cfg)
    phi = _phi_from(cfg, n)
    d = _cm_from(cfg, phi)
    out.mkdir(parents=True, exist_ok=True)
    (out / "cm.json").write_text(d.to_json())
    ks = range(-d.M, d.M + 1) if n == 1 else ()
    rows = [["k1", "k2", "abs_b"]] + [[k1, k2, abs(d.coefficient((k1, k2)))]
                                      for k1, k2 in itertools.product(ks, ks)]
    _write_csv(out / "decay.csv", rows)
    return {"K": d.K, "M": d.M, "tail": d.tail, "decay_C4": d.decay_constant(4)}, EXIT_OK


def cmd_opnorm(cfg: dict, args, out: Path) -> tuple[dict, int]:
    family = cfg.get("family", "S")
    if family not in ("S", "T_period", "T_aPhi"):
        raise ConfigError(f"unknown family {family!r} (S | T_period | T_aPhi)")
    # the model families read no grid, profile, space, window or stability
    # bound, S no torus, T_aPhi no search and, in amalgam space, no window
    amalgam = cfg.get("space", "amalgam") == "amalgam"
    unread = [k for k in (("search",) + ("window",) * amalgam if family == "T_aPhi"
                          else ("grid", "phi", "space", "window")) if k in cfg]
    search = cfg["search"] if isinstance(cfg.get("search"), dict) else {}
    unread += [f"search.{k}" for k in {"S": ("stability_bound", "torus_points"),
                                       "T_period": ("stability_bound",)}.get(family, ())
               if k in search]
    if family != "T_aPhi" and args.grid is not None:
        unread.append("--grid")
    if unread:
        raise ConfigError(f"opnorm family {family} does not read {', '.join(map(repr, unread))}")
    seed = _seed(cfg, args)
    a = _coeffs_from(cfg, _dimension(cfg), seed)
    ex = _exponent_tuple(cfg.get("exponents"))

    if family == "S":
        est = transference.estimate_norm_S(a, ex.q1, ex.q2, ex.q, _search_from(cfg, seed))
    elif family == "T_period":
        est = transference.estimate_norm_T_period(a, ex.p1, ex.p2, ex.p, _search_from(cfg, seed))
    else:
        spec = _grid_from(cfg, args)
        phi = _phi_from(cfg, spec.n)
        _cb, theta = _theta_from(phi, spec)
        space = cfg.get("space", "amalgam")
        kappa = _window_from(cfg, spec.n)
        est = transference.estimate_norm_T_aPhi(a, phi, ex, space, theta, spec, kappa=kappa)
    trace = {k: v for k, v in est.trace.items() if k not in ("vectors", "boxes")}
    return {"family": family, "value": est.value, "witness": est.witness, "trace": trace,
            "seed": seed}, EXIT_OK


def cmd_transfer(cfg: dict, args, out: Path) -> tuple[dict, int]:
    spec = _grid_from(cfg, args)
    seed = _seed(cfg, args)
    phi = _phi_from(cfg, spec.n)
    ex = _exponent_tuple(cfg.get("exponents"))
    space = cfg.get("space", "amalgam")
    if space == "wiener" and "torus_points" in (_section(cfg, "search") or {}):
        raise ConfigError("a wiener transfer runs the S model: it does not read "
                          "'search.torus_points'")
    params = _search_from(cfg, seed)
    family = _family_from(cfg, spec.n, seed)

    cb, theta = _theta_from(phi, spec)
    kappa = _window_from(cfg, spec.n)
    report = transference.transference_report(family, phi, ex, space, theta,
                                              spec, kappa=kappa, params=params)
    _write_csv(out / "ratios.csv", report.csv_rows())
    doc = report.to_json_dict()
    doc.update({"seed": seed, "members": len(family),
                "witness_fixture": {"xi0": list(theta.xi0), "eps": theta.eps,
                                    "slack": cb.slack, "min_q_kernel": theta.m,
                                    "window_outer": kappa.outer}})
    if not (report.all_finite and report.stable):
        print(f"transfer: ratio stability failed "
              f"(spread {report.ratio_spread:.3g} vs bound {report.stability_bound})",
              file=sys.stderr)
        return doc, EXIT_ASSERTION
    return doc, EXIT_OK


def cmd_scaling(cfg: dict, args, out: Path) -> tuple[dict, int]:
    seed = _seed(cfg, args)
    sc = _section(cfg, "scaling", "scaling block") or {}
    verdict_specs = []
    for tup in _list(sc, "verdicts", [], "scaling"):
        space = tup.get("space") if isinstance(tup, dict) else None
        if space not in ("amalgam", "wiener"):
            raise ConfigError(f"verdict {tup!r} needs 'space': 'amalgam' or 'wiener'")
        _check_keys(tup, KEYS["verdict"], "verdict")
        ex = _exponent_tuple(tup.get("exponents"))
        # each space scales in one exponent (amalgam q, Wiener p): the verdict
        # compares the growth in r of its output against that in r1 and r2
        verdict_specs.append((space, (ex.q1, ex.q2, ex.q) if space == "amalgam"
                              else (ex.p1, ex.p2, ex.p)))
    spaces = (("amalgam", "amalgam_q", "q"), ("wiener", "wiener_p", "p"))
    table = {space: [(r, _exponent(r)) for r in _list(sc, key, [1.0, 2.0, "inf"], "scaling")]
             for space, key, _name in spaces}
    if "window" in cfg and not table["wiener"] and all(v[0] != "wiener" for v in verdict_specs):
        raise ConfigError("a scaling run with no Wiener row or verdict does not read 'window'")
    eps = tuple(_number(e, "scaling epsilons")
                for e in _list(sc, "epsilons", [0.5, 0.25, 0.125], "scaling"))
    if len(eps) < 3:
        raise ConfigError("regression needs at least 3 epsilons")
    fam = scalinglab.make_scaling_family(
        xi0=_numbers(sc.get("xi0", 0.0), "scaling xi0"), epsilons=eps,
        n=_dimension(cfg), s=_integer(sc.get("s", 8), "scaling s"),
        box_factor=_number(sc.get("box_factor", 192.0), "scaling box_factor"),
        base_radius=_number(sc.get("base_radius", 0.3), "scaling base_radius"))
    kappa = _window_from(cfg, fam.n)
    # a verdict's product has its spectrum at 2*xi0, and its norms need the
    # window around that inside the frequency box too
    reach = 2 * (max(map(abs, fam.xi0)) + fam.epsilons[0] * max(fam.base.radius)) + kappa.outer
    if verdict_specs and reach > fam.s / 2:
        raise ConfigError(f"scaling xi0 {fam.xi0}: the verdict products' spectrum and window "
                          f"reach {reach:g}, outside the frequency box [-{fam.s / 2:g}, "
                          f"{fam.s / 2:g}]")

    report: dict = {"seed": seed, "tail_fraction": fam.tail_fraction,
                    "min_q_modulus": fam.min_q_modulus, "slopes": {}}

    # one pass over the eps ladder serves the slope table, the verdicts'
    # input slopes and their output norms (one T_1(f_eps, f_eps) per eps)
    fits, products = scalinglab._scaling_pass(
        fam, [(space, rv) for space, rows in table.items() for _r, rv in rows]
        + [(space, r) for space, rs in verdict_specs for r in rs[:2]],
        [(space, rs[2]) for space, rs in verdict_specs], kappa,
        lambda u, v: np.ones(np.broadcast(u, v).shape))

    rows = [["space", "exponent", "eps", "norm"]]
    for space, key, name in spaces:
        for r, rv in table[space]:
            fit = fits[space, rv]
            report["slopes"][f"{key}{r}"] = {
                "slope": fit.slope, "expected": 0.0 if math.isinf(rv) else fam.n / rv,
                "r_squared": fit.r_squared}
            for e, nv in zip(fit.epsilons, fit.norms):
                rows.append([space, f"{name}={r}", e, nv])
    _write_csv(out / "norms.csv", rows)

    verdicts = []
    for (space, (r1, r2, _r)), ps in zip(verdict_specs, products):
        slopes = (fits[space, r1].slope, fits[space, r2].slope)
        v = scalinglab.necessity_verdict(space, slopes, ps.slope)
        verdicts.append({"space": space, "status": v.status, "gap": v.gap,
                         "citation": v.citation, "output_slope": v.output_slope,
                         "input_slopes": list(v.input_slopes)})
    report["verdicts"] = verdicts
    return report, EXIT_OK


def _selftest_checks(seed: int, window_outer: float):
    """Yield (name, passed, value) rows for the invariant matrix."""
    rng = np.random.default_rng(seed)
    spec = grid.make_grid(1, 8, 32)

    f = grid.space_function(spec, rng.standard_normal(spec.shape)
                            + 1j * rng.standard_normal(spec.shape))
    rt = np.max(np.abs(grid.idft(grid.dft(f)).samples - f.samples))
    yield "grid round trip", rt <= 1e-12 * np.max(np.abs(f.samples)), rt
    lhs = spec.h * np.sum(np.abs(f.samples) ** 2)
    rhs = spec.dxi * np.sum(np.abs(grid.dft(f).samples) ** 2)
    yield "plancherel", abs(lhs - rhs) <= 1e-12 * lhs, abs(lhs - rhs) / lhs

    # window partition of unity (fault injectable through window_outer)
    if 0.5 < window_outer < 1.0:
        w = bumps.make_window(1, window_outer)
    else:
        try:
            w = bumps.Window(base=bumps.make_plateau(1, max(window_outer - 0.05, 0.01),
                                                     window_outer))
        except ValueError as e:  # no plateau has this outer radius
            raise ConfigError(f"--force-window-outer {window_outer}: {e}") from None
    xs = np.linspace(-2.0, 2.0, 801)
    tot = sum(np.asarray(bumps.window_eval(w, xs - k)) for k in range(-4, 5))
    dev = float(np.max(np.abs(tot - 1)))
    yield "window partition of unity", dev <= 1e-12, dev

    phi = bumps.make_bump(2, "tensor-exp", radius=0.4)
    cb = bumps.check_condition_B(phi)
    yield "condition B holds (radius 0.4)", cb.holds, cb.slack
    cb2 = bumps.check_condition_B(bumps.make_plateau(2, 0.9, 1.0))
    yield "condition B fails ([-1,1]^2)", not cb2.holds, 0.0

    spec_p = grid.make_grid(1, 24, 32)
    fb = grid.idft(grid.freq_function(
        spec_p, lambda xi: bumps.bump_eval_axes(bumps.make_bump(1, "tensor-exp", radius=2.0), [xi])))
    res = []
    for M in (2, 4, 8):
        l, r = grid.poisson_check(fb, (0.0,), (0.0,), M)
        res.append(abs(l - r))
    yield "poisson residual decreasing", res[0] >= res[1] >= res[2], res[-1]

    a = symbols.random_lattice_coefficients(1, 1, 9, seed=seed + 1)
    b1 = operators.sequence_from_dict(1, {m: complex(rng.standard_normal(), rng.standard_normal())
                                          for m in range(-2, 3)})
    b2 = operators.sequence_from_dict(1, {m: complex(rng.standard_normal(), rng.standard_normal())
                                          for m in range(-1, 2)})
    s_fast = operators.apply_S(a, b1, b2)
    brute = {}
    for (m1, m2), av in a.items():
        for n1, v1 in b1.entries.items():
            for n2, v2 in b2.entries.items():
                if (n1, n2) == (m1, m2):
                    k = (m1[0] + m2[0],)
                    brute[k] = brute.get(k, 0) + av * v1 * v2
    err = max(abs(s_fast.entries.get(k, 0) - v) for k, v in brute.items()) if brute else 0.0
    yield "S_a brute force", err <= 1e-12, err

    d = symbols.cm_decompose(phi, M=64)
    s_cm = symbols.sigma_from_cm(a, d, spec)
    s_direct = symbols.synth_sigma(a, phi, spec)
    gap = float(np.max(np.abs(s_cm.samples - s_direct.samples)))
    bound = d.tail * a.sup_norm() * 4
    yield "sigma_from_cm within tail bound", gap <= bound, gap

    theta = bumps.make_theta_pair(phi, cb.witness, cb.slack / 4, spec)
    F1 = operators.trig_poly_from_dict(1, {m: complex(rng.standard_normal(), rng.standard_normal())
                                           for m in (-1, 0, 1)})
    F2 = operators.trig_poly_from_dict(1, {m: complex(rng.standard_normal(), rng.standard_normal())
                                           for m in (-1, 0, 1)})
    wit = transference.build_amalgam_witness(F1, F2, theta, spec)
    chk = transference.verify_amalgam_factorization(a, phi, wit, spec)
    yield "amalgam factorization residual", chk.residual <= 1e-6, chk.residual
    yield "pointwise domination on Q", chk.domination_margin >= 0.0, chk.domination_margin

    # n = 2 on a working grid, whose 2^32-value symbol is never formed
    spec2, phi2 = grid.make_grid(2, 8, 32), _phi_fixture("tensor-0.4", 2)
    draw = np.random.default_rng(seed + 2).standard_normal
    G1, G2 = (operators.TrigPolynomial(2, {(i, j): complex(*draw(2)) for i in (-1, 0, 1)
                                           for j in (-1, 0, 1)}) for _ in range(2))
    wit2 = transference.build_amalgam_witness(G1, G2, _theta_from(phi2, spec2)[1], spec2)
    res2 = transference.verify_amalgam_factorization(
        symbols.random_lattice_coefficients(2, 1, 9, seed=seed + 2), phi2, wit2, spec2).residual
    yield "amalgam factorization (n = 2)", res2 <= 1e-6, res2

    kap = bumps.make_window(1, 0.6)
    ws = transference.build_wiener_witness(b1, b2, theta, spec, kap)
    wchk = transference.verify_wiener_factorization(a, phi, ws, kap, spec)
    yield "wiener factorization residual", wchk.residual <= 1e-6, wchk.residual
    yield "wiener band collapse", wchk.band_residual <= 1e-6, wchk.band_residual
    l, r = transference.wiener_witness_norm_identity(ws, 1, 2.0, 1.0, kap, spec)
    yield "wiener witness norm identity", abs(l - r) <= 1e-6 * r, abs(l - r) / r

    ok = True
    worst = 0.0
    for _ in range(20):
        arr = rng.random((8, 8))
        lo, hi = norms.mixed_norm_check(arr, 0.5, 3.0)
        worst = max(worst, lo / hi)
        ok = ok and lo <= hi * (1 + 1e-12)
    yield "mixed norm inequality", ok, worst

    v = rng.random(12)
    seq = [norms.lq_seq_norm(v, q) for q in (0.5, 1.0, 2.0, math.inf)]
    yield "lq monotone in q", all(x >= y - 1e-12 for x, y in zip(seq, seq[1:])), seq[0]

    g = norms.amalgam_norm(f, 1.7, 1.7)
    yield "amalgam(p,p) = L^p", abs(g - norms.lp_norm(f, 1.7)) <= 1e-12 * g, g


def cmd_selftest(args) -> int:
    seed = args.seed if args.seed is not None else 42
    outer = args.force_window_outer if args.force_window_outer is not None else 0.6
    rows = list(_selftest_checks(seed, outer))
    width = max(len(name) for name, _ok, _v in rows)
    all_ok = True
    for name, ok, value in rows:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  ({value:.3e})")
        all_ok = all_ok and ok
    print(f"selftest: {'all checks passed' if all_ok else 'FAILURES detected'}")
    return EXIT_OK if all_ok else EXIT_ASSERTION


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="latticebump",
        description="lattice bump bilinear multiplier experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = ("--seed", {"type": int, "default": None})
    grid_ = ("--grid", {"default": None, "help": "L,s override"})
    # each command takes only the flags it reads, so argparse rejects the rest
    for name, fn, flags in (("synth", cmd_synth, (seed, grid_)),
                            ("decompose", cmd_decompose, ()),
                            ("opnorm", cmd_opnorm, (seed, grid_)),
                            ("transfer", cmd_transfer, (seed, grid_)),
                            ("scaling", cmd_scaling, (seed,))):
        p = sub.add_parser(name)
        p.add_argument("--config", required=False)
        p.add_argument("--out", default=None)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    p = sub.add_parser("selftest")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force-window-outer", type=float, default=None,
                   help="fault injection: build the partition window with this "
                        "outer radius, bypassing the (1/2, 1) guard")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            return args.fn(args) if args.fn is cmd_selftest else _run(args)
    except transference.ExponentHypothesisError as e:
        print(f"hypothesis violation: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ValueError as e:  # ConfigError, BudgetError and every value the library rejects
        # selftest reads only its flags: any other ValueError there is a bug
        if args.fn is cmd_selftest and not isinstance(e, ConfigError):
            raise
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
