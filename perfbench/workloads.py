"""The four benchmark workloads: inputs from a seed, one op, one oracle each.

A workload builds its fixtures in ``__init__`` (this is the set-up the
``setup_s`` metric covers), makes the input of op ``i`` with ``make_input``,
runs the op with ``run`` (the only timed call), turns the raw result into an
output record with ``collect`` and judges that record with ``check``, which
returns a list of problems (empty when the output is correct).  ``check``
never raises on a wrong value, so the corrupted-output tests can feed it
doctored records.

Transfer and scaling ops drive the CLI in-process through
``latticebump.cli.main``; witness-chain ops call the public functions of
``transference``, ``operators`` and ``symbols`` directly.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import shutil
from pathlib import Path

import numpy as np

from latticebump import bumps, cli, grid, norms, operators, symbols, transference

REL_TOL_RATIO = 1e-9
RESIDUAL_TOL = 1e-6
SLOPE_TOL = 0.1
FLAT_RATIO = 1.05
VERDICT_GAP = 0.1
TAIL_BUDGET = 1e-6
# grid-aligned modulation centres for the scaling family: multiples of 1/4
# keep xi0 on every per-eps grid and 2*xi0 +- the window inside the s = 8 box
SCALING_XI0 = [k / 4 for k in range(-6, 7)]


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _phi(n: int) -> bumps.BumpProfile:
    return bumps.make_bump(2 * n, "tensor-exp", radius=0.4)


def _theta(phi: bumps.BumpProfile, spec: grid.GridSpec) -> bumps.ThetaPair:
    cb = bumps.check_condition_B(phi)
    return bumps.make_theta_pair(phi, cb.witness, cb.slack / 4, spec)


def plancherel_ratio(theta: bumps.ThetaPair, spec: grid.GridSpec) -> float:
    """||g||_2 / (||F^-1 theta1||_2 ||F^-1 theta2||_2): the all-2 transfer ratio."""
    inv = [grid.idft(grid.freq_function(spec, lambda *xi, t=t: bumps.bump_eval_axes(t, list(xi))))
           for t in (theta.theta1, theta.theta2)]
    return norms.lp_norm(theta.g, 2) / (norms.lp_norm(inv[0], 2) * norms.lp_norm(inv[1], 2))


class CliWorkload:
    """Shared op plumbing for workloads whose op is one CLI command."""

    command = ""
    probe = True

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed, self.tiny = seed, tiny
        self.workdir = Path(workdir)

    def make_input(self, i: int) -> dict:
        op_dir = self.workdir / "op"
        shutil.rmtree(op_dir, ignore_errors=True)
        op_dir.mkdir(parents=True)
        cfg_path = op_dir / "config.json"
        cfg_path.write_text(json.dumps(self.config(i), indent=2, sort_keys=True))
        return {"argv": [self.command, "--config", str(cfg_path), "--out", str(op_dir / "out")],
                "out": op_dir / "out"}

    def run(self, inp: dict) -> int:
        return cli.main(inp["argv"])

    def collect(self, inp: dict, rc: int) -> dict:
        out = inp["out"]
        rec = {"rc": rc, "report_bytes": b"", "report": None,
               "out_bytes": sum(p.stat().st_size for p in out.glob("*") if p.is_file())
               if out.is_dir() else 0}
        report = out / "report.json"
        if report.is_file():
            rec["report_bytes"] = report.read_bytes()
            rec["report"] = json.loads(rec["report_bytes"])
        return rec

    def check(self, rec: dict) -> list[str]:
        if rec["rc"] != 0:
            return [f"exit code {rec['rc']}"]
        if rec["report"] is None:
            return ["no report.json"]
        return self.check_report(rec)


class Transfer(CliWorkload):
    """One-member ``transfer`` run on the README config; the family seed and
    the search seed come from the benchmark seed and the op index."""

    command = "transfer"

    def __init__(self, seed: int, tiny: bool, workdir: Path, space: str):
        super().__init__(seed, tiny, workdir)
        self.space = space
        spec = grid.make_grid(1, 8, 32)
        self.kappa = bumps.make_window(1, 0.6)
        self.ratio = plancherel_ratio(_theta(_phi(1), spec), spec)

    def config(self, i: int) -> dict:
        fam_seed, run_seed = (int(v) for v in _rng(self.seed, i).integers(0, 2**31, 2))
        search = {"starts": 2, "steps": 4} if self.tiny else {"starts": 8, "steps": 60}
        search["stability_bound"] = 10
        return {"n": 1, "grid": {"L": 8, "s": 32}, "phi": "tensor-0.4",
                "space": self.space, "exponents": [2, 2, 2, 2, 2, 2], "seed": run_seed,
                "a_family": {"members": 1, "radius": 1, "count": 9, "seed": fam_seed},
                "search": search, "window": {"outer": self.kappa.outer}}

    def check_report(self, rec: dict) -> list[str]:
        rep = rec["report"]
        problems = []
        if rep.get("all_finite") is not True or rep.get("stable") is not True:
            problems.append(f"all_finite={rep.get('all_finite')} stable={rep.get('stable')}")
        rows = rep.get("rows", [])
        if len(rows) != 1:
            problems.append(f"{len(rows)} rows, expected 1")
        for k, row in enumerate(rows):
            r = row.get("ratio")
            if not (isinstance(r, float) and abs(r - self.ratio) <= REL_TOL_RATIO * self.ratio):
                problems.append(f"row {k}: ratio {r!r} != Plancherel constant {self.ratio!r}")
        return problems


class Scaling(CliWorkload):
    """One ``scaling`` run over the eps ladder 1/2 ... 1/64 with both verdicts;
    the seed picks the grid-aligned modulation centre xi0."""

    command = "scaling"
    Q = [0.5, 1, 2, "inf"]

    def config(self, i: int) -> dict:
        xi0 = SCALING_XI0[int(_rng(self.seed, i).integers(len(SCALING_XI0)))]
        k = 3 if self.tiny else 6
        return {"n": 1, "seed": self.seed, "scaling": {
            "epsilons": [2.0 ** -j for j in range(1, k + 1)], "box_factor": 192,
            "s": 8, "xi0": xi0, "amalgam_q": self.Q, "wiener_p": self.Q,
            "verdicts": [{"space": "amalgam", "exponents": [2, 2, 2, 2, 2, 0.5]},
                         {"space": "wiener", "exponents": ["inf", "inf", 1, 2, 2, 2]}]}}

    def collect(self, inp: dict, rc: int) -> dict:
        rec = super().collect(inp, rc)
        table = inp["out"] / "norms.csv"
        rec["norms"] = list(csv.DictReader(table.open())) if table.is_file() else []
        return rec

    def check_report(self, rec: dict) -> list[str]:
        rep = rec["report"]
        problems = []
        slopes = rep.get("slopes", {})
        for space in ("amalgam_q", "wiener_p"):
            for q in self.Q:
                key = f"{space}{q}"
                if key not in slopes:
                    problems.append(f"missing slope {key}")
                    continue
                if q == "inf":
                    space_name, label = space.split("_")[0], f"{space[-1]}=inf"
                    vals = [float(r["norm"]) for r in rec["norms"]
                            if r["space"] == space_name and r["exponent"] == label]
                    if not (vals and min(vals) > 0 and max(vals) / min(vals) <= FLAT_RATIO):
                        problems.append(f"{key}: norms not flat ({vals})")
                elif not abs(slopes[key]["slope"] - 1.0 / q) <= SLOPE_TOL:
                    problems.append(f"{key}: slope {slopes[key]['slope']} vs {1.0 / q}")
        verdicts = rep.get("verdicts", [])
        if len(verdicts) != 2:
            problems.append(f"{len(verdicts)} verdicts, expected 2")
        for v in verdicts:
            if v.get("status") != "violated" or not v.get("gap", 0) > VERDICT_GAP:
                problems.append(f"{v.get('space')} verdict {v.get('status')} gap {v.get('gap')}")
        if not rep.get("tail_fraction", math.inf) <= TAIL_BUDGET:
            problems.append(f"tail fraction {rep.get('tail_fraction')}")
        return problems


class WitnessChain:
    """Amalgam and Wiener witness chains plus the fast/slow bilinear comparison
    on an n = 1 and an n = 2 grid."""

    probe = False

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        grids = ((1, 8, 32, 4), (2, 4, 8, 2)) if tiny else ((1, 8, 128, 16), (2, 4, 8, 8))
        self.fixtures = []
        for n, L, s, M in grids:
            spec = grid.make_grid(n, L, s)
            phi = _phi(n)
            self.fixtures.append((spec, phi, _theta(phi, spec), bumps.make_window(n, 0.6),
                                  symbols.cm_decompose(phi, M=M)))

    def make_input(self, i: int) -> list[dict]:
        rng = _rng(self.seed, i)
        inputs = []
        for spec, *_ in self.fixtures:
            modes = list(itertools.product((-1, 0, 1), repeat=spec.n))

            def draw(keys):
                return {k: complex(rng.standard_normal(), rng.standard_normal()) for k in keys}

            # 9 entries on the radius-1 box: all of it for n = 1, a seeded
            # permutation pattern for n = 2, so every op has 9 distinct mu1
            # and 9 distinct mu2 (the fast path's largest band stacks)
            support = ([(m1, m2) for m1 in modes for m2 in modes] if spec.n == 1 else
                       list(zip(modes, [modes[k] for k in rng.permutation(len(modes))])))
            inputs.append({"a": symbols.LatticeCoefficients(spec.n, draw(support)),
                           "F1": operators.TrigPolynomial(spec.n, draw(modes)),
                           "F2": operators.TrigPolynomial(spec.n, draw(modes)),
                           "b1": operators.Sequence(spec.n, draw(modes)),
                           "b2": operators.Sequence(spec.n, draw(modes))})
        return inputs

    def run(self, inputs: list[dict]) -> list[dict]:
        outs = []
        for (spec, phi, theta, kappa, d), x in zip(self.fixtures, inputs):
            a = x["a"]
            w = transference.build_amalgam_witness(x["F1"], x["F2"], theta, spec)
            amalgam = transference.verify_amalgam_factorization(a, phi, w, spec)
            ww = transference.build_wiener_witness(x["b1"], x["b2"], theta, spec, kappa)
            wiener = transference.verify_wiener_factorization(a, phi, ww, kappa, spec)
            fast = operators.apply_T_aPhi_fast(a, d, w.f1, w.f2)
            slow = operators.apply_T_sigma(symbols.synth_sigma(a, phi, spec), w.f1, w.f2)
            outs.append({"amalgam": amalgam, "wiener": wiener, "fast": fast.samples,
                         "slow": slow.samples, "f1": w.f1, "f2": w.f2, "a": a, "d": d})
        return outs

    def collect(self, inputs: list[dict], outs: list[dict]) -> list[dict]:
        recs = []
        for o in outs:
            spec = o["f1"].spec
            l1 = [spec.dxi ** spec.n * float(np.sum(np.abs(grid.dft(f).samples)))
                  for f in (o["f1"], o["f2"])]
            recs.append({"n": spec.n,
                         "amalgam_residual": o["amalgam"].residual,
                         "wiener_residual": o["wiener"].residual,
                         "band_residual": o["wiener"].band_residual,
                         "domination_margin": o["amalgam"].domination_margin,
                         "fast_slow_gap": float(np.max(np.abs(o["fast"] - o["slow"]))),
                         "gap_bound": o["d"].tail * o["a"].sup_norm() * 4 * l1[0] * l1[1]})
        return recs

    def check(self, recs: list[dict]) -> list[str]:
        problems = []
        for r in recs:
            for key in ("amalgam_residual", "wiener_residual", "band_residual"):
                if not r[key] <= RESIDUAL_TOL:
                    problems.append(f"n={r['n']}: {key} {r[key]}")
            if not r["domination_margin"] >= 0.0:
                problems.append(f"n={r['n']}: domination margin {r['domination_margin']}")
            if not r["fast_slow_gap"] <= r["gap_bound"]:
                problems.append(f"n={r['n']}: fast/slow gap {r['fast_slow_gap']} "
                                f"> bound {r['gap_bound']}")
        return problems


def make(name: str, seed: int, tiny: bool, workdir: Path):
    """Build the named workload with its fixtures."""
    if name == "transfer-amalgam":
        return Transfer(seed, tiny, workdir, "amalgam")
    if name == "transfer-wiener":
        return Transfer(seed, tiny, workdir, "wiener")
    if name == "witness-chain":
        return WitnessChain(seed, tiny, workdir)
    if name == "scaling":
        return Scaling(seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}")
