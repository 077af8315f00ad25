"""Byte-drift record of the CLI outputs.

Runs a fixed set of configs in-process through ``latticebump.cli.main``, one
subdirectory of OUT per config, and prints one ``config file sha256`` line
per output file.  ``meta.json`` holds wall-clock telemetry and is skipped;
``selftest`` has no output directory, so its stdout is kept as
``stdout.txt``.  The configs:

* the README ``transfer`` config, in amalgam and in Wiener space;
* the same ``transfer`` off all-2, so the greedy engine and the torus run
  under a full search: amalgam at ``[1,1,1,1,1,0.5]`` (4.7 s) and Wiener at
  ``[1,1,0.5,2,2,2]`` (0.4 s);
* an n = 2 Wiener ``transfer`` on the (8, 32) grid, 2 members, 4 starts
  (0.3 s);
* the README ``scaling`` config, and its n = 2 ladder ``[1, 0.75, 0.5]``
  without verdicts (1.6 s, peak RSS 0.34 GB);
* the benchmark ``scaling`` config at each of its 13 grid-aligned xi0;
* ``synth``, ``decompose`` and ``opnorm`` (``S``, ``T_period``, ``T_aPhi``);
* ``selftest``.

With ``--against DIR`` (the OUT of another checkout), it then prints, for
each JSON or CSV file whose bytes differ, the largest relative difference
over its numeric fields, and names every other file that differs or is
missing on one side.  Only the standard library and ``latticebump`` are
used; the ``latticebump`` on the import path is the one digested.  The
times above are single runs on a 2-core Xeon with one BLAS thread:

    PYTHONPATH=src python tools/digest.py OUT [--against DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

from latticebump import cli

README_TRANSFER = {
    "n": 1, "grid": {"L": 8, "s": 32}, "phi": "tensor-0.4", "space": "amalgam",
    "exponents": [2, 2, 2, 2, 2, 2],
    "a_family": {"members": 20, "radius": 1, "count": 9, "seed": 3},
    "search": {"starts": 8, "steps": 60, "stability_bound": 10},
    "window": {"outer": 0.6}}
README_SCALING = {"n": 1, "scaling": {
    "epsilons": [0.5, 0.25, 0.125], "box_factor": 192, "s": 8,
    "amalgam_q": [1.0, 2.0, "inf"], "wiener_p": [1.0, 2.0, "inf"],
    "verdicts": [{"space": "amalgam", "exponents": [2, 2, 2, 2, 2, 0.5]}]}}
A = {"random": {"radius": 1, "count": 9, "seed": 3}}
OPNORM = {"n": 1, "grid": {"L": 8, "s": 32}, "phi": "tensor-0.4", "a": A,
          "exponents": [1, 1, 1, 1, 1, 0.5], "search": {"starts": 4, "steps": 20},
          "seed": 7}


def _bench_scaling(xi0: float) -> dict:
    """The benchmark's scaling op: eps 1/2 ... 1/64, both slope tables and
    both verdicts."""
    q = [0.5, 1, 2, "inf"]
    return {"n": 1, "seed": 0, "scaling": {
        "epsilons": [2.0 ** -j for j in range(1, 7)], "box_factor": 192, "s": 8,
        "xi0": xi0, "amalgam_q": q, "wiener_p": q,
        "verdicts": [{"space": "amalgam", "exponents": [2, 2, 2, 2, 2, 0.5]},
                     {"space": "wiener", "exponents": ["inf", "inf", 1, 2, 2, 2]}]}}


def configs() -> list[tuple[str, str, dict | None]]:
    """(name, command, config) for every run; selftest reads no config."""
    runs = [("transfer-amalgam", "transfer", README_TRANSFER),
            ("transfer-wiener", "transfer", dict(README_TRANSFER, space="wiener")),
            ("transfer-amalgam-lp", "transfer",
             dict(README_TRANSFER, exponents=[1, 1, 1, 1, 1, 0.5])),
            ("transfer-wiener-lp", "transfer",
             dict(README_TRANSFER, space="wiener", exponents=[1, 1, 0.5, 2, 2, 2])),
            ("transfer-wiener-n2", "transfer", dict(
                README_TRANSFER, n=2, space="wiener",
                a_family=dict(README_TRANSFER["a_family"], members=2),
                search=dict(README_TRANSFER["search"], starts=4))),
            ("scaling-readme", "scaling", README_SCALING),
            ("scaling-n2", "scaling", {"n": 2, "scaling": dict(
                README_SCALING["scaling"], epsilons=[1, 0.75, 0.5], verdicts=[])})]
    runs += [(f"scaling-bench-xi0={k / 4:g}", "scaling", _bench_scaling(k / 4))
             for k in range(-6, 7)]
    runs += [("synth", "synth", {"n": 1, "grid": {"L": 8, "s": 32}, "phi": "tensor-0.4",
                                 "a": A, "cm": {"M": 8}}),
             ("decompose", "decompose", {"n": 1, "phi": "tensor-0.4", "cm": {"M": 8}}),
             ("opnorm-S", "opnorm", dict(OPNORM, family="S")),
             ("opnorm-T_period", "opnorm", dict(OPNORM, family="T_period")),
             ("opnorm-T_aPhi", "opnorm", dict(OPNORM, family="T_aPhi",
                                              exponents=[2, 2, 2, 2, 2, 2])),
             ("selftest", "selftest", None)]
    return runs


def run_all(out: Path) -> list[str]:
    """Run every config into ``out``; returns the names that exited nonzero."""
    failed = []
    for name, command, cfg in configs():
        d = out / name
        d.mkdir(parents=True, exist_ok=True)
        if cfg is None:
            with open(d / "stdout.txt", "w") as f, contextlib.redirect_stdout(f):
                code = cli.main([command])
        else:
            path = d / "config.json"
            path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
            code = cli.main([command, "--config", str(path), "--out", str(d)])
        if code != 0:
            failed.append(f"{name} (exit {code})")
    return failed


def outputs(out: Path) -> list[Path]:
    return sorted(p.relative_to(out) for p in out.rglob("*")
                  if p.is_file() and p.name != "meta.json")


def _leaves(path: Path) -> list[tuple[str, object]]:
    """(where, value) for every scalar of a JSON document (keys included) or
    every cell of a CSV file, in order."""
    if path.suffix == ".csv":
        with open(path, newline="") as f:
            return [(f"row {i} col {j}", cell) for i, row in enumerate(csv.reader(f))
                    for j, cell in enumerate(row)]
    out = []

    def walk(x, where):
        if isinstance(x, dict):
            for k in sorted(x):
                out.append((where, k))
                walk(x[k], f"{where}.{k}" if where else k)
        elif isinstance(x, list):
            for i, v in enumerate(x):
                walk(v, f"{where}[{i}]")
        else:
            out.append((where, x))
    walk(json.loads(path.read_text()), "")
    return out


def _number(x) -> float | None:
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def max_relative_difference(a: Path, b: Path) -> tuple[float, str] | None:
    """The largest |x - y| / max(|x|, |y|) over the numeric fields of two
    JSON or CSV files and where it is, or None when they differ in a
    non-numeric field or in their number of fields."""
    la, lb = _leaves(a), _leaves(b)
    if len(la) != len(lb):
        return None
    worst = (0.0, "")
    for (where, x), (_, y) in zip(la, lb):
        if x == y:
            continue
        u, v = _number(x), _number(y)
        if u is None or v is None:
            return None
        if u == v or (math.isnan(u) and math.isnan(v)):
            continue
        rel = abs(u - v) / max(abs(u), abs(v))  # inf - finite gives inf
        if rel > worst[0]:
            worst = (rel, where)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="directory to run the configs into")
    ap.add_argument("--against", type=Path, help="an OUT of another checkout to compare with")
    args = ap.parse_args(argv)
    failed = run_all(args.out)
    files = outputs(args.out)
    for rel in files:
        digest = hashlib.sha256((args.out / rel).read_bytes()).hexdigest()
        print(f"{rel.parent} {rel.name} {digest}")
    for name in failed:
        print(f"FAILED {name}")
    if args.against is not None:
        print(f"# against {args.against}")
        for rel in sorted(set(files) | set(outputs(args.against))):
            a, b = args.against / rel, args.out / rel
            if not (a.is_file() and b.is_file()):
                print(f"{rel.parent} {rel.name} only in {'out' if b.is_file() else 'against'}")
            elif a.read_bytes() != b.read_bytes():
                worst = (max_relative_difference(a, b)
                         if rel.suffix in (".json", ".csv") else None)
                what = "differs" if worst is None else f"max_rel {worst[0]:.3e} at {worst[1]}"
                print(f"{rel.parent} {rel.name} {what}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
