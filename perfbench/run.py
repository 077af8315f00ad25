"""latticebump benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a child process
(``worker.py``) with BLAS pinned to one thread; a few more children only set
up and exit, so ``setup_s`` is a median over several set-ups.  Human-readable
lines (environment, every metric with its unit and sample count, failures)
come first; the last stdout line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of BENCHMARK.json,
with ``--trace 1`` the ``per_layer`` list.  Exit code 0 on a completed run
(``correct`` says whether every output passed its check), 2 when the checkout
has no ``src/latticebump``, 3 when a worker fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5          # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, all children included
TAIL_BEYOND = 10    # samples that must lie beyond the reported tail percentile
CAL_REF_S = 0.05    # calibration time that defines the reference machine speed


def tail(lat: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that has
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    s = sorted(lat)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    k = n - TAIL_BEYOND
    return s[k - 1], 100.0 * k / n, TAIL_BEYOND


class WorkerError(Exception):
    pass


class Runner:
    def __init__(self, args):
        self.args = args
        self.t_end = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    def worker(self, *extra: str) -> dict:
        a = self.args
        t_spawn = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--t-spawn", repr(t_spawn), *extra]
        if a.tiny:
            cmd.append("--tiny")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True)
        try:
            out, _ = proc.communicate(timeout=max(self.t_end - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise WorkerError("perfbench: worker overran the run deadline")
        if proc.returncode != 0:
            raise WorkerError(f"perfbench: worker exited with code {proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1])


def declared(trace: int) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every op (for the benchmark's own test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "latticebump" / "__init__.py").is_file():
        print(f"perfbench: no src/latticebump under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    metrics_spec = declared(args.trace)
    runner = Runner(args)
    try:
        setups = [runner.worker("--setup-only") for _ in range(0 if args.trace else SETUPS - 1)]
        res = runner.worker()
    except WorkerError as e:
        print(e, file=sys.stderr)
        return 3
    setups.append(res)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"env {json.dumps(res['env'], sort_keys=True)}")
    if args.trace:
        values = res["layers"]
        notes = {}
        print(f"traced ops {values.get('trace.ops', 0)}; per-op means; "
              f"spans in .perfbench-out/{args.workload}.spans.jsonl")
    else:
        # times at reference speed: op i (run between calibrations i and i+1)
        # scaled by the median of the six calibrations around it, each set-up
        # by the calibrations right after it
        setup = statistics.median(r["setup_s"] * CAL_REF_S / r["setup_cal_s"] for r in setups)
        setup_raw = statistics.median(r["setup_s"] for r in setups)
        cals = res["calibrations"]
        raw = res["latencies"]
        lat = [t * CAL_REF_S / statistics.median(cals[max(i - 2, 0):i + 4])
               for i, t in enumerate(raw)]
        speed = CAL_REF_S / statistics.median(cals)
        tail_v, tail_p, beyond = tail(lat)
        values = {"setup_s": setup,
                  "ops_per_s": res["ok_ops"] / sum(lat),
                  "op_p50_s": statistics.median(lat),
                  "op_tail_s": tail_v,
                  "peak_rss_mb": res["peak_rss_mb"],
                  "failed_frac": res["failed"] / res["attempted"]}
        notes = {"setup_s": f"median of {len(setups)} set-ups; raw {setup_raw:.4g} s",
                 "ops_per_s": f"{res['ok_ops']} passing ops; raw {len(raw) / sum(raw):.4g} 1/s",
                 "op_p50_s": f"n={len(lat)}; raw {statistics.median(raw):.4g} s",
                 "op_tail_s": f"p{tail_p:.1f}, n={len(lat)}, {beyond} beyond; raw "
                              f"{tail(raw)[0]:.4g} s",
                 "failed_frac": f"{res['failed']}/{res['attempted']} failed, "
                                f"{res['attempted']} checks"}
        print(f"machine speed {speed:.4g} x reference (median of {len(cals)} "
              f"calibrations of {statistics.median(cals):.4g} s; reference {CAL_REF_S} s)")
        print(f"{'failed_frac':<14} {values['failed_frac']:.6g} ratio  "
              f"({notes['failed_frac']})")
    missing = [m["name"] for m in metrics_spec if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 3
    width = max(len(m["name"]) for m in metrics_spec)
    for m in metrics_spec:
        note = notes.get(m["name"], "")
        print(f"{m['name']:<{width}} {values[m['name']]:.6g} {m['unit']}"
              + (f"  ({note})" if note else ""))
    for p in res["problems"]:
        print(f"FAILED {p}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                  for m in metrics_spec}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
