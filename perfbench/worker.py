"""One workload in one process: set up, run ops in a closed loop, report raw data.

Started by ``run.py`` (never by hand); prints one JSON object as its last
stdout line.  BLAS threads are pinned to one before numpy is imported.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --t-spawn T [--setup-only] [--tiny]

``--t-spawn`` is the ``time.monotonic()`` reading the parent took just before
starting this process; set-up time is measured from it, so it includes the
interpreter start and every import.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import mmap  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-out"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "cpu": cpu,
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


class Calibration:
    """Fixed reference work that measures how fast the machine runs right now.

    The host's speed drifts by tens of percent over minutes (shared cores and
    caches), so ``run.py`` scales op latencies and set-up times by the
    calibration time.  The work has the costs the ops pay: page faults
    (16 x 1 MiB of fresh anonymous pages, touched once, so the time does not
    depend on the allocator state the ops leave behind), numpy FFTs into
    preallocated buffers, streaming over two 4 MiB arrays (larger than L2)
    and interpreter-bound dict updates.  Its buffers add about 8.5 MB to
    ``peak_rss_mb`` on every workload.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.arr = rng.standard_normal(1 << 14) + 1j * rng.standard_normal(1 << 14)
        self.buf = [np.empty_like(self.arr), np.empty_like(self.arr)]
        self.big = [np.ones(1 << 18, dtype=complex), np.empty(1 << 18, dtype=complex)]
        self.run()  # warm the FFT plan cache

    def run(self) -> float:
        np, (b0, b1), (src, dst) = self.np, self.buf, self.big
        t0 = time.perf_counter()
        for _ in range(16):
            with mmap.mmap(-1, 1 << 20) as pages:
                view = np.frombuffer(pages, dtype=np.uint8)
                view[::mmap.PAGESIZE] = 1
                del view
        for _ in range(20):
            np.fft.fft(self.arr, out=b0)
            np.fft.ifft(b0, out=b1)
        for _ in range(12):
            np.multiply(src, 1.0, out=dst)
            np.add(dst, src, out=dst)
        d: dict[int, int] = {}
        for k in range(100_000):
            d[k % 97] = d.get(k % 97, 0) + k
        return time.perf_counter() - t0


class Loop:
    """Runs ops, checks every output, counts failures instead of raising."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_report = None

    def op(self, i: int, tracer=None) -> tuple[float, bool]:
        """Run and check op ``i``; return its latency and whether it passed."""
        wl = self.wl
        inp = wl.make_input(i)
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        error = None
        t0 = time.perf_counter()
        try:
            with tracer.root(i) if tracer is not None else contextlib.nullcontext():
                raw = wl.run(inp)
        except Exception as e:  # an op failure is counted, never raised
            error = f"{type(e).__name__}: {e}"
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if error is not None:
            self.fail(i, error)
            return dt, False
        try:
            rec = wl.collect(inp, raw)
            problems = wl.check(rec)
        except Exception as e:
            problems = [f"{type(e).__name__}: {e}"]
        if problems:
            self.fail(i, "; ".join(problems))
            return dt, False
        if tracer is not None and "out_bytes" in rec:
            tracer.counts[i]["cli.out_bytes"] += rec["out_bytes"]
        if i == 0 and wl.probe and tracer is None:
            self.first_report = rec["report_bytes"]
        return dt, True

    def fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"op {i}: {why}")

    def probe(self) -> None:
        """Determinism probe: op 0 again must give a byte-identical report."""
        if not self.wl.probe:
            return
        first = self.first_report
        if self.op(0)[1] and self.first_report != first:
            self.fail(0, "determinism probe: report.json differs on rerun")


def timed(loop: Loop, seconds: float, cal: Calibration) -> dict:
    """Closed loop of ops with a calibration run before the first op and
    after every op."""
    lat, cals = [], [cal.run()]
    ok_ops = 0
    t_start = time.perf_counter()
    while not lat or time.perf_counter() - t_start < seconds:
        dt, ok = loop.op(len(lat))
        lat.append(dt)
        cals.append(cal.run())
        ok_ops += ok
    return {"latencies": lat, "calibrations": cals, "ok_ops": ok_ops}


def traced(loop: Loop, seconds: float, spans_path: Path) -> dict:
    """Warm-up op, then pairs of the same op untraced and traced (order
    alternating); layer metrics are per-op means over the traced ops."""
    from tracing import Tracer

    tracer = Tracer()
    loop.op(0)
    diffs, ops = [], []
    t_start = time.perf_counter()
    i = 1
    while time.perf_counter() - t_start < seconds:
        order = (None, tracer) if i % 2 else (tracer, None)
        walls = {}
        for tr in order:
            walls[tr is None] = loop.op(i, tr)[0]
        diffs.append(walls[False] - walls[True])
        ops.append(i)
        i += 1
    tracer.dump(spans_path)
    metrics = tracer.layer_metrics(ops) if ops else {}
    metrics["trace.overhead_s"] = sum(diffs) / len(diffs) if diffs else 0.0
    metrics["trace.ops"] = len(ops)
    return {"layers": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    import latticebump
    import workloads

    src = (ROOT / "src").resolve()
    if Path(latticebump.__file__).resolve().parent.parent != src:
        print(f"latticebump imported from {latticebump.__file__}, not {src}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, args.tiny, WORKDIR / args.workload)
    setup_s = time.monotonic() - args.t_spawn
    cal = Calibration()
    result = {"setup_s": setup_s, "setup_cal_s": statistics.median(cal.run() for _ in range(3))}
    if not args.setup_only:
        loop = Loop(wl)
        if args.trace:
            result.update(traced(loop, args.seconds, WORKDIR / f"{args.workload}.spans.jsonl"))
        else:
            result.update(timed(loop, args.seconds, cal))
        loop.probe()
        result.update(attempted=loop.attempted, failed=loop.failed, problems=loop.problems,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
