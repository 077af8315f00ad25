"""The benchmark's own test: every workload at a tiny size, every metric
printed by name with its unit, and every oracle catching a corrupted output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_prints_every_metric(name, trace):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                          "--seed", "5", "--seconds", "0.3", "--trace", str(trace), "--tiny"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in declared]
    human = lines[:-1]
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(ln.split()[:1] == [m["name"]] and ln.split()[2] == m["unit"] for ln in human)
    if trace == 0:
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in declared)
        assert any(ln.startswith("failed_frac ") for ln in human)
        assert any(ln.startswith("env ") for ln in human)
    else:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        selfs = sum(v for k, v in m.items() if k.endswith(".self_s"))
        assert selfs + m["trace.unattributed_s"] == pytest.approx(m["trace.op_s"], rel=1e-9)


def test_missing_program_exits_nonzero(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for p in HERE.glob("*.py"):
        (bench_dir / p.name).write_bytes(p.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", NAMES[0],
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _first_record(wl):
    inp = wl.make_input(0)
    return wl.collect(inp, wl.run(inp))


@pytest.fixture(scope="module")
def transfer(tmp_path_factory):
    wl = workloads.make("transfer-amalgam", 5, True, tmp_path_factory.mktemp("t"))
    return wl, _first_record(wl)


@pytest.fixture(scope="module")
def scaling(tmp_path_factory):
    wl = workloads.make("scaling", 5, True, tmp_path_factory.mktemp("s"))
    return wl, _first_record(wl)


@pytest.fixture(scope="module")
def witness(tmp_path_factory):
    wl = workloads.make("witness-chain", 5, True, tmp_path_factory.mktemp("w"))
    return wl, _first_record(wl)


def test_plancherel_constant(transfer):
    wl, _ = transfer
    assert wl.ratio == pytest.approx(0.049208020701633, rel=1e-12)


def _corrupt(rec, path, fn):
    bad = copy.deepcopy(rec)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = fn(node[path[-1]])
    return bad


TRANSFER_CORRUPTIONS = [
    (("rc",), lambda v: 4),
    (("report", "rows", 0, "ratio"), lambda v: v * (1 + 1e-6)),
    (("report", "rows", 0, "ratio"), lambda v: float("nan")),
    (("report", "stable"), lambda v: False),
    (("report", "all_finite"), lambda v: False),
    (("report", "rows"), lambda v: v + v),
]

SCALING_CORRUPTIONS = [
    (("rc",), lambda v: 2),
    (("report", "slopes", "amalgam_q1", "slope"), lambda v: v + 0.11),
    (("report", "slopes", "wiener_p0.5", "slope"), lambda v: v - 0.11),
    (("report", "slopes", "wiener_p2", "slope"), lambda v: float("nan")),
    (("norms", 9, "norm"), lambda v: str(float(v) * 1.1)),
    (("report", "verdicts", 0, "status"), lambda v: "consistent"),
    (("report", "verdicts", 1, "gap"), lambda v: 0.05),
    (("report", "tail_fraction"), lambda v: 2e-6),
]

WITNESS_CORRUPTIONS = [
    ((0, "amalgam_residual"), lambda v: 2e-6),
    ((1, "wiener_residual"), lambda v: float("nan")),
    ((1, "band_residual"), lambda v: 2e-6),
    ((0, "domination_margin"), lambda v: -1e-12),
    ((1, "fast_slow_gap"), lambda v: float("inf")),
]


@pytest.mark.parametrize("path,fn", TRANSFER_CORRUPTIONS)
def test_transfer_oracle_rejects(transfer, path, fn):
    wl, rec = transfer
    assert wl.check(rec) == []
    assert wl.check(_corrupt(rec, path, fn))


@pytest.mark.parametrize("path,fn", SCALING_CORRUPTIONS)
def test_scaling_oracle_rejects(scaling, path, fn):
    wl, rec = scaling
    assert rec["norms"][9]["exponent"] == "q=inf"
    assert wl.check(rec) == []
    assert wl.check(_corrupt(rec, path, fn))


@pytest.mark.parametrize("path,fn", WITNESS_CORRUPTIONS)
def test_witness_oracle_rejects(witness, path, fn):
    wl, rec = witness
    assert wl.check(rec) == []
    assert wl.check(_corrupt(rec, path, fn))


def test_corrupted_output_counts_as_failed_op(transfer, monkeypatch):
    wl, _ = transfer
    original = wl.collect
    monkeypatch.setattr(wl, "collect", lambda inp, rc: _corrupt(
        original(inp, rc), ("report", "rows", 0, "ratio"), lambda v: v * (1 + 1e-6)))
    loop = worker.Loop(wl)
    _dt, ok = loop.op(0)
    assert not ok and loop.attempted == 1 and loop.failed == 1


def test_determinism_probe_counts_a_mismatch(transfer):
    wl, _ = transfer
    loop = worker.Loop(wl)
    assert loop.op(0)[1]
    loop.probe()
    assert (loop.attempted, loop.failed) == (2, 0)
    loop.first_report = b"{}"
    loop.probe()
    assert (loop.attempted, loop.failed) == (3, 1)


def test_tail_percentile_keeps_ten_samples_beyond():
    import run

    lat = [float(i) for i in range(1, 41)]
    value, pct, beyond = run.tail(lat)
    assert (value, pct, beyond) == (30.0, 75.0, 10)
    assert sum(x > value for x in lat) == 10
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)
