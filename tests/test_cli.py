import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from latticebump.cli import main
from latticebump.symbols import SymbolGrid, synth_sigma, lattice_from_dict
from latticebump.bumps import bump_eval_axes, check_condition_B, make_bump, make_theta_pair
from latticebump.grid import freq_function, idft, make_grid
from latticebump.norms import lp_norm
from latticebump.transference import SearchParams


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_synth_writes_artifacts(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "n": 1, "grid": {"L": 8, "s": 32}, "phi": "tensor-0.4",
        "a": {"entries": [[[0], [0], 1.0, 0.0]]},
        "cm": {"M": 8},
    })
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    for f in ("sigma.bin", "sigma.json", "cm.json", "recon_error.csv",
              "report.json", "meta.json"):
        assert (out / f).exists()
    # the emitted symbol equals a fresh synthesis of the delta configuration
    spec = make_grid(1, 8, 32)
    phi = make_bump(2, "tensor-exp", radius=0.4)
    ref = synth_sigma(lattice_from_dict(1, {((0,), (0,)): 1.0}), phi, spec)
    back = SymbolGrid.load(out / "sigma")
    assert np.array_equal(back.samples, ref.samples)


@pytest.mark.parametrize("n", [1, 2])
def test_synth_reconstruction_errors_are_finite_and_within_the_tail(tmp_path, n):
    # every n: the sup error over the 33^(2n) probe grid (which holds the
    # centre) lies between the centre error and the recorded truncation tail
    cfg = _write(tmp_path, "cfg.json", {
        "n": n, "phi": "tensor-0.4", "a": {"entries": [[[0] * n, [0] * n, 1.0, 0.0]]},
        "cm": {"M": 8}})
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--out", str(out), "--grid", "4,8"]) == 0
    rows = (out / "recon_error.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        _m, sup_err, center, tail = (float(v) for v in row.split(","))
        assert center <= sup_err <= tail


def test_synth_missing_fixture_is_config_error(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "n": 1, "phi": "no-such-fixture", "a": {"entries": [[[0], [0], 1, 0]]}})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_missing_config_is_config_error():
    assert main(["synth"]) == 2


def test_invalid_json_is_config_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["synth", "--config", str(p)]) == 2


def test_decompose(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"n": 1, "phi": "tensor-0.4", "cm": {"M": 8}})
    out = tmp_path / "out"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["M"] == 8 and doc["K"] == 2.0
    assert (out / "decay.csv").exists()


def test_opnorm_delta_sequence(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "n": 1, "family": "S", "a": {"entries": [[[0], [0], 1.0, 0.0]]},
        "exponents": [2, 2, 2, 2, 2, 2],
        "search": {"starts": 4, "steps": 20},
    })
    out = tmp_path / "out"
    assert main(["opnorm", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["value"] == 1.0


@pytest.mark.parametrize("exponents, engine", [([2] * 6, "alternating"), ([1] * 6, "greedy")])
def test_opnorm_trace_names_the_search_engine(tmp_path, exponents, engine):
    cfg = _write(tmp_path, "cfg.json", {
        "n": 1, "family": "S", "a": {"random": {"radius": 1, "count": 9, "seed": 3}},
        "exponents": exponents, "search": {"starts": 4, "steps": 2},
    })
    out = tmp_path / "out"
    assert main(["opnorm", "--config", cfg, "--out", str(out)]) == 0
    trace = json.loads((out / "report.json").read_text())["trace"]
    assert trace["engine"] == engine
    assert trace["capped"] is (engine == "greedy")  # 2 greedy sweeps; no cap at all-2


def test_transfer_small_family(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "n": 1, "grid": {"L": 8, "s": 32}, "phi": "tensor-0.4",
        "space": "amalgam", "exponents": [2, 2, 2, 2, 2, 2],
        "a_family": {"members": 2, "radius": 1, "count": 5, "seed": 7},
        "search": {"starts": 3, "steps": 15},
    })
    out = tmp_path / "out"
    assert main(["transfer", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "ratios.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header + 2 members
    doc = json.loads((out / "report.json").read_text())
    assert doc["stable"] is True


def test_transfer_hypothesis_violation_exit_3(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {
        "n": 1, "phi": "tensor-0.4", "space": "amalgam",
        "exponents": [2, 2, 2, 2, 2, 0.5],
        "a": {"entries": [[[0], [0], 1.0, 0.0]]},
    })
    code = main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "1/q <= 1/q1 + 1/q2" in err


def test_transfer_determinism(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "n": 1, "grid": {"L": 8, "s": 32}, "phi": "tensor-0.4",
        "space": "wiener", "exponents": [2, 2, 2, 2, 2, 2],
        "a": {"random": {"radius": 1, "count": 4, "seed": 3}},
        "search": {"starts": 3, "steps": 10},
    })
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["transfer", "--config", cfg, "--out", str(out1), "--seed", "42"]) == 0
    assert main(["transfer", "--config", cfg, "--out", str(out2), "--seed", "42"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "ratios.csv").read_bytes() == (out2 / "ratios.csv").read_bytes()


def test_scaling_reports_slopes_and_verdicts(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "n": 1,
        "scaling": {
            "epsilons": [0.5, 0.25, 0.125], "box_factor": 192, "s": 8,
            "amalgam_q": [2.0], "wiener_p": [2.0],
            "verdicts": [
                {"space": "amalgam", "exponents": [2, 2, 2, 2, 2, 0.5]},
                {"space": "amalgam", "exponents": [2, 2, 2, 2, 2, 1.0]},
            ],
        },
    })
    out = tmp_path / "out"
    assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["slopes"]["amalgam_q2.0"]["slope"] == pytest.approx(0.5, abs=0.1)
    assert doc["slopes"]["wiener_p2.0"]["slope"] == pytest.approx(0.5, abs=0.1)
    statuses = {v["status"] for v in doc["verdicts"]}
    assert statuses == {"violated", "consistent"}
    assert (out / "norms.csv").exists()


def _readme_scaling():
    """The README scaling config plus a Wiener verdict, so both verdicts run."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    doc = next(b for b in (json.loads(b.split("```")[0]) for b in text.split("```json")[1:])
               if "scaling" in b)
    doc["scaling"]["verdicts"].append({"space": "wiener",
                                       "exponents": ["inf", "inf", 1, 2, 2, 2]})
    return doc


def test_scaling_determinism(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _readme_scaling())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["scaling", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["scaling", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()


# the benchmark's scaling op: eps 1/2 ... 1/64, both slope tables, both verdicts
BENCH_EPSILONS = [2.0 ** -j for j in range(1, 7)]
BENCH_SCALING = {"n": 1, "scaling": {
    "epsilons": BENCH_EPSILONS, "box_factor": 192, "s": 8, "xi0": 0.75,
    "amalgam_q": [0.5, 1, 2, "inf"], "wiener_p": [0.5, 1, 2, "inf"],
    "verdicts": [{"space": "amalgam", "exponents": [2, 2, 2, 2, 2, 0.5]},
                 {"space": "wiener", "exponents": ["inf", "inf", 1, 2, 2, 2]}]}}


def test_scaling_builds_no_band_stack(tmp_path, monkeypatch):
    # the Wiener slopes read f_eps's single plateau band from |f_eps| itself,
    # and the Wiener verdict's product from |T|, by the same rule
    from latticebump import norms, scalinglab
    calls = []
    band_values = norms.wiener_band_values

    def counted(*args, **kwargs):
        calls.append(args[0].spec.L)
        return band_values(*args, **kwargs)
    monkeypatch.setattr(norms, "wiener_band_values", counted)
    monkeypatch.setattr(scalinglab, "wiener_band_values", counted)
    cfg = _write(tmp_path, "cfg.json", BENCH_SCALING)
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == []


def test_scaling_forms_one_product_per_eps(tmp_path, monkeypatch):
    # both verdicts read their output norms from one T_1(f_eps, f_eps) per eps
    from latticebump import scalinglab
    calls = []
    grouped_sum = scalinglab._grouped_sum

    def counted(sigma_at, F1, F2, spec):
        calls.append(spec.L)
        return grouped_sum(sigma_at, F1, F2, spec)
    monkeypatch.setattr(scalinglab, "_grouped_sum", counted)
    cfg = _write(tmp_path, "cfg.json", BENCH_SCALING)
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == len(set(calls)) == len(BENCH_EPSILONS)


def test_scaling_builds_and_transforms_each_dilate_once(tmp_path, monkeypatch):
    # one f_hat slab and one inverse transform of it per eps serve both slope
    # tables, the verdicts' input slopes and their products; the only other
    # inverse transform of the eps is that of the product's spectrum slab
    from latticebump import scalinglab
    dilates, spectra, transforms = [], [], []
    f_hat_slab, idft_ = scalinglab.ScalingFamily.f_hat_slab, scalinglab._idft_samples

    def counted_f_hat(self, eps):
        dilates.append(eps)
        spectra.append((self.specs[eps].L, f_hat_slab(self, eps)))
        return spectra[-1][1]

    def counted_idft(slab, spec):
        transforms.append((spec.L, "f" if any(slab is fh for _L, fh in spectra) else "T"))
        return idft_(slab, spec)
    monkeypatch.setattr(scalinglab.ScalingFamily, "f_hat_slab", counted_f_hat)
    monkeypatch.setattr(scalinglab, "_idft_samples", counted_idft)
    cfg = _write(tmp_path, "cfg.json", BENCH_SCALING)
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert dilates == BENCH_EPSILONS
    assert sorted(transforms) == sorted((L, kind) for L, _fh in spectra for kind in "fT")


def test_scaling_makes_no_forward_transform(tmp_path, monkeypatch):
    # every Wiener norm reads a spectrum the pass already holds: f_hat for
    # the ladders, the grouped sum's spectrum for the products (12 forward
    # transforms of f_eps and T when the norms read space samples)
    calls = []
    fftn = np.fft.fftn

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return fftn(a, *args, **kwargs)
    monkeypatch.setattr(np.fft, "fftn", counted)
    cfg = _write(tmp_path, "cfg.json", BENCH_SCALING)
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == []


def test_scaling_reach_check_adds_the_window_for_a_wiener_verdict_only(tmp_path, capsys):
    # at xi0 1.75 the products' spectrum, 2 * (1.75 +- 0.15), lies in the
    # box [-4, 4]; only a Wiener verdict reads the window (outer 0.6) there
    amalgam = {"space": "amalgam", "exponents": [2, 2, 2, 2, 2, 0.5]}
    wiener = {"space": "wiener", "exponents": ["inf", "inf", 1, 2, 2, 2]}
    doc = _with(_with(_readme_scaling(), ("scaling", "xi0"), 1.75), ("scaling", "wiener_p"), [])
    for verdicts, code in (([amalgam], 0), ([wiener], 2), ([amalgam, wiener], 2)):
        cfg = _write(tmp_path, "cfg.json", _with(doc, ("scaling", "verdicts"), verdicts))
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert ("reach 4.4," in err) == (code == 2)


def test_scaling_n2_scalar_xi0_reaches_the_grid_budget(tmp_path, capsys):
    # a scalar xi0 is the centre on every axis, so the README config at n = 2
    # gets past the family's centre and stops at the 2^24-value grid budget
    doc = _with(_readme_scaling(), ("n",), 2)
    code = main(["scaling", "--config", _write(tmp_path, "cfg.json", doc),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: grid with ") and "exceeds budget" in err


def test_scaling_n2_verdict_is_config_error_before_any_dilate(tmp_path, capsys, monkeypatch):
    # products are implemented for n = 1: the pass refuses before it builds
    # the slope table's dilates (about 1 GB at this ladder)
    from latticebump import scalinglab

    def refused(self, eps):
        raise AssertionError("dilate built")
    monkeypatch.setattr(scalinglab.ScalingFamily, "f_hat", refused)
    doc = _with(_with(_readme_scaling(), ("n",), 2), ("scaling", "epsilons"), [1, 0.75, 0.5])
    code = main(["scaling", "--config", _write(tmp_path, "cfg.json", doc),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: product scaling is implemented")


def test_scaling_two_point_ladder_is_config_error(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "n": 1, "scaling": {"epsilons": [0.5, 0.25]}})
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_selftest_fault_injection(capsys):
    code = main(["selftest", "--force-window-outer", "0.45"])
    out = capsys.readouterr().out
    assert code == 4
    assert "window partition of unity" in out and "FAIL" in out


def test_selftest_catches_an_overlapping_window(capsys):
    # inner 1.15 > 1 - outer: the translates overlap on the plateau and sum to 2
    code = main(["selftest", "--force-window-outer", "1.2"])
    out = capsys.readouterr().out
    assert code == 4
    assert "window partition of unity" in out and "FAIL" in out


def test_selftest_fault_injection_below_the_window_range(capsys):
    code = main(["selftest", "--force-window-outer", "0.3"])
    out = capsys.readouterr().out
    assert code == 4
    assert "window partition of unity" in out and "FAIL" in out


@pytest.mark.parametrize("outer", ["0", "-1"])
def test_selftest_window_outer_that_builds_no_window_is_a_config_error(capsys, outer):
    # 0 is read, not mistaken for an absent flag; no plateau has outer radius <= 0
    assert main(["selftest", "--force-window-outer", outer]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("config error:") == 1 and "outer" in captured.err


@pytest.mark.parametrize("command, flag, value", [
    ("decompose", "--seed", "3"), ("decompose", "--grid", "not-a-grid"),
    ("scaling", "--grid", "x")])
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, command, flag, value):
    cfg = _write(tmp_path, "cfg.json", {"n": 1})
    with pytest.raises(SystemExit) as e:
        main([command, "--config", cfg, "--out", str(tmp_path / "o"), flag, value])
    assert e.value.code == 2
    assert not (tmp_path / "o").exists()


def test_selftest_seed_changes_nothing(capsys):
    assert main(["selftest", "--seed", "7"]) == 0
    out1 = capsys.readouterr().out
    assert main(["selftest", "--seed", "8"]) == 0
    out2 = capsys.readouterr().out
    names1 = [line.split("  ")[0] for line in out1.splitlines()]
    names2 = [line.split("  ")[0] for line in out2.splitlines()]
    assert names1 == names2
    assert all("PASS" in l for l in out1.splitlines()[:-1])
    assert all("PASS" in l for l in out2.splitlines()[:-1])


_TRANSFER = {"n": 1, "grid": {"L": 8, "s": 32}, "phi": "tensor-0.4", "space": "amalgam",
             "exponents": [2, 2, 2, 2, 2, 2], "a": {"entries": [[[0], [0], 1.0, 0.0]]},
             "search": {"starts": 2, "steps": 2}}


def _exit_code(tmp_path, capsys, command, doc):
    code = main([command, "--config", _write(tmp_path, "cfg.json", doc),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
    return code


def test_transfer_non_numeric_exponent_is_config_error(tmp_path, capsys):
    doc = dict(_TRANSFER, exponents=["x", 2, 2, 2, 2, 2])
    assert _exit_code(tmp_path, capsys, "transfer", doc) == 2


def test_scaling_repeated_eps_is_config_error(tmp_path, capsys):
    # a repeated eps gives the slope fits no new point: no verdict from it
    doc = {"n": 1, "scaling": {"epsilons": [0.5, 0.5, 0.5],
                               "verdicts": [{"space": "amalgam", "exponents": [2, 2, 2, 2, 2, 0.5]}]}}
    assert _exit_code(tmp_path, capsys, "scaling", doc) == 2
    assert not (tmp_path / "o" / "report.json").exists()


def test_scaling_zero_verdict_exponent_is_config_error(tmp_path, capsys):
    doc = {"n": 1, "scaling": {"epsilons": [0.5, 0.25, 0.125], "amalgam_q": [2.0],
                               "wiener_p": [2.0],
                               "verdicts": [{"space": "amalgam", "exponents": [2, 2, 2, 2, 2, 0]}]}}
    assert _exit_code(tmp_path, capsys, "scaling", doc) == 2


@pytest.mark.parametrize("command", ["synth"])
def test_symbol_over_the_memory_budget_is_config_error(tmp_path, capsys, command):
    # n = 2 on a 256^2 grid is a valid grid, but its symbol would hold
    # N^(2n) = 2^32 complex values (68.7 GB): synth refuses it before it is
    # allocated
    doc = {"n": 2, "phi": "tensor-0.4", "a": {"entries": [[[0, 0], [0, 0], 1.0, 0.0]]}}
    code = main([command, "--config", _write(tmp_path, "cfg.json", doc),
                 "--out", str(tmp_path / "o"), "--grid", "8,32"])
    err = capsys.readouterr().err
    assert code == 2
    assert "symbol grid" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("space", ["amalgam", "wiener"])
def test_transfer_runs_n2_at_working_grid(tmp_path, space):
    # transfer never forms that symbol, so n = 2 runs at --grid 8,32; at
    # all-2 exponents its ratio is the n = 2 Plancherel constant
    # ||g||_2 / (||F^-1 theta1||_2 ||F^-1 theta2||_2)
    doc = dict(_TRANSFER, n=2, space=space, a={"random": {"radius": 1, "count": 9, "seed": 4}},
               search={"starts": 2, "steps": 2})
    out = tmp_path / "o"
    assert main(["transfer", "--config", _write(tmp_path, "cfg.json", doc),
                 "--out", str(out), "--grid", "8,32"]) == 0
    spec = make_grid(2, 8, 32)
    phi = make_bump(4, "tensor-exp", radius=0.4)
    cb = check_condition_B(phi)
    theta = make_theta_pair(phi, cb.witness, cb.slack / 4, spec)
    inv = [idft(freq_function(spec, lambda *xi, t=t: bump_eval_axes(t, list(xi))))
           for t in (theta.theta1, theta.theta2)]
    constant = lp_norm(theta.g, 2) / (lp_norm(inv[0], 2) * lp_norm(inv[1], 2))
    ratio = json.loads((out / "report.json").read_text())["rows"][0]["ratio"]
    assert ratio == pytest.approx(constant, rel=1e-9)


def _plancherel_constant(spec):
    """||g||_2 / (||F^-1 theta1||_2 ||F^-1 theta2||_2): the all-2 transfer
    ratio of the radius-0.4 tensor bump on ``spec``."""
    phi = make_bump(2 * spec.n, "tensor-exp", radius=0.4)
    cb = check_condition_B(phi)
    theta = make_theta_pair(phi, cb.witness, cb.slack / 4, spec)
    inv = [idft(freq_function(spec, lambda *xi, t=t: bump_eval_axes(t, list(xi))))
           for t in (theta.theta1, theta.theta2)]
    return lp_norm(theta.g, 2) / (lp_norm(inv[0], 2) * lp_norm(inv[1], 2))


@pytest.mark.parametrize("n, grid_", [(1, "8,32"), (2, "32,32")])
def test_all_2_wiener_transfer_makes_no_inverse_transform(tmp_path, monkeypatch, n, grid_):
    # every Wiener norm at (2, 2) is a weighted l^2 of a spectrum and the
    # witnesses' space samples are never read; at n = 2 on (32, 32) the
    # family runs here in well under a second (it took about 6 s and 630 MB
    # with a band stack per norm), and each row's ratio is the Plancherel
    # constant
    transforms = []
    ifftn = np.fft.ifftn

    def counted(*args, **kwargs):
        transforms.append(args[0].shape)
        return ifftn(*args, **kwargs)
    monkeypatch.setattr(np.fft, "ifftn", counted)
    doc = dict(_TRANSFER, n=n, space="wiener",
               a_family={"members": 2, "radius": 1, "count": 9, "seed": 3},
               search={"starts": 4, "steps": 60})
    del doc["a"]
    out = tmp_path / "o"
    assert main(["transfer", "--config", _write(tmp_path, "cfg.json", doc),
                 "--out", str(out), "--grid", grid_]) == 0
    assert transforms == []
    monkeypatch.undo()
    L, s = (int(v) for v in grid_.split(","))
    constant = _plancherel_constant(make_grid(n, L, s))
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["ratio"] == pytest.approx(constant, rel=1e-9)


def test_wiener_transfer_off_2_2_still_pools_band_stacks(tmp_path, monkeypatch):
    # at [2,2,1,2,2,2] both input norms are (2, 2) and read no band stack;
    # the output norm is (1, 2), one band stack per candidate witness
    from latticebump import norms
    calls = []
    band_values = norms.wiener_band_values

    def counted(*args, **kwargs):
        calls.append(args[0].side)
        return band_values(*args, **kwargs)
    monkeypatch.setattr(norms, "wiener_band_values", counted)
    doc = dict(_TRANSFER, space="wiener", exponents=[2, 2, 1, 2, 2, 2],
               search={"starts": 2, "steps": 4})
    out = tmp_path / "o"
    assert main(["transfer", "--config", _write(tmp_path, "cfg.json", doc),
                 "--out", str(out)]) == 0
    assert calls == ["frequency"] * 2  # the indicator and the model witness


def test_parser_built_once_still_refuses_flags_a_command_does_not_read(tmp_path):
    from latticebump import cli
    cfg = _write(tmp_path, "cfg.json", {"n": 1, "phi": "tensor-0.4", "cm": {"M": 8}})
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    assert cli._parser() is cli._parser()
    transfer = _write(tmp_path, "transfer.json", _TRANSFER)
    for flags in (["--no-such-flag"], ["--force-window-outer", "0.6"]):
        with pytest.raises(SystemExit) as e:
            main(["transfer", "--config", transfer, "--out", str(tmp_path / "o"), *flags])
        assert e.value.code == 2
    assert not (tmp_path / "o").exists()
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "d2")]) == 0
    assert ((tmp_path / "d" / "report.json").read_bytes()
            == (tmp_path / "d2" / "report.json").read_bytes())


def test_transfer_misspelt_top_level_key_is_config_error(tmp_path, capsys):
    doc = dict(_TRANSFER)
    doc["serach"] = doc.pop("search")
    assert _exit_code(tmp_path, capsys, "transfer", doc) == 2


def test_opnorm_unknown_top_level_key_is_config_error(tmp_path, capsys):
    doc = {"n": 1, "family": "S", "a": {"entries": [[[0], [0], 1.0, 0.0]]},
           "exponents": [2, 2, 2, 2, 2, 2], "famliy": "S"}
    assert _exit_code(tmp_path, capsys, "opnorm", doc) == 2


# misspelt keys, out-of-range values and removed keys (the step schedule,
# the box margins, random_pool)
@pytest.mark.parametrize("search", [
    {"strats": 4}, {"starts": 0}, {"steps": -1}, {"torus_points": 0}, {"min_step": "nan"},
    {"shrink": 1.5}, {"initial_step": 0}, {"starts": "many"}, {"stability_bound": "inf"},
    {"random_pool": 6}, {"support_margin": 2}, {"mode_margin": 1},
], ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()))
def test_bad_search_block_is_config_error(tmp_path, capsys, search):
    doc = dict(_TRANSFER, search=search)
    assert _exit_code(tmp_path, capsys, "transfer", doc) == 2


def test_negative_search_seed_is_config_error(tmp_path, capsys):
    # the config seed seeds the search unless the search block sets its own
    doc = dict(_TRANSFER, seed=-1)
    assert _exit_code(tmp_path, capsys, "transfer", doc) == 2
    assert _exit_code(tmp_path, capsys, "transfer", dict(doc, search={"seed": 0})) == 0
    assert _exit_code(tmp_path, capsys, "transfer", dict(_TRANSFER, search={"seed": -1})) == 2


def test_readme_search_table_lists_the_search_params():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = readme.index("| key | default | allowed | meaning |") + 2
    rows = itertools.takewhile(lambda line: line.startswith("|"), readme[start:])
    assert [row.split("`")[1] for row in rows] == \
        [f.name for f in dataclasses.fields(SearchParams)]


def test_threads_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "selftest"])
    assert exc.value.code == 2


_SCALING = {"n": 1, "scaling": {"epsilons": [0.5, 0.25, 0.125], "amalgam_q": [2.0],
                                "wiener_p": [2.0]}}


def _with(doc, path, value):
    """A deep copy of ``doc`` with the key at ``path`` (a tuple) set to ``value``."""
    doc = json.loads(json.dumps(doc))
    sec = doc
    for key in path[:-1]:
        sec = sec.setdefault(key, {})
    sec[path[-1]] = value
    return doc


@pytest.mark.parametrize("command, doc", [
    ("scaling", _with(_SCALING, ("scaling", "verdict"),
                      [{"space": "amalgam", "exponents": [2, 2, 2, 2, 2, 0.5]}])),
    ("scaling", _with(_SCALING, ("scalnig",), {})),
    ("scaling", _with(_SCALING, ("scaling", "verdicts"),
                      [{"space": "amalgam", "exponents": [2, 2, 2, 2, 2, 1], "gap": 1}])),
    ("scaling", _with(_SCALING, ("window", "outr"), 0.7)),
    ("transfer", _with(_TRANSFER, ("window", "outr"), 0.7)),
    ("transfer", _with(_TRANSFER, ("grid", "S"), 32)),
    ("transfer", dict(_TRANSFER, a={"random": {"count": 4, "raduis": 1}})),
    ("transfer", dict(_TRANSFER, a_family={"members": 1, "cuont": 4})),
    ("synth", {"n": 1, "phi": "tensor-0.4", "a": {"entries": [[[0], [0], 1, 0]]},
               "cm": {"m": 8}}),
    ("decompose", {"n": 1, "phi": "tensor-0.4", "cm": {"M": 8}, "outt": "x"}),
], ids=["scaling-verdict", "scaling-top", "scaling-verdict-key", "scaling-window",
        "transfer-window", "transfer-grid", "transfer-a-random", "transfer-a-family",
        "synth-cm", "decompose-top"])
def test_unknown_key_in_any_block_is_config_error(tmp_path, capsys, command, doc):
    assert _exit_code(tmp_path, capsys, command, doc) == 2


@pytest.mark.parametrize("command, doc", [
    ("transfer", _with(_TRANSFER, ("search", "starts"), 2.9)),
    ("transfer", _with(_TRANSFER, ("grid", "L"), 8.7)),
    ("transfer", _with(_TRANSFER, ("n",), 1.5)),
    ("transfer", _with(_TRANSFER, ("seed",), 4.2)),
    ("transfer", dict(_TRANSFER, a={"random": {"count": 4.5}})),
    ("transfer", dict(_TRANSFER, a_family={"members": 1.5})),
    ("synth", {"n": 1, "phi": "tensor-0.4", "a": {"entries": [[[0], [0], 1, 0]]},
               "cm": {"M": 8.5}}),
    ("scaling", _with(_SCALING, ("scaling", "s"), 8.5)),
    ("transfer", _with(_TRANSFER, ("n",), "1")),
    ("transfer", _with(_TRANSFER, ("search", "starts"), "3")),
    ("transfer", _with(_TRANSFER, ("grid", "L"), "8")),
], ids=["search-starts", "grid-L", "n", "seed", "a-random-count", "a-family-members",
        "cm-M", "scaling-s", "n-string", "search-starts-string", "grid-L-string"])
def test_non_integral_integer_field_is_config_error(tmp_path, capsys, command, doc):
    assert _exit_code(tmp_path, capsys, command, doc) == 2


def test_integral_float_is_accepted_as_integer(tmp_path, capsys):
    doc = _with(_with(_TRANSFER, ("search", "starts"), 2.0), ("grid", "L"), 8.0)
    assert _exit_code(tmp_path, capsys, "transfer", doc) == 0


def test_readme_configs_pass_validation(tmp_path, capsys):
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [json.loads(b.split("```")[0]) for b in text.split("```json")[1:]]
    transfer = next(b for b in blocks if "a_family" in b)
    scaling = next(b for b in blocks if "scaling" in b)
    assert _exit_code(tmp_path, capsys, "scaling", scaling) == 0
    # the transfer example at one member and a short search: the same keys
    small = _with(_with(transfer, ("a_family", "members"), 1), ("search", "steps"), 2)
    assert _exit_code(tmp_path, capsys, "transfer", small) == 0


_SYNTH = {"n": 1, "phi": "tensor-0.4", "a": {"entries": [[[0], [0], 1.0, 0.0]]},
          "cm": {"M": 8}}


@pytest.mark.parametrize("command, doc", [
    ("scaling", _with(_SCALING, ("scaling", "epsilons"), ["x", 0.25, 0.125])),
    ("synth", _with(_SYNTH, ("a", "entries"), [[[0], [0], 1.0]])),
    ("synth", _with(_SYNTH, ("a", "entries"), [[[0], [0], "x", 0.0]])),
    ("synth", _with(_SYNTH, ("a", "entries"), [[[0, 0], [0], 1.0, 0.0]])),
    ("synth", _with(_SYNTH, ("a", "entries"), [[[0.5], [0], 1.0, 0.0]])),
    ("synth", _with(_SYNTH, ("cm", "K"), "nan")),
    ("synth", _with(_SYNTH, ("cm", "K"), float("nan"))),
    ("synth", _with(_SYNTH, ("cm", "K"), 1.0)),
    ("synth", _with(_SYNTH, ("cm", "K"), "4")),
    ("scaling", _with(_SCALING, ("scaling", "epsilons"), ["0.5", 0.25, 0.125])),
    ("transfer", _with(_TRANSFER, ("window", "outer"), "0.6")),
    ("transfer", _with(_TRANSFER, ("exponents",), ["2", 2, 2, 2, 2, 2])),
], ids=["epsilons-x", "entry-three-items", "entry-re-x", "entry-index-length",
        "entry-index-non-integral", "cm-K-nan-string", "cm-K-NaN", "cm-K-too-small",
        "cm-K-string", "epsilons-string", "window-outer-string", "exponent-string"])
def test_bad_float_field_or_entry_row_is_config_error(tmp_path, capsys, command, doc):
    assert _exit_code(tmp_path, capsys, command, doc) == 2


def _config_error(tmp_path, capsys, command, doc) -> str:
    """The one stderr line of a run that must end in exit 2."""
    code = main([command, "--config", _write(tmp_path, "cfg.json", doc),
                 "--out", str(tmp_path / "o")])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(lines) == 1 and lines[0].startswith("config error: "), lines
    return lines[0]


@pytest.mark.parametrize("command, family", [("transfer", None), ("opnorm", "S"),
                                             ("opnorm", "T_period"), ("opnorm", "T_aPhi")])
def test_all_zero_coefficients_are_one_config_error_and_no_report(tmp_path, capsys,
                                                                 command, family):
    # sup|a| = 0 leaves nothing to normalise the search by: refused, not a
    # ZeroDivisionError traceback (nor, for T_aPhi, a reported 0); an empty
    # a is refused alike
    for entries in ([[[0], [0], 0.0, 0.0]], []):
        doc = _with(_TRANSFER, ("a", "entries"), entries)
        if family is not None:  # only the keys the family reads
            unread = ("search",) if family == "T_aPhi" else ("grid", "phi", "space")
            doc = dict({k: v for k, v in doc.items() if k not in unread}, family=family)
        assert "sup|a| = 0" in _config_error(tmp_path, capsys, command, doc)
        assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("rows", [
    [[[0], [1], 1.0, 0.0], [[0], [1], 2.0, 0.0]],
    [[0, [1], 1.0, 0.0], [[0], 1, 2.0, 0.0]],  # 0 and [0] are one index
], ids=["same-rows", "bare-and-list-index"])
def test_repeated_entries_index_is_a_config_error_naming_it(tmp_path, capsys, rows):
    doc = _with(_SYNTH, ("a", "entries"), rows)
    assert "((0,), (1,))" in _config_error(tmp_path, capsys, "synth", doc)


def test_condition_b_failure_names_the_axis(tmp_path, capsys):
    # plateau-wide covers (-1, 1) on every axis: the certificate says where
    line = _config_error(tmp_path, capsys, "transfer", dict(_TRANSFER, phi="plateau-wide"))
    assert "condition (B)" in line and "axis" in line
