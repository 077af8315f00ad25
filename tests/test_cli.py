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
               search={"starts": 2, "steps": 2, "torus_points": 16})
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
], ids=["search-starts", "grid-L", "n", "seed", "a-random-count", "a-family-members",
        "cm-M", "scaling-s"])
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
], ids=["epsilons-x", "entry-three-items", "entry-re-x", "entry-index-length",
        "entry-index-non-integral", "cm-K-nan-string", "cm-K-NaN", "cm-K-too-small"])
def test_bad_float_field_or_entry_row_is_config_error(tmp_path, capsys, command, doc):
    assert _exit_code(tmp_path, capsys, command, doc) == 2
