"""The CLI contract: every config ends in a documented exit code.

Exit 0 pass, 2 config error (one ``config error:`` line on stderr),
3 exponent-hypothesis violation, 4 assertion failure; never a traceback.
The regression cases each ended in a traceback once; the fuzz mutates one
key of the README configs at a time.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from latticebump.cli import main

from test_cli import _with, _write

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
_BLOCKS = [json.loads(b.split("```")[0]) for b in _README.split("```json")[1:]]


# the README transfer example at test size: one member, one start, one sweep
_TRANSFER = next(b for b in _BLOCKS if "a_family" in b)
_TRANSFER = _with(_with(_with(_TRANSFER, ("a_family", "members"), 1),
                        ("search", "starts"), 1), ("search", "steps"), 1)
_SCALING = next(b for b in _BLOCKS if "scaling" in b)
# the transfer keys an opnorm run of the model families (S, T_period) reads,
# on one random a, with only the search keys both read; T_aPhi reads grid,
# phi and space in place of search (and window only in Wiener space)
_OPNORM = dict({k: v for k, v in _TRANSFER.items()
                if k not in ("a_family", "grid", "phi", "space", "window")},
               a={"random": {"radius": 1, "count": 9, "seed": 3}},
               search={k: _TRANSFER["search"][k] for k in ("starts", "steps")})
_OPNORM_T_APHI = dict({k: v for k, v in _OPNORM.items() if k != "search"}, family="T_aPhi",
                      **{k: _TRANSFER[k] for k in ("grid", "phi", "space")})
_SYNTH = {"n": 1, "grid": {"L": 8, "s": 32}, "phi": "tensor-0.4",
          "a": {"random": {"radius": 1, "count": 9, "seed": 3}}, "cm": {"M": 8}}
_DECOMPOSE = {"n": 1, "phi": "tensor-0.4", "cm": {"M": 16}}
# the inline profile equal to the tensor-0.4 fixture
_PHI = {"d": 2, "kind": "tensor-exp", "center": 0.0, "radius": 0.4, "amplitude": [1.0, 0.0]}


def _run(command, doc, extra=()):
    """(exit code, stderr) of one in-process CLI run; no exception may escape."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "o"), *extra])
        if code == 0:  # a finished run's report holds no NaN
            json.loads((Path(tmp) / "o" / "report.json").read_text(),
                       parse_constant=lambda c: pytest.fail(f"{c} in report.json") if c == "NaN"
                       else float(c))
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (code, err)
    if code == 2:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), err
    return code, err


_FAMILY = ("a_family",)
_PHI_INLINE = dict(_TRANSFER, phi=_PHI)


@pytest.mark.parametrize("command, doc", [
    ("transfer", dict(_TRANSFER, space="foo")),
    ("transfer", dict(_TRANSFER, space=5)),
    ("transfer", dict(_TRANSFER, space=None)),
    ("opnorm", dict(_OPNORM_T_APHI, space="foo")),
    ("transfer", _with(_TRANSFER, ("grid",), {"L": 8, "s": 1})),
    ("transfer", _with(_TRANSFER, ("grid",), {"L": 2, "s": 32})),
    ("transfer", dict({k: v for k, v in _TRANSFER.items() if k != "a_family"},
                      a={"entries": []})),
    ("opnorm", dict(_OPNORM, family="S", a={"entries": []})),
    ("transfer", _with(_TRANSFER, _FAMILY + ("count",), 0)),
    ("transfer", _with(_with(_TRANSFER, _FAMILY + ("count",), 100), _FAMILY + ("radius",), 1)),
    ("transfer", _with(_TRANSFER, _FAMILY + ("radius",), 3)),
    ("transfer", _with(_TRANSFER, _FAMILY + ("seed",), -1)),
    ("transfer", _with(_with(_TRANSFER, ("search", "seed"), -5), ("search", "starts"), 3)),
    ("transfer", _with(_TRANSFER, ("search", "torus_points"), 10**9)),
    ("transfer", _with(_PHI_INLINE, ("phi", "d"), 1)),
    ("transfer", _with(_PHI_INLINE, ("phi", "d"), "x")),
    ("transfer", _with(_PHI_INLINE, ("phi", "d"), 2.5)),
    ("transfer", _with(_PHI_INLINE, ("phi", "radius"), "nan")),
    ("transfer", _with(_PHI_INLINE, ("phi", "radius"), "inf")),
    ("transfer", _with(_PHI_INLINE, ("phi", "center"), "nan")),
    ("transfer", _with(_PHI_INLINE, ("phi", "kind"), "radial-exp")),
    ("transfer", _with(_PHI_INLINE, ("phi", "amplitude"), "x")),
    ("transfer", _with(_PHI_INLINE, ("phi", "amplitude"), 1)),
    ("transfer", _with(_PHI_INLINE, ("phi", "amplitude"), ["nan", 0])),
    ("transfer", _with(_PHI_INLINE, ("phi", "amplitude"), [0, 0])),
    ("scaling", _with(_SCALING, ("scaling", "amalgam_q"), 2)),
    ("scaling", _with(_SCALING, ("scaling", "verdicts"), 3)),
    ("scaling", _with(_SCALING, ("window", "outer"), 0.99)),
    ("decompose", _with(_DECOMPOSE, ("cm", "M"), 10**6)),
], ids=["space-foo", "space-5", "space-null", "opnorm-T_aPhi-space-foo", "grid-s1",
        "grid-L2", "a-entries-empty", "opnorm-S-a-entries-empty", "family-count-0",
        "family-count-100", "family-radius-3", "family-seed-neg", "search-seed-neg",
        "search-torus-points-1e9", "phi-d-1", "phi-d-x", "phi-d-2.5", "phi-radius-nan",
        "phi-radius-inf", "phi-center-nan", "phi-radial-exp-d2", "phi-amplitude-x",
        "phi-amplitude-1", "phi-amplitude-nan", "phi-amplitude-zero",
        "scaling-amalgam-q-number", "scaling-verdicts-number", "scaling-window-0.99",
        "decompose-cm-M-1e6"])
def test_bad_value_is_one_config_error_line(command, doc):
    assert _run(command, doc)[0] == 2


# values that used to run to a meaningless exit 0 or 4 (JSON true is no 1, an
# xi0 off the frequency box wrote NaN slopes, a torus coarser than the mode
# box a bound of 1e28), to a MemoryError or OverflowError, or to a message
# that did not name the problem (n = 0)
@pytest.mark.parametrize("command, doc", [
    ("transfer", _with(_with(_TRANSFER, _FAMILY + ("radius",), -1), _FAMILY + ("count",), 1)),
    ("opnorm", dict(_OPNORM, family="S", a={"random": {"radius": -1, "count": 1}})),
    ("transfer", _with(_TRANSFER, _FAMILY + ("members",), 0)),
    ("decompose", _with(_DECOMPOSE, ("cm", "M"), -2)),
    ("transfer", _with(_TRANSFER, ("search", "stability_bound"), 0.5)),
    ("transfer", _with(_TRANSFER, ("exponents",), [True, 2, 2, 2, 2, 2])),
    ("transfer", _with(_TRANSFER, _FAMILY + ("members",), True)),
    ("scaling", _with(_SCALING, ("scaling", "base_radius"), True)),
    ("transfer", _with(_PHI_INLINE, ("phi", "radius"), 1e10)),
    ("transfer", _with(_TRANSFER, _FAMILY + ("radius",), 10**30)),
    ("decompose", _with(_DECOMPOSE, ("cm", "K"), 1e10)),
    ("decompose", dict(_DECOMPOSE, n=0)),
    ("scaling", _with(_SCALING, ("scaling", "xi0"), 1e300)),
    ("scaling", _with(_SCALING, ("scaling", "xi0"), 1.875)),
    ("opnorm", dict(_OPNORM, family="T_period", a={"random": {"radius": 300, "count": 9}})),
], ids=["family-radius-neg", "opnorm-a-random-radius-neg", "family-members-0",
        "decompose-cm-M-neg", "search-stability-bound-0.5", "exponent-true",
        "family-members-true", "scaling-base-radius-true", "phi-radius-1e10",
        "family-radius-1e30", "decompose-cm-K-1e10", "decompose-n-0", "scaling-xi0-1e300",
        "scaling-xi0-product-outside", "opnorm-T_period-radius-300"])
def test_meaningless_value_is_config_error(command, doc):
    assert _run(command, doc)[0] == 2


def test_inline_phi_equal_to_the_fixture_runs():
    assert _run("transfer", _PHI_INLINE)[0] == 0


# with neither --out nor an "out" key each config command writes into
# <command>-out under the current directory
@pytest.mark.parametrize("command, doc", [("synth", _SYNTH), ("decompose", _DECOMPOSE),
                                          ("opnorm", _OPNORM), ("transfer", _TRANSFER),
                                          ("scaling", _SCALING)])
def test_run_frame_writes_report_and_meta_to_the_default_out(command, doc, tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(doc))
    assert main([command, "--config", "cfg.json"]) == 0
    out = tmp_path / f"{command}-out"
    assert json.loads((out / "report.json").read_text())["command"] == command
    assert (out / "meta.json").is_file()


# a non-string out once ended in a TypeError traceback, and "" wrote the
# report into the current directory
@pytest.mark.parametrize("out", [5, None, True, {}, ["a"], ""],
                         ids=["5", "null", "true", "object", "list", "empty"])
@pytest.mark.parametrize("command, doc", [("decompose", _DECOMPOSE), ("transfer", _TRANSFER)])
def test_out_that_is_not_a_nonempty_string_is_config_error(command, doc, out, tmp_path,
                                                           monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(dict(doc, out=out)))
    assert main([command, "--config", "cfg.json"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: out must be"), lines
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# --out "" was read as no --out: the run went to the config's out, or to
# <command>-out
@pytest.mark.parametrize("command, doc", [("decompose", _DECOMPOSE), ("transfer", _TRANSFER)])
@pytest.mark.parametrize("config_out", [None, "cfg-out"])
def test_empty_out_flag_is_config_error(command, doc, config_out, tmp_path, monkeypatch,
                                        capsys):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(doc if config_out is None
                                           else dict(doc, out=config_out)))
    assert main([command, "--config", "cfg.json", "--out", ""]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: --out must be"), lines
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# --grid "" was read as no --grid: the run used the config's grid
@pytest.mark.parametrize("command, doc", [("synth", _SYNTH), ("transfer", _TRANSFER),
                                          ("opnorm", _OPNORM_T_APHI)])
def test_empty_grid_flag_is_config_error(command, doc, tmp_path, capsys):
    code = main([command, "--config", _write(tmp_path, "cfg.json", doc),
                 "--out", str(tmp_path / "o"), "--grid", ""])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(lines) == 1 and lines[0].startswith("config error: --grid"), lines
    assert not (tmp_path / "o").exists()


# a --config that named a directory, or "" (the current directory), ended in
# an IsADirectoryError traceback
@pytest.mark.parametrize("config", ["", "dir"])
@pytest.mark.parametrize("command", ["synth", "transfer"])
def test_config_that_is_not_a_regular_file_is_config_error(command, config, tmp_path,
                                                           monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if config:
        (tmp_path / config).mkdir()
    assert main([command, "--config", config, "--out", "o"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: --config must be"), lines
    assert not (tmp_path / "o").exists()


# keys that no reader of the run uses were accepted and ignored: the model
# families of opnorm read no grid (nor --grid), phi, space, window or
# search.stability_bound, S no search.torus_points, T_aPhi reads no search
# and in amalgam space no window, a transfer with an a_family reads no a and
# in Wiener space (the S model) no search.torus_points, and a scaling run
# with no Wiener row or verdict reads no window
_MODEL_UNREAD = ("grid", "phi", "space", "window")
_SEARCH_UNREAD = [("S", "stability_bound", 77), ("T_period", "stability_bound", 77),
                  ("S", "torus_points", 999)]


@pytest.mark.parametrize("command, doc, key, extra", [
    *(("opnorm", dict(_OPNORM, family=family, **{key: _TRANSFER[key]}), key, ())
      for family in ("S", "T_period") for key in _MODEL_UNREAD),
    *(("opnorm", dict(_OPNORM, family=family), "--grid", ("--grid", "1000,3"))
      for family in ("S", "T_period")),
    *(("opnorm", _with(dict(_OPNORM, family=family), ("search", key), value),
       f"search.{key}", ()) for family, key, value in _SEARCH_UNREAD),
    ("opnorm", dict(_OPNORM_T_APHI, search=_TRANSFER["search"]), "search", ()),
    ("opnorm", dict(_OPNORM_T_APHI, window=_TRANSFER["window"]), "window", ()),
    ("transfer", dict(_TRANSFER, a={"entries": "garbage"}), "a", ()),
    ("transfer", _with(dict(_TRANSFER, space="wiener"), ("search", "torus_points"), 64),
     "search.torus_points", ()),
    ("scaling", dict(_with(_SCALING, ("scaling", "wiener_p"), []), window={"outer": 0.6}),
     "window", ()),
], ids=[f"{family}-{key}" for family in ("S", "T_period") for key in _MODEL_UNREAD]
    + ["S-grid-flag", "T_period-grid-flag"]
    + [f"{family}-search-{key}" for family, key, _v in _SEARCH_UNREAD]
    + ["T_aPhi-search", "T_aPhi-amalgam-window", "transfer-a-and-a_family",
       "transfer-wiener-search-torus_points", "scaling-no-wiener-window"])
def test_key_the_run_does_not_read_is_one_config_error_and_no_report(command, doc, key, extra,
                                                                     tmp_path, capsys):
    code = main([command, "--config", _write(tmp_path, "cfg.json", doc),
                 "--out", str(tmp_path / "o"), *extra])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(lines) == 1 and lines[0].startswith("config error: "), lines
    assert f"'{key}'" in lines[0]
    assert not (tmp_path / "o").exists()


# (command, base config, extra argv): the README transfer in both spaces
# (the amalgam one with the inline phi), opnorm for each family, synth,
# decompose and scaling
_BASES = [
    ("transfer", _PHI_INLINE, ()),
    ("transfer", dict(_TRANSFER, space="wiener"), ()),
    ("opnorm", dict(_OPNORM, family="S"), ()),
    ("opnorm", dict(_OPNORM, family="T_period"), ()),
    ("opnorm", _OPNORM_T_APHI, ()),
    ("synth", _SYNTH, ("--grid", "4,8")),
    ("decompose", _DECOMPOSE, ()),
    ("scaling", _SCALING, ()),
]
_VALUES = [None, True, "x", [], {}, [1, 2, 3], "nan", "inf", -1, 0, 1.5, 1e300]
# keys where a huge value is valid and only costs time
_SLOW_WHEN_HUGE = {("a_family", "members"), ("search", "starts"), ("search", "steps")}


def _paths(doc):
    """Every top-level key of ``doc`` and every key of its object blocks."""
    for key, value in doc.items():
        yield (key,)
        if isinstance(value, dict):
            yield from ((key, sub) for sub in value)


def _mutated(doc, path, how):
    doc = json.loads(json.dumps(doc))
    sec = doc
    for key in path[:-1]:
        sec = sec[key]
    value = sec.pop(path[-1])
    if how == "misspell":
        sec[path[-1] + "x"] = value
    elif how != "drop":
        sec[path[-1]] = how[1]
    return doc


@st.composite
def _mutations(draw):
    command, base, extra = draw(st.sampled_from(_BASES))
    path = draw(st.sampled_from(sorted(_paths(base))))
    values = [v for v in _VALUES if not (v == 1e300 and path in _SLOW_WHEN_HUGE)]
    how = draw(st.sampled_from(["drop", "misspell"] + [("set", v) for v in values]))
    return command, _mutated(base, path, how), extra


@seed(20261018)
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutations())
def test_mutated_readme_config_ends_in_a_documented_exit_code(case):
    command, doc, extra = case
    _run(command, doc, extra)
