"""``tools/digest.py --against``: every differing or one-sided file is named
and makes the exit status 1.  The configs are never run here: ``run_all`` is
replaced by a writer of a few small files."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "digest.py"
_SPEC = importlib.util.spec_from_file_location("digest", _PATH)
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def _tree(root: Path, files: dict) -> Path:
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


_BASE = {"run/report.json": b'{"v": 1.5, "w": "a"}', "run/out.bin": b"\x00\x01",
         "run/meta.json": b'{"runtime_seconds": 1.0}', "other/rows.csv": b"k,v\n1,2\n"}


def test_identical_trees_compare_clean_whatever_their_meta(tmp_path):
    out = _tree(tmp_path / "out", _BASE)
    against = _tree(tmp_path / "against",
                    dict(_BASE, **{"run/meta.json": b'{"runtime_seconds": 9.0}'}))
    assert digest.compare(out, against) == []


def test_every_differing_or_one_sided_file_is_one_line(tmp_path):
    out = _tree(tmp_path / "out", dict(_BASE, **{
        "run/report.json": b'{"v": 1.0, "w": "a"}', "run/out.bin": b"\x00\x02",
        "run/extra.csv": b"1\n"}))
    against = _tree(tmp_path / "against", dict(_BASE, **{"run/gone.bin": b""}))
    assert digest.compare(out, against) == [
        "run extra.csv only in out",
        "run gone.bin only in against",
        "run out.bin differs",
        "run report.json max_rel 3.333e-01 at v",
    ]


@pytest.mark.parametrize("changed, code", [({}, 0), ({"run/out.bin": b"\x07"}, 1),
                                           ({"new/x.json": b"{}"}, 1)],
                         ids=["identical", "differs", "one-sided"])
def test_main_exit_status_is_1_when_any_file_differs(tmp_path, monkeypatch, capsys,
                                                     changed, code):
    def run_all(out):  # writes the files; no config fails
        _tree(out, dict(_BASE, **changed))
        return []

    against = _tree(tmp_path / "against", _BASE)
    monkeypatch.setattr(digest, "run_all", run_all)
    assert digest.main([str(tmp_path / "out"), "--against", str(against)]) == code
    printed = capsys.readouterr().out.splitlines()
    assert printed[printed.index(f"# against {against}") + 1:] == \
        digest.compare(tmp_path / "out", against)
