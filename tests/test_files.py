from __future__ import annotations

import os

import pytest

from helpers import interrupt_writes, temp_files
from sqgen import files


def test_writes_the_formats_every_artifact_shares(tmp_path):
    files.write_json(str(tmp_path / "a.json"), {"b": 1, "a": [1, 2]})
    files.write_jsonl(str(tmp_path / "a.jsonl"), [{"b": 1, "a": "x"}, {"c": None}])
    files.write_csv(str(tmp_path / "a.csv"), ["id", "v"], [["x,1", 0.5], ["y", 2]])
    assert (tmp_path / "a.json").read_bytes() == b'{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    assert (tmp_path / "a.jsonl").read_bytes() == b'{"a": "x", "b": 1}\n{"c": null}\n'
    assert (tmp_path / "a.csv").read_bytes() == b'id,v\n"x,1",0.5\ny,2\n'
    assert temp_files(tmp_path) == []


def test_new_file_mode_follows_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        files.write_json(str(tmp_path / "a.json"), {})
    finally:
        os.umask(old)
    assert (tmp_path / "a.json").stat().st_mode & 0o777 == 0o640


def test_failed_write_leaves_target_and_neighbours_alone(tmp_path):
    target = tmp_path / "out.jsonl"
    neighbours = [tmp_path / "out.jsonl.tmp", tmp_path / ".out.jsonl.000000000000.tmp"]
    for path in [target, *neighbours]:
        path.write_text(f"kept {path.name}\n", encoding="utf-8")

    def rows():
        yield {"id": 1}
        raise ValueError("bad row")

    with pytest.raises(ValueError, match="bad row"):
        files.write_jsonl(str(target), rows())
    for path in [target, *neighbours]:
        assert path.read_text(encoding="utf-8") == f"kept {path.name}\n"
    assert temp_files(tmp_path) == [neighbours[1]]

    files.write_jsonl(str(target), [{"id": 2}])
    assert target.read_text(encoding="utf-8") == '{"id": 2}\n'
    assert neighbours[0].read_text(encoding="utf-8") == "kept out.jsonl.tmp\n"


def test_unwritable_target_is_named_in_the_error(tmp_path):
    path = str(tmp_path / "missing" / "a.json")
    with pytest.raises(FileNotFoundError) as info:
        files.write_json(path, {})
    assert info.value.filename == path


def test_interrupted_binary_write_keeps_the_old_bytes(tmp_path, monkeypatch):
    target = tmp_path / "blob"
    target.write_bytes(b"old")
    interrupt_writes(monkeypatch, writes=1)
    with pytest.raises(KeyboardInterrupt):
        with files.replacing(str(target), binary=True) as f:
            f.write(b"new")
            f.write(b"more")
    assert target.read_bytes() == b"old"
    assert temp_files(tmp_path) == []
