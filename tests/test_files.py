from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import interrupt_writes, temp_files
from sqgen import files

# Lines holding what a splitter might take for a line end, or not: a carriage
# return, a space, the word mark and a two-byte letter; empty lines too.
_lines = st.lists(st.text(st.sampled_from(["a", "\r", " ", "\u2581", "\u00e9"]), max_size=6),
                  max_size=8)


def test_writes_the_formats_every_artifact_shares(tmp_path):
    files.write_json(str(tmp_path / "a.json"), {"b": 1, "a": [1, 2]})
    files.write_jsonl(str(tmp_path / "a.jsonl"), [{"b": 1, "a": "x"}, {"c": None}])
    files.write_csv(str(tmp_path / "a.csv"), ["id", "v"], [["x,1", 0.5], ["y", 2]])
    assert (tmp_path / "a.json").read_bytes() == b'{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    assert (tmp_path / "a.jsonl").read_bytes() == b'{"a": "x", "b": 1}\n{"c": null}\n'
    assert (tmp_path / "a.csv").read_bytes() == b'id,v\n"x,1",0.5\ny,2\n'
    assert temp_files(tmp_path) == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_value_json_cannot_spell_fails_the_write(tmp_path, value):
    for name, write, obj in (("a.json", files.write_json, {"x": [1.0, value]}),
                             ("a.jsonl", files.write_jsonl, [{"x": 1.0}, {"x": value}])):
        (tmp_path / name).write_text("kept\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not JSON compliant"):
            write(str(tmp_path / name), obj)
        assert (tmp_path / name).read_text(encoding="utf-8") == "kept\n"
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


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_lines, final_newline=st.booleans())
def test_read_lines_joins_back_to_the_file(tmp_path, lines, final_newline):
    text = "\n".join(lines) + ("\n" if final_newline else "")
    path = tmp_path / "in.txt"
    path.write_bytes(text.encode("utf-8"))
    got = list(files.read_lines(str(path)))
    assert "".join(got) == text
    assert all(line.endswith("\n") for line in got[:-1])
    assert all("\n" not in line[:-1] for line in got)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_lines.filter(bool), data=st.data())
def test_read_lines_names_the_line_that_is_not_utf8(tmp_path, lines, data):
    raw = [line.encode("utf-8") for line in lines]
    k = data.draw(st.integers(1, len(raw)), label="k")
    at = data.draw(st.integers(0, len(raw[k - 1])), label="at")
    raw[k - 1] = raw[k - 1][:at] + b"\xff" + raw[k - 1][at:]
    path = tmp_path / "in.txt"
    path.write_bytes(b"\n".join(raw) + b"\n")
    read = []
    with pytest.raises(ValueError) as err:
        for line in files.read_lines(str(path)):
            read.append(line)
    assert str(err.value).startswith(f"{path}:{k}: ")
    assert read == [line + "\n" for line in lines[: k - 1]]
