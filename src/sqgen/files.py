"""How every artifact reaches disk: replaced whole, or not at all.

A write fills a new file in the target's directory, where a rename is
atomic, and `os.replace`s the target with it after the last byte. If the
write raises (KeyboardInterrupt too) the new file is removed and the target
is left as it was. The new file has a random name and is created
exclusively, so no existing file is ever opened and a file left by a killed
process never blocks a later write. No fsync: this rules out torn files,
not loss on power failure. Text is UTF-8 with bare newlines; JSON is
indented and key-sorted, JSONL one key-sorted object a line, and a NaN or
an infinity, which JSON cannot spell, fails the write.

One reader and one writer: `read_lines` reads every text input a line at a
time, and `replacing` writes every artifact. The vocabulary, read whole on
every load, is the one exception: `textproc.load_vocab` decodes its bytes
at once, and counts the line feeds before a byte that is not UTF-8 to name
its line. `line_error` is the one place that names `path:line` for an input
line that fails. The model's `ConfigError` lives in `numerics`.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from typing import IO, Iterable, Iterator


@contextlib.contextmanager
def replacing(path: str, binary: bool = False) -> Iterator[IO]:
    """A new file open for writing that replaces `path` when the block
    exits normally and is deleted when it raises."""
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        f = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:  # name the target the caller asked for
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def line_error(path: str, line: int, exc: Exception) -> ValueError:
    """The error for a malformed input line, naming the file and the line."""
    reason = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return ValueError(f"{path}:{line}: {reason}")


def read_lines(path: str) -> Iterator[str]:
    """Each line of a UTF-8 file, its line feed kept, one at a time. Lines
    split at line feeds only; a line that is not UTF-8 raises `line_error`."""
    with open(path, "rb") as f:
        for n, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise line_error(path, n, exc) from None
            yield line


def write_json(path: str, obj) -> None:
    with replacing(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def write_jsonl(path: str, rows: Iterable[dict]) -> None:
    with replacing(path) as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True, allow_nan=False) + "\n")


def write_csv(path: str, header: list[str], rows: Iterable[Iterable]) -> None:
    with replacing(path) as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)
