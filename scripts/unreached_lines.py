"""List the lines of src/sqgen that the tests/ suite never runs.

Runs pytest over tests/ in this process with a `sys.settrace` line counter,
then prints `file:line: source` for each executable line of src/sqgen that
no test ran, and a count. Needs only the standard library and the test
extra (no coverage package). Usage, from the repository root:

    python3 scripts/unreached_lines.py [pytest args...]

Extra arguments go to pytest in place of the default `-q -p no:cacheprovider
tests`. Tracing roughly doubles the suite's wall time.

After the default full run the script is a gate: it exits 1 if a line that
no test ran is not in `KNOWN`, which names each line that is expected to go
unreached (by file and stripped source text) and why. A run with extra
arguments only lists; a failing suite exits with pytest's status.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sqgen")

_SUBPROCESS = "runs only in the CLI tests' subprocesses, which are not traced"
# (file in src/sqgen, stripped source line) -> why no traced test runs it.
KNOWN = {
    ("cli.py", "code = main()"): "cli.run() " + _SUBPROCESS,
    ("cli.py", "gc.freeze()"): "cli.run() " + _SUBPROCESS,
    ("cli.py", "sys.exit(code)"): "cli.run() " + _SUBPROCESS,
    ("cli.py", "run()"): "the __main__ call " + _SUBPROCESS,
    ("__init__.py", "return sorted(set(globals()) | set(__all__))"):
        "sqgen.__dir__ is tested in a fresh interpreter, by "
        "test_dir_lists_public_names_before_any_is_loaded",
    ("qaeval.py", "import numpy as np"): "a TYPE_CHECKING import, for annotations only",
}


def executable_lines(path: str) -> set[int]:
    """The line numbers of `path` that its compiled bytecode can run."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        c = todo.pop()
        lines.update(line for _, _, line in c.co_lines() if line)  # None or 0: no line
        todo.extend(k for k in c.co_consts if hasattr(k, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest  # imported before tracing starts, so the trace stays on sqgen

    sys.path.insert(0, os.path.dirname(PACKAGE))
    ran: set[tuple[str, int]] = set()
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.abspath(name).startswith(PACKAGE + os.sep)
        return local if ours[name] else None

    sys.settrace(call)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
    ran = {(os.path.abspath(name), n) for name, n in ran}

    total = missed = unknown = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as f:
            source = f.read().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for n in sorted(lines):
            if (path, n) not in ran:
                missed += 1
                text = source[n - 1].strip()
                reason = KNOWN.get((name, text))
                unknown += reason is None
                print(f"{os.path.relpath(path, ROOT)}:{n}: {text}"
                      f"  [{'NOT KNOWN' if reason is None else 'known: ' + reason}]")
    print(f"{missed} of {total} executable lines in src/sqgen never ran, "
          f"{unknown} of them not known (pytest exit status {int(status)}).")
    if status or argv:
        return int(status)
    return 1 if unknown else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
