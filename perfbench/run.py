"""Benchmark of the sqgen pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload {train,generate,text,all} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the program under test is `src/sqgen` of the checkout that
holds this file. The seed fixes every input byte; the program sees only the
generated files.

--trace 0 measures what a user sees. Every command runs as its own
`python3 -m sqgen.cli` process. Each round times the workload's commands on
empty input (set-up), then one pass of its pipeline; rounds repeat until S
seconds have gone by, and each metric is the median over the rounds. Every
command's outputs are checked and hashed, and each pass must reproduce the
first pass's hashes.

--trace 1 runs passes in this process through `sqgen.cli.main(argv)`: one to
warm up, one with no tracing, then one with every layer wrapped (see tracer.py), and
reports the per-layer metrics and the tracing overhead. It does a fixed
amount of work, so its counts repeat exactly for a seed.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Lines before it are the human-readable report and the run record. The run
record, the output digests and (traced) the spans are also written under
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

MIN_ROUNDS = 3
DEADLINE_S = 170.0  # after a workload's start, commands still running are killed
WORKLOADS = ("train", "generate", "text")
# One BLAS thread: a second OpenBLAS thread spins on the other core and made
# every command slower (beam 5.0 s against 4.3 s on 2 cores), not faster.
BLAS_THREADS = "1"

# What one item of items_per_s is, per workload.
ITEMS = {"train": "target token (question + EOS) in one epoch",
         "generate": "question decoded in one mode",
         "text": "input record (nq record, candidate or news record)"}


@dataclass
class Tally:
    """Operations attempted and failed: one operation is one command run,
    and it fails on a non-zero exit or on any failed check of its outputs."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)


@dataclass
class Result:
    stage: str
    wall: float
    items: int
    digest: str


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Runs commands, checks them, and counts what failed."""

    def __init__(self, workload: str, env: dict[str, str], log: Path, started: float):
        self.workload = workload
        self.env = env
        self.log = log
        self.deadline = started + DEADLINE_S
        self.tally = Tally()
        self.peak_rss_mb = 0.0

    def subprocess(self, cmd) -> tuple[int, float]:
        timeout = max(1.0, self.deadline - time.monotonic())
        argv = [sys.executable, str(LAUNCH), str(self.log), f"{timeout:.1f}", "--",
                sys.executable, "-m", "sqgen.cli"] + cmd.argv
        out = subprocess.run(argv, env=self.env, cwd=self.log.parent, capture_output=True, text=True)
        try:
            result = json.loads(out.stdout)
        except json.JSONDecodeError:
            return (out.returncode or -1), 0.0
        self.peak_rss_mb = max(self.peak_rss_mb, result["rss_mb"])
        return result["rc"], result["wall"]

    def in_process(self, cmd, tracer=None) -> tuple[int, float]:
        from sqgen import cli

        if tracer is not None:
            tracer.item = cmd.stage
            idx = tracer.enter(f"cli.{cmd.cli}")
        t0 = time.perf_counter()
        try:
            rc = cli.main(cmd.argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.leave(idx)
        return rc, wall

    def attempt(self, cmd, run) -> Result | None:
        from workloads import CheckFailed

        self.tally.attempted += 1
        rc, wall = run(cmd)
        if rc != 0:
            self.tally.fail(f"{self.workload}/{cmd.stage}: exit code {rc}")
            return None
        try:
            items = cmd.check()
            return Result(cmd.stage, wall, items, digest(cmd.outputs))
        except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            self.tally.fail(f"{self.workload}/{cmd.stage}: {type(exc).__name__}: {exc}")
            return None

    def run_pass(self, commands, run) -> list[Result] | None:
        results = []
        for cmd in commands:
            r = self.attempt(cmd, run)
            if r is None:
                return None
            results.append(r)
        return results

    def same_outputs(self, first: list[Result], other: list[Result], what: str) -> None:
        for a, b in zip(first, other):
            if a.digest != b.digest:
                self.tally.fail(f"{self.workload}/{a.stage}: outputs differ {what}")


def stage_throughputs(passes: list[list[Result]]) -> dict[str, float]:
    """Median over passes of each command's items per second of wall."""
    from workloads import STAGES

    out = {}
    for i, r in enumerate(passes[0]):
        out[STAGES[r.stage][0]] = statistics.median(p[i].items / p[i].wall for p in passes)
    return out


def measure(workload: str, runner: Runner, plan, seconds: float) -> dict[str, float]:
    """Rounds of (set-up commands, then one pipeline pass) until `seconds`
    have gone by, at least MIN_ROUNDS of them; medians over the rounds.
    Spreading the set-up samples over the run keeps a burst of load on the
    machine from landing on all of them."""
    run = runner.subprocess
    if runner.run_pass(plan.prereq, run) is None:
        return {}
    setup_walls: list[float] = []
    passes: list[list[Result]] = []
    t0 = time.perf_counter()
    while len(passes) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        setup = runner.run_pass(plan.setup, run)
        results = runner.run_pass(plan.pipeline, run) if setup else None
        if results is None:
            return {}
        setup_walls.append(sum(r.wall for r in setup))
        if passes:
            runner.same_outputs(passes[0], results, "between passes")
        passes.append(results)
        print(f"{workload}: round {len(passes)}: setup {setup_walls[-1]:.3f} s, "
              + ", ".join(f"{r.stage} {r.items} in {r.wall:.3f} s" for r in results))

    metrics = {
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": runner.peak_rss_mb,
        "items_per_s": statistics.median(plan.items / sum(r.wall for r in p) for p in passes),
    }
    metrics.update(stage_throughputs(passes))
    print(f"{workload}: {len(passes)} rounds; digests "
          + json.dumps({r.stage: r.digest for r in passes[0]}))
    return metrics


def trace(workload: str, runner: Runner, plan, out_stem: Path) -> dict[str, float]:
    from tracer import Tracer, layer_metrics

    if runner.run_pass(plan.prereq, runner.subprocess) is None:
        return {}
    # The first pass in a process pays for growing the heap; time the second.
    warm = runner.run_pass(plan.pipeline, runner.in_process)
    plain = runner.run_pass(plan.pipeline, runner.in_process) if warm else None
    if plain is None:
        return {}
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run_pass(plan.pipeline, lambda cmd: runner.in_process(cmd, tracer))
    finally:
        tracer.restore()
    tracer.write(out_stem.with_suffix(".spans.jsonl"), workload)
    if traced is None:
        return {}
    runner.same_outputs(plain, traced, "with tracing on")

    metrics = layer_metrics(tracer.spans, tracer.counts)
    metrics.update({f"stage.{k}": v for k, v in stage_throughputs([plain]).items()})
    metrics["trace_overhead_share"] = sum(r.wall for r in traced) / sum(r.wall for r in plain) - 1
    print(f"{workload}: {len(tracer.spans)} spans; digests "
          + json.dumps({r.stage: r.digest for r in traced}))
    return metrics


def run_record(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    rev = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        rev = out.stdout.strip() or rev
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {"seed": seed, "git_rev": rev, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "src_lines": src_lines}


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 record: dict) -> tuple[Tally, dict[str, float]]:
    from workloads import PLANS

    started = time.monotonic()
    work = WORK / f"{workload}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    out_stem = OUT / f"{workload}-seed{seed}-trace{int(traced)}"
    runner = Runner(workload, dict(os.environ), work / "commands.log", started)
    try:
        plan = PLANS[workload](work, seed, traced)
        if traced:
            metrics = trace(workload, runner, plan, out_stem)
        else:
            metrics = measure(workload, runner, plan, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = runner.tally
    out_stem.with_suffix(".json").write_text(json.dumps(
        {"workload": workload, "trace": traced, "record": record, "metrics": metrics,
         "attempted": tally.attempted, "failures": tally.failures}, indent=1) + "\n")
    return tally, metrics


def declared_units(traced: bool) -> dict[str, str]:
    """The metrics BENCHMARK.json declares for this kind of run, with units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def report(workload: str, tally: Tally, metrics: dict[str, float], units: dict[str, str]) -> None:
    """Print every metric of the run by name and unit, failed_share first."""
    from workloads import STAGES

    units = {**{n: u for n, u in STAGES.values()}, **units}
    share = len(tally.failures) / tally.attempted if tally.attempted else 1.0
    print(f"{workload:9s} {'failed_share':36s} {share:12.4g} ratio "
          f"({len(tally.failures)}/{tally.attempted} operations)")
    for name, value in metrics.items():
        unit = units.get(name, "")
        if name == "items_per_s":
            unit += f" (1 item = 1 {ITEMS[workload]})"
        print(f"{workload:9s} {name:36s} {value:12.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    if not (SRC / "sqgen" / "cli.py").is_file():
        print(f"error: no sqgen sources at {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    units = declared_units(traced)

    record = run_record(args.seed)
    print("run record: " + json.dumps(record, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failed, metrics = 0, 0, {}
    for w in names:
        tally, m = run_workload(w, args.seed, args.seconds, traced, record)
        report(w, tally, m, units)
        attempted += tally.attempted
        failed += len(tally.failures)
        prefix = f"{w}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": m.get(k, 0.0), "unit": u} for k, u in units.items()})

    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
