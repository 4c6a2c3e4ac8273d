"""loopcurrents benchmark: run one workload for a while and report its metrics.

    python3 bench/run.py --workload table --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run from anywhere; the library is taken from ``src/`` of the checkout that
holds this file.  A run repeats passes over the workload's commands until
``--seconds`` have passed (at least one pass), checks every output, and
prints one JSON object as the last line of standard output:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json, medians over the
  run's passes;
* ``--trace 1``: the per-layer metrics, from passes run with the library's
  public functions wrapped by ``tracer.py``, alternated with untraced
  passes so that ``trace_overhead`` is measured in the same run.

``--workload all`` runs every workload in turn and prints a table of the
metrics, by name and with units, before the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = BENCH / "child.py"

SETUP_PROBES = 9  # interpreter-start-plus-import measurements per run
COMMAND_TIMEOUT_S = 170.0
MB = 1024.0  # ru_maxrss is in KiB on Linux

CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _load_library():
    """Import loopcurrents from this checkout's src/, or stop with an error."""
    if not (SRC / "loopcurrents" / "cli.py").is_file():
        sys.exit(f"bench: {SRC}/loopcurrents not found; run from a loopcurrents checkout")
    sys.path.insert(0, str(SRC))
    import loopcurrents

    if Path(loopcurrents.__file__).resolve().parent != (SRC / "loopcurrents").resolve():
        sys.exit(f"bench: imported loopcurrents from {loopcurrents.__file__}, not from {SRC}")
    return loopcurrents


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Proc:
    exit_code: int
    stdout: str
    wall_s: float
    cpu_s: float
    setup_s: float
    maxrss_mb: float
    trace: dict | None = None


def spawn(cli_argv: list[str], cwd: Path, tag: str, traced: bool = False, setup_only: bool = False) -> Proc:
    """Run child.py and wait for it, taking its rusage from wait4."""
    ready = cwd / f"{tag}.ready.json"
    trace = cwd / f"{tag}.trace.json"
    for path in (ready, trace):
        if path.exists():
            path.unlink()
    opts = [str(ready)] + (["--trace", str(trace)] if traced else []) + (["--setup-only"] if setup_only else [])
    cmd = [sys.executable, str(CHILD), *opts, "--", *cli_argv]
    env = dict(os.environ, **CHILD_ENV)
    out_path = cwd / f"{tag}.stdout"
    with open(out_path, "wb") as out, open(cwd / f"{tag}.stderr", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        ended = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    try:
        ready_at = json.loads(ready.read_text(encoding="utf-8"))["ready"]
    except (OSError, ValueError, KeyError):
        ready_at = ended
    return Proc(
        exit_code=code,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        wall_s=ended - started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        setup_s=ready_at - started,
        maxrss_mb=usage.ru_maxrss / MB,
        trace=json.loads(trace.read_text(encoding="utf-8")) if traced and trace.exists() else None,
    )


# ---------------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    wall_s: float
    procs: list[Proc]
    attempted: int
    failures: list[str]
    trace: dict | None = None

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)


def run_pass(workload, seed: int, index: int, work: Path, traced: bool) -> Pass:
    commands = workload.commands(seed, index, work)
    for cmd in commands:
        for stale in work.glob(cmd.output + "*"):
            stale.unlink()
    started = time.monotonic()
    procs = [spawn(cmd.argv, work, f"cmd{i}", traced=traced) for i, cmd in enumerate(commands)]
    wall = time.monotonic() - started

    attempted, failures = 0, []
    for cmd, proc in zip(commands, procs):
        n, fails = workload.check(cmd, proc, work)
        attempted += n
        failures += fails
    trace = merge_traces([p.trace for p in procs]) if traced else None
    return Pass(wall, procs, attempted, failures, trace)


def merge_traces(traces: list[dict | None]) -> dict:
    """Sum spans and counters over a pass's processes; keep the largest maxima."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    maxima: dict[str, int] = {}
    for t in traces:
        if t is None:
            continue
        for name, s in t["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for name, v in t["counters"].items():
            counters[name] = counters.get(name, 0) + v
        for name, v in t["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), v)
    return {"spans": spans, "counters": counters, "maxima": maxima}


def layer_value(trace: dict, name: str) -> float:
    """A per-layer metric from a merged trace: `<module>.<function>.<stat>`
    for span stats and `.calls` of count-only functions, else a counter or
    maximum by its own name.  Absent means the layer did no work: 0."""
    if name in trace["maxima"]:
        return trace["maxima"][name]
    if name in trace["counters"]:
        return trace["counters"][name]
    span, _, stat = name.rpartition(".")
    return trace["spans"].get(span, {}).get(stat, 0)


# ---------------------------------------------------------------------------
# Runs


@dataclass
class Run:
    passes: list[Pass] = field(default_factory=list)
    setup_samples: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failures(self) -> list[str]:
        return [f for p in self.passes for f in p.failures]

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


def measure_setup(work: Path, run: Run) -> None:
    for _ in range(SETUP_PROBES):
        run.setup_samples.append(spawn([], work, "setup", setup_only=True).setup_s)


def end_to_end(run: Run) -> dict[str, float]:
    procs = [p for ps in run.passes for p in ps.procs]
    per_pass = len(run.passes[0].procs)
    setups = run.setup_samples + [p.setup_s for p in procs]
    return {
        "wall_s": statistics.median(p.wall_s for p in run.passes),
        "cpu_s": statistics.median(p.cpu_s for p in run.passes),
        "setup_s": statistics.median(setups) * per_pass,
        "peak_rss_mb": max(p.maxrss_mb for p in procs),
    }


def per_layer(run: Run, names: list[str]) -> dict[str, float]:
    traced = [p for p in run.passes if p.trace is not None]
    plain = [p for p in run.passes if p.trace is None]
    values = {
        "trace_overhead": statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in plain),
        "fail_ratio": run.failed / run.attempted,
    }
    for name in names:
        if name not in values:
            # median_low keeps a measured value, so counts stay whole numbers
            values[name] = statistics.median_low(layer_value(p.trace, name) for p in traced)
    return values


def run_workload(workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run()
    spawn([], work, "warmup", setup_only=True)  # warm the bytecode and file caches
    if not trace:
        measure_setup(work, run)
    # Only the passes count towards --seconds; checking them does not.
    while True:
        traced = trace and len(run.passes) % 2 == 1
        run.passes.append(run_pass(workload, seed, len(run.passes), work, traced))
        done = len(run.passes) >= (2 if trace else 1)
        if done and sum(p.wall_s for p in run.passes) >= seconds:
            break
    key = "per_layer" if trace else "end_to_end"
    values = per_layer(run, [m["name"] for m in spec[key]]) if trace else end_to_end(run)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}
    for line in run.failures[:20]:
        print(f"bench {workload.name}: FAILED {line}", file=sys.stderr)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "pass_wall_s": [p.wall_s for p in run.passes],
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_library()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    # A stopped benchmark stops its children: SIGTERM becomes SystemExit,
    # which unwinds through spawn() and kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    header = dict(machine(), seed=args.seed, seconds=args.seconds, trace=args.trace)
    selected = names if args.workload == "all" else [args.workload]
    results = {}
    for name in selected:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps(dict(header, workload=name, pass_wall_s=results[name].pop("pass_wall_s"))))

    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:8s} {metric:48s} {m['value']:>14.6g} {m['unit']}")
        if "fail_ratio" not in res["metrics"]:
            ratio = res["failed"] / res["attempted"]
            print(f"{name:8s} {'fail_ratio':48s} {ratio:>14.6g} ratio ({res['failed']}/{res['attempted']})")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
