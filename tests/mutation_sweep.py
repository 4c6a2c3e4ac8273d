"""Mutation sweep over the exact comparisons of one package module.

    python tests/mutation_sweep.py graphs [--timeout 150]

Each mutant flips one comparison operator of ``src/loopcurrents/<module>.py``
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``) in a throwaway copy
of the repository, never in the checkout.  It runs the module's own test
file first, then the whole suite with ``-x``; a mutant is killed by the
first run that fails or outlasts the per-mutant timeout (a flipped loop
condition can loop forever).  The survivors are printed at the end, less
the known equivalent mutants of :data:`EQUIVALENT`, which are not run.
Each surviving mutant runs the whole suite, about 35 s, so a sweep is a
tool to run by hand, not a CI step.  The exit code is 1 if a mutant
survives, 2 if the unmutated copy fails its tests.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}

# Mutants no input can tell apart from the original, by (module, stripped
# source line, operator flipped).
EQUIVALENT = {
    ("rationals", "if best is None or v > best:", ">"): (
        "at v == best both keep the same running maximum"
    ),
    ("overview", "if a < b and not set(a) & set(b):", "<"): (
        "a == b is never a disjoint pair of nonempty sets"
    ),
    ("overview", "return {j for j in range(1, len(grid)) if ps[j - 1] <= ps[j]}", "<="): (
        "every registered p rises strictly on (0, 1), so no two grid values are equal"
    ),
    ("overview", "if witness.gap <= 0:", "<="): (
        "the up-set of a falling increasing event has gap at least value1 - value2 > 0"
    ),
    ("checkers", "if level[t] >= 0:", ">="): "t's BFS level is never 0",
    ("checkers", "if level[t] < 0:", "<"): "t's BFS level is never 0",
    ("checkers", "if self.witness.gap <= 0:", "<="): (
        "an internal-error guard that a correct flow never reaches"
    ),
    ("graphs", "if depth[root] >= 0:", ">="): (
        "depth 0 is set only on a vertex's own turn as a root, after this check"
    ),
    ("graphs", "if depth[u] < depth[v]:", "<"): (
        "at equal depths both ends climb, so either may go first"
    ),
    ("intervals", "if a._lo >= 0 and b._lo >= 0:", ">="): (
        "at a lower endpoint 0 the four products' min and max are the same two"
    ),
    ("intervals", "if b_lo < 0:  # a/b = (-a)/(-b)", "<"): (
        "a divisor with b_lo == 0 was refused just above"
    ),
    ("intervals", "lo_den = b_hi if a_lo >= 0 else b_lo", ">="): (
        "a numerator 0 has quotient 0 over either denominator"
    ),
    ("intervals", "hi_den = b_lo if a_hi >= 0 else b_hi", ">="): (
        "a numerator 0 has quotient 0 over either denominator"
    ),
    ("intervals", "if lo < 0 and n % 2 == 0:", "<"): (
        "at lo == 0 both branches give [0, hi^n]"
    ),
    ("intervals", "lo, hi = (0 if hi >= 0 else min(mags)), max(mags)", ">="): (
        "at hi == 0 min(mags) is 0 too"
    ),
    ("intervals", "if shift > 0:", ">"): "a shift by 0 changes nothing",
    ("intervals", "if d > 0:", ">"): "d == 0 returned just above",
    ("intervals", "return (num << s) // den if s >= 0 else num // (den << -s)", ">="): (
        "at s == 0 both branches divide num by den"
    ),
    ("intervals", "q, r = divmod(num << s, den) if s >= 0 else divmod(num, den << -s)", ">="): (
        "at s == 0 both branches divide num by den"
    ),
    ("intervals", "if v <= 0:", "<="): (
        "0^n is 0 (1 at n = 0) on both paths; the branch only keeps the exponent from doubling"
    ),
    ("intervals", "if isinstance(other, int) and other.bit_length() <= self.bits + 1:", "<="): (
        "at bits + 1 bits Interval.point scales k by 2^0 and rounds it once, as _result does"
    ),
    ("intervals", "return Fraction(m << exp) if exp >= 0 else Fraction(m, 1 << -exp)", ">="): (
        "at exp == 0 both branches give Fraction(m)"
    ),
}


def mutants(source: str) -> list[tuple[int, int, str]]:
    """Every comparison operator of the source as (line, column, operator)."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [(*t.start, t.string) for t in tokens if t.type == tokenize.OP and t.string in FLIPS]


def flipped(source: str, line: int, col: int, op: str) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    lines[line - 1] = text[:col] + FLIPS[op] + text[col + len(op) :]
    return "".join(lines)


def passes(copy: Path, target: str, timeout: float) -> bool | None:
    """Whether pytest passes ``target`` in the copy: None if it timed out."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", target]
    proc = subprocess.Popen(
        argv,
        cwd=copy,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # a timeout kills pytest and anything it started
    )
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def sweep(module: str, timeout: float) -> int:
    path = Path("src", "loopcurrents", f"{module}.py")
    source = (REPO / path).read_text(encoding="utf-8")
    lines = source.splitlines()
    own = Path("tests", f"test_{module}.py")
    targets = [str(own), "tests"] if (REPO / own).exists() else ["tests"]
    found = mutants(source)
    keys = {(module, lines[line - 1].strip(), op) for line, _, op in found}
    for key in EQUIVALENT.keys() - keys:
        if key[0] == module:
            print(f"stale equivalent mutant, not in the source: {key[1]!r} {key[2]}")
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as work:
        copy = Path(work, "repo")
        caches = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work")
        shutil.copytree(REPO, copy, ignore=shutil.ignore_patterns(*caches))
        if not all(passes(copy, target, timeout) for target in targets):
            print("the unmutated copy fails its tests; no mutant was run")
            return 2
        for line, col, op in found:
            text = lines[line - 1].strip()
            where = f"{path.name}:{line}:{col} {op} -> {FLIPS[op]}"
            reason = EQUIVALENT.get((module, text, op))
            if reason:
                print(f"{where}: equivalent ({reason})")
                continue
            (copy / path).write_text(flipped(source, line, col, op), encoding="utf-8")
            verdict = "SURVIVED"
            for target in targets:
                ok = passes(copy, target, timeout)
                if not ok:
                    verdict = f"killed by {target}" + (" (timeout)" if ok is None else "")
                    break
            print(f"{where}: {verdict}", flush=True)
            if verdict == "SURVIVED":
                survivors.append(f"{where}    {text}")
    print(f"\n{len(survivors)} of {len(found)} mutants of {path.name} survived")
    for survivor in survivors:
        print(f"  {survivor}")
    return 1 if survivors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module of src/loopcurrents, e.g. graphs")
    parser.add_argument("--timeout", type=float, default=150.0, help="seconds per pytest run")
    args = parser.parse_args()
    return sweep(args.module.removesuffix(".py"), args.timeout)


if __name__ == "__main__":
    sys.exit(main())
