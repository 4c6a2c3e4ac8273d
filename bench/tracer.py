"""Per-layer tracing of loopcurrents from outside the library.

The library is not edited.  :func:`install` wraps the public functions of
every ``loopcurrents`` module and rebinds each module attribute (and each
module-level dict value) that refers to the same function object, so call
sites that did ``from .measures import union`` are caught too.

Spans nest on a single stack: a span's self time is its duration minus the
time covered by its direct children.  Spans are aggregated as they close,
per function and per (parent, child) edge, so memory stays flat however many
calls a run makes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable

# Called about 10^6 times per `verify` run: a wrapper would cost more than
# the work it measures, so these are left alone.
NOT_WRAPPED = frozenset({"graphs.is_connected", "graphs.edges_of_mask"})

# Functions that return lazy iterators: timing the call would time only the
# iterator's creation, so they are counted, not timed.
COUNT_ONLY = frozenset({"graphs.even_subgraphs", "graphs.span_masks", "sampler.loop_chain"})

DEFAULT_ENCLOSURE_BITS = 128


class Tracer:
    """Nested spans with self time, plus named counters and maxima."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._depth: dict[str, int] = {}
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [calls, total_s]
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, start, covered = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else ""
        if self._stack:
            self._stack[-1][2] += duration
        self._depth[name] -= 1
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[2] += duration - covered
        if self._depth[name] == 0:  # a recursive call's time is already in its caller's
            stat[1] += duration
        edge = self.edges.setdefault((parent, name), [0, 0.0])
        edge[0] += 1
        edge[1] += duration

    def exclude(self, seconds: float) -> None:
        """Keep time the tracer itself spent out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][2] += seconds

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def maximum(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def to_json_dict(self) -> dict:
        return {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in self.stats.items()},
            "edges": [[p, c, n, t] for (p, c), (n, t) in self.edges.items()],
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


# ---------------------------------------------------------------------------
# Size hooks: run after a span closes, their own time excluded from the parent.


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _pairs_hook(first: str, second: str):
    def hook(tracer, name, args, kwargs, result):
        a = _arg(args, kwargs, 0, first)
        b = _arg(args, kwargs, 1, second)
        tracer.count(name + ".pairs", len(a.weights) * len(b.weights))

    return hook


def _dist_size_hook(tracer, name, args, kwargs, result):
    weights = getattr(result, "weights", None)
    if not isinstance(weights, dict):
        return
    tracer.maximum("measures.support_max", len(weights))
    bits = result.z.numerator.bit_length(), result.z.denominator.bit_length()
    widest = max(bits)
    for w in weights.values():
        widest = max(widest, w.numerator.bit_length(), w.denominator.bit_length())
    tracer.maximum("measures.weight_bits_max", widest)


def _enclosure_hook(tracer, name, args, kwargs, result):
    bits = _arg(args, kwargs, 3, "bits", DEFAULT_ENCLOSURE_BITS)
    tracer.maximum("intervals.bits_max", bits)
    if bits > DEFAULT_ENCLOSURE_BITS:
        tracer.count("intervals.escalations")


HOOKS = {
    "checkers.stochastic_domination": _pairs_hook("d_lo", "d_hi"),
    "measures.union": _pairs_hook("d1", "d2"),
    "theta.single_current_conn_interval": _enclosure_hook,
}


def span_wrapper(tracer: Tracer, name: str, fn: Callable, hook=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            started = tracer.clock()
            hook(tracer, name, args, kwargs, result)
            tracer.exclude(tracer.clock() - started)
        return result

    return wrapper


def count_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    key = name + ".calls"
    counters = tracer.counters
    counters.setdefault(key, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer, package) -> None:
    """Wrap the public functions of every module of ``package``, and count
    calls of ``events.Event.holds``, a method called per configuration."""
    modules = {
        name.rsplit(".", 1)[-1]: mod
        for name, mod in _package_modules(package).items()
        if name != package.__name__
    }
    replacements: dict[int, Callable] = {}
    for short, mod in sorted(modules.items()):
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if name in NOT_WRAPPED:
                continue
            if name in COUNT_ONLY:
                new = count_wrapper(tracer, name, obj)
            else:
                hook = HOOKS.get(name, _dist_size_hook if short == "measures" else None)
                new = span_wrapper(tracer, name, obj, hook)
            replacements[id(obj)] = new
    for mod in _package_modules(package).values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replacements and inspect.isfunction(obj):
                setattr(mod, attr, replacements[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and id(value) in replacements:
                        obj[key] = replacements[id(value)]
    event_cls = modules["events"].Event
    event_cls.holds = count_wrapper(tracer, "events.holds", event_cls.holds)


def _package_modules(package) -> dict:
    prefix = package.__name__ + "."
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == package.__name__ or name.startswith(prefix))
    }
