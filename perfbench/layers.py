"""In-process tracing of ``egfrac.cli.main`` at the package's module boundaries.

The tracer wraps, from outside the package, the public functions of each
layer module it finds at run time:

* ``_backend`` kernels get a counting wrapper: an exact call count per
  function and a stride sample of arguments, but no clock. Timing each
  call would inflate the kernel's own time. The sample is replayed after
  the run through the unwrapped public function, which gives an
  estimated ``ns_per_call`` and ``busy_s = calls x ns_per_call``.
* ``lemmas``, ``underapprox`` and ``greedy`` functions, and the public
  methods of ``report``'s classes, get a timing span. A function that
  returns an iterator is timed across its iteration too, so a lazy sweep
  keeps its time out of the caller's self time.
* ``sys.stdout`` gets a counting ``write`` with a stride sample of the
  chunks written, replayed into a file for an estimated time per write.
  A JSON report makes over a million of these calls.

Every reference to a wrapped function in any ``egfrac`` module is
replaced, which also catches ``from .greedy import upsilon``. A layer or
function that no longer exists is simply not wrapped, and the metrics
that need it are absent instead of crashing the run.

Work done in ``--jobs`` pool workers is invisible here: counts and self
times come from ``--jobs 1`` runs, and a ``--jobs 2`` run only reports
the parent's time blocked in the sweep call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

TIMED_LAYERS = ("lemmas", "underapprox", "greedy", "report")
KERNEL_LAYER = "_backend"

# every SAMPLE_MASK + 1-th call of each kernel is kept for the replay
SAMPLE_MASK = 255
REPLAY_MIN_S = 0.05
REPLAY_REPEATS = 5

_now = time.perf_counter_ns


@dataclass
class SpanStat:
    """Totals for one wrapped function over a traced run."""

    layer: str
    calls: int = 0
    ns: int = 0
    child_ns: int = 0
    # kernel calls made while this span was innermost, per kernel
    kernel_direct: list = field(default_factory=list)
    # rows of a returned list or iterator, points_checked of a report
    items: int = 0
    points: int = 0


class _Frame:
    __slots__ = ("stat", "t0", "k0", "child_ns", "child_k", "outermost")

    def __init__(self, stat, t0, k0, outermost):
        self.stat = stat
        self.t0 = t0
        self.k0 = k0
        self.child_ns = 0
        self.child_k = None
        self.outermost = outermost


class Tracer:
    """Wraps the layers while installed; read the totals after uninstall."""

    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self.kernel_names: list[str] = []
        self.kernel_counts: list[int] = []
        self.kernel_samples: list[list] = []
        self.kernel_originals: list = []
        self.layer_ns: dict[str, int] = {}
        self.layer_calls: dict[str, int] = {}
        self.write_calls = 0
        self.write_samples: list[str] = []
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = {}
        self._patches: list = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        backend = _layer_module(KERNEL_LAYER)
        if backend is not None:
            for name, fn in _public_functions(backend):
                if inspect.signature(fn).parameters:  # not backend_name()
                    self._patch(fn, self._counting(name, fn))
        for layer in TIMED_LAYERS:
            mod = _layer_module(layer)
            if mod is None:
                continue
            for name, fn in _public_functions(mod):
                self._patch(fn, self._timed(f"{layer}.{name}", layer, fn))
            for cname, cls in _public_classes(mod):
                for mname, meth in list(vars(cls).items()):
                    if inspect.isfunction(meth) and not mname.startswith("_"):
                        wrapped = self._timed(f"{layer}.{cname}.{mname}", layer, meth)
                        setattr(cls, mname, wrapped)
                        self._patches.append((cls, mname, meth))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "egfrac" or mod_name.startswith("egfrac.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    # -- wrappers -------------------------------------------------------

    def _counting(self, name, fn):
        index = len(self.kernel_names)
        self.kernel_names.append(name)
        self.kernel_counts.append(0)
        self.kernel_originals.append(fn)
        samples: list = []
        self.kernel_samples.append(samples)
        counts = self.kernel_counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            n = counts[index] = counts[index] + 1
            if not n & SAMPLE_MASK:
                samples.append((args, kwargs))
            return fn(*args, **kwargs)

        return counted

    def _timed(self, key, layer, fn):
        stat = self.stats.setdefault(key, SpanStat(layer))

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stat.calls += 1
            self._enter(stat)
            try:
                result = fn(*args, **kwargs)
            finally:
                frame = self._leave()
            if isinstance(result, list):
                stat.items += len(result)
            elif hasattr(result, "__next__"):
                return self._timed_iter(stat, result)
            if frame.outermost:
                stat.points += getattr(result, "points_checked", 0) or 0
            return result

        return timed

    def _timed_iter(self, stat, iterator):
        while True:
            self._enter(stat, count_layer=False)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._leave()
            stat.items += 1
            yield item

    def _enter(self, stat, count_layer=True) -> None:
        depth = self._depth.get(stat.layer, 0)
        self._depth[stat.layer] = depth + 1
        outermost = depth == 0
        if outermost and count_layer:
            self.layer_calls[stat.layer] = self.layer_calls.get(stat.layer, 0) + 1
        self._stack.append(_Frame(stat, _now(), self.kernel_counts.copy(), outermost))

    def _leave(self) -> _Frame:
        t1 = _now()
        frame = self._stack.pop()
        stat = frame.stat
        self._depth[stat.layer] -= 1
        dur = t1 - frame.t0
        stat.ns += dur
        stat.child_ns += frame.child_ns
        inner = None
        if self.kernel_counts != frame.k0:
            inner = [a - b for a, b in zip(self.kernel_counts, frame.k0)]
            direct = inner
            if frame.child_k is not None:
                direct = [a - b for a, b in zip(inner, frame.child_k)]
            if not stat.kernel_direct:
                stat.kernel_direct = [0] * len(direct)
            stat.kernel_direct = [a + b for a, b in zip(stat.kernel_direct, direct)]
        if frame.outermost:
            self.layer_ns[stat.layer] = self.layer_ns.get(stat.layer, 0) + dur
        if self._stack:
            parent = self._stack[-1]
            parent.child_ns += dur
            if inner is not None:
                parent.child_k = (
                    inner if parent.child_k is None
                    else [a + b for a, b in zip(parent.child_k, inner)]
                )
        return frame

    def span(self, key, layer, fn, *args):
        """Run ``fn(*args)`` as a span of its own (used for ``cli.main``)."""
        return self._timed(key, layer, fn)(*args)

    def stdout(self, inner):
        return _CountingStream(inner, self)

    # -- results ----------------------------------------------------------

    def kernel_ns_per_call(self) -> list[float]:
        """Replay each kernel's argument sample through the unwrapped function."""
        out = []
        for fn, samples in zip(self.kernel_originals, self.kernel_samples):
            out.append(_replay(fn, samples) if samples else 0.0)
        return out

    @staticmethod
    def counting_overhead_ns() -> tuple[float, float]:
        """ns that a counting wrapper adds to each kernel call and each write.

        Self times subtract this too, so that the wrappers' own cost does
        not show up as the caller's work.
        """
        probe = Tracer()
        kernel = probe._counting("probe", _noop)
        args = [((1, 2, 3, 4), {})] * 4096
        kernel_ns = _replay(kernel, args) - _replay(_noop, args)
        sink = _Sink()
        chunks = [(("chunk",), {})] * 4096
        write_ns = _replay(probe.stdout(sink).write, chunks) - _replay(sink.write, chunks)
        return max(0.0, kernel_ns), max(0.0, write_ns)

    def write_ns_per_call(self, path) -> float:
        """Replay the sampled stdout chunks into a fresh file at ``path``."""
        if not self.write_samples:
            return 0.0
        with open(path, "w") as out:
            ns = _replay(out.write, [((text,), {}) for text in self.write_samples])
        os.remove(path)
        return ns

    def self_ns(self, key: str, kernel_ns: list[float], write_ns: float = 0.0) -> float:
        """Span time minus child spans and the estimated kernel and write time.

        ``kernel_ns`` and ``write_ns`` are the time to charge per call,
        wrapper overhead included. Every stdout write is charged to
        ``cli.main``, the only caller that writes; pass ``write_ns`` for
        that span only.
        """
        stat = self.stats[key]
        kernel = sum(c * ns for c, ns in zip(stat.kernel_direct, kernel_ns))
        return stat.ns - stat.child_ns - kernel - self.write_calls * write_ns


class _CountingStream:
    """A text stream whose writes are counted and sampled, not timed."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._write = inner.write
        self._tracer = tracer

    def write(self, text):
        tracer = self._tracer
        n = tracer.write_calls = tracer.write_calls + 1
        if not n & SAMPLE_MASK:
            tracer.write_samples.append(text)
        return self._write(text)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Sink:
    def write(self, text):
        return len(text)


def _noop(*args, **kwargs):
    return None


def _layer_module(layer: str):
    try:
        return importlib.import_module(f"egfrac.{layer}")
    except ImportError:
        return None


def _public_functions(mod):
    return [
        (name, obj) for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_")
    ]


def _public_classes(mod):
    return [
        (name, obj) for name, obj in vars(mod).items()
        if inspect.isclass(obj) and obj.__module__ == mod.__name__ and not name.startswith("_")
    ]


def _replay(fn, samples) -> float:
    """Median over repeats of the mean ns per call of ``fn`` on ``samples``.

    Call sites pass kernel arguments positionally, so the replay does too
    when it can: unpacking an empty keyword dict costs as much as a small
    kernel's body.
    """
    positional = [args for args, kwargs in samples if not kwargs]
    if len(positional) == len(samples):
        def loop():
            for args in positional:
                fn(*args)
    else:
        def loop():
            for args, kwargs in samples:
                fn(*args, **kwargs)

    loops = 1
    while True:
        t0 = _now()
        for _ in range(loops):
            loop()
        elapsed = _now() - t0
        if elapsed >= REPLAY_MIN_S * 1e9:
            break
        loops *= 2
    per_call = [elapsed / (loops * len(samples))]
    for _ in range(REPLAY_REPEATS - 1):
        t0 = _now()
        for _ in range(loops):
            loop()
        per_call.append((_now() - t0) / (loops * len(samples)))
    return statistics.median(per_call)
