"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
public names that one cubeconv module looks up in another at call time
are swapped for timing wrappers while a traced pass runs, and restored
afterwards.  The source tree is never edited.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    op: int  # id of the root span of the call this span belongs to
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Keeps spans in memory; counters ride along with the spans that
    produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[Span] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            op=parent.op if parent else len(self.spans),
            parent=parent.id if parent else None,
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(args, kwargs, result) may return
        {counter: increment} to add to the span's counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                for key, inc in count(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + inc
            return result

        return traced

    def busy(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Busy time of `name` minus the time its direct children cover.
        Children of one span run one after another on one thread, so
        their intervals never overlap."""
        ids = {s.id for s in self.spans if s.name == name}
        children = sum(s.end - s.start for s in self.spans if s.parent in ids)
        return self.busy(name) - children

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans], "counts": self.counts}, fh)


class Patches:
    """Swaps module attributes for traced wrappers; undo() restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def undo(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


def _batch_corner_counts(args, kwargs, result):
    fs, m = args[0], args[1]
    n, trials = fs.shape[0], result.size
    # Multiply-adds of the ranked fold as written: (n-1) rank multiplies
    # of (m+1)(m+2)/2 row products over 2^m masks, per trial.  Computed
    # from the argument shapes, not counted by hardware.
    madds = (n - 1) * (m + 1) * (m + 2) // 2 * (1 << m) * trials
    return {"transform.batch_corner_value.nominal_madds": madds}


def _uniform_counts(args, kwargs, result):
    return {"verifier.trial_uniforms.draws": int(result.size)}


def install(tracer: Tracer, cc) -> Patches:
    """Wrap the cross-module names the measured layers call.

    `cc` is a namespace holding the imported cubeconv modules.  Each
    wrapper is installed where its caller looks the name up (the
    benchmark itself calls cli.main and the transform entry points), and
    the span is named after the defining module.
    """
    patches = Patches()
    w = tracer.wrap
    patches.set(cc.cli, "main", w("cli.main", cc.cli.main))
    for name in ("zeta", "moebius", "subset_convolve"):
        patches.set(cc.transform, name, w(f"transform.{name}", getattr(cc.transform, name)))
    patches.set(cc.cli, "parse_family", w("cli.parse_family", cc.cli.parse_family))
    patches.set(cc.counting, "bound_report", w("counting.bound_report", cc.counting.bound_report))
    patches.set(
        cc.counting,
        "family_to_functions",
        w("core.family_to_functions", cc.counting.family_to_functions),
    )
    patches.set(
        cc.counting,
        "corner_convolution",
        w("transform.corner_convolution", cc.counting.corner_convolution),
    )
    patches.set(cc.verifier, "run_trials", w("verifier.run_trials", cc.verifier.run_trials))
    patches.set(
        cc.verifier,
        "trial_uniforms",
        w("verifier.trial_uniforms", cc.verifier.trial_uniforms, _uniform_counts),
    )
    patches.set(
        cc.verifier,
        "batch_corner_value",
        w("transform.batch_corner_value", cc.verifier.batch_corner_value, _batch_corner_counts),
    )
    return patches
