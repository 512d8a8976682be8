"""In-memory span tracer that wraps pulsefront's public functions from outside.

Each wrapper is installed at the name where callers look the function up
(a module attribute or a class attribute), so no file of the package is
touched.  A span records (name, start, end, parent); a span's self time is
its duration minus the time covered by its child spans.  Spans stay in
memory and are written once, when the benchmark ends.

Span names are "<layer>.<function>"; the layer is the pulsefront module the
function belongs to (setup for config, plus the harness's own "bench" root
span), so per-layer self time is the sum over the layer's names.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("setup", "runner", "profiles", "solver", "fronts", "homogenize",
          "spectral", "stability")


def _original(owner, attr):
    """The attribute as stored: a class's plain function, not a bound method."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []       # [span id, name idx, start, child time, run mark]
        self._active: Counter = Counter()  # open spans per name (recursion guard)
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: defaultdict = defaultdict(float)
        self.stepper_run_s = 0.0           # running total of Stepper.run durations
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def intern(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def enter(self, idx: int):
        now = time.perf_counter()
        sid = len(self.span_start)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(now)
        self.span_end.append(now)
        self._stack.append([sid, idx, now, 0.0, self.stepper_run_s])
        self._active[idx] += 1

    def exit(self) -> tuple[float, float]:
        """Close the innermost span; returns (duration, Stepper.run time inside)."""
        now = time.perf_counter()
        sid, idx, start, child, run_mark = self._stack.pop()
        self.span_end[sid] = now
        dur = now - start
        self.self_s[idx] += dur - child
        self._active[idx] -= 1
        if not self._active[idx]:
            self.incl_s[idx] += dur
        self.calls[idx] += 1
        if self._stack:
            self._stack[-1][3] += dur
        return dur, self.stepper_run_s - run_mark

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_return=None, on_raise=None):
        """Replace owner.attr by a span-recording wrapper.

        on_return(tracer, args, kwargs, result, dur, run_inside) and
        on_raise(tracer, exc) update counters at the same boundary.
        """
        orig = _original(owner, attr)
        idx = self.intern(name)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            tracer.enter(idx)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                tracer.exit()
                if on_raise is not None:
                    on_raise(tracer, exc)
                raise
            dur, run_inside = tracer.exit()
            if on_return is not None:
                on_return(tracer, args, kwargs, result, dur, run_inside)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def patch(self, owner, attr: str, replacement):
        """Install a plain replacement (counters without a span)."""
        self._patches.append((owner, attr, _original(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def time_of(self, name: str) -> float:
        """Inclusive time of the outermost spans with this name."""
        idx = self._index.get(name)
        return 0.0 if idx is None else self.incl_s[idx]

    def calls_of(self, name: str) -> int:
        idx = self._index.get(name)
        return 0 if idx is None else self.calls[idx]

    def layer_self(self) -> dict[str, float]:
        out: defaultdict = defaultdict(float)
        for idx, s in self.self_s.items():
            out[self.names[idx].split(".", 1)[0]] += s
        return dict(out)

    def write(self, path: str, meta: dict):
        """Write every span as one JSON line (after a header line)."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "names": self.names}) + "\n")
            for sid in range(len(self.span_start)):
                fh.write(f"[{sid},{self.span_parent[sid]},{self.span_name[sid]},"
                         f"{self.span_start[sid]:.9f},{self.span_end[sid]:.9f}]\n")
