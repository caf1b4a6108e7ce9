"""Spans around fockgauge entry points, recorded from outside the package.

Each target is wrapped in the module whose globals the caller looks the name
up in (`verify.sweep` calls `summarize` through `fockgauge.verify`, and
`summarize` calls `normally_ordered_moment` through `fockgauge.moments`), so
no file under `src/` changes.  A span is (name, start, end, parent); spans
stay in memory until the run ends.  A layer is the module a span's name
starts with; its self time is its spans' time minus that of their children.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

LAYERS = ("states", "fock", "moments", "gauges", "verify", "cli")

# (module whose globals hold the name, attribute, span name)
TARGETS = (
    ("fockgauge.verify", "sweep", "verify.sweep"),
    ("fockgauge.verify", "figure_rows", "verify.figure_rows"),
    ("fockgauge.verify", "random_state", "states.random_state"),
    ("fockgauge.verify", "approx_strong_field", "states.approx_strong_field"),
    ("fockgauge.verify", "summarize", "moments.summarize"),
    ("fockgauge.verify", "ellipse", "moments.ellipse"),
    ("fockgauge.verify", "full_report", "gauges.full_report"),
    ("fockgauge.states", "random_state", "states.random_state"),
    ("fockgauge.states", "approx_strong_field", "states.approx_strong_field"),
    ("fockgauge.moments", "normally_ordered_moment", "fock.normally_ordered_moment"),
    ("fockgauge.moments", "boundary_mass", "fock.boundary_mass"),
    ("fockgauge.gauges", "scan_bound", "gauges.scan_bound"),
    ("fockgauge.cli", "run", "cli.run"),
    ("fockgauge.cli", "state_from_spec", "states.state_from_spec"),
    ("fockgauge.cli", "summary_from_dict", "moments.summary_from_dict"),
    ("fockgauge.cli", "summarize", "moments.summarize"),
    ("fockgauge.cli", "ellipse", "moments.ellipse"),
    ("fockgauge.cli", "full_report", "gauges.full_report"),
    ("fockgauge.cli", "dumps", "cli.dumps"),
    ("fockgauge.cli", "format_csv", "cli.format_csv"),
)

SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span in TARGETS))


class Tracer:
    """Install with `with tracer:`; spans accumulate across installs.

    Span times are read from `clock`, so that time the harness spends inside
    a span (see `hostspeed.HostSampler.clock`) can be left out.
    """

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._saved: list = []

    def __len__(self) -> int:
        return len(self.name_ids)

    def _wrap(self, fn, name_id: int):
        name_ids, parents, starts, ends, stack, clock = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack, self.clock
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, SPAN_NAMES.index(span)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def aggregate(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per span name: calls, busy_s (inclusive) and self_s, over spans [lo, hi)."""
        import numpy as np

        hi = len(self) if hi is None else hi
        ids = np.frombuffer(self.name_ids, dtype=np.int64)[lo:hi]
        parents = np.frombuffer(self.parents, dtype=np.int64)[lo:hi]
        duration = (
            np.frombuffer(self.ends, dtype=np.float64)[lo:hi]
            - np.frombuffer(self.starts, dtype=np.float64)[lo:hi]
        )
        nested = parents >= 0
        children = np.zeros(hi - lo)
        np.add.at(children, parents[nested] - lo, duration[nested])
        own = duration - children
        size = len(SPAN_NAMES)
        calls = np.bincount(ids, minlength=size)
        busy = np.bincount(ids, weights=duration, minlength=size)
        self_s = np.bincount(ids, weights=own, minlength=size)
        return {
            name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(SPAN_NAMES)
        }

    def save(self, path) -> None:
        """Write every span (name id, parent index, start, end) as a .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name_id=np.frombuffer(self.name_ids, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]
