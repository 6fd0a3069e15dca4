"""In-memory span recorder for the benchmark's traced runs.

A span records a name, start and end (perf_counter seconds), the span that
was open when it started, the run id shared by every span of one benchmark
process, and the id of the task it belongs to ("set-up", "probe" or
"<round>.<item>"). Spans are kept in memory and written once, at the end of
the run. Counts are kept at the same boundaries: every closed span counts one
call of its name, and `count` adds work counts such as excluded trajectories.

Spans come from two places, both in the benchmark's own files: `span` around
the benchmark's calls into dissipforge's public functions, and `patch`, which
swaps a public function bound in a module namespace (for example
`dissipforge.lindblad.null_space`) for a wrapper that opens a span around it,
so calls one layer makes into another are timed without editing the package.
Patches are installed by `enable` and removed by `disable`.
"""

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    task: str
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts while enabled; does nothing while disabled."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.task = "set-up"
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._patch_specs: list[tuple] = []
        self._originals: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; yields its attribute dict so callers can add to it."""
        if not self.enabled:
            yield attrs
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run_id, self.task,
                                   attrs))
            self.counts[name] += 1

    def count(self, name: str, amount=1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def patch(self, module, attr: str, span_name: str, attrs_of=None) -> None:
        """Register a module-level function to wrap in a span while enabled.

        `attrs_of(result, *args, **kwargs)` may return a dict stored on the
        span, such as an operand size or whether a check passed.
        A name the module no longer binds is skipped, so a later version of
        the package that stops making the call simply records no such span.
        """
        self._patch_specs.append((module, attr, span_name, attrs_of))

    def enable(self) -> None:
        if self.enabled:
            return
        for module, attr, span_name, attrs_of in self._patch_specs:
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, attrs_of))
        self.enabled = True

    def disable(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
        self.enabled = False

    def _wrap(self, fn, span_name, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(span_name) as attrs:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs.update(attrs_of(result, *args, **kwargs))
                return result

        return wrapper

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self, name: str) -> list[float]:
        """Durations of the named spans minus the time their children cover.

        Children of one span run one after another on one thread, so the
        covered part is the sum of the child durations.
        """
        child_time: Counter = Counter()
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        return [s.duration - child_time[s.sid] for s in self.named(name)]

    def self_time_by_name(self) -> dict:
        return {name: sum(self.self_times(name)) for name in {s.name for s in self.spans}}

    def write(self, path, extra: dict) -> None:
        """Write every span, the counts and the self time per span name."""
        obj = dict(extra)
        obj["run_id"] = self.run_id
        obj["counts"] = dict(self.counts)
        obj["self_s"] = self.self_time_by_name()
        obj["spans"] = [asdict(s) for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
