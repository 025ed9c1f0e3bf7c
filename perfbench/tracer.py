"""Outside-in span tracer.

Spans are recorded by replacing a function or method with a wrapper at the
place its caller looks it up (a module global, or a class attribute), and
putting the original back when the tracer closes. Nothing inside the traced
program changes. Spans stay in memory as plain dicts and are written to JSON
once, at the end.

The traced program is single-threaded from the driver's point of view, so
spans nest strictly: a stack gives each span its parent, and a span's self
time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    """Records spans (name, start, end, parent, run) and restores patches."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body; yields its dict so the
        body can attach counts (keys other than the fixed ones)."""
        sp = {"name": name, "start": time.perf_counter(), "end": None,
              "parent": self._stack[-1] if self._stack else None,
              "run": self.run}
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        except BaseException:
            sp["error"] = True
            raise
        finally:
            self._stack.pop()
            sp["end"] = time.perf_counter()

    def traced(self, fn, name: str, around=None):
        """``fn`` wrapped so each call is a span; ``around(span, fn, *a,
        **kw)``, when given, makes the call itself and may annotate the span
        or substitute arguments and results."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                if around is None:
                    return fn(*args, **kwargs)
                return around(sp, fn, *args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, around=None) -> None:
        """Replace ``owner.attr`` (module global or class attribute) with a
        traced wrapper until :meth:`restore`."""
        raw = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not callable")
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, self.traced(original, name, around))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis -------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [sp["end"] - sp["start"] for sp in self.spans]
        for sp in self.spans:
            if sp["parent"] is not None:
                out[sp["parent"]] -= sp["end"] - sp["start"]
        return out

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def wrapper_cost_s(n: int = 20000) -> float:
    """Measured extra seconds one traced call costs over a plain call."""
    def noop():
        return None

    tr = Tracer()
    wrapped = tr.traced(noop, "calibrate")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max(0.0, (time.perf_counter() - t0 - plain) / n)
