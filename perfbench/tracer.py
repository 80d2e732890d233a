"""Span tracer that wraps sqcount's public functions from outside.

The program is not edited: `install` replaces each traced function at every
module attribute that holds it (``cli`` imports the handlers' callees by
name, ``moments`` imports ``enumerate_points`` and the congruence samplers,
``counting`` imports ``leading_constant``), so calls made through any of
those bindings are recorded.  Spans are kept in memory as
``[name, start, end, parent, error]`` and analysed after the run.

A layer's self time is its span time minus the part covered by its child
spans.  Spans nest strictly (one thread), so the self times of all spans
sum to the duration of the root spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

NAME, START, END, PARENT, ERROR = range(5)
PACKAGE = "sqcount"


def _points(out):
    return {"slattice.points": len(out)}


def _count(out):
    return {"counting.points": int(out)}


def _terms(out):
    return {"moments.series.terms": int(out.terms_used)}


# (module, function, span name, counter from the return value or None)
TARGETS = (
    ("counting", "congruence_count", "counting.count", _count),
    ("counting", "inhom_count", "counting.count", _count),
    ("counting", "count_congruence", "counting.predict", None),
    ("counting", "count_inhom", "counting.predict", None),
    ("counting", "sweep", "counting.predict", None),
    ("slattice", "enumerate_points", "slattice.enumerate", _points),
    ("congruence", "sample_slq_uniform", "congruence.coset", None),
    ("congruence", "lift_slq_to_slz", "congruence.coset", None),
    ("moments", "estimate_moments", "moments.estimate", None),
    ("moments", "variance_check", "moments.estimate", None),
    ("moments", "second_moment_rhs", "moments.series", _terms),
    ("moments", "inhom_series", "moments.series", _terms),
    ("volume", "padic_quadric_volume", "volume.padic", None),
    ("volume", "real_quadric_volume", "volume.real", None),
    ("volume", "leading_constant", "volume.leading", None),
    ("serialize", "write_csv", "serialize", None),
    ("serialize", "write_manifest", "serialize", None),
)
# each next() of this generator is one draw
STREAM_TARGET = ("moments", "lattice_stream", "moments.sample", "moments.draws")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, False]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        except BaseException:
            rec[ERROR] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, from_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if from_result is not None:
                self.counts.update(from_result(out))
            return out
        return traced

    def wrap_stream(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    with self.span(name):
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                    self.counts[counter] += 1
                    yield item
            finally:
                gen.close()
        return traced

    def _replace(self, original, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def install(self):
        """Wrap every target at each of its bindings in the loaded sqcount modules."""
        def origin(module, attr):
            return getattr(sys.modules[f"{PACKAGE}.{module}"], attr)

        for module, attr, name, counter in TARGETS:
            fn = origin(module, attr)
            self._replace(fn, self.wrap(fn, name, from_result=counter))
        module, attr, name, counter = STREAM_TARGET
        fn = origin(module, attr)
        self._replace(fn, self.wrap_stream(fn, name, counter))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans) -> dict:
    """name -> {"self_s", "total_s", "calls", "errors"} over all spans."""
    out: dict = {}
    for s, own in zip(spans, self_times(spans)):
        agg = out.setdefault(
            s[NAME], {"self_s": 0.0, "total_s": 0.0, "calls": 0, "errors": 0}
        )
        agg["self_s"] += own
        agg["calls"] += 1
        agg["errors"] += int(s[ERROR])
        if s[PARENT] is None or spans[s[PARENT]][NAME] != s[NAME]:
            agg["total_s"] += s[END] - s[START]
    return out
