"""Span tracing of fairaudit's layers, installed from outside the package.

``traced(recorder)`` replaces, for the duration of a ``with`` block, every
public fairaudit function at the module-level names through which ``cli``,
``ingest``, ``parity`` and ``scenarios`` call it, plus ``cli.main`` itself,
with a wrapper that records a span. ``BinScheme.bin_of`` and
``CalibrationCurve.p_score`` get counting-only wrappers, because they run
once or more per row and a span each would swamp the run. Calls a module
makes to its own functions stay unwrapped, so a span covers one crossing
between layers. Everything is restored on exit.

Run as a script, it traces one CLI invocation in a fresh interpreter and
writes the spans as JSON:

    PYTHONPATH=src python3 bench/tracer.py SPANS.json INVOCATION -- scenario stride_height
"""
from __future__ import annotations

import importlib
import inspect
import json
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

#: Modules whose imported names are wrapped, i.e. the callers of other layers.
CALLER_MODULES = ("cli", "ingest", "parity", "scenarios")

#: (module, class, method, counter name) of the counting-only wrappers. A
#: method the program no longer has is skipped and its counter reads 0.
COUNTED_METHODS = (
    ("domain", "BinScheme", "bin_of", "domain.bin_of.calls"),
    ("metrics", "CalibrationCurve", "p_score", "metrics.p_score.calls"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    invocation: int
    name: str
    start: float
    end: float = 0.0
    maxrss_start_kb: int = 0
    maxrss_end_kb: int = 0
    error: bool = False


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _candidates(fn: Callable, args: tuple, kwargs: dict, result: Any) -> int:
    """Thresholds ``equalize_fpr`` weighed: for each non-reference group,
    the distinct values among 0, 1, its baseline threshold and the p_scores
    of its nonempty bins. Counted from the curve, not from the search.

    Reads 0, rather than failing the run, once ``equalize_fpr`` no longer
    takes a ``CalibrationCurve`` as ``curve``.
    """
    try:
        arguments = inspect.signature(fn).bind(*args, **kwargs).arguments
        curve, policy = arguments["curve"], arguments["baseline_policy"]
        total = 0
        for g in curve.groups:
            if g == result.reference_group:
                continue
            values = {0.0, 1.0, policy.threshold_for(g)}
            values.update(
                c.positives / c.count for (cg, _b), c in curve.cells.items() if cg == g
            )
            total += len(values)
    except (TypeError, KeyError, AttributeError):
        return 0
    return total


#: Counters derived from a wrapped call's arguments and result, evaluated
#: after the invocation so that their cost falls outside every span.
PROBES: dict[str, tuple[str, Callable[[Callable, tuple, dict, Any], int]]] = {
    "parity.equalize_fpr": ("parity.candidates", _candidates),
    "report.render_report": ("report.bytes", lambda f, a, k, r: len(r.encode("utf-8"))),
    "scenarios.check_scenario": ("scenarios.checks", lambda f, a, k, r: len(r)),
}


class Recorder:
    """Spans and counters of traced invocations, kept in memory."""

    def __init__(self, invocation: int = 0) -> None:
        self.invocation = invocation
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._pending: list[tuple[str, Callable, Callable, tuple, dict, Any]] = []

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)

        def traced_call(*args, **kwargs):
            span = Span(
                id=len(spans),
                parent=stack[-1] if stack else None,
                invocation=self.invocation,
                name=name,
                start=time.perf_counter(),
                maxrss_start_kb=_maxrss_kb(),
            )
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                span.maxrss_end_kb = _maxrss_kb()
                stack.pop()
            if probe is not None:
                self._pending.append((*probe, fn, args, kwargs, result))
            return result

        traced_call.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced_call

    def count_wrapper(self, counter: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(counter, 0)

        def counted_call(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        counted_call.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted_call

    def to_json(self) -> dict[str, Any]:
        for counter, probe, fn, args, kwargs, result in self._pending:
            self.counts[counter] = self.counts.get(counter, 0) + probe(fn, args, kwargs, result)
        self._pending.clear()
        return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}


def _span_name(fn: Callable) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


@contextmanager
def traced(recorder: Recorder) -> Iterator[None]:
    """Install the wrappers for the ``with`` block and restore the originals."""
    modules = {
        m: importlib.import_module(f"fairaudit.{m}")
        for m in ("cli", "ingest", "parity", "scenarios", "domain", "metrics")
    }
    patched: list[tuple[object, str, object]] = []
    wrappers: dict[int, Callable] = {}

    def patch(owner: object, attr: str, replacement: Callable) -> None:
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span_for(fn: Callable) -> Callable:
        if id(fn) not in wrappers:
            wrappers[id(fn)] = recorder.span_wrapper(_span_name(fn), fn)
        return wrappers[id(fn)]

    try:
        for caller in CALLER_MODULES:
            mod = modules[caller]
            for attr, value in list(vars(mod).items()):
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__.startswith("fairaudit.")
                    and value.__module__ != mod.__name__
                ):
                    patch(mod, attr, span_for(value))
        patch(modules["cli"], "main", span_for(modules["cli"].main))
        for module, cls_name, method, counter in COUNTED_METHODS:
            cls = getattr(modules[module], cls_name, None)
            if cls is not None and hasattr(cls, method):
                patch(cls, method, recorder.count_wrapper(counter, getattr(cls, method)))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def main(argv: list[str]) -> int:
    spans_path, invocation, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json INVOCATION -- CLI-ARGS...")
    recorder = Recorder(int(invocation))
    with traced(recorder):
        from fairaudit import cli

        code = cli.main(cli_argv)
    sys.stdout.flush()
    payload = recorder.to_json()
    payload.update(argv=cli_argv, exit_code=code)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
