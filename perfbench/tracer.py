"""Per-layer self time and boundary spans for the traced run.

Self time comes from ``cProfile``, a profile hook in C: it times every
call and return, Python and builtin, and gives each function its own
(self) time.  :class:`LayerProfile` bills each function to the layer
that owns its module (``repro.sim`` -> ``sim``, ``repro.util.trace`` ->
``trace``, builtins and the standard library -> ``other``).  The
profiler bills every interval between two events to the function
running in it, so the layers' self times sum to the profiled wall time.

Attribution goes by the callee's module, never by the enclosing call.
Worker code runs as generators resumed inside ``Simulator.step``; each
resume is a call of a ``repro.micro`` function and each ``yield`` its
return, so protocol time lands in ``micro`` and task bodies in ``tasks``
even though ``sim`` is on the stack below them.

:class:`SpanTracer` records the spans: a ``sys.setprofile`` hook in
Python that opens a span whenever control crosses from one layer into
another and closes it on the matching return.  It costs about twice
what cProfile does per call and skews the shares toward layers that make
many small calls, so it supplies the timeline, not the numbers.
"""

from __future__ import annotations

import cProfile
import os
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: Module prefix -> layer, most specific first.  Application code
#: (``repro.apps``) runs as task bodies and is billed to ``tasks``.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.micro", "micro"),
    ("repro.tasks", "tasks"),
    ("repro.apps", "tasks"),
    ("repro.cluster", "cluster"),
    ("repro.clearinghouse", "clearinghouse"),
    ("repro.macro", "macro"),
    ("repro.check", "check"),
    ("repro.util.trace", "trace"),
    ("repro.obs", "obs"),
)

#: Everything else -- stdlib, builtins, the benchmark's own code and the
#: few ``repro`` modules outside the named layers -- is ``other``.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _prefix, layer in MODULE_LAYERS] + ["other"]))
OTHER = LAYERS.index("other")


def layer_of(module: str) -> int:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return LAYERS.index(layer)
    return OTHER


class LayerProfile:
    """cProfile around each op; self time summed per layer."""

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()
        self.wall = 0.0

    def run(self, _op: int, fn: Callable[[], Any]) -> Any:
        """Call *fn* profiled; return its result or exception."""
        start = perf_counter()
        self.profiler.enable()
        try:
            return fn()
        except Exception as exc:  # a failed op is recorded, not fatal
            return exc
        finally:
            self.profiler.disable()
            self.wall += perf_counter() - start

    def layer_self_s(self) -> Dict[str, float]:
        module_of_file = {
            os.path.realpath(path): name
            for name, module in list(sys.modules.items())
            if isinstance(path := getattr(module, "__file__", None), str)
        }
        totals = [0.0] * len(LAYERS)
        for entry in self.profiler.getstats():
            code = entry.code
            layer = OTHER
            if not isinstance(code, str):  # a str names a builtin
                layer = layer_of(module_of_file.get(
                    os.path.realpath(code.co_filename), ""))
            totals[layer] += entry.inlinetime
        return dict(zip(LAYERS, totals))


class SpanTracer:
    """Keeps a span per layer crossing, and bills self time by them.

    Spans are ``[layer, start, end, parent, op]`` lists; ``parent`` is
    the index of the enclosing span, or -1 for the op's root span.  Only
    the first ``span_cap`` spans are kept (a fib op crosses layers about
    half a million times); every crossing is still billed.
    """

    def __init__(self, span_cap: int = 100_000) -> None:
        self.span_cap = span_cap
        self.self_s = [0.0] * len(LAYERS)
        self.spans: List[List[Any]] = []
        #: (op id, start, end) of every traced op.
        self.op_spans: List[Tuple[int, float, float]] = []
        self.spans_dropped = 0
        self._layer_of_code: Dict[Any, int] = {}

    def run(self, op: int, fn: Callable[[], Any]) -> Any:
        """Call *fn* under the hook; return its result or exception."""
        codes = self._layer_of_code
        self_s = self.self_s
        spans = self.spans
        cap = self.span_cap
        clock = perf_counter
        stack: List[Tuple[Any, int, int]] = []
        cur = OTHER
        cur_span = -1
        last = 0.0
        dropped = 0

        def enter(key: Any, layer: int) -> None:
            nonlocal cur, cur_span, last, dropped
            t = clock()
            self_s[cur] += t - last
            last = t
            stack.append((key, cur, cur_span))
            cur = layer
            if len(spans) < cap:
                cur_span = len(spans)
                spans.append([layer, t, t, stack[-1][2], op])
            else:
                cur_span = -1
                dropped += 1

        def leave() -> None:
            nonlocal cur, cur_span, last
            t = clock()
            self_s[cur] += t - last
            last = t
            if cur_span >= 0:
                spans[cur_span][2] = t
            _key, cur, cur_span = stack.pop()

        def hook(frame: Any, event: str, arg: Any) -> None:
            if event == "call":
                code = frame.f_code
                layer = codes.get(code)
                if layer is None:
                    layer = codes[code] = layer_of(frame.f_globals.get("__name__", ""))
                if layer != cur:
                    enter(frame, layer)
            elif event == "return":
                if stack and stack[-1][0] is frame:
                    leave()
            elif event == "c_call":
                if cur != OTHER:
                    enter(arg, OTHER)
            elif stack and stack[-1][0] is arg:  # c_return / c_exception
                leave()

        start = last = clock()
        sys.setprofile(hook)
        try:
            result = fn()
        except Exception as exc:  # a failed op is recorded, not fatal
            result = exc
        finally:
            sys.setprofile(None)
            end = clock()
        self_s[cur] += end - last
        for _key, _prev, span in stack:  # spans the hook never saw close
            if span >= 0:
                spans[span][2] = end
        if cur_span >= 0:
            spans[cur_span][2] = end
        self.spans_dropped += dropped
        self.op_spans.append((op, start, end))
        return result

    def wall_s(self) -> float:
        return sum(end - start for _op, start, end in self.op_spans)

    def perfetto(self, workload: str) -> Dict[str, Any]:
        """The spans as a Chrome trace_event document (``X`` events)."""
        if not self.op_spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        t0 = self.op_spans[0][1]
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": f"perfbench {workload}"}},
        ]
        timed = [
            (start, -(end - start), {
                "name": f"op {op}", "cat": "op", "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"op": op}})
            for op, start, end in self.op_spans
        ]
        timed += [
            (start, -(end - start), {
                "name": LAYERS[layer], "cat": "layer", "ph": "X", "pid": 1,
                "tid": 1, "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"op": op, "span": i, "parent": parent}})
            for i, (layer, start, end, parent, op) in enumerate(self.spans)
        ]
        timed.sort(key=lambda item: item[:2])
        events += [ev for _start, _neg, ev in timed]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"workload": workload, "spans_kept": len(self.spans),
                          "spans_dropped": self.spans_dropped},
        }
