"""In-memory span tracer for the benchmark's traced runs.

The program binds names with `from ... import`, so a function is wrapped in
each namespace that calls it (`avgcorr.sweep`, `avgcorr.cli`,
`avgcorr.correlation`) for the duration of `Tracer.patched()`. A span
records its id, parent, root (the op it belongs to), layer, function name,
start and end. A call nested directly inside a span of the same layer is
folded into that span. A layer's self time is the duration of its spans
minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter
from contextlib import contextmanager


def _note_mc(counts, args, kwargs):
    counts["mc.samples"] += int(kwargs.get("n_samples", args[1] if len(args) > 1 else 0))


def _note_estimate(counts, args, kwargs):
    if kwargs.get("method", args[1] if len(args) > 1 else None) == "closed_form":
        counts["closed.requests"] += 1


def _note_sweep(counts, args, kwargs):
    spec = kwargs.get("spec", args[0] if args else None)
    if spec.method == "closed_form":
        counts["closed.requests"] += len(spec.gammas) * spec.steps


# function name -> (layer, optional counter hook)
TARGETS = {
    "make_pure_state": ("states", None),
    "random_density": ("states", None),
    "p_of_t": ("channels.build", None),
    "make_channel": ("channels.build", None),
    "apply_both": ("channels.apply", None),
    "apply_local_channel": ("channels.apply", None),
    "correlation_matrix": ("correlation.matrix", None),
    "singular_values": ("correlation.svd", None),
    "sigma_quadrature": ("correlation.quadrature", None),
    "sigma_closed_pure": ("correlation.closed", None),
    "sigma_monte_carlo": ("correlation.mc", _note_mc),
    "sigma_for_state": ("correlation.dispatch", _note_estimate),
    "classify": ("correlation.classify", None),
    "decay_curve": ("sweep", _note_sweep),
    "build_parser": ("cli.parse", None),
    "cmd_sigma": ("cli.command", None),
    "cmd_sweep": ("cli.command", None),
    "cmd_verify": ("cli.command", None),
    "write_output": ("cli.render", None),
    "render_csv": ("cli.render", None),
    "render_json": ("cli.render", None),
    "format_sig12": ("cli.render", None),
}
NAMESPACES = ("avgcorr.sweep", "avgcorr.cli", "avgcorr.correlation")
ROOT_LAYER = "op"
LAYERS = (ROOT_LAYER,) + tuple(dict.fromkeys(layer for layer, _ in TARGETS.values()))
SPAN_FIELDS = ("id", "parent", "root", "layer", "name", "start_ns", "end_ns")


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []

    def wrap(self, layer: str, fn, note=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        name = fn.__name__
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(counts, args, kwargs)
            if stack and stack[-1][3] == layer:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else None
            span = [sid, parent[0] if parent else -1, parent[2] if parent else sid,
                    layer, name, clock(), 0]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[6] = clock()
                stack.pop()

        return traced

    def _wrap_build_parser(self, build_parser):
        traced_build = self.wrap("cli.parse", build_parser)

        @functools.wraps(build_parser)
        def build():
            parser = traced_build()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        return build

    @contextmanager
    def patched(self, modules):
        """Wrap every target function found in `modules`; restore on exit."""
        saved = []
        try:
            for module in modules:
                for name, (layer, note) in TARGETS.items():
                    fn = getattr(module, name, None)
                    if fn is None:
                        continue
                    saved.append((module, name, fn))
                    wrapped = (self._wrap_build_parser(fn) if name == "build_parser"
                               else self.wrap(layer, fn, note))
                    setattr(module, name, wrapped)
            yield
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: spans recorded and self time in seconds."""
        covered = [0] * len(self.spans)
        for _, parent, _, _, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for sid, _, _, layer, _, start, end in self.spans:
            out[layer]["calls"] += 1
            out[layer]["self_s"] += (end - start - covered[sid]) * 1e-9
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh, separators=(",", ":"))
