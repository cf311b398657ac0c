"""Per-layer tracing driven from the benchmark's own files.

The tracer replaces each layer's public entry points, at the module attribute
where its callers look them up, with a timing wrapper.  Nothing in the
package changes; ``uninstall`` puts the originals back.

Wrapped calls nest: each call's duration is charged to the enclosing wrapped
call as child time, so a layer's self time is its total time minus the time
its traced callees took.  Calls made hundreds of thousands of times per run
(demand queries, per-epoch allocation and VMM charges, settlements, bootstrap
draws) are aggregated at the boundary; every other call is also kept as a
span (id, parent id, layer, start, duration) and written out when the run
ends.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import defaultdict

import bandshare.cli
import bandshare.demand
import bandshare.engine
import bandshare.verify

# Layer name -> every (owner, attribute) its callers look it up at.
SPAN_LAYERS = {
    "demand.realize": [(bandshare.demand.DemandSpec, "realize")],
    "engine.session": [
        (bandshare.engine, "run_session"),
        (bandshare.cli, "run_session"),
        (bandshare.verify, "run_session"),
    ],
    "engine.mc": [(bandshare.cli, "run_monte_carlo")],
    "engine.ledger": [(bandshare.cli, "build_ledger"), (bandshare.verify, "build_ledger")],
    "pooling.settle": [(bandshare.cli, "settle_pool"), (bandshare.verify, "settle_pool")],
    "pooling.estimate": [(bandshare.verify, "tax_admissibility_estimate")],
    "verify.rb": [(bandshare.verify, "expected_utilities_rb")],
    "verify.suite": [(bandshare.cli, "run_suite"), (bandshare.verify, "run_suite")],
    "config.load": [(bandshare.cli, "load_config"), (bandshare.verify, "load_config")],
    "cli": [(bandshare.cli, "main")],
}
LEAF_LAYERS = {
    "demand.query": [(bandshare.demand.DemandRealization, "query")],
    # Per-epoch allocation in the epoch loop (fq, fifo, hybrid, tied spq).
    "routing.allocate": [(bandshare.engine, "_allocate_epoch")],
    "payments.vmm": [(bandshare.engine, "vmm_epoch_charges")],
    "payments.settle": [
        (bandshare.engine, "bks_settle"),
        (bandshare.engine, "fixed_price_settle"),
    ],
    "payments.summarize": [(bandshare.engine, "summarize")],
}
# The pool's bootstrap draw is a closure made by this factory; the draws it
# returns are the leaf layer "pooling.sample".
SAMPLER_FACTORY = (bandshare.verify, "bootstrap_sampler")
LAYERS = list(SPAN_LAYERS) + list(LEAF_LAYERS) + ["pooling.sample"]


class Tracer:
    """Counts, total time and child time per layer, plus recorded spans."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.spans = []  # (span id, parent id, layer, start, duration)
        self.worlds = set()  # (model, parameters, seed) of every realization
        self._ids = itertools.count()
        self._stack = []  # per open span: [child time, span id]
        self._leaf_totals = []  # (layer, [calls, seconds]) per leaf wrapper
        self._patches = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer, fn):
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, total, child = self.calls, self.total, self.child

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[0] += dur
                calls[layer] += 1
                total[layer] += dur
                child[layer] += frame[0]
                spans.append((frame[1], parent[1] if parent else -1, layer, start, dur))

        return traced

    def _leaf(self, layer, fn):
        stack = self._stack
        agg = [0, 0.0]
        self._leaf_totals.append((layer, agg))

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                if stack:
                    stack[-1][0] += dur
                agg[0] += 1
                agg[1] += dur

        return traced

    def _recording_worlds(self, realize):
        worlds = self.worlds

        def recorded(spec, seed=None):
            worlds.add((spec.kind, repr(spec.params), seed))
            return realize(spec, seed)

        return recorded

    def _patch(self, owner, attr, make_wrapper) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def install(self) -> None:
        for layer, targets in SPAN_LAYERS.items():
            for owner, attr in targets:
                self._patch(owner, attr, lambda fn, layer=layer: self._span(layer, fn))
        for layer, targets in LEAF_LAYERS.items():
            for owner, attr in targets:
                self._patch(owner, attr, lambda fn, layer=layer: self._leaf(layer, fn))
        # Outside the realize span, so recording the world costs it nothing.
        self._patch(bandshare.demand.DemandSpec, "realize", self._recording_worlds)
        self._patch(
            *SAMPLER_FACTORY,
            lambda make: lambda observations: self._leaf("pooling.sample", make(observations)),
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for layer, (count, seconds) in self._leaf_totals:
            self.calls[layer] += count
            self.total[layer] += seconds
        self._leaf_totals.clear()

    # -- results (after uninstall) -------------------------------------------

    def metrics(self, overhead: float, cli_out_bytes: int) -> dict:
        """Per-layer metrics as name -> (value, unit), named as in BENCHMARK.json."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.total[layer] - self.child[layer], "s")
        durations = defaultdict(list)
        for _, _, layer, _, dur in self.spans:
            durations[layer].append(dur)
        realize = durations["demand.realize"]
        out["demand.realize.us_p50"] = (_median(realize) * 1e6, "us")
        out["demand.realize_per_world"] = (
            len(realize) / len(self.worlds) if self.worlds else 0.0, "ratio"
        )
        sessions = durations["engine.session"]
        out["engine.session.ms_p50"] = (_median(sessions) * 1e3, "ms")
        p99 = statistics.quantiles(sessions, n=100)[98] if len(sessions) > 1 else _median(sessions)
        out["engine.session.ms_p99"] = (p99 * 1e3, "ms")
        out["cli.out_bytes"] = (cli_out_bytes, "bytes")
        out["trace.overhead"] = (overhead, "ratio")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "layer", "start_s", "duration_s"],
                    "spans": sorted(self.spans),
                },
                fh,
            )
            fh.write("\n")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0
