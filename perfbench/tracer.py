"""Spans and counts around protdat's public functions, for the traced run.

``Tracer.install`` replaces each traced function by a recording wrapper at
every module attribute that refers to it, which is where callers look the
name up (``nx.matmul`` inside numerics, ``make_batch`` imported into
training, ...).  ``restore`` puts the originals back, so an untraced run
executes the program unmodified.  Backward passes are timed by wrapping
the ``_backward`` closure of each output an op records.

Spans and counts are kept apart for the one set-up and for the units of
work that follow it, so the report gives what one set-up plus one unit
costs, whatever number of units the time budget allowed.  Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

from protdat import cli, data, evaluation, generation, model, numerics, tokenizer, training

from summary import SETUP, Span, layer_self_ms, top_level_coverage

PROTDAT_MODULES = (numerics, tokenizer, data, model, training, generation, evaluation, cli)
LAYERS = ("numerics", "tokenizer", "data", "model", "training", "generation", "evaluation")
NUMERICS_OPS = ("matmul", "gelu", "layer_norm", "masked_softmax", "rope_rotate", "embedding",
                "concat", "add", "mul", "next_token_cross_entropy")
GENERATE = "generation.generate"

# (span name, object that owns the function, attribute) for module-level functions.
FUNCTIONS = (
    [(f"numerics.{op}", numerics, op) for op in NUMERICS_OPS]
    + [(f"training.{f}", training, f)
       for f in ("training_step", "compute_loss", "clip_gradients", "evaluate_loss")]
    + [(f"generation.{f}", generation, f)
       for f in ("generate", "apply_repetition_penalty", "nucleus_filter")]
    + [("generation.softmax_with_temperature", generation, "softmax_with_temperature")]
    + [(f"model.{f}", model, f) for f in ("model_forward", "decoder_layer_forward",
                                         "mcm_forward", "load_checkpoint", "init_params",
                                         "save_checkpoint")]
    + [(f"data.{f}", data, f) for f in ("make_batch", "build_masks", "load_records")]
    + [(f"evaluation.{f}", evaluation, f)
       for f in ("global_sequence_identity", "kl_divergence", "parameter_sweep")]
)
# Methods are looked up on their class.
METHODS = (
    ("numerics.Tensor.backward", numerics.Tensor, "backward"),
    ("training.OptimizerState.apply", training.OptimizerState, "apply"),
    ("tokenizer.encode", tokenizer.TrainableTextEncoder, "encode"),
)


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, read from its last name part."""
    stat = metric.rsplit(".", 1)[1]
    return {"calls": "count", "positions": "count", "flops": "flop", "out_bytes": "B",
            "bytes": "B", "coverage": "ratio", "useful_position_ratio": "ratio",
            "ratio": "ratio"}.get(stat, "ms")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.setup_counts: dict[str, float] = defaultdict(float)
        self.unit_counts: dict[str, float] = defaultdict(float)
        self.counts = self.unit_counts  # the bucket calls are counted in now
        self.request = 0  # spans of one unit share it; SETUP during set-up
        self.units = 0
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def begin_setup(self) -> None:
        self.request, self.counts = SETUP, self.setup_counts

    def begin_unit(self) -> None:
        self.request, self.counts = self.units, self.unit_counts
        self.units += 1

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """A function that runs ``fn`` inside a span called ``name``; ``after``
        sees (args, result, seconds) of every call that returns."""
        spans, stack, active, clock = self.spans, self._stack, self._active, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                spans[index] = Span(name, start, end, parent, self.request)
                counts = self.counts
                counts[name + ".calls"] += 1
                counts[name + ".ms"] += (end - start) * 1e3
            if after is not None:
                after(args, result, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name: str):
        def op(args, out, _seconds):
            self.counts[name + ".out_bytes"] += out.data.nbytes
            if out._backward is not None:
                out._backward = self.wrap(name + ".bwd", out._backward)

        def matmul(args, out, seconds):
            op(args, out, seconds)
            self.counts["numerics.matmul.flops"] += 2.0 * out.data.size * args[0].shape[-1]

        def model_forward(args, _result, seconds):
            counts, positions = self.counts, args[0].seq_ids.size
            counts["model.model_forward.positions"] += positions
            if self._active[GENERATE]:
                counts["generation.model_forward.ms"] += seconds * 1e3
                counts["generation.model_forward.positions"] += positions

        def generate(_args, result, _seconds):
            sample = result[0] if isinstance(result, tuple) else result
            self.counts["generation.tokens_emitted"] += len(sample.steps)

        def save_checkpoint(args, _result, _seconds):
            self.counts["model.save_checkpoint.bytes"] += os.path.getsize(args[1])

        if name == "numerics.matmul":
            return matmul
        if name.startswith("numerics."):
            return op
        return {"model.model_forward": model_forward, GENERATE: generate,
                "model.save_checkpoint": save_checkpoint}.get(name)

    def _swap(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for name, owner, attr in FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, self._after(name))
            for module in PROTDAT_MODULES:
                if getattr(module, attr, None) is original:
                    self._swap(module, attr, wrapper)
        for name, cls, attr in METHODS:
            self._swap(cls, attr, self.wrap(name, getattr(cls, attr)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- report -------------------------------------------------------------

    def per_layer(self, wall_start: float, wall_end: float, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric, as one set-up plus the mean unit; layers a
        workload never enters read 0."""
        units = max(self.units, 1)
        c: dict[str, float] = defaultdict(float, self.setup_counts)
        for key, value in self.unit_counts.items():
            c[key] += value / units
        spans = list(self.spans)  # every call has returned, so no slot is empty
        m: dict[str, float] = {}
        for op in NUMERICS_OPS:
            base = f"numerics.{op}"
            m[f"{base}.calls"] = c[f"{base}.calls"]
            m[f"{base}.fwd_ms"] = c[f"{base}.ms"]
            m[f"{base}.bwd_ms"] = c[f"{base}.bwd.ms"]
            m[f"{base}.out_bytes"] = c[f"{base}.out_bytes"]
        m["numerics.Tensor.backward.ms"] = c["numerics.Tensor.backward.ms"]
        m["numerics.matmul.flops"] = c["numerics.matmul.flops"]
        for f in ("training_step", "compute_loss", "clip_gradients", "OptimizerState.apply",
                  "evaluate_loss"):
            m[f"training.{f}.ms"] = c[f"training.{f}.ms"]
        m["generation.generate.calls"] = c[f"{GENERATE}.calls"]
        for f in ("model_forward", "apply_repetition_penalty", "nucleus_filter",
                  "softmax_with_temperature"):
            m[f"generation.{f}.ms"] = c[f"generation.{f}.ms"]
        positions = c["generation.model_forward.positions"]
        m["generation.useful_position_ratio"] = (
            c["generation.tokens_emitted"] / positions if positions else 0.0)
        for key in ("model_forward.calls", "model_forward.positions", "decoder_layer_forward.ms",
                    "mcm_forward.ms", "load_checkpoint.ms", "init_params.ms",
                    "save_checkpoint.ms", "save_checkpoint.bytes"):
            m[f"model.{key}"] = c[f"model.{key}"]
        for key in ("data.make_batch", "data.build_masks", "data.load_records", "tokenizer.encode",
                    "evaluation.global_sequence_identity", "evaluation.kl_divergence",
                    "evaluation.parameter_sweep"):
            m[f"{key}.calls"] = c[f"{key}.calls"]
            m[f"{key}.ms"] = c[f"{key}.ms"]
        own = layer_self_ms(spans, units)
        for layer in LAYERS:
            m[f"{layer}.self.ms"] = own.get(layer, 0.0)
        m["trace.top_level.coverage"] = top_level_coverage(spans, wall_start, wall_end)
        m["trace.overhead.ratio"] = overhead_ratio
        return {k: float(v) for k, v in m.items()}

    def write_spans(self, path, origin: float) -> None:
        """A text file: a first line with the span names as JSON, then one line
        per span of space-separated integers: name index, start and end in
        microseconds after ``origin``, parent index, request (SETUP for set-up)."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": names}) + "\n")
            for s in self.spans:
                fh.write(f"{index[s.name]} {round((s.start - origin) * 1e6)} "
                         f"{round((s.end - origin) * 1e6)} {s.parent} {s.request}\n")
