#!/usr/bin/env python3
"""Census of a training step, a decode and a sweep: ops, bytes and memory, read without a clock.

Run from the root of a protdat checkout:

    python3 scripts/census.py                 # the working tree
    python3 scripts/census.py --parent HEAD   # a parent commit and the working tree

Each row runs in a fresh Python process that imports protdat from one
tree's ``src``, so what ran before in the caller's interpreter does not
count.  The train and decode rows take the mid config (d_model 128, 4
layers, 16 slots, float32), the sweep row the toy config (d_model 64, 2
layers, 4 slots, float32); all take seeded weights (seed 3).

- ``train``: a batch of 10 synthetic records of 96-128 residues, one
  warm-up step, then a second step of the same batch with
  ``numerics._make`` wrapped by a counter and ``tracemalloc`` on.  ``ops``
  and ``op_bytes`` count the op outputs (each records a graph node) and
  their arrays' bytes; ``kept_after_forward`` is what tracemalloc holds
  when ``backward()`` starts, that is, what the forward pass keeps for the
  backward pass; ``step_peak`` is tracemalloc's peak over the step.
- ``decode``: one no-grad ``generate_candidates`` call, 2 argmax samples
  from a 32-residue fragment to max_len 64, on seeded weights whose EOS
  logit is pushed far down, so that every sample runs to max_len; measured
  after one warm-up call.  ``ops`` and ``op_bytes`` count the op outputs,
  none of which records a node; ``peak`` is tracemalloc's peak over
  the call.  The samples are argmax: a nucleus decode leaves a few small
  blocks in a numpy-internal cache, reached through ``np.cumsum``, whose
  number depends on memory addresses (the cache is bounded, not a leak),
  so a sampled decode's peak varies from run to run.
- ``sweep``: one no-grad ``parameter_sweep`` of one argmax cell (top_p
  1.0, temperature 0.0) over 4 synthetic records of 32-128 residues to
  max_len 64, with the EOS logit pushed down as in ``decode``; measured
  after one warm-up sweep, with the same figures as ``decode``.

Every row also reports ``matmul_flops``, 2 * out.size * k summed over the
calls of ``numerics.matmul`` (k the inner dimension): the projection, FFN
and head GEMMs.  The GEMMs inside attention do not go through
``numerics.matmul`` and are not counted, as in the perfbench tracer.

tracemalloc sees numpy's buffers and Python's objects but not OpenBLAS's
own, so a peak is not RSS.  The memory figures depend on the numpy and
Python builds, the op figures only on the model code.

Without ``--parent`` it prints {row: {figure: value}} as JSON.  With
``--parent REV`` it builds clean copies of REV and of the working tree
under ``.bench_build/``, as ``bench_pairs.py`` does (so the two must not
run at once), runs this script's rows against each copy's ``src``, prints
one ``row figure: parent -> change`` line per figure, then {"parent": ...,
"change": ...} as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # bench_pairs, beside this script
from bench_pairs import SIDES, _git, build_trees  # noqa: E402

ROWS = ("train", "decode", "sweep")
ROW_TIMEOUT_S = 300


MID = dict(d_model=128, n_layers=4, n_heads=4, c_size=16, d_text=128, ffn_dim=512)
TOY = dict(d_model=64, n_layers=2, n_heads=4, c_size=4, d_text=64, ffn_dim=128)


def _params(records, shape: dict, eos_bias: float | None = None):
    """Seeded weights of the ``shape`` config with a word table over the
    records' texts; an ``eos_bias`` replaces the head's EOS bias."""
    from protdat.model import ModelConfig, init_params
    from protdat.tokenizer import AminoVocabulary, TrainableTextEncoder

    words = TrainableTextEncoder.build_vocabulary([r.text for r in records])
    params = init_params(ModelConfig(**shape), seed=3, text_words=words)
    if eos_bias is not None:
        params.head.b.data[AminoVocabulary().eos_id] = eos_bias
    return params


@contextmanager
def _counting_flops(census: dict):
    """Within the block, ``census["matmul_flops"]`` sums the flops of the
    ``numerics.matmul`` calls.  Each row counts them over its warm-up call,
    which runs the same GEMMs as the measured one, so that the counter's
    integers stay out of the measured memory."""
    from protdat import numerics as nx

    census["matmul_flops"], matmul = 0, nx.matmul

    def counted_matmul(a, b, bias=None):
        out = matmul(a, b, bias)
        census["matmul_flops"] += 2 * out.data.size * a.shape[-1]
        return out

    nx.matmul = counted_matmul
    try:
        yield
    finally:
        nx.matmul = matmul


def _count_ops(census: dict) -> None:
    """Wrap ``numerics._make`` so that ``census`` counts its outputs and
    their arrays' bytes."""
    from protdat import numerics as nx

    census.update(ops=0, op_bytes=0)
    make = nx._make

    def counted_make(data, *args):
        census["ops"] += 1
        census["op_bytes"] += data.nbytes
        return make(data, *args)

    nx._make = counted_make


def train_row() -> dict:
    from protdat import numerics as nx
    from protdat.data import make_batch, synthetic_records
    from protdat.tokenizer import AminoVocabulary
    from protdat.training import OptimizerState, TrainingConfig, training_step

    records = synthetic_records(10, seed=3, min_len=96, max_len=128)
    params = _params(records, MID)
    batch = make_batch(records, AminoVocabulary(), params.text_encoder(), params.config.c_size)
    opt = OptimizerState(params, TrainingConfig(batch_size=10, lr=3e-3))
    census: dict = {}
    with _counting_flops(census):
        training_step(batch, params, opt)  # warm-up: caches and optimizer moments

    _count_ops(census)
    run_backward = nx.Tensor.backward

    def measured_backward(self):
        census["kept_after_forward"] = tracemalloc.get_traced_memory()[0]
        run_backward(self)

    nx.Tensor.backward = measured_backward
    tracemalloc.start()
    training_step(batch, params, opt)
    census["step_peak"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return census


def decode_row() -> dict:
    from protdat.data import synthetic_records
    from protdat.generation import (MODE_TEXT_FRAGMENT, GenerationParams, PromptSpec,
                                    generate_candidates)

    record = synthetic_records(1, seed=3, min_len=96, max_len=128)[0]
    params = _params([record], MID, eos_bias=-1.0e4)  # every sample runs to max_len
    prompt = PromptSpec(mode=MODE_TEXT_FRAGMENT, text=record.text, fragment=record.sequence[:32])
    gp = GenerationParams.argmax(max_len=64, seed=3)
    census: dict = {}
    with _counting_flops(census):
        generate_candidates(prompt, params, gp, 2)  # warm-up: rotary tables

    results = _measure_call(census, generate_candidates, prompt, params, gp, 2)
    if any(len(r.sequence) != gp.max_len for r in results):
        raise SystemExit("decode census: a sample stopped before max_len")
    return census


def sweep_row() -> dict:
    from protdat.data import synthetic_records
    from protdat.evaluation import parameter_sweep
    from protdat.generation import GenerationParams

    records = synthetic_records(4, seed=3, min_len=32, max_len=128)
    params = _params(records, TOY, eos_bias=-1.0e4)
    gp = GenerationParams.argmax(max_len=64, seed=3)
    census: dict = {}
    with _counting_flops(census):
        parameter_sweep(params, records, [1.0], [0.0], gp)  # warm-up: rotary tables

    cells = _measure_call(census, parameter_sweep, params, records, [1.0], [0.0], gp)
    if [(c.top_p, c.temperature, c.n_prompts) for c in cells] != [(1.0, 0.0, len(records))]:
        raise SystemExit(f"sweep census: unexpected cells {cells}")
    return census


def _measure_call(census: dict, fn, *args):
    """``fn(*args)`` with every op counted and tracemalloc's peak over the
    call put in ``census["peak"]``."""
    _count_ops(census)
    gc.collect()  # so that no collection left due by the set-up falls inside the call
    tracemalloc.start()
    result = fn(*args)
    census["peak"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return result


def run_row(src: Path, row: str) -> dict:
    """One row, in a fresh process that imports protdat from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, __file__, "--row", row], env=env,
                          stdout=subprocess.PIPE, text=True, check=True, timeout=ROW_TIMEOUT_S)
    return json.loads(proc.stdout)


def census(src: Path) -> dict:
    return {row: run_row(src, row) for row in ROWS}


def comparison_lines(parent: dict, change: dict) -> list[str]:
    """One line per figure: the parent's value, the change's and their difference."""
    return [f"{row} {name}: {parent[row][name]} -> {value} ({value - parent[row][name]:+})"
            for row in ROWS for name, value in change[row].items()]


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="git revision to compare the working tree with")
    ap.add_argument("--row", choices=ROWS, help=argparse.SUPPRESS)  # a child's one row
    args = ap.parse_args(argv)
    if args.row:
        rows = {"train": train_row, "decode": decode_row, "sweep": sweep_row}
        print(json.dumps(rows[args.row](), sort_keys=True))
        return
    if args.parent is None:
        print(json.dumps(census(Path(__file__).resolve().parents[1] / "src"), indent=1))
        return
    root = Path.cwd()
    trees = build_trees(root, args.parent)
    report = {side: census(trees[side] / "src") for side in SIDES}
    report["parent_commit"] = _git(root, "rev-parse", "--short", args.parent).decode().strip()
    print("\n".join(comparison_lines(report["parent"], report["change"])))
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
