#!/usr/bin/env python3
"""Census of a training step and a decode: their ops, bytes and memory, read without a clock.

Run from the root of a protdat checkout:

    python3 scripts/census.py                 # the working tree
    python3 scripts/census.py --parent HEAD   # a parent commit and the working tree

Both rows take the mid config (d_model 128, 4 layers, 16 slots, float32)
and run in a fresh Python process that imports protdat from one tree's
``src``, so what ran before in the caller's interpreter does not count:

- ``train``: a batch of 10 synthetic records of 96-128 residues, one
  warm-up step, then a second step of the same batch with
  ``numerics._make`` wrapped by a counter and ``tracemalloc`` on.  ``ops``
  and ``op_bytes`` count the op outputs that recorded a graph node and
  their arrays' bytes; ``kept_after_forward`` is what tracemalloc holds
  when ``backward()`` starts, that is, what the forward pass keeps for the
  backward pass; ``step_peak`` is tracemalloc's peak over the step.
- ``decode``: one no-grad ``generate_candidates`` call, 2 argmax samples
  from a 32-residue fragment to max_len 64, on seeded weights whose EOS
  logit is pushed far down, so that every sample runs to max_len; measured
  after one warm-up call.  No op records a node, so ``ops`` and
  ``op_bytes`` count every op output; ``peak`` is tracemalloc's peak over
  the call.  The samples are argmax: numpy's ``Generator.choice``, which a
  nucleus draw calls, keeps some 59-byte blocks whose number depends on
  memory addresses, so a sampled decode's peak varies from run to run.

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
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # bench_pairs, beside this script
from bench_pairs import SIDES, _git, build_trees  # noqa: E402

ROWS = ("train", "decode")
ROW_TIMEOUT_S = 300


def _mid_params(records):
    from protdat.model import ModelConfig, init_params
    from protdat.tokenizer import TrainableTextEncoder

    config = ModelConfig(d_model=128, n_layers=4, n_heads=4, c_size=16, d_text=128, ffn_dim=512)
    words = TrainableTextEncoder.build_vocabulary([r.text for r in records])
    return init_params(config, seed=3, text_words=words)


def _count_ops(census: dict, recorded_only: bool) -> None:
    """Wrap ``numerics._make`` so that ``census`` counts its outputs: those
    that recorded a graph node, or all of them."""
    from protdat import numerics as nx

    make = nx._make

    def counted_make(data, *args):
        out = make(data, *args)
        if out._node is not None or not recorded_only:
            census["ops"] += 1
            census["op_bytes"] += data.nbytes
        return out

    nx._make = counted_make


def train_row() -> dict:
    from protdat import numerics as nx
    from protdat.data import make_batch, synthetic_records
    from protdat.tokenizer import AminoVocabulary
    from protdat.training import OptimizerState, TrainingConfig, training_step

    records = synthetic_records(10, seed=3, min_len=96, max_len=128)
    params = _mid_params(records)
    batch = make_batch(records, AminoVocabulary(), params.text_encoder(), params.config.c_size)
    opt = OptimizerState(params, TrainingConfig(batch_size=10, lr=3e-3))
    training_step(batch, params, opt)  # warm-up: caches and optimizer moments

    census = {"ops": 0, "op_bytes": 0}
    _count_ops(census, recorded_only=True)
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
    from protdat.tokenizer import AminoVocabulary

    record = synthetic_records(1, seed=3, min_len=96, max_len=128)[0]
    params = _mid_params([record])
    params.head.b.data[AminoVocabulary().eos_id] = -1.0e4  # every sample runs to max_len
    prompt = PromptSpec(mode=MODE_TEXT_FRAGMENT, text=record.text, fragment=record.sequence[:32])
    gp = GenerationParams.argmax(max_len=64, seed=3)
    generate_candidates(prompt, params, gp, 2)  # warm-up: rotary tables

    census = {"ops": 0, "op_bytes": 0}
    _count_ops(census, recorded_only=False)
    gc.collect()  # so that no collection left due by the set-up falls inside the call
    tracemalloc.start()
    results = generate_candidates(prompt, params, gp, 2)
    census["peak"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    if any(len(r.sequence) != gp.max_len for r in results):
        raise SystemExit("decode census: a sample stopped before max_len")
    return census


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
        print(json.dumps({"train": train_row, "decode": decode_row}[args.row](), sort_keys=True))
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
