"""Census of one training step: the work and memory it takes, read without a clock.

A child process builds the mid config (d_model 128, 4 layers, 16 slots,
float32) with a batch of 10 synthetic records of 96-128 residues, runs one
warm-up step, then runs a second step of the same batch with ``numerics._make``
wrapped by a counter and ``tracemalloc`` on.  It reports four figures:

- the number of ops that recorded a graph node;
- the bytes of those ops' output arrays;
- the bytes tracemalloc still holds when ``backward()`` starts, that is,
  what the forward pass keeps for the backward pass;
- tracemalloc's peak over the whole step.

The figures were taken on numpy 2.4.6 with scipy-openblas 0.3.31
(DYNAMIC_ARCH), Python 3.11, x86-64.  tracemalloc sees numpy's buffers and
Python's objects but not OpenBLAS's own, so the peak is not RSS.  The last two
figures depend on the numpy and Python builds, the first two only on the
model code.  A child process keeps them independent of what earlier tests
left in the interpreter.  A change that moves a figure on purpose updates the
constant here and records the old and new values in CHANGES.md, as for
``tests/test_digests.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json
import tracemalloc

from protdat import numerics as nx
from protdat.data import make_batch, synthetic_records
from protdat.model import ModelConfig, init_params
from protdat.tokenizer import AminoVocabulary, TrainableTextEncoder
from protdat.training import OptimizerState, TrainingConfig, training_step

config = ModelConfig(d_model=128, n_layers=4, n_heads=4, c_size=16, d_text=128, ffn_dim=512)
records = synthetic_records(10, seed=3, min_len=96, max_len=128)
params = init_params(config, seed=3, text_words=TrainableTextEncoder.build_vocabulary(
    [r.text for r in records]))
batch = make_batch(records, AminoVocabulary(), params.text_encoder(), config.c_size)
opt = OptimizerState(params, TrainingConfig(batch_size=10, lr=3e-3))
training_step(batch, params, opt)  # warm-up: caches and optimizer moments

census = {"ops": 0, "op_bytes": 0}
make, run_backward = nx._make, nx.Tensor.backward

def counted_make(data, parents, backward):
    out = make(data, parents, backward)
    if out._node is not None:
        census["ops"] += 1
        census["op_bytes"] += data.nbytes
    return out

def measured_backward(self):
    census["kept_after_forward"] = tracemalloc.get_traced_memory()[0]
    run_backward(self)

nx._make, nx.Tensor.backward = counted_make, measured_backward
tracemalloc.start()
training_step(batch, params, opt)
census["step_peak"] = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps(census, sort_keys=True))
"""

# taken at the builds the module docstring names
OPS = 178
OP_BYTES = 92_312_244
KEPT_AFTER_FORWARD = 63_571_588
STEP_PEAK = 71_442_688


def _census() -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, stdout=subprocess.PIPE,
                          text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


def test_one_training_step_takes_the_pinned_ops_bytes_and_memory():
    census = _census()
    assert (census["ops"], census["op_bytes"]) == (OPS, OP_BYTES)
    assert census["kept_after_forward"] == KEPT_AFTER_FORWARD
    assert census["step_peak"] == STEP_PEAK
