"""Outputs do not depend on the BLAS thread count.

The benchmark pins every BLAS thread pool to one thread, while the tests
and a user's run take the library default.  This test trains a mid-size
model (d_model 128, 4 layers, 16 slots) for a few steps and decodes a few
samples from it in two child processes, one with the thread variables the
benchmark sets at 1 and one at 2, and requires equal hashes of the trained
parameters and of the sampled sequences.

It was checked on numpy 2.4.6 with scipy-openblas 0.3.31 (DYNAMIC_ARCH),
Python 3.11, x86-64, 2 cores.  There, a weight gradient taken as one GEMM
over the flattened (batch x positions) rows, in place of one product per
record, makes the two parameter hashes differ at these shapes (records of
96-128 residues, batches of 4), though not with records of 48-64 residues.
On a host whose BLAS never splits the work (one core, or a single-threaded
build) both children run the same code and the test proves nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# the variables perfbench/run.py pins
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

CHILD = """
import hashlib
from protdat.data import synthetic_records
from protdat.generation import GenerationParams, PromptSpec, generate_candidates
from protdat.model import ModelConfig
from protdat.training import TrainingConfig, fit

config = ModelConfig(d_model=128, n_layers=4, n_heads=4, c_size=16, d_text=128, ffn_dim=512)
records = synthetic_records(12, seed=3, min_len=96, max_len=128)
params, _ = fit(records, [], config, TrainingConfig(batch_size=4, lr=3e-3), epochs=1, seed=3)
weights = hashlib.sha256()
for _, p in params.named_parameters():
    weights.update(p.data.tobytes())
prompt = PromptSpec("text+fragment", records[0].text, records[0].sequence[:8])
samples = generate_candidates(prompt, params, GenerationParams(max_len=24, seed=3), 3)
print(weights.hexdigest(), hashlib.sha256(" ".join(s.sequence for s in samples).encode()).hexdigest())
"""


def _hashes(threads: int) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC), **{var: str(threads) for var in THREAD_VARS}}
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, stdout=subprocess.PIPE,
                          text=True, check=True, timeout=120)
    return proc.stdout.split()


def test_training_and_decode_outputs_do_not_depend_on_the_blas_thread_count():
    one, two = _hashes(1), _hashes(2)
    assert len(one) == 2
    assert one == two
