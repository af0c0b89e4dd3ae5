"""`fit` keeps freed arrays in the heap, and changes no result by doing so.

`training.keep_heap` sets glibc's mmap and trim thresholds through
`mallopt` for the whole process.  Each test runs in a child process, so
the setting reaches neither the test runner nor the other tests.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# a small fit that writes its files to the directory given as argv[1], if any
FIT = """
import sys
from protdat.data import synthetic_records
from protdat.model import ModelConfig
from protdat.training import TrainingConfig, fit

config = ModelConfig(d_model=16, n_layers=2, n_heads=2, c_size=3, d_text=16, ffn_dim=32)
records = synthetic_records(6, seed=2, min_len=8, max_len=16)
fit(records, records[:2], config, TrainingConfig(batch_size=2, lr=1e-3), epochs=2, seed=2,
    out_dir=sys.argv[1] if len(sys.argv) > 1 else None)
"""

# After the fit, five rounds each allocate, touch and free 32 arrays of
# 2 MiB, and print each round's minor page faults.
REUSE = FIT + """
import resource
import numpy as np

for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.empty(1 << 19, dtype=np.float32) for _ in range(32)]
    for a in arrays:
        a.fill(1.0)
    del arrays, a
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

# The fit on a C library without mallopt (musl, macOS): the lookup finds none.
NO_MALLOPT = """
import ctypes
lookups = []
ctypes.CDLL = lambda name: lookups.append(name) or object()
""" + FIT + """
assert lookups == [None], lookups
"""

needs_mallopt = pytest.mark.skipif(
    os.name != "posix" or not hasattr(ctypes.CDLL(None), "mallopt"),
    reason="the C library has no mallopt")


def _run(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, stdout=subprocess.PIPE,
                          text=True, check=True, timeout=120)
    return proc.stdout


@needs_mallopt
def test_fit_keeps_freed_pages_for_reuse():
    faults = [int(n) for n in _run(REUSE).split()]
    # 64 MiB is 16,384 pages: a heap trimmed after each round faults them all in again
    assert len(faults) == 5
    assert all(n < 500 for n in faults[1:]), faults


def test_fit_without_mallopt_writes_the_same_files(tmp_path):
    files = {}
    for name, code in (("normal", FIT), ("no_mallopt", NO_MALLOPT)):
        _run(code, str(tmp_path / name))
        files[name] = [(tmp_path / name / f).read_bytes() for f in ("train_log.jsonl", "model.ckpt")]
    assert files["normal"] == files["no_mallopt"]
