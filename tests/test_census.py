"""Census of a training step, a decode and a sweep: their work and memory, read without a clock.

``scripts/census.py`` runs each row in a child process and reports, for a
mid-config training step, its ops (each records a graph node), their output
bytes, the bytes tracemalloc holds when ``backward()`` starts and the
step's tracemalloc peak; for one fixed-length no-grad
``generate_candidates`` call and for one toy-config argmax
``parameter_sweep`` cell, the ops, their output bytes and the call's
tracemalloc peak.  Every row also reports the flops of its
``numerics.matmul`` calls; attention GEMMs are not among them.  The
script's docstring gives the set-ups.

The figures were taken on numpy 2.4.6 with scipy-openblas 0.3.31
(DYNAMIC_ARCH), Python 3.11, x86-64.  tracemalloc sees numpy's buffers and
Python's objects but not OpenBLAS's own, so a peak is not RSS.  The memory
figures depend on the numpy and Python builds, the op figures only on the
model code.  A child process keeps them independent of what earlier tests
left in the interpreter.  A change that moves a figure on purpose updates the
constant here and records the old and new values in CHANGES.md, as for
``tests/test_digests.py``; ``python3 scripts/census.py --parent REV`` prints
both sides.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

CENSUS = Path(__file__).resolve().parents[1] / "scripts" / "census.py"

# taken at the builds the module docstring names
TRAIN = {"ops": 178, "op_bytes": 92_312_244, "kept_after_forward": 44_875_948,
         "step_peak": 55_369_888, "matmul_flops": 2_412_559_360}
DECODE = {"ops": 2_215, "op_bytes": 5_793_004, "peak": 1_112_262, "matmul_flops": 192_267_008}
SWEEP = {"ops": 8_876, "op_bytes": 3_278_976, "peak": 127_195, "matmul_flops": 41_648_128}


@pytest.fixture(scope="module")
def census() -> dict:
    proc = subprocess.run([sys.executable, str(CENSUS)], stdout=subprocess.PIPE, text=True,
                          check=True, timeout=600)
    return json.loads(proc.stdout)


def test_one_training_step_takes_the_pinned_ops_bytes_and_memory(census):
    assert census["train"] == TRAIN


def test_one_decode_takes_the_pinned_ops_bytes_and_memory(census):
    assert census["decode"] == DECODE


def test_one_sweep_cell_takes_the_pinned_ops_bytes_and_memory(census):
    assert census["sweep"] == SWEEP
