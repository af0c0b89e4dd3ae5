"""The three workloads and the closed loop that measures them.

Every command here is an offline job, so each workload is a closed loop
with a single caller: the next unit of work starts when the last one
returns.  A unit is one ``training.fit`` (train), one
``generation.generate_candidates`` call (decode) or one
``evaluation.parameter_sweep`` (sweep).  Each unit's outputs are checked,
and a failed check counts all of the unit's steps, samples or cells as
failed.
"""

from __future__ import annotations

import gc
import hashlib
import io
import itertools
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from protdat import data, evaluation, generation, model, training
from protdat.tokenizer import AminoVocabulary, TrainableTextEncoder

import inputs
from summary import describe
from tracer import LAYERS, Tracer, unit_of

SETUP_REPEATS = 3  # set-ups before each unit: at least this many, for at least SETUP_MIN_S
SETUP_MIN_S = 0.1
MIN_UNITS = 2

TRAIN_CONFIG = training.TrainingConfig(batch_size=inputs.TRAIN_BATCH, lr=3e-3, weight_decay=0.0)
TRAIN_EPOCHS = 2

DECODE_MAX_LEN = 128
DECODE_SAMPLES = 2
FIRST_TOKEN_CALLS = 5

SWEEP_TOP_P = (0.7, 0.9)
SWEEP_TEMPERATURE = (0.6, 1.0, 1.4)
SWEEP_MAX_LEN = 64

# What the final JSON line reports with --trace 0, as in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "tokens_per_s": "tok/s", "unit_ms_p50": "ms", "peak_rss_mb": "MB"}

# The ten end-to-end figures a user of each command waits for; every
# workload prints all ten, marking the ones it does not measure.
USER_METRICS = ("setup_s", "train_tokens_per_s", "step_ms_p50", "train_loss_last",
                "decode_tokens_per_s", "sample_s_p50", "first_token_ms_p50", "sweep_s",
                "peak_rss_mb", "failed_ratio")


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@dataclass
class Unit:
    seconds: float
    tokens: int
    latencies_ms: list[float]


@dataclass
class Phase:
    """Set-up times and units of one measured stretch of a run."""

    setup_s: list[float] = field(default_factory=list)
    units: list[Unit] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0

    @property
    def latencies_ms(self) -> list[float]:
        return [x for u in self.units for x in u.latencies_ms]

    @property
    def tokens_per_s(self) -> float:
        return statistics.median(u.tokens / u.seconds for u in self.units)


class Workload:
    """Inputs are written at construction.  ``setup`` is what a user's
    program does before its first unit of work, and is timed on its own."""

    name = ""
    latency_name = ""  # what one latency sample of a unit is

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.paths = inputs.WRITERS[self.name](seed, run_dir)
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []

    def check(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        if problems:
            self.failed += attempted
            self.problems.extend(problems)

    def repeats(self, key: str, payload: bytes) -> list[str]:
        """The first output under ``key`` is the reference; later ones must match it."""
        digest = sha256(payload)
        if self.digests.setdefault(key, digest) != digest:
            return [f"{key} differs from the first unit's"]
        return []

    def setup(self) -> None:
        raise NotImplementedError

    def probe(self) -> None:
        """Measurements taken once before the loop, after a first set-up."""

    def unit(self) -> Unit:
        raise NotImplementedError

    def user_metrics(self, phase: Phase) -> dict[str, str]:
        raise NotImplementedError


class Train(Workload):
    name = "train"
    latency_name = "step_ms_p50"

    def setup(self) -> None:
        self.train = data.load_records(self.paths["train"])
        self.valid = data.load_records(self.paths["valid"])
        words = TrainableTextEncoder.build_vocabulary([r.text for r in self.train])
        params = model.init_params(inputs.MID, seed=self.seed, text_words=words)
        training.OptimizerState(params, TRAIN_CONFIG)

    def unit(self) -> Unit:
        out_dir = self.run_dir / "fit"
        start = time.perf_counter()
        _, log = training.fit(self.train, self.valid, inputs.MID, TRAIN_CONFIG,
                              epochs=TRAIN_EPOCHS, seed=self.seed, out_dir=out_dir)
        seconds = time.perf_counter() - start
        losses, valid = log.losses("train"), log.losses("valid")
        problems = self.repeats("train_log.jsonl", (out_dir / "train_log.jsonl").read_bytes())
        if not all(map(math.isfinite, losses + valid)):
            problems.append("non-finite loss")
        elif not losses[-1] < losses[0]:
            problems.append("training loss did not fall")
        self.check(len(losses), problems)
        self.last_loss = losses[-1]
        # A step's wall time is the gap to the previous log entry.  A step
        # right after a validation pass would include that pass, so it is
        # left out.
        steps, prev = [], None
        for e in log.entries:
            if e.split == "train" and (prev is None or prev.split == "train"):
                steps.append((e.wall_time - (prev.wall_time if prev else 0.0)) * 1e3)
            prev = e
        tokens = TRAIN_EPOCHS * sum(len(r.sequence) + 1 for r in self.train)
        return Unit(seconds, tokens, steps)

    def user_metrics(self, phase: Phase) -> dict[str, str]:
        return {
            "train_tokens_per_s": f"{phase.tokens_per_s:.6g} tok/s p50 (n={len(phase.units)} fits)",
            "step_ms_p50": describe(phase.latencies_ms, "ms"),
            "train_loss_last": f"{self.last_loss:.6g} nats",
        }


class Decode(Workload):
    name = "decode"
    latency_name = "sample_s_p50"

    def setup(self) -> None:
        self.params = model.load_checkpoint(self.paths["checkpoint"])
        self.provider = self.params.text_encoder()
        record = data.load_records(self.paths["prompts"])[0]
        self.prompt = generation.PromptSpec(mode=generation.MODE_TEXT_FRAGMENT, text=record.text,
                                            fragment=record.sequence)

    def _decode(self, max_len: int, n_samples: int) -> float:
        """One checked generate_candidates call; returns its wall time in seconds."""
        gp = generation.GenerationParams(max_len=max_len, seed=self.seed)
        start = time.perf_counter()
        results = generation.generate_candidates(self.prompt, self.params, gp, n_samples,
                                                 text_provider=self.provider)
        seconds = time.perf_counter() - start
        seqs = [r.sequence for r in results]
        vocab = AminoVocabulary()
        problems = [f"sample of {len(s)} residues, expected {max_len}" for s in seqs
                    if len(s) != max_len or not vocab.is_valid_sequence(s)
                    or not s.startswith(self.prompt.fragment)]
        if len(seqs) != n_samples:
            problems.append(f"{len(seqs)} samples, expected {n_samples}")
        fasta = io.StringIO()
        generation.write_fasta([(generation.fasta_header(f"sample{i}", self.prompt, gp), s)
                                for i, s in enumerate(seqs)], fasta)
        problems += self.repeats(f"fasta max_len={max_len}", fasta.getvalue().encode())
        self.check(n_samples, problems)
        return seconds

    def probe(self) -> None:
        """Time to the first token: calls whose only new token is one."""
        self.first_token_ms = [self._decode(len(self.prompt.fragment) + 1, 1) * 1e3
                               for _ in range(FIRST_TOKEN_CALLS)]

    def unit(self) -> Unit:
        seconds = self._decode(DECODE_MAX_LEN, DECODE_SAMPLES)
        tokens = DECODE_SAMPLES * (DECODE_MAX_LEN - len(self.prompt.fragment))
        return Unit(seconds, tokens, [seconds * 1e3 / DECODE_SAMPLES])

    def user_metrics(self, phase: Phase) -> dict[str, str]:
        return {
            "decode_tokens_per_s": f"{phase.tokens_per_s:.6g} tok/s p50 (n={len(phase.units)} calls)",
            "sample_s_p50": describe([x / 1e3 for x in phase.latencies_ms], "s"),
            "first_token_ms_p50": describe(self.first_token_ms, "ms"),
        }


class Sweep(Workload):
    name = "sweep"
    latency_name = "sweep_s"

    def setup(self) -> None:
        self.params = model.load_checkpoint(self.paths["checkpoint"])
        self.provider = self.params.text_encoder()
        self.records = data.load_records(self.paths["prompts"])

    def unit(self) -> Unit:
        gp = generation.GenerationParams(max_len=SWEEP_MAX_LEN, seed=self.seed)
        # The sweep keeps its samples to itself; the ``generate`` it looks up
        # is wrapped so that the tokens it really emitted are counted.
        samples: list[str] = []
        generate = evaluation.generate

        def counted(*args, **kwargs):
            result = generate(*args, **kwargs)
            samples.append(result.sequence)
            return result

        evaluation.generate = counted
        try:
            start = time.perf_counter()
            cells = evaluation.parameter_sweep(self.params, self.records, list(SWEEP_TOP_P),
                                               list(SWEEP_TEMPERATURE), gp,
                                               text_provider=self.provider)
            seconds = time.perf_counter() - start
        finally:
            evaluation.generate = generate
        grid = [(p, t) for p in SWEEP_TOP_P for t in SWEEP_TEMPERATURE]
        problems = []
        if [(c.top_p, c.temperature) for c in cells] != grid:
            problems.append(f"{len(cells)} sweep rows do not match the {len(grid)}-cell grid")
        problems += [f"bad sweep row {c}" for c in cells
                     if not (0.0 <= c.mean_identity <= 1.0 and math.isfinite(c.mean_kl)
                             and c.n_prompts == len(self.records))]
        if len(samples) != len(grid) * len(self.records):
            problems.append(f"{len(samples)} sweep samples, expected {len(grid) * len(self.records)}")
        vocab = AminoVocabulary()
        problems += [f"sweep sample of {len(s)} residues, expected {SWEEP_MAX_LEN}" for s in samples
                     if len(s) != SWEEP_MAX_LEN or not vocab.is_valid_sequence(s)]
        csv = io.StringIO()
        evaluation.write_sweep_csv(cells, csv)
        problems += self.repeats("sweep.csv", csv.getvalue().encode())
        self.check(len(grid), problems)
        return Unit(seconds, sum(map(len, samples)), [seconds * 1e3])

    def user_metrics(self, phase: Phase) -> dict[str, str]:
        return {"sweep_s": describe([x / 1e3 for x in phase.latencies_ms], "s")}


WORKLOADS = {w.name: w for w in (Train, Decode, Sweep)}


def setups(wl: Workload, phase: Phase, repeats: int, min_s: float) -> None:
    """Set up at least ``repeats`` times and for at least ``min_s`` seconds."""
    start = time.perf_counter()
    for i in itertools.count():
        if i >= repeats and time.perf_counter() - start >= min_s:
            return
        begin = time.perf_counter()
        wl.setup()
        phase.setup_s.append(time.perf_counter() - begin)


def run_phase(wl: Workload, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Run units until ``seconds`` pass.  Untraced, set-up is repeated before
    every unit, so that its median, like the units', samples the whole
    phase and not one moment of a host whose speed drifts.  Traced, it
    runs once, so that the per-layer figures hold exactly one set-up."""
    phase = Phase(start=time.perf_counter())
    if tracer is not None:
        tracer.begin_setup()
        setups(wl, phase, 1, 0.0)
    rounds: list[float] = []
    crashes = 0
    while True:
        if len(phase.units) >= MIN_UNITS:
            # Stop when the next round would more likely end after the budget than before.
            if time.perf_counter() - phase.start + statistics.median(rounds) / 2 >= seconds:
                break
        elif crashes > MIN_UNITS:
            break
        round_start = time.perf_counter()
        # In real use every set-up and unit is a process of its own.  The
        # autodiff graphs are reference cycles, so without a collection the
        # last unit's garbage would still be held, and collected, in the next.
        if tracer is None:
            gc.collect()
            setups(wl, phase, SETUP_REPEATS, SETUP_MIN_S)
        else:
            tracer.begin_unit()
        gc.collect()
        try:
            phase.units.append(wl.unit())
        except Exception:  # a unit that raises is a failed unit; keep measuring
            traceback.print_exc(file=sys.stderr)
            wl.check(1, ["unit raised"])
            crashes += 1
        rounds.append(time.perf_counter() - round_start)
    phase.end = time.perf_counter()
    return phase


def run(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> tuple[dict, dict]:
    """Run one workload; returns the result object the benchmark prints last,
    and the raw samples behind it.

    Untraced, the whole budget is one measured phase.  Traced, the first
    half runs untraced and gives the end-to-end figures; the second half
    runs traced and gives the per-layer ones and the tracing overhead.
    """
    wl = WORKLOADS[name](seed, run_dir)
    wl.setup()
    wl.probe()
    if trace:
        plain = run_phase(wl, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            phase = run_phase(wl, seconds / 2, tracer)
        finally:
            tracer.restore()
    else:
        plain = phase = run_phase(wl, seconds)
    if not (plain.units and phase.units):
        raise RuntimeError(f"{name}: no unit of work completed")

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shown = {
        "setup_s": describe(plain.setup_s, "s"),
        "peak_rss_mb": f"{rss_mb:.6g} MB",
        "failed_ratio": f"{wl.failed / max(wl.attempted, 1):g} ratio "
                        f"(failed {wl.failed} / attempted {wl.attempted})",
        **wl.user_metrics(plain),
    }
    print(f"# {name}: seed {seed}, {seconds:g} s, trace {int(trace)}; "
        f"unit latency is {wl.latency_name}")
    for key in USER_METRICS:
        print(f"#   {key:<20} {shown.get(key, 'n/a (not measured by this workload)')}")
    for key, digest in sorted(wl.digests.items()):
        print(f"#   digest {key:<22} sha256:{digest}")
    for problem in dict.fromkeys(wl.problems):
        print(f"#   FAILED CHECK: {problem}")

    if trace:
        overhead = statistics.median(phase.latencies_ms) / statistics.median(plain.latencies_ms) - 1
        metrics = tracer.per_layer(phase.start, phase.end, overhead)
        tracer.write_spans(run_dir / "spans.txt", phase.start)
        print(f"#   per-layer figures are one set-up plus the mean of {tracer.units} traced units")
        for layer in LAYERS:
            print(f"#   self time {layer:<11} {metrics[layer + '.self.ms']:.6g} ms")
        print(f"#   top-level spans cover {metrics['trace.top_level.coverage']:.4f} of traced wall "
            f"time; tracing overhead {overhead:+.4f} of {wl.latency_name}")
        out = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        values = {
            "setup_s": statistics.median(phase.setup_s),
            "tokens_per_s": phase.tokens_per_s,
            "unit_ms_p50": statistics.median(phase.latencies_ms),
            "peak_rss_mb": rss_mb,
        }
        out = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    samples = {"setup_s": plain.setup_s, "unit_s": [u.seconds for u in plain.units],
               "latencies_ms": plain.latencies_ms}
    return {"correct": wl.failed == 0, "attempted": wl.attempted, "failed": wl.failed,
            "metrics": out}, samples
