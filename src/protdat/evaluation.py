"""Sequence-level measurement stack.

Global identity comes from Needleman-Wunsch alignment under a fixed
simple scheme (match +2, mismatch -1, linear gap -2); identity is the
fraction of identical columns over the full alignment length including
gap columns.  Residue distributions are compared with add-epsilon
smoothed KL divergence.  Structural confidence (pLDDT) is read from the
B-factor column of CA atoms in PDB files; TM-score/RMSD are parsed from
external structure-alignment tool output rather than computed here.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import ProteinRecord
from .generation import GenerationParams, PromptSpec, MODE_TEXT_ONLY, generate
from .model import AttentionTrace, ModelParams
from .tokenizer import RESIDUES, atomic_open

MATCH_SCORE = 2
MISMATCH_SCORE = -1
GAP_SCORE = -2
KL_SMOOTHING = 1e-8


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class AlignmentResult:
    aligned_a: str
    aligned_b: str
    identity: float
    score: int


def global_sequence_identity(a: str, b: str) -> AlignmentResult:
    """Optimal global alignment and its column-identity fraction.

    Traceback ties prefer diagonal, then the gap in ``b``, then the gap
    in ``a``, so results are deterministic.
    """
    if not a or not b:
        raise EvaluationError("global_sequence_identity: empty sequence")
    n, m = len(a), len(b)
    bs = np.frombuffer(b.encode("ascii"), dtype=np.uint8)
    f = np.zeros((n + 1, m + 1), dtype=np.int64)
    f[0, :] = GAP_SCORE * np.arange(m + 1)
    f[:, 0] = GAP_SCORE * np.arange(n + 1)
    j_pen = -GAP_SCORE * np.arange(m + 1)  # gap penalty is negative, offsets positive
    for i in range(1, n + 1):
        match = np.where(bs == ord(a[i - 1]), MATCH_SCORE, MISMATCH_SCORE)
        cand = np.maximum(f[i - 1, :-1] + match, f[i - 1, 1:] + GAP_SCORE)
        # left-gap dependency via running max of (candidate - gap*j)
        g = np.maximum.accumulate(np.concatenate(([f[i, 0] + j_pen[0]], cand + j_pen[1:])))
        f[i, 1:] = (g - j_pen)[1:]
    score = int(f[n, m])

    out_a: list[str] = []
    out_b: list[str] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and f[i, j] == f[i - 1, j - 1] + (
            MATCH_SCORE if a[i - 1] == b[j - 1] else MISMATCH_SCORE
        ):
            out_a.append(a[i - 1])
            out_b.append(b[j - 1])
            i -= 1
            j -= 1
        elif i > 0 and f[i, j] == f[i - 1, j] + GAP_SCORE:
            out_a.append(a[i - 1])
            out_b.append("-")
            i -= 1
        else:
            out_a.append("-")
            out_b.append(b[j - 1])
            j -= 1
    aligned_a = "".join(reversed(out_a))
    aligned_b = "".join(reversed(out_b))
    matches = sum(x == y for x, y in zip(aligned_a, aligned_b))
    return AlignmentResult(aligned_a, aligned_b, matches / len(aligned_a), score)


@dataclass
class ResidueDistribution:
    probs: np.ndarray  # (25,) over the residue alphabet
    count: int

    @classmethod
    def from_sequences(cls, sequences) -> "ResidueDistribution":
        index = {ch: i for i, ch in enumerate(RESIDUES)}
        counts = np.zeros(len(RESIDUES), dtype=np.float64)
        for seq in sequences:
            for ch in seq:
                if ch not in index:
                    raise EvaluationError(f"non-residue symbol {ch!r}")
                counts[index[ch]] += 1
        total = int(counts.sum())
        if not total:
            raise EvaluationError("no residues to count")
        return cls(probs=counts / total, count=total)


def kl_divergence(p: ResidueDistribution, q: ResidueDistribution) -> float:
    """Add-epsilon smoothed KL(p || q); zero bins never produce infinity."""
    ps = p.probs + KL_SMOOTHING
    qs = q.probs + KL_SMOOTHING
    ps = ps / ps.sum()
    qs = qs / qs.sum()
    return float(np.sum(ps * np.log(ps / qs)))


def plddt_from_pdb(path) -> tuple[float, list[float]]:
    """Per-residue pLDDT from the B-factor column of each residue's CA atom."""
    values: list[float] = []
    seen: set[tuple[str, str, str]] = set()
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.startswith("ATOM"):
            continue
        if len(line) < 66:
            warnings.warn(f"line {line_no}: ATOM record too short, skipped", stacklevel=2)
            continue
        if line[12:16].strip() != "CA":
            continue
        key = (line[21], line[22:26], line[26])
        if key in seen:
            continue
        try:
            b = float(line[60:66])
        except ValueError:
            warnings.warn(f"line {line_no}: unparsable B-factor, skipped", stacklevel=2)
            continue
        seen.add(key)
        values.append(b)
    if not values:
        raise EvaluationError(f"{path}: no CA atoms found")
    return float(np.mean(values)), values


_TM_LINE = re.compile(r"TM-score=\s*([0-9]*\.?[0-9]+)(.*)")
_RMSD_LINE = re.compile(r"RMSD=\s*([0-9]*\.?[0-9]+)")


def parse_tmalign_output(text: str) -> tuple[float, float]:
    """(TM-score, RMSD) from structure-alignment tool output text.

    When both normalizations are reported, the score normalized by the
    second (reference) chain is taken.
    """
    scores = [(float(m.group(1)), m.group(2)) for m in _TM_LINE.finditer(text)]
    if not scores:
        raise EvaluationError("no TM-score line found")
    tm = next((value for value, rest in scores if "Chain_2" in rest), scores[0][0])
    m = _RMSD_LINE.search(text)
    if m is None:
        raise EvaluationError("no RMSD field found")
    return tm, float(m.group(1))


def condense_cca(cca: np.ndarray, c_size: int) -> np.ndarray:
    """Sum the first c_size key columns into one: (S, c+S) -> (S, 1+S)."""
    return np.concatenate([cca[:, :c_size].sum(axis=1, keepdims=True), cca[:, c_size:]], axis=1)


def export_attention_maps(trace: AttentionTrace, condense_cross: bool, out_dir) -> list[dict]:
    """Write head-averaged per-layer maps (plus all-layer means) as CSV.

    Returns the manifest entries, which are also written to
    ``attention_manifest.json`` alongside the matrices.  The final layer's
    ``ptm`` map, also in the mean, has untrained queries (see AttentionTrace).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_layers = len(trace.ptm)
    c_size = trace.cca[0].shape[1] - trace.cca[0].shape[0] if trace.cca else 0
    entries: list[dict] = []

    def emit(name: str, layer, matrix: np.ndarray):
        path = out_dir / f"{name}.csv"
        with atomic_open(path, "w") as fh:
            np.savetxt(fh, matrix, delimiter=",")
        entries.append(
            {"file": path.name, "branch": name.split("_")[0], "layer": layer, "shape": list(matrix.shape)}
        )

    maps = [(f"layer{i:02d}", i, trace.ptm[i], trace.cim[i], trace.cca[i])
            for i in range(n_layers)]
    if n_layers:
        means = [np.mean(m, axis=0) for m in (trace.ptm, trace.cim, trace.cca)]
        maps.append(("mean", "all", *means))
    for suffix, layer, ptm, cim, cca in maps:
        emit(f"ptm_{suffix}", layer, ptm)
        emit(f"cim_{suffix}", layer, cim)
        emit(f"cca_{suffix}", layer, condense_cca(cca, c_size) if condense_cross else cca)
    with atomic_open(out_dir / "attention_manifest.json", "w") as fh:
        fh.write(json.dumps(entries, indent=2) + "\n")
    return entries


def guidance_reference_curve(c: int, m: int) -> float:
    """Expected prompt-token attention share after m generated tokens: c/(c+m)."""
    if c < 1:
        raise EvaluationError("c must be >= 1")
    if m < 0:
        raise EvaluationError("m must be >= 0")
    return c / (c + m)


# -- FASTA and the generation-parameter sweep --------------------------------


def read_fasta(path) -> list[tuple[str, str]]:
    entries: list[tuple[str, str]] = []
    header = None
    chunks: list[str] = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if header is not None:
                entries.append((header, "".join(chunks)))
            header = line[1:]
            if not header:
                raise EvaluationError(f"{path}: line {line_no}: empty FASTA header")
            chunks = []
        else:
            if header is None:
                raise EvaluationError("FASTA body before any header")
            chunks.append(line)
    if header is not None:
        entries.append((header, "".join(chunks)))
    return entries


def sweep_cell_seed(base_seed: int, cell_index: int, prompt_index: int) -> int:
    """Seed derivation shared by the sweep and its decomposition oracle."""
    return base_seed + 10_000 * cell_index + prompt_index


@dataclass
class SweepCell:
    top_p: float
    temperature: float
    mean_kl: float
    mean_identity: float
    n_prompts: int


def parameter_sweep(
    params: ModelParams,
    records: list[ProteinRecord],
    top_p_values: list[float],
    temperature_values: list[float],
    gp: GenerationParams,
    text_provider=None,
) -> list[SweepCell]:
    """Generate per prompt for every (top_p, T) cell and score the output.

    Cells are laid out row-major over top_p x temperature; generation for
    prompt j of cell i uses seed ``sweep_cell_seed(gp.seed, i, j)``.
    Reported metrics are the per-prompt means of smoothed KL (generated
    vs reference residue distribution) and global identity.
    """
    if not top_p_values or not temperature_values:
        raise EvaluationError("empty sweep grid")
    if not records:
        raise EvaluationError("sweep needs at least one prompt record")
    cells: list[SweepCell] = []
    grid = [(top_p, temperature) for top_p in top_p_values for temperature in temperature_values]
    for cell_index, (top_p, temperature) in enumerate(grid):
        kls: list[float] = []
        idents: list[float] = []
        for j, rec in enumerate(records):
            cell_gp = replace(gp, temperature=temperature, top_p=top_p,
                              seed=sweep_cell_seed(gp.seed, cell_index, j))
            prompt = PromptSpec(mode=MODE_TEXT_ONLY, text=rec.text, record_id=rec.id)
            result = generate(prompt, params, cell_gp, text_provider=text_provider)
            if result.sequence:
                gen_dist = ResidueDistribution.from_sequences([result.sequence])
                ref_dist = ResidueDistribution.from_sequences([rec.sequence])
                kls.append(kl_divergence(gen_dist, ref_dist))
                idents.append(global_sequence_identity(result.sequence, rec.sequence).identity)
            else:
                kls.append(float("nan"))
                idents.append(0.0)
        # the KL mean skips empty samples, and is nan for a cell of only those
        mean_kl = float("nan") if np.isnan(kls).all() else float(np.nanmean(kls))
        cells.append(SweepCell(top_p, temperature, mean_kl, float(np.mean(idents)), len(records)))
    return cells


def write_sweep_csv(cells: list[SweepCell], fh) -> None:
    fh.write("top_p,temperature,mean_kl,mean_identity,n_prompts\n")
    for c in cells:
        fh.write(f"{c.top_p},{c.temperature},{c.mean_kl:.6f},{c.mean_identity:.6f},{c.n_prompts}\n")
