"""Operator entry point.

Subcommands: prepare-data, train, generate, eval, sweep,
export-attention.  Values resolve as flags > config file (YAML) >
defaults; the output directory may also come from the PROTDAT_OUT_DIR
environment variable.  The settings flags of ``train`` and ``generate``
are the fields of the config dataclasses, which check every value they
are built with.  The seed is set only at the top level (``--seed`` or
the file's ``seed``), and generation takes it from there.  Every run but
``eval`` writes a reproducibility manifest next to its outputs, built by
one rule (``write_manifest``): the parsed flags, the resolved settings
the command ran with, and the counts it reports, with the version and
the single root seed all randomness flows from.  The manifest is written
last, and a command with an output directory first removes the one an
earlier run left there, so a failed rerun leaves none.  Every output file
is written through ``atomic_open``, so it appears whole or not at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import yaml

from . import __version__
from .data import (DatasetError, SplitSpec, accepted_records, check_types, load_records,
                   read_dataset, split_records, write_jsonl)
from .evaluation import (
    EvaluationError,
    ResidueDistribution,
    export_attention_maps,
    global_sequence_identity,
    kl_divergence,
    parameter_sweep,
    parse_tmalign_output,
    plddt_from_pdb,
    read_fasta,
    write_sweep_csv,
)
from .generation import (
    MODE_TEXT_FRAGMENT,
    MODE_TEXT_ONLY,
    GenerationParams,
    PromptSpec,
    fasta_header,
    generate,
    generate_candidates,
    trace_attention,
    write_fasta,
    write_trace,
)
from .model import ModelConfig, load_checkpoint
from .tokenizer import atomic_open
from .training import TrainingConfig, TrainingError, fit

# every other protdat error subclasses ValueError
KNOWN_ERRORS = (ValueError, TrainingError, FileNotFoundError)


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/latest"
    dataset: str | None = None
    model: dict = field(default_factory=dict)
    training: dict = field(default_factory=dict)
    generation: dict = field(default_factory=dict)

    def __post_init__(self):
        check_types(vars(self), RunConfig, DatasetError)
        if self.seed < 0:
            raise DatasetError("seed must be >= 0")

    def model_config(self) -> ModelConfig:
        return ModelConfig(**self.model)

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(**self.training)

    def generation_params(self, **overrides) -> GenerationParams:
        merged = {"seed": self.seed, **self.generation}
        merged.update({k: v for k, v in overrides.items() if v is not None})
        return GenerationParams(**merged)


def _settable_fields(config_cls) -> list:
    """The fields of ``config_cls`` that a flag or a config-file section sets:
    all but the seed, which is set at the top level only."""
    return [f for f in fields(config_cls) if f.name != "seed"]


def load_run_config(path: str | None, seed: int | None) -> RunConfig:
    """The run configuration: defaults, then the YAML file at ``path``,
    then the ``--seed`` flag."""
    raw = {}
    if path:
        raw = yaml.safe_load(Path(path).read_text()) or {}
        if not isinstance(raw, dict):
            raise DatasetError(f"config file {path} must be a key-value tree")
        unknown = [k for k in raw if k not in {f.name for f in fields(RunConfig)}]
        if unknown:
            raise DatasetError(f"config file: unknown key {unknown[0]!r}")
        check_types(raw, RunConfig, DatasetError, "config file")
        for key, config_cls in (("model", ModelConfig), ("training", TrainingConfig),
                                ("generation", GenerationParams)):
            section = raw.get(key, {})
            names = {f.name for f in _settable_fields(config_cls)}
            unknown = [k for k in section if k not in names]
            if unknown:
                raise DatasetError(f"config section {key!r}: unknown key {unknown[0]!r}")
            check_types(section, config_cls, DatasetError, f"config section {key!r}")
    cfg = RunConfig(**raw)
    return cfg if seed is None else replace(cfg, seed=seed)


def claim_out_dir(flag_value: str | None, cfg: RunConfig) -> Path:
    """The output directory (the flag, else ``PROTDAT_OUT_DIR``, else the
    config's), rid of the manifest of any earlier run into it."""
    out_dir = Path(flag_value or os.environ.get("PROTDAT_OUT_DIR") or cfg.out_dir)
    (out_dir / "run_manifest.json").unlink(missing_ok=True)
    return out_dir


def write_manifest(path: Path, args, seed: int, **config) -> None:
    """Reproducibility manifest: ``run_manifest.json`` in an output directory,
    or a ``<file>.manifest.json`` sidecar for a single-file output.  Its
    config is every parsed flag (the namespace minus its handler), then
    ``config``: the resolved settings objects and the counts the command
    reports."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    manifest = {
        "command": args.command,
        "version": __version__,
        "seed": seed,
        "config": {**flags, **config},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def write_output(args, write, seed: int | None = None, **config) -> None:
    """Hand ``write`` the ``--out`` file, written whole or not at all and
    given a manifest sidecar when the command has a seed, or else stdout."""
    if not args.out:
        write(sys.stdout)
        return
    with atomic_open(args.out, "w") as fh:
        write(fh)
    if seed is not None:
        write_manifest(Path(args.out + ".manifest.json"), args, seed, **config)


def _overrides(args, config_cls) -> dict:
    """The fields of ``config_cls`` that a flag of ``_add_config_flags`` set."""
    values = {f.name: getattr(args, f.name) for f in _settable_fields(config_cls)}
    return {k: v for k, v in values.items() if v is not None}


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


# -- subcommand implementations ----------------------------------------------


def cmd_prepare_data(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    out_dir = claim_out_dir(args.out, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = read_dataset(args.data, args.format)
    with atomic_open(out_dir / "errors.txt", "w") as fh:
        fh.write(report.error_text + ("\n" if report.errors else ""))
    records = accepted_records(report, args.data)
    spec = SplitSpec(train=args.train, valid=args.valid, test=args.test, seed=cfg.seed)
    train, valid, test = split_records(records, spec)
    write_jsonl(out_dir / "train.jsonl", train)
    write_jsonl(out_dir / "valid.jsonl", valid)
    write_jsonl(out_dir / "test.jsonl", test)
    write_manifest(out_dir / "run_manifest.json", args, cfg.seed, rows=report.total_rows,
                   invalid=len(report.errors), sizes=[len(train), len(valid), len(test)])
    print(
        f"prepared {len(records)} records -> train/valid/test = "
        f"{len(train)}/{len(valid)}/{len(test)} ({len(report.errors)} invalid rows)"
    )
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    cfg.model.update(_overrides(args, ModelConfig))
    cfg.training.update(_overrides(args, TrainingConfig))
    out_dir = claim_out_dir(args.out, cfg)
    data_path = args.data or cfg.dataset
    if not data_path:
        raise DatasetError("train: no dataset given (--data or config)")
    train_records = load_records(data_path)
    valid_records = load_records(args.valid) if args.valid else []
    model_config = cfg.model_config()
    train_config = cfg.training_config()
    params, log = fit(
        train_records,
        valid_records,
        model_config,
        train_config,
        epochs=args.epochs,
        seed=cfg.seed,
        out_dir=out_dir,
        embedding_path=args.embeddings,
        max_steps=args.max_steps,
    )
    write_manifest(out_dir / "run_manifest.json", args, cfg.seed, dataset=data_path,
                   model=asdict(model_config), training=asdict(train_config))
    train_losses = log.losses("train")
    last = f"{train_losses[-1]:.4f}" if train_losses else "n/a"
    print(f"trained {len(train_losses)} steps (final loss {last}); checkpoint: {out_dir / 'model.ckpt'}")
    return 0


def cmd_generate(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    params = load_checkpoint(args.ckpt)
    gp = cfg.generation_params(**_overrides(args, GenerationParams))
    prompt = PromptSpec(mode=args.mode, text=args.text, fragment=args.fragment or "",
                        record_id=args.record_id)
    provider = params.text_encoder(args.embeddings)
    results = generate_candidates(prompt, params, gp, args.num, text_provider=provider)
    entries = [(fasta_header(f"gen-{i:04d}", prompt, replace(gp, seed=gp.seed + i)), r.sequence)
               for i, r in enumerate(results)]
    write_output(args, lambda fh: write_fasta(entries, fh), cfg.seed, generation=asdict(gp))
    if args.trace:
        with atomic_open(args.trace, "w") as fh:
            write_trace(results, fh)
    return 0


def cmd_eval(args) -> int:
    given = {"--ref": args.ref, "--gen": args.gen, "--pdb": args.pdb, "--in": args.input}
    needed = {"identity": ("--ref", "--gen"), "kl": ("--ref", "--gen"), "plddt": ("--pdb",),
              "tmalign": ("--in",)}
    missing = [flag for flag in needed[args.metric] if given[flag] is None]
    if missing:
        raise EvaluationError(f"eval {args.metric}: {missing[0]} is required")
    if args.metric == "identity":
        ref = read_fasta(args.ref)
        gen = read_fasta(args.gen)
        if len(ref) != len(gen):
            raise EvaluationError(f"entry count mismatch: {len(ref)} ref vs {len(gen)} gen")
        lines = ["ref_id,gen_id,identity,score"]
        for (ref_h, ref_seq), (gen_h, gen_seq) in zip(ref, gen):
            r = global_sequence_identity(ref_seq, gen_seq)
            lines.append(f"{ref_h.split()[0]},{gen_h.split()[0]},{r.identity:.6f},{r.score}")
        output = "\n".join(lines) + "\n"
    elif args.metric == "kl":
        ref = ResidueDistribution.from_sequences(seq for _, seq in read_fasta(args.ref))
        gen = ResidueDistribution.from_sequences(seq for _, seq in read_fasta(args.gen))
        output = f"kl\n{kl_divergence(gen, ref):.8f}\n"
    elif args.metric == "plddt":
        lines = ["file,mean_plddt,n_residues"]
        for pdb in args.pdb:
            mean, values = plddt_from_pdb(pdb)
            lines.append(f"{pdb},{mean:.4f},{len(values)}")
        output = "\n".join(lines) + "\n"
    else:  # tmalign; argparse restricts the choices
        tm, rmsd = parse_tmalign_output(Path(args.input).read_text())
        output = f"tm_score,rmsd\n{tm},{rmsd}\n"
    write_output(args, lambda fh: fh.write(output))
    return 0


def cmd_sweep(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise DatasetError("sweep: --limit must be >= 1")
    cfg = load_run_config(args.config, args.seed)
    params = load_checkpoint(args.ckpt)
    records = load_records(args.data)[: args.limit]
    gp = cfg.generation_params(max_len=args.max_len)
    provider = params.text_encoder(args.embeddings)
    cells = parameter_sweep(
        params,
        records,
        top_p_values=_floats(args.top_p),
        temperature_values=_floats(args.temperature),
        gp=gp,
        text_provider=provider,
    )
    write_output(args, lambda fh: write_sweep_csv(cells, fh), cfg.seed, generation=asdict(gp))
    return 0


def cmd_export_attention(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    params = load_checkpoint(args.ckpt)
    out_dir = claim_out_dir(args.out, cfg)
    prompt = PromptSpec(mode=args.mode, text=args.text, fragment=args.fragment or "",
                        record_id=args.record_id)
    # at most 64 residues unless the flag or the config file says otherwise
    max_len = cfg.generation.get("max_len", 64) if args.max_len is None else args.max_len
    gp = cfg.generation_params(max_len=max_len)
    provider = params.text_encoder(args.embeddings)
    result = generate(prompt, params, gp, text_provider=provider)
    trace = trace_attention(prompt, result.sequence, params, text_provider=provider)
    entries = export_attention_maps(trace, condense_cross=args.condense, out_dir=out_dir)
    write_manifest(out_dir / "run_manifest.json", args, cfg.seed, generation=asdict(gp),
                   generated_length=len(result.sequence))
    print(f"wrote {len(entries)} matrices to {out_dir}")
    return 0


# -- parser -------------------------------------------------------------------

# the flag type of each annotated field type
_FLAG_TYPES = {"int": int, "float": float, "str": str}


def _add_config_flags(parser, config_cls) -> None:
    """One ``--field-name`` flag per settable field of ``config_cls``, parsed
    as the field's annotated type; a flag left out leaves the value unset."""
    for f in _settable_fields(config_cls):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            type=_FLAG_TYPES[f.type.partition(" | ")[0]])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protdat",
        description="Train, sample and evaluate a text-conditioned protein sequence generator.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="YAML config file (flags override file values)")
        p.add_argument("--seed", type=int, default=None)

    def add_prompt(p):
        p.add_argument("--ckpt", required=True)
        p.add_argument("--text", required=True)
        p.add_argument("--fragment", default=None)
        p.add_argument("--mode", choices=(MODE_TEXT_ONLY, MODE_TEXT_FRAGMENT), default=MODE_TEXT_ONLY)
        p.add_argument("--record-id", default=None, dest="record_id")
        p.add_argument("--embeddings", default=None)

    p = sub.add_parser("prepare-data", help="validate, split and write canonical jsonl")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("jsonl", "table"), default="jsonl")
    p.add_argument("--out", default=None)
    p.add_argument("--train", type=float, default=0.8,
                   help="records to train: --train/--valid/--test are fractions when they sum "
                        "to 1 or one lies in (0, 1), so 1 0 0 puts all in train; else counts")
    p.add_argument("--valid", type=float, default=0.1)
    p.add_argument("--test", type=float, default=0.1)
    p.set_defaults(func=cmd_prepare_data)

    p = sub.add_parser("train", help="fit a model on a jsonl dataset")
    add_common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--valid", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--max-steps", type=int, default=None, dest="max_steps")
    p.add_argument("--embeddings", default=None, help="precomputed text-embedding file")
    _add_config_flags(p, ModelConfig)
    _add_config_flags(p, TrainingConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample sequences from a checkpoint")
    add_common(p)
    add_prompt(p)
    p.add_argument("--num", type=int, default=1)
    _add_config_flags(p, GenerationParams)
    p.add_argument("--out", default=None, help="FASTA path (default: stdout)")
    p.add_argument("--trace", default=None, help="per-step decoding trace (jsonl)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="sequence metrics over FASTA/PDB/alignment-tool files")
    p.add_argument("metric", choices=("identity", "kl", "plddt", "tmalign"))
    p.add_argument("--ref")
    p.add_argument("--gen")
    p.add_argument("--pdb", nargs="+")
    p.add_argument("--in", dest="input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="top-p x temperature generation sweep")
    add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--top-p", default="0.55,0.70,0.85,1.0", dest="top_p")
    p.add_argument("--temperature", default="0.4,0.6,0.8,1.0,1.2,1.4")
    p.add_argument("--max-len", type=int, dest="max_len", default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-attention", help="write attention-weight matrices for a prompt")
    add_common(p)
    add_prompt(p)
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--condense", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_attention)
    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except KNOWN_ERRORS as exc:
        sys.stderr.write(json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
