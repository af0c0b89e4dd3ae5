import argparse
import io
import json
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
import yaml

from protdat.cli import build_parser, run_command
from protdat.data import synthetic_records, write_jsonl
from protdat.evaluation import global_sequence_identity, read_fasta
from protdat.generation import (
    MODE_TEXT_ONLY,
    GenerationParams,
    PromptSpec,
    fasta_header,
    generate_candidates,
    write_fasta,
    write_trace,
)
from protdat.model import CHECKPOINT_FORMAT, ModelConfig, load_checkpoint
from protdat.tokenizer import EMBED_FILE_MAGIC, write_embedding_file
from protdat.training import TrainingConfig

TABLE4_TEXT = (
    "FUNCTION: Is involved in the catabolism of quinate. Allows the utilization of "
    "quinate as carbon source via the beta-ketoadipate pathway. "
    "SIMILARITY: Belongs to the type-II 3-dehydroquinase family."
)

TINY_FLAGS = [
    "--d-model", "16", "--n-layers", "1", "--n-heads", "2", "--c-size", "2",
    "--d-text", "16", "--ffn-dim", "32",
]


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.jsonl"
    write_jsonl(path, synthetic_records(12, seed=0, min_len=8, max_len=16))
    return path


@pytest.fixture(scope="module")
def trained_ckpt(tmp_path_factory, toy_dataset):
    out = tmp_path_factory.mktemp("run")
    rc = run_command(
        ["train", "--data", str(toy_dataset), "--out", str(out), "--epochs", "2",
         "--seed", "3", "--lr", "1e-3", *TINY_FLAGS]
    )
    assert rc == 0
    return out / "model.ckpt"


def test_train_epochs_zero_writes_checkpoint(tmp_path, toy_dataset):
    rc = run_command(
        ["train", "--data", str(toy_dataset), "--out", str(tmp_path), "--epochs", "0",
         "--seed", "1", *TINY_FLAGS]
    )
    assert rc == 0
    assert (tmp_path / "model.ckpt").exists()
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["seed"] == 1
    assert manifest["command"] == "train"
    assert manifest["config"]["model"]["d_model"] == 16


@pytest.mark.parametrize(
    "flag, section, key, value",
    [
        ("--d-model", "model", "d_model", 8),
        ("--n-layers", "model", "n_layers", 2),
        ("--n-heads", "model", "n_heads", 4),
        ("--c-size", "model", "c_size", 3),
        ("--d-text", "model", "d_text", 12),
        ("--ffn-dim", "model", "ffn_dim", 48),
        ("--dtype", "model", "dtype", "float64"),
        ("--batch-size", "training", "batch_size", 3),
        ("--lr", "training", "lr", 0.25),
        ("--weight-decay", "training", "weight_decay", 0.5),
        ("--clip-norm", "training", "clip_norm", 2.5),
    ],
)
def test_train_config_flag_lands_in_manifest(tmp_path, toy_dataset, flag, section, key, value):
    rc = run_command(
        ["train", "--data", str(toy_dataset), "--out", str(tmp_path), "--epochs", "0",
         *TINY_FLAGS, flag, str(value)]
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["config"][section][key] == value


def test_generate_writes_fasta_to_stdout(trained_ckpt, capsys):
    rc = run_command(
        ["generate", "--ckpt", str(trained_ckpt), "--text", TABLE4_TEXT,
         "--mode", "text-only", "--max-len", "12", "--seed", "5"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith(">gen-0000 mode=text-only")
    body = "".join(out.splitlines()[1:])
    assert all(ch in "ARNDCQEGHILKMFPSTWYVBZXUO" for ch in body)


def test_generate_fragment_mode(trained_ckpt, capsys):
    rc = run_command(
        ["generate", "--ckpt", str(trained_ckpt), "--text", TABLE4_TEXT,
         "--mode", "text+fragment", "--fragment", "MAARILLIN", "--max-len", "14",
         "--seed", "5"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "".join(out.splitlines()[1:]).startswith("MAARILLIN")


def test_generate_same_seed_is_byte_identical(trained_ckpt, tmp_path):
    args = ["generate", "--ckpt", str(trained_ckpt), "--text", TABLE4_TEXT,
            "--num", "3", "--max-len", "10", "--seed", "9"]
    a, b = tmp_path / "a.fasta", tmp_path / "b.fasta"
    assert run_command(args + ["--out", str(a)]) == 0
    assert run_command(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    sidecar = json.loads((tmp_path / "a.fasta.manifest.json").read_text())
    assert sidecar["seed"] == 9 and sidecar["command"] == "generate"


def test_generate_manifest_holds_the_prompt_and_the_resolved_settings(trained_ckpt, tmp_path):
    fasta = tmp_path / "gen.fasta"
    rc = run_command(
        ["generate", "--ckpt", str(trained_ckpt), "--text", TABLE4_TEXT, "--mode", "text+fragment",
         "--fragment", "MAAR", "--record-id", "P0A6F5", "--max-len", "9", "--seed", "6",
         "--out", str(fasta)]
    )
    assert rc == 0
    config = json.loads((tmp_path / "gen.fasta.manifest.json").read_text())["config"]
    assert (config["text"], config["fragment"], config["record_id"], config["embeddings"]) == (
        TABLE4_TEXT, "MAAR", "P0A6F5", None)
    assert config["generation"] == asdict(GenerationParams(max_len=9, seed=6))


def test_generate_trace_file(trained_ckpt, tmp_path, capsys):
    trace = tmp_path / "steps.jsonl"
    rc = run_command(
        ["generate", "--ckpt", str(trained_ckpt), "--text", TABLE4_TEXT,
         "--max-len", "6", "--seed", "2", "--trace", str(trace)]
    )
    capsys.readouterr()
    assert rc == 0
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert rows and {"sample", "index", "token", "nucleus_size", "nucleus_rank",
                     "penalized_logit"} == set(rows[0])
    assert [r["sample"] for r in rows] == [0] * len(rows)
    assert [r["index"] for r in rows] == list(range(len(rows)))


def test_generate_num_matches_generate_candidates(trained_ckpt, tmp_path):
    fasta, trace = tmp_path / "gen.fasta", tmp_path / "steps.jsonl"
    rc = run_command(
        ["generate", "--ckpt", str(trained_ckpt), "--text", TABLE4_TEXT, "--num", "3",
         "--max-len", "8", "--seed", "4", "--out", str(fasta), "--trace", str(trace)]
    )
    assert rc == 0
    prompt = PromptSpec(mode=MODE_TEXT_ONLY, text=TABLE4_TEXT)
    gp = GenerationParams(max_len=8, seed=4)
    expected = generate_candidates(prompt, load_checkpoint(trained_ckpt), gp, 3)
    assert read_fasta(fasta) == [
        (fasta_header(f"gen-{i:04d}", prompt, replace(gp, seed=4 + i)), r.sequence)
        for i, r in enumerate(expected)
    ]
    steps = io.StringIO()
    write_trace(expected, steps)
    assert all(r.steps for r in expected)
    assert trace.read_text() == steps.getvalue()
    rows = [json.loads(line) for line in steps.getvalue().splitlines()]
    assert [(r["sample"], r["index"]) for r in rows] == [
        (i, j) for i, r in enumerate(expected) for j in range(len(r.steps))
    ]


@pytest.mark.parametrize("num", ["0", "-1"])
def test_generate_num_below_one_is_a_one_line_error(num, trained_ckpt, tmp_path, capsys):
    fasta = tmp_path / "gen.fasta"
    rc = run_command(["generate", "--ckpt", str(trained_ckpt), "--text", TABLE4_TEXT,
                      "--num", num, "--out", str(fasta)])
    assert rc == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == "GenerationError: n_samples must be >= 1"
    assert not fasta.exists()


@pytest.mark.parametrize("flags,message", [
    (["--repetition-penalty", "nan", "--temperature", "0"],
     "repetition_penalty must be finite and >= 1"),
    (["--temperature", "nan"], "temperature must be finite and >= 0 (0 selects argmax)"),
])
def test_generate_nan_setting_is_a_one_line_error(flags, message, trained_ckpt, capsys):
    rc = run_command(["generate", "--ckpt", str(trained_ckpt), "--text", TABLE4_TEXT, *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == f"GenerationError: {message}"


@pytest.mark.parametrize("flag,value,error", [
    ("--n-heads", "0", "ModelError: n_heads must be >= 1"),
    ("--n-layers", "0", "ModelError: n_layers must be >= 1"),
    ("--batch-size", "0", "TrainingError: batch_size must be >= 1"),
    ("--clip-norm", "-1", "TrainingError: clip_norm must be null or finite and > 0"),
    ("--clip-norm", "nan", "TrainingError: clip_norm must be null or finite and > 0"),
    ("--dtype", "float16", "ModelError: unsupported dtype 'float16'"),
    ("--max-steps", "0", "TrainingError: max_steps must be >= 1"),
    ("--epochs", "-1", "TrainingError: epochs must be >= 0"),
    ("--seed", "-1", "DatasetError: seed must be >= 0"),
])
def test_train_out_of_range_setting_is_a_one_line_error(flag, value, error, tmp_path,
                                                         toy_dataset, capsys):
    out = tmp_path / "run"
    rc = run_command(["train", "--data", str(toy_dataset), "--out", str(out), *TINY_FLAGS,
                      flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error
    assert not out.exists()


def test_eval_identity_matches_library(tmp_path, capsys):
    ref = [("ref-0", "MKVLAARN"), ("ref-1", "DDCCQQEG")]
    gen = [("gen-0", "MKVLA"), ("gen-1", "DDCAQQEG")]
    ref_path, gen_path = tmp_path / "ref.fasta", tmp_path / "gen.fasta"
    with open(ref_path, "w") as fh:
        write_fasta(ref, fh)
    with open(gen_path, "w") as fh:
        write_fasta(gen, fh)
    rc = run_command(["eval", "identity", "--ref", str(ref_path), "--gen", str(gen_path)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "ref_id,gen_id,identity,score"
    for line, (rh, rs), (gh, gs) in zip(lines[1:], ref, gen):
        expected = global_sequence_identity(rs, gs)
        cells = line.split(",")
        assert float(cells[2]) == pytest.approx(expected.identity, abs=1e-6)
        assert int(cells[3]) == expected.score


def test_eval_plddt_and_tmalign(tmp_path, capsys):
    pdb = tmp_path / "pred.pdb"
    pdb.write_text(
        "ATOM      1  CA  ALA A   1       1.000   2.000   3.000  1.00 40.00           C\n"
        "ATOM      2  CA  ALA A   2       1.000   2.000   3.000  1.00 60.00           C\n"
        "ATOM      3  CA  ALA A   3       1.000   2.000   3.000  1.00 80.00           C\n"
    )
    assert run_command(["eval", "plddt", "--pdb", str(pdb)]) == 0
    out = capsys.readouterr().out
    assert ",60.0000,3" in out

    tm = tmp_path / "tm.txt"
    tm.write_text("TM-score= 0.60700 (if normalized by length of Chain_2)\nRMSD=   3.48\n")
    assert run_command(["eval", "tmalign", "--in", str(tm)]) == 0
    assert "0.607,3.48" in capsys.readouterr().out


def test_eval_kl(tmp_path, capsys):
    path = tmp_path / "seqs.fasta"
    with open(path, "w") as fh:
        write_fasta([("a", "MKVMKV"), ("b", "ARNARN")], fh)
    assert run_command(["eval", "kl", "--ref", str(path), "--gen", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert float(out[1]) <= 1e-6


def test_prepare_data_negative_seed_is_a_one_line_error(tmp_path, toy_dataset, capsys):
    out = tmp_path / "prep"
    rc = run_command(["prepare-data", "--data", str(toy_dataset), "--out", str(out),
                      "--seed", "-1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "DatasetError: seed must be >= 0"
    assert not out.exists()


def test_prepare_data_splits_and_reports(tmp_path, toy_dataset):
    out = tmp_path / "prep"
    rc = run_command(
        ["prepare-data", "--data", str(toy_dataset), "--out", str(out),
         "--train", "8", "--valid", "2", "--test", "2", "--seed", "4"]
    )
    assert rc == 0
    sizes = [len(read := (out / f"{name}.jsonl").read_text().splitlines())
             for name in ("train", "valid", "test")]
    assert sizes == [8, 2, 2]
    assert (out / "errors.txt").exists()
    assert (out / "run_manifest.json").exists()


def test_prepare_data_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    rows = [json.dumps({"id": f"r{i}", "text": "FUNCTION: ok.", "sequence": "MAV1"}) for i in range(4)]
    bad.write_text("\n".join(rows) + "\n")
    rc = run_command(["prepare-data", "--data", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"].startswith("DatasetError")
    # the per-row errors are written before the file is rejected
    assert len((tmp_path / "o" / "errors.txt").read_text().splitlines()) == 4


@pytest.mark.parametrize("command", ["prepare-data", "train", "export-attention"])
def test_failed_rerun_leaves_no_manifest_of_the_earlier_run(command, toy_dataset, trained_ckpt,
                                                            tmp_path, capsys):
    out = tmp_path / "out"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps({"id": f"r{i}", "text": "FUNCTION: ok.", "sequence": "MAV1"})
                           + "\n" for i in range(4)))
    good, rerun = {
        "prepare-data": (["--data", str(toy_dataset)], ["--data", str(bad)]),
        "train": (["--data", str(toy_dataset), "--epochs", "0", *TINY_FLAGS],
                  ["--data", str(toy_dataset), "--max-steps", "0", *TINY_FLAGS]),
        "export-attention": (["--ckpt", str(trained_ckpt), "--text", TABLE4_TEXT, "--max-len", "4"],
                             ["--ckpt", str(trained_ckpt), "--text", TABLE4_TEXT,
                              "--mode", "text+fragment"]),
    }[command]
    assert run_command([command, *good, "--out", str(out)]) == 0
    assert (out / "run_manifest.json").exists()
    assert run_command([command, *rerun, "--out", str(out)]) == 1
    capsys.readouterr()
    assert not (out / "run_manifest.json").exists()
    if command == "prepare-data":  # the rerun's own output is there
        assert len((out / "errors.txt").read_text().splitlines()) == 4


# each file a command writes, and the command; {ckpt}, {data}, {bad}, {fasta} and
# {out} stand for the paths of the test below
GENERATE = ["generate", "--ckpt", "{ckpt}", "--text", TABLE4_TEXT, "--num", "2", "--max-len", "8"]
EXPORT = ["export-attention", "--ckpt", "{ckpt}", "--text", TABLE4_TEXT, "--max-len", "4",
          "--out", "{out}"]
PREPARE = ["prepare-data", "--data", "{data}", "--out", "{out}"]
OUTPUT_FILES = [
    ("errors.txt", ["prepare-data", "--data", "{bad}", "--out", "{out}"]),
    ("train.jsonl", PREPARE),
    ("run_manifest.json", PREPARE),
    ("gen.fasta", [*GENERATE, "--out", "{out}/gen.fasta"]),
    ("gen.fasta.manifest.json", [*GENERATE, "--out", "{out}/gen.fasta"]),
    ("steps.jsonl", [*GENERATE, "--trace", "{out}/steps.jsonl"]),
    ("sweep.csv", ["sweep", "--ckpt", "{ckpt}", "--data", "{data}", "--limit", "1", "--top-p",
                   "0.85", "--temperature", "1.0", "--max-len", "8", "--out", "{out}/sweep.csv"]),
    ("kl.csv", ["eval", "kl", "--ref", "{fasta}", "--gen", "{fasta}", "--out", "{out}/kl.csv"]),
    ("ptm_layer00.csv", EXPORT),
    ("attention_manifest.json", EXPORT),
]


@pytest.mark.parametrize("previous", [None, b"an earlier run's file\n"], ids=["new", "existing"])
@pytest.mark.parametrize("name, argv", OUTPUT_FILES, ids=[name for name, _ in OUTPUT_FILES])
def test_failed_output_write_leaves_no_partial_file(name, argv, previous, trained_ckpt,
                                                    toy_dataset, tmp_path, disk_fills, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps({"id": f"r{i}", "text": "FUNCTION: ok.", "sequence": "MAV1"})
                           + "\n" for i in range(4)))
    fasta = tmp_path / "seqs.fasta"
    with open(fasta, "w") as fh:
        write_fasta([("a", "MKVMKV")], fh)
    out = tmp_path / "out"
    out.mkdir()
    if previous:
        (out / name).write_bytes(previous)
    disk_fills(name)
    paths = {"ckpt": trained_ckpt, "data": toy_dataset, "bad": bad, "fasta": fasta, "out": out}
    with pytest.raises(OSError, match="No space left"):
        run_command([arg.format(**paths) for arg in argv])
    capsys.readouterr()
    assert not (out / f"{name}.tmp").exists()
    # a run into an output directory first removes the manifest of the run before
    kept = bool(previous) and name != "run_manifest.json"
    assert (out / name).exists() == kept
    if kept:
        assert (out / name).read_bytes() == previous


def test_sweep_writes_csv(trained_ckpt, toy_dataset, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_command(
        ["sweep", "--ckpt", str(trained_ckpt), "--data", str(toy_dataset), "--limit", "2",
         "--top-p", "0.85", "--temperature", "1.0", "--max-len", "8", "--seed", "3",
         "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "top_p,temperature,mean_kl,mean_identity,n_prompts"
    assert len(lines) == 2


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_sweep_limit_below_one_is_a_one_line_error(limit, trained_ckpt, toy_dataset, tmp_path,
                                                   capsys):
    out = tmp_path / "sweep.csv"
    rc = run_command(
        ["sweep", "--ckpt", str(trained_ckpt), "--data", str(toy_dataset), "--limit", limit,
         "--top-p", "0.85", "--temperature", "1.0", "--max-len", "8", "--out", str(out)]
    )
    assert rc == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == "DatasetError: sweep: --limit must be >= 1"
    assert not out.exists()


def test_export_attention_command(trained_ckpt, tmp_path, capsys):
    out = tmp_path / "maps"
    rc = run_command(
        ["export-attention", "--ckpt", str(trained_ckpt), "--text", TABLE4_TEXT,
         "--max-len", "5", "--seed", "2", "--condense", "--out", str(out)]
    )
    capsys.readouterr()
    assert rc == 0
    manifest = json.loads((out / "attention_manifest.json").read_text())
    assert any(e["branch"] == "cca" for e in manifest)
    cca = np.loadtxt(out / "cca_layer00.csv", delimiter=",")
    assert cca.shape[1] == cca.shape[0] + 1  # condensed


@pytest.mark.parametrize("yaml_max_len, flag, want", [(5, None, 5), (5, "7", 7), (None, None, 64)])
def test_export_attention_max_len_resolves_flag_then_config_then_64(
        trained_ckpt, tmp_path, capsys, yaml_max_len, flag, want):
    config = tmp_path / "run.yaml"
    generation = {} if yaml_max_len is None else {"generation": {"max_len": yaml_max_len}}
    config.write_text(yaml.safe_dump({"seed": 2, **generation}))
    out = tmp_path / "maps"
    rc = run_command(
        ["export-attention", "--ckpt", str(trained_ckpt), "--text", TABLE4_TEXT,
         "--config", str(config), "--out", str(out), *(["--max-len", flag] if flag else [])]
    )
    capsys.readouterr()
    assert rc == 0
    manifest = json.loads((out / "run_manifest.json").read_text())["config"]
    assert manifest["generation"]["max_len"] == want
    assert manifest["generated_length"] <= want


def test_export_attention_manifest_holds_the_resolved_sampling_settings(trained_ckpt, tmp_path,
                                                                        capsys):
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({"seed": 4, "generation": {"temperature": 0.7, "top_p": 0.5}}))
    out = tmp_path / "maps"
    rc = run_command(["export-attention", "--ckpt", str(trained_ckpt), "--text", TABLE4_TEXT,
                      "--config", str(config), "--max-len", "5", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    manifest = json.loads((out / "run_manifest.json").read_text())["config"]
    assert manifest["generation"] == asdict(GenerationParams(temperature=0.7, top_p=0.5,
                                                             max_len=5, seed=4))
    assert manifest["text"] == TABLE4_TEXT


@pytest.mark.parametrize("metric, flags, missing", [
    ("identity", ["--gen", "g.fasta"], "--ref"),
    ("identity", ["--ref", "r.fasta"], "--gen"),
    ("kl", ["--gen", "g.fasta"], "--ref"),
    ("kl", ["--ref", "r.fasta"], "--gen"),
    ("tmalign", [], "--in"),
    ("plddt", [], "--pdb"),
])
def test_eval_without_its_input_flag_is_a_one_line_error(metric, flags, missing, capsys):
    assert run_command(["eval", metric, *flags]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == f"EvaluationError: eval {metric}: {missing} is required"


def test_unknown_subcommand_exits_2(capsys):
    assert run_command(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", [["--bogus"], ["--text-provider", "precomputed"]],
                         ids=["bogus", "text-provider"])
def test_unknown_flag_exits_2(toy_dataset, capsys, flag):
    assert run_command(["train", "--data", str(toy_dataset), *flag]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_checkpoint_is_reported_as_error(capsys):
    rc = run_command(["generate", "--ckpt", "/nonexistent.ckpt", "--text", "FUNCTION: x."])
    assert rc == 1
    assert "error" in json.loads(capsys.readouterr().err)


def test_env_var_out_dir(tmp_path, toy_dataset, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("PROTDAT_OUT_DIR", str(target))
    rc = run_command(
        ["train", "--data", str(toy_dataset), "--epochs", "0", "--seed", "0", *TINY_FLAGS]
    )
    assert rc == 0
    assert (target / "model.ckpt").exists()


def test_config_file_with_flag_precedence(tmp_path, toy_dataset):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "seed: 7\n"
        "model:\n  d_model: 16\n  n_layers: 2\n  n_heads: 2\n  c_size: 2\n"
        "  d_text: 16\n  ffn_dim: 32\n"
        "training:\n  lr: 0.001\n  batch_size: 4\n"
    )
    out = tmp_path / "run"
    rc = run_command(
        ["train", "--config", str(cfg), "--data", str(toy_dataset), "--out", str(out),
         "--epochs", "0", "--n-layers", "1"]
    )
    assert rc == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 7  # from file
    assert manifest["config"]["model"]["n_layers"] == 1  # flag overrides file
    assert manifest["config"]["model"]["d_model"] == 16  # from file
    assert manifest["config"]["training"]["lr"] == 0.001


@pytest.mark.parametrize("section,key", [
    pytest.param("model", "d_modle", id="model"),
    pytest.param("training", "d_modle", id="training"),
    pytest.param("generation", "d_modle", id="generation"),
    pytest.param(None, "sed", id="top-level"),
    # fixed facts of the vocabulary, the data format and the optimizer, and
    # the seed, which is set at the top level only
    pytest.param("model", "vocab_size", id="model.vocab_size"),
    pytest.param("model", "max_seq", id="model.max_seq"),
    # the text source follows from the embedding file, or its absence
    pytest.param("model", "text_provider", id="model.text_provider"),
    pytest.param("training", "beta1", id="training.beta1"),
    pytest.param("generation", "seed", id="generation.seed"),
])
def test_unknown_config_key_is_a_one_line_error(tmp_path, toy_dataset, trained_ckpt, capsys,
                                                section, key):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"{section}:\n  {key}: 16\n" if section else f"{key}: 5\n")
    if section == "generation":
        args = ["generate", "--ckpt", str(trained_ckpt), "--text", TABLE4_TEXT]
    else:
        args = ["train", "--data", str(toy_dataset), "--out", str(tmp_path), "--epochs", "0"]
    assert run_command([*args, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    if section:
        assert error == f"DatasetError: config section {section!r}: unknown key {key!r}"
    else:
        assert error == f"DatasetError: config file: unknown key {key!r}"
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("bad,message", [
    pytest.param({"seed": "abc"}, "config file: seed must be int, not str", id="seed-str"),
    pytest.param({"seed": True}, "config file: seed must be int, not bool", id="seed-bool"),
    pytest.param({"out_dir": 5}, "config file: out_dir must be str, not int", id="out_dir-int"),
    pytest.param({"dataset": 5}, "config file: dataset must be str, not int", id="dataset-int"),
    pytest.param({"model": {"d_model": "abc"}},
                 "config section 'model': d_model must be int, not str", id="model-int-str"),
    pytest.param({"model": {"n_layers": True}},
                 "config section 'model': n_layers must be int, not bool", id="model-int-bool"),
    pytest.param({"model": {"c_size": 2.0}},
                 "config section 'model': c_size must be int, not float", id="model-int-float"),
    pytest.param({"model": {"dtype": 32}},
                 "config section 'model': dtype must be str, not int", id="model-str-int"),
    pytest.param({"training": {"lr": "abc"}},
                 "config section 'training': lr must be float, not str", id="training-float-str"),
    pytest.param({"training": {"weight_decay": False}},
                 "config section 'training': weight_decay must be float, not bool",
                 id="training-float-bool"),
    pytest.param({"training": {"batch_size": None}},
                 "config section 'training': batch_size must be int, not NoneType",
                 id="training-int-null"),
    pytest.param({"training": {"clip_norm": "x"}},
                 "config section 'training': clip_norm must be float, not str",
                 id="training-clip_norm-str"),
    pytest.param({"generation": {"max_len": 12.5}},
                 "config section 'generation': max_len must be int, not float",
                 id="generation-int-float"),
    pytest.param({"model": [16]}, "config file: model must be dict, not list",
                 id="section-list"),
    pytest.param({"generation": {"top_p": [0.5]}},
                 "config section 'generation': top_p must be float, not list",
                 id="generation-float-list"),
])
def test_config_value_of_the_wrong_type_is_a_one_line_error(tmp_path, toy_dataset, capsys,
                                                            monkeypatch, bad, message):
    monkeypatch.chdir(tmp_path)  # the default out_dir is relative
    monkeypatch.delenv("PROTDAT_OUT_DIR", raising=False)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump({"dataset": str(toy_dataset), **bad}))
    assert run_command(["train", "--config", str(cfg), "--epochs", "0", *TINY_FLAGS]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == f"DatasetError: {message}"
    assert not list(tmp_path.rglob("model.ckpt"))


@pytest.mark.parametrize("manifest", [
    pytest.param({}, id="no-d_text"),
    pytest.param({"d_text": 16, "records": {"r1": {"tokens": 1, "d_text": 16}}}, id="no-offset"),
    pytest.param([1, 2], id="not-an-object"),
    pytest.param({"d_text": 16, "records": {"r1": {"offset": -8, "tokens": 1}}},
                 id="negative-offset"),
])
def test_malformed_embedding_manifest_is_a_one_line_error(tmp_path, toy_dataset, capsys,
                                                          manifest):
    emb = tmp_path / "emb.bin"
    emb.write_bytes(f"{EMBED_FILE_MAGIC}\n{json.dumps(manifest)}\n".encode())
    out = tmp_path / "run"
    assert run_command(["train", "--data", str(toy_dataset), "--embeddings", str(emb),
                        "--out", str(out), *TINY_FLAGS]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"].startswith("TokenizerError: malformed embedding manifest")
    assert not out.exists()


def test_binary_file_given_as_embeddings_is_a_one_line_error(tmp_path, toy_dataset, capsys):
    emb = tmp_path / "emb.bin"
    emb.write_bytes(bytes(range(255, -1, -1)))  # its first line is not ASCII
    out = tmp_path / "run"
    assert run_command(["train", "--data", str(toy_dataset), "--embeddings", str(emb),
                        "--out", str(out), *TINY_FLAGS]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"].startswith("TokenizerError: not an embedding file (magic ")
    assert not out.exists()


@pytest.mark.parametrize("d_text, n_records, error", [
    (8, 12, "ModelError: embedding file {emb} has d_text 8, the model d_text 16"),
    (16, 11, "TrainingError: embedding file {emb} has no rows for record 'toy-0011'"),
], ids=["another-width", "missing-record"])
def test_embedding_file_that_does_not_fit_the_run_is_a_one_line_error(
        tmp_path, toy_dataset, capsys, d_text, n_records, error):
    emb = tmp_path / "emb.bin"
    records = synthetic_records(12, seed=0, min_len=8, max_len=16)[:n_records]
    write_embedding_file(emb, {r.id: np.ones((3, d_text), dtype=np.float32) for r in records})
    out = tmp_path / "run"
    assert run_command(["train", "--data", str(toy_dataset), "--embeddings", str(emb),
                        "--out", str(out), *TINY_FLAGS]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error.format(emb=emb)
    assert not out.exists()


@pytest.fixture(scope="module")
def precomputed_run(tmp_path_factory, toy_dataset):
    """(embedding file, checkpoint) of ``train --embeddings`` on the toy dataset,
    with d_text 12 against d_model 16."""
    out = tmp_path_factory.mktemp("precomputed")
    rng = np.random.default_rng(5)
    emb = out / "emb.bin"
    write_embedding_file(emb, {r.id: rng.normal(size=(4, 12)).astype(np.float32)
                               for r in synthetic_records(12, seed=0, min_len=8, max_len=16)})
    flags = [*TINY_FLAGS]
    flags[flags.index("--d-text") + 1] = "12"
    assert run_command(["train", "--data", str(toy_dataset), "--embeddings", str(emb),
                        "--out", str(out / "run"), "--epochs", "2", "--seed", "3",
                        "--lr", "1e-3", *flags]) == 0
    return emb, out / "run" / "model.ckpt"


def test_train_with_an_embedding_file_makes_a_model_without_a_word_list(precomputed_run):
    emb, ckpt = precomputed_run
    params = load_checkpoint(ckpt)
    assert params.text_words is None and params.text_word_embedding is None
    assert params.text_projection.w.shape == (12, 16)
    assert b'"text_words": null' in ckpt.read_bytes().split(b"\n", 2)[1]


def test_precomputed_checkpoint_generates_sweeps_and_exports_byte_identically(
        precomputed_run, toy_dataset, tmp_path, capsys):
    emb, ckpt = precomputed_run
    record_id = synthetic_records(12, seed=0, min_len=8, max_len=16)[0].id
    prompt = ["--ckpt", str(ckpt), "--text", TABLE4_TEXT, "--embeddings", str(emb),
              "--record-id", record_id, "--seed", "4"]
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        commands = [
            ["generate", *prompt, "--num", "2", "--max-len", "10", "--out", str(out / "gen.fasta")],
            ["sweep", "--ckpt", str(ckpt), "--data", str(toy_dataset), "--embeddings", str(emb),
             "--limit", "3", "--top-p", "0.9", "--temperature", "0.7,1.3", "--max-len", "8",
             "--seed", "4", "--out", str(out / "sweep.csv")],
            ["export-attention", *prompt, "--max-len", "6", "--out", str(out / "maps")],
        ]
        out.mkdir()
        assert [run_command(argv) for argv in commands] == [0, 0, 0]
        capsys.readouterr()
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.fasta"))
                        + sorted(out.rglob("*.csv"))})
    assert len(outputs[0]) == 8  # FASTA, sweep, and ptm/cim/cca of the one layer and the mean
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("case", ["word-list-with-file", "no-word-list-no-file"])
def test_checkpoint_and_embedding_file_that_do_not_match_are_a_one_line_error(
        case, trained_ckpt, precomputed_run, capsys):
    emb, precomputed_ckpt = precomputed_run
    if case == "word-list-with-file":
        argv = ["--ckpt", str(trained_ckpt), "--embeddings", str(emb)]
        error = f"ModelError: a model with a word list reads no embedding file, got {emb}"
    else:
        argv = ["--ckpt", str(precomputed_ckpt)]
        error = "ModelError: a model without a word list needs an embedding file"
    assert run_command(["generate", "--text", TABLE4_TEXT, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == error


@pytest.mark.parametrize("text", ["- 16\n- 32\n", "just words\n"], ids=["list", "scalar"])
def test_config_file_that_is_not_a_mapping_is_a_one_line_error(tmp_path, toy_dataset, capsys,
                                                               text):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert run_command(["train", "--config", str(cfg), "--data", str(toy_dataset),
                        "--out", str(out), *TINY_FLAGS]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == f"DatasetError: config file {cfg} must be a key-value tree"
    assert not out.exists()


def test_train_without_a_dataset_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default out_dir is relative
    monkeypatch.delenv("PROTDAT_OUT_DIR", raising=False)
    assert run_command(["train", "--epochs", "0", *TINY_FLAGS]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "DatasetError: train: no dataset given (--data or config)"
    assert not list(tmp_path.iterdir())


def test_eval_identity_with_unequal_entry_counts_is_a_one_line_error(tmp_path, capsys):
    ref_path, gen_path = tmp_path / "ref.fasta", tmp_path / "gen.fasta"
    with open(ref_path, "w") as fh:
        write_fasta([("ref-0", "MKV"), ("ref-1", "DDC")], fh)
    with open(gen_path, "w") as fh:
        write_fasta([("gen-0", "MKV")], fh)
    assert run_command(["eval", "identity", "--ref", str(ref_path), "--gen", str(gen_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == ("EvaluationError: entry count mismatch: "
                                                 "2 ref vs 1 gen")


@pytest.mark.parametrize("metric, gen_text, error", [
    ("identity", ">\nMKV\n", "{gen}: line 1: empty FASTA header"),
    ("kl", ">gen-0 mode=text-only\nMKV\n>\nDDC\n", "{gen}: line 3: empty FASTA header"),
    ("kl", "", "no residues to count"),
    ("kl", ">gen-0\n>gen-1\n", "no residues to count"),
], ids=["identity-empty-header", "kl-empty-header", "kl-empty-file", "kl-no-residues"])
def test_eval_of_a_malformed_or_empty_fasta_is_a_one_line_error(metric, gen_text, error, tmp_path,
                                                                capsys):
    ref_path, gen_path = tmp_path / "ref.fasta", tmp_path / "gen.fasta"
    with open(ref_path, "w") as fh:
        write_fasta([("ref-0", "MKV"), ("ref-1", "DDC")], fh)
    gen_path.write_text(gen_text)
    assert run_command(["eval", metric, "--ref", str(ref_path), "--gen", str(gen_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == "EvaluationError: " + error.format(gen=gen_path)


def test_config_takes_an_int_for_a_float_and_null_for_clip_norm(tmp_path, toy_dataset):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({"training": {"lr": 0, "clip_norm": None},
                                   "generation": {"temperature": 1}}))
    out = tmp_path / "run"
    rc = run_command(["train", "--config", str(cfg), "--data", str(toy_dataset), "--out", str(out),
                      "--epochs", "1", *TINY_FLAGS])
    assert rc == 0
    training = json.loads((out / "run_manifest.json").read_text())["config"]["training"]
    assert training["lr"] == 0 and training["clip_norm"] is None


def test_eval_takes_no_config_or_seed(tmp_path, capsys):
    path = tmp_path / "seqs.fasta"
    with open(path, "w") as fh:
        write_fasta([("a", "MKVMKV")], fh)
    for flags in (["--seed", "5"], ["--config", str(tmp_path / "run.yaml")]):
        assert run_command(["eval", "kl", *flags, "--ref", str(path), "--gen", str(path)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["unknown-key", "missing", "not-a-mapping", "previous-format",
                                  "float-size", "bool-size", "words-string", "renamed-tensor"])
def test_malformed_checkpoint_manifest_is_a_one_line_error(case, trained_ckpt, tmp_path, capsys):
    magic, manifest, blob = trained_ckpt.read_bytes().split(b"\n", 2)
    manifest = json.loads(manifest)
    if case == "previous-format":
        magic = b"protdat-ckpt-2"
    elif case == "unknown-key":
        manifest["config"]["d_modle"] = 16
    elif case == "float-size":
        manifest["config"]["d_model"] = 16.0
    elif case == "bool-size":
        manifest["config"]["c_size"] = True
    elif case == "words-string":
        manifest["text_words"] = "binds"
    elif case == "renamed-tensor":
        manifest["tensors"][0]["name"] = "renamed"
    elif case == "missing":
        del manifest["config"]
    else:
        manifest = list(manifest)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"\n".join([magic, json.dumps(manifest).encode(), blob]))
    rc = run_command(["generate", "--ckpt", str(bad), "--text", TABLE4_TEXT])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    if case == "previous-format":
        assert error == (
            f"ModelError: checkpoint format 'protdat-ckpt-2' != {CHECKPOINT_FORMAT!r}")
    elif case == "not-a-mapping":
        assert error == "ModelError: manifest format mismatch"
    elif case == "words-string":
        assert error == ("ModelError: checkpoint manifest: "
                         "text_words must be null or a list of strings")
    elif case == "renamed-tensor":
        assert error == "ModelError: checkpoint tensor directory does not match the config"
    else:
        assert error.startswith("ModelError: checkpoint manifest has no valid model config")


def test_checkpoint_manifest_that_is_not_json_is_a_one_line_error(trained_ckpt, tmp_path,
                                                                  capsys):
    magic, _manifest, blob = trained_ckpt.read_bytes().split(b"\n", 2)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"\n".join([magic, b"{not json", blob]))
    assert run_command(["generate", "--ckpt", str(bad), "--text", TABLE4_TEXT]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"].startswith(
        f"ModelError: malformed checkpoint manifest in {bad}: JSONDecodeError(")


# a flag value of each annotated field type, and the type it must parse to
FLAG_SAMPLES = {"int": ("3", int), "float": ("0.5", float), "str": ("x", str)}


@pytest.mark.parametrize("command,config_classes,required", [
    ("train", (ModelConfig, TrainingConfig), []),
    ("generate", (GenerationParams,), ["--ckpt", "m.ckpt", "--text", "x"]),
])
def test_settings_flags_are_the_config_fields(command, config_classes, required):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parser = subparsers.choices[command]
    settable = [f for cls in config_classes for f in fields(cls) if f.name != "seed"]
    for f in settable:
        flag = "--" + f.name.replace("_", "-")
        assert [a.option_strings for a in parser._actions if a.dest == f.name] == [[flag]]
        text, kind = FLAG_SAMPLES[f.type.partition(" | ")[0]]
        value = getattr(parser.parse_args([*required, flag, text]), f.name)
        assert type(value) is kind and value == kind(text), f.name
    # the seed is set at the top level only
    assert [a.option_strings for a in parser._actions if a.dest == "seed"] == [["--seed"]]
