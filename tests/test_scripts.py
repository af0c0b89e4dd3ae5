"""Each script in scripts/ runs end to end on tiny arguments."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from protdat.model import ModelConfig, init_params, save_checkpoint

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, argv: list[str], monkeypatch) -> None:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *argv])
    module.main()


def test_make_toy_dataset(tmp_path, monkeypatch, capsys):
    out = tmp_path / "toy.jsonl"
    run_script("make_toy_dataset", ["--n", "3", "--out", str(out)], monkeypatch)
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["id"] for r in rows] == ["toy-0000", "toy-0001", "toy-0002"]
    assert "wrote 3 records" in capsys.readouterr().out


def test_overfit_demo(monkeypatch, capsys):
    run_script("overfit_demo", ["--n", "4", "--d-model", "16", "--n-layers", "1",
                                "--max-steps", "2"], monkeypatch)
    out = capsys.readouterr().out
    assert "trained 2 steps" in out
    assert "argmax decoding:" in out and "/4 exact matches" in out


def test_attention_share_demo(tmp_path, monkeypatch, capsys):
    config = ModelConfig(d_model=16, n_layers=1, n_heads=2, c_size=2, d_text=16, ffn_dim=32)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_params(config, seed=0, text_words=["binds", "widgets"]), ckpt)
    run_script("attention_share_demo", ["--ckpt", str(ckpt), "--text", "FUNCTION: Binds widgets.",
                                        "--max-len", "6"], monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("generated ")
    rows = [line.split() for line in lines[2:]]
    assert rows and [int(r[0]) for r in rows] == list(range(len(rows)))
    # m = 0: the reference curve c/(c+m) is exactly 1
    assert float(rows[0][2]) == pytest.approx(1.0)
