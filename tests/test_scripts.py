"""Each script in scripts/ runs end to end on tiny arguments."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from protdat.model import ModelConfig, init_params, save_checkpoint

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name: str, argv: list[str], monkeypatch) -> None:
    module = load_script(name)
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


# the shape of a perfbench/run.py --trace 0 stdout
CANNED_RUN = """# env {"nproc": 2, "numpy": "2.4.6"}
# train: seed 7, 36 s, trace 0; unit latency is step
#   setup_s              0.05 s
#   digest fasta max_len=128      sha256:aaaa
#   digest train_log.jsonl        sha256:bbbb
{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.05, "unit": "s"}, \
"tokens_per_s": {"value": 2000.0, "unit": "tok/s"}}}
"""

END_TO_END = [{"name": "tokens_per_s", "better": "higher", "bound": 0.25},
              {"name": "unit_ms_p50", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def test_bench_pairs_parses_a_run():
    run = load_script("bench_pairs").parse_run(CANNED_RUN)
    assert run == {"attempted": 12, "failed": 0, "correct": True,
                   "metrics": {"setup_s": 0.05, "tokens_per_s": 2000.0},
                   "digests": {"fasta max_len=128": "sha256:aaaa", "train_log.jsonl": "sha256:bbbb"},
                   "env": {"nproc": 2, "numpy": "2.4.6"}}


def _pairs(parent: dict, change: dict) -> list[dict]:
    return [{"parent": {"metrics": {k: v[i] for k, v in parent.items()}},
             "change": {"metrics": {k: v[i] for k, v in change.items()}}} for i in range(10)]


def test_bench_pairs_summary_applies_the_claim_rule_and_the_bounds():
    base = [100.0 + 2 * i for i in range(10)]  # quartiles 104.5 and 113.5: IQR 9
    faster = [b + 15 for b in base]
    faster[3] = base[3] - 1  # one pair lost: 9/10
    ms = [1000.0 / b for b in base]
    summary = load_script("bench_pairs").summarize(
        _pairs({"tokens_per_s": base, "unit_ms_p50": ms, "peak_rss_mb": [100.0] * 10},
               {"tokens_per_s": faster, "unit_ms_p50": [m * 0.8 for m in ms],
                "peak_rss_mb": [112.0] * 10}),
        END_TO_END)
    tps = summary["tokens_per_s"]
    assert tps["parent"] == {"median": 109.0, "q1": 104.5, "q3": 113.5, "iqr": 9.0}
    assert tps["change"]["median"] == 124.0 and tps["change_wins"] == "9/10"
    assert tps["claim_rule_met"] and tps["within_bound"]
    assert tps["worse_by"] == pytest.approx(-15 / 109)
    ms_row = summary["unit_ms_p50"]  # lower is better: 0.8x wins every pair
    assert ms_row["change_wins"] == "10/10" and ms_row["claim_rule_met"]
    assert ms_row["median_ratio_change_over_parent"] == pytest.approx(0.8)
    rss = summary["peak_rss_mb"]  # 12% worse against a 10% bound
    assert rss["change_wins"] == "0/10" and not rss["claim_rule_met"]
    assert rss["worse_by"] == pytest.approx(0.12) and not rss["within_bound"]


def test_bench_pairs_claim_needs_nine_tenths_and_more_than_the_parent_iqr():
    bench = load_script("bench_pairs")
    base = [100.0 + 2 * i for i in range(10)]
    spec = END_TO_END[:1]
    eight = [b + 15 if i >= 2 else b - 1 for i, b in enumerate(base)]  # 8/10 wins
    small = [b + 1 for b in base]  # 10/10 wins, gain 1 < IQR 9
    for change in (eight, small):
        summary = bench.summarize(_pairs({"tokens_per_s": base}, {"tokens_per_s": change}), spec)
        assert not summary["tokens_per_s"]["claim_rule_met"]


def test_bench_pairs_reports_failures_incorrect_runs_and_digest_mismatches():
    bench = load_script("bench_pairs")
    good = bench.parse_run(CANNED_RUN)
    failing = bench.parse_run(CANNED_RUN.replace('"correct": true, "attempted": 12, "failed": 0',
                                                 '"correct": false, "attempted": 11, "failed": 2'))
    moved = bench.parse_run(CANNED_RUN.replace("sha256:bbbb", "sha256:cccc"))
    same = bench.correctness([{"parent": good, "change": good}] * 3)
    assert same == {"parent": {"failed": 0, "attempted": 36, "incorrect_runs": 0},
                    "change": {"failed": 0, "attempted": 36, "incorrect_runs": 0},
                    "digests_equal_every_pair": True}
    mixed = bench.correctness([{"parent": good, "change": good},
                               {"parent": good, "change": failing},
                               {"parent": good, "change": moved}])
    assert mixed["parent"] == same["parent"]
    assert mixed["change"] == {"failed": 2, "attempted": 35, "incorrect_runs": 1}
    assert not mixed["digests_equal_every_pair"]


@pytest.mark.parametrize("failure", [{"exit_code": 3}, {"timeout_s": 600}])
def test_bench_pairs_writes_the_finished_pairs_and_the_failed_run(tmp_path, monkeypatch, failure):
    bench = load_script("bench_pairs")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END[:1]}))
    monkeypatch.setattr(bench, "_git", lambda root, *args: b"abc1234\n")
    monkeypatch.setattr(bench, "build_trees", lambda root, rev: {s: tmp_path for s in bench.SIDES})
    calls = []

    def run_side(tree, workload, seed, seconds):
        calls.append(workload)
        if len(calls) == 4:  # pair 1's second run, the parent's
            raise bench.RunFailed(failure)
        return {**bench.parse_run(CANNED_RUN), "minor_faults": 100 * len(calls)}

    monkeypatch.setattr(bench, "run_side", run_side)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench.main(["--parent", "HEAD", "--workload", "decode", "sweep", "--seed", "1",
                    "--pairs", "3", "--seconds", "1", "--out", str(out)])
    assert exc.value.code  # a message: the exit status is non-zero
    decode = json.loads(out.read_text())["workloads"]["decode"]
    assert decode["pairs_run"] == 1 and [r["pair"] for r in decode["runs"]] == [0]
    assert decode["correctness"]["parent"]["attempted"] == 12
    assert decode["failed_run"] == {"side": "parent", "pair": 1, **failure}
    assert decode["minor_faults_median"] == {"parent": 100, "change": 200}
    assert calls == ["decode"] * 4  # the sweep never ran


def test_bench_pairs_prints_one_summary_line_per_metric(tmp_path, monkeypatch, capsys):
    bench = load_script("bench_pairs")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END[:1]}))
    monkeypatch.setattr(bench, "_git", lambda root, *args: b"abc1234\n")
    monkeypatch.setattr(bench, "build_trees", lambda root, rev: {s: tmp_path for s in bench.SIDES})
    rates = iter([2000.0, 2100.0, 2300.0, 1900.0])  # pair 0 parent, change; pair 1 change, parent

    def run_side(tree, workload, seed, seconds):
        return {**bench.parse_run(CANNED_RUN.replace("2000.0", str(next(rates)))),
                "minor_faults": 1}

    monkeypatch.setattr(bench, "run_side", run_side)
    bench.main(["--parent", "HEAD", "--workload", "decode", "--seed", "1", "--pairs", "2",
                "--seconds", "1", "--out", str(tmp_path / "bench.json")])
    lines = capsys.readouterr().out.splitlines()
    # parent runs 2000 and 1900, change runs 2100 and 2300: the IQR is 50, the gain 250
    assert lines[-1] == ("decode tokens_per_s: median 1950 -> 2200, change wins 2/2, "
                         "claim_rule_met True, within_bound True")
    assert lines[-2].startswith("decode correctness: ")


def test_bench_pairs_counts_the_minor_faults_of_a_run(tmp_path):
    """A stand-in perfbench/run.py touches 32 MiB, then writes the minor
    faults it has taken itself to a file before it prints a result."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import resource\n"
        "touched = bytearray(32 << 20)\n"
        "for i in range(0, len(touched), 4096):\n"
        "    touched[i] = 1\n"
        "with open('own_faults', 'w') as fh:\n"
        "    fh.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_minflt))\n"
        f"print({CANNED_RUN!r})\n")
    run = load_script("bench_pairs").run_side(tmp_path, "train", 1, 1.0)
    assert run["metrics"] == {"setup_s": 0.05, "tokens_per_s": 2000.0}
    own = int((tmp_path / "own_faults").read_text())
    # the run's whole process tree: the stand-in, plus the little it faults on after writing
    assert own <= run["minor_faults"] < own + 1000


def test_census_prints_each_figure_of_the_parent_and_the_change(tmp_path, monkeypatch, capsys):
    census = load_script("census")
    monkeypatch.setattr(census, "_git", lambda root, *args: b"abc1234\n")
    monkeypatch.setattr(census, "build_trees",
                        lambda root, rev: {side: tmp_path / side for side in census.SIDES})
    figures = {"parent": {"train": {"ops": 178, "step_peak": 100}, "decode": {"peak": 10},
                          "sweep": {"matmul_flops": 400}},
               "change": {"train": {"ops": 178, "step_peak": 80}, "decode": {"peak": 12},
                          "sweep": {"matmul_flops": 300}}}
    rows = []

    def run_row(src, row):
        rows.append((src.relative_to(tmp_path).as_posix(), row))
        return figures[src.parent.name][row]

    monkeypatch.setattr(census, "run_row", run_row)
    census.main(["--parent", "HEAD"])
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["train ops: 178 -> 178 (+0)", "train step_peak: 100 -> 80 (-20)",
                       "decode peak: 10 -> 12 (+2)", "sweep matmul_flops: 400 -> 300 (-100)"]
    assert json.loads("\n".join(out[4:])) == {**figures, "parent_commit": "abc1234"}
    assert rows == [("parent/src", "train"), ("parent/src", "decode"), ("parent/src", "sweep"),
                    ("change/src", "train"), ("change/src", "decode"), ("change/src", "sweep")]
