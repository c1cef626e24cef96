"""Command-line behavior: pipelines over temp files, config layering, exit codes."""

import contextlib
import json
import math
import os
import shutil
import signal
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from seq2label import checkpoint, cli, inference, synthetic
from seq2label.checkpoint import load_checkpoint, save_checkpoint
from seq2label.cli import RunConfig, main, read_config_file
from seq2label.corpus import LabelVocabulary, Vocabulary, write_jsonl
from seq2label.errors import ConfigError, NumericError
from seq2label.model import ModelConfig, Seq2LabelModel
from seq2label.numerics import RngStream, pool
from seq2label.trainer import TrainConfig

# a child process imports this checkout's library, as the tests themselves do
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

FAST = [
    "--embed-size", "4", "--encoder-hidden", "3", "--decoder-hidden", "4",
    "--epochs", "2", "--batch-size", "4",
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A trained checkpoint over the memorization corpus, built once."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "train": str(root / "train.jsonl"),
        "test": str(root / "test.jsonl"),
        "ckpt": str(root / "model.ckpt"),
        "report": str(root / "report.json"),
        "root": root,
    }
    records = synthetic.memorization_corpus(0)
    write_jsonl(paths["train"], records)
    write_jsonl(paths["test"], records[:6])
    code = main(
        ["train", "--train", paths["train"], "--valid", paths["test"],
         "--checkpoint", paths["ckpt"], "--report", paths["report"], "--seed", "0"]
        + FAST
    )
    assert code == 0
    return paths


class TestBuildVocab:
    def test_writes_both_files_and_counts(self, tmp_path, capsys):
        train = str(tmp_path / "t.jsonl")
        write_jsonl(train, [
            {"text": "red fish blue fish", "labels": ["color", "animal"]},
            {"text": "red sky", "labels": ["color"]},
        ])
        vocab, lv = str(tmp_path / "v.tsv"), str(tmp_path / "l.tsv")
        code, out, _ = run(
            ["build-vocab", "--train", train, "--vocab", vocab, "--label-vocab", lv],
            capsys,
        )
        assert code == 0
        stats = json.loads(out)
        assert stats == {"examples": 2, "tokens": 4, "labels": 2}
        assert os.path.exists(vocab) and os.path.exists(lv)
        assert "color\t2" in Path(lv).read_text()

    def test_missing_flags_exit_one(self, capsys):
        code, _, err = run(["build-vocab", "--train", "x.jsonl"], capsys)
        assert code == 1
        assert "requires" in err and "--label-vocab" in err


class TestTrain:
    def test_prints_progress_and_writes_report(self, workdir, capsys):
        # the module fixture already trained; check its artifacts
        report = json.loads(Path(workdir["report"]).read_text())
        assert len(report["train_loss"]) == 2
        assert len(report["valid_f1"]) == 2
        assert report["selected_epoch"] in (1, 2)
        assert os.path.exists(workdir["ckpt"])

    def test_epoch_lines_on_stdout(self, tmp_path, capsys):
        train = str(tmp_path / "t.jsonl")
        write_jsonl(train, synthetic.memorization_corpus(0)[:6])
        ckpt = str(tmp_path / "m.ckpt")
        code, out, _ = run(["train", "--train", train, "--checkpoint", ckpt] + FAST, capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("epoch 1: loss ")
        assert "valid" not in lines[0]
        assert lines[-1] == f"checkpoint written to {ckpt}"

    def test_prebuilt_vocabs_reproduce_inline_build(self, tmp_path, capsys):
        train = str(tmp_path / "t.jsonl")
        write_jsonl(train, synthetic.memorization_corpus(1)[:8])
        vocab, lv = str(tmp_path / "v.tsv"), str(tmp_path / "l.tsv")
        assert main(["build-vocab", "--train", train, "--vocab", vocab,
                     "--label-vocab", lv]) == 0
        capsys.readouterr()

        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        assert main(["train", "--train", train, "--checkpoint", a] + FAST) == 0
        assert main(["train", "--train", train, "--checkpoint", b,
                     "--vocab", vocab, "--label-vocab", lv] + FAST) == 0
        capsys.readouterr()
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestEvaluate:
    def test_reports_metrics_json(self, workdir, capsys):
        code, out, _ = run(
            ["evaluate", "--checkpoint", workdir["ckpt"], "--test", workdir["test"]],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert 0.0 <= report["micro_f1"] <= 1.0
        assert 0.0 <= report["hamming_loss"] <= 1.0
        assert report["instances"] == 6
        assert "by_label_set_size" not in report

    def test_bucket_flag_adds_breakdown(self, workdir, capsys):
        code, out, _ = run(
            ["evaluate", "--checkpoint", workdir["ckpt"], "--test", workdir["test"],
             "--lls-buckets"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        buckets = report["by_label_set_size"]
        assert buckets
        assert sum(b["instances"] for b in buckets.values()) == report["instances"]

    def test_out_flag_writes_file(self, workdir, tmp_path, capsys):
        out_path = str(tmp_path / "metrics.json")
        code, out, _ = run(
            ["evaluate", "--checkpoint", workdir["ckpt"], "--test", workdir["test"],
             "--out", out_path],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert "micro_f1" in json.loads(Path(out_path).read_text())

    def test_bad_beam_exits_one(self, workdir, capsys):
        code, _, err = run(
            ["evaluate", "--checkpoint", workdir["ckpt"], "--test", workdir["test"],
             "--beam", "0"],
            capsys,
        )
        assert code == 1
        assert "beam" in err

    def test_missing_test_file_exits_two(self, workdir, capsys):
        code, _, err = run(
            ["evaluate", "--checkpoint", workdir["ckpt"], "--test", "/nonexistent.jsonl"],
            capsys,
        )
        assert code == 2
        assert "error:" in err


class TestPredict:
    def test_labels_per_input_line(self, workdir, tmp_path, capsys):
        inp = str(tmp_path / "in.jsonl")
        write_jsonl(inp, [{"text": "doc00 f00 f01"}, {"text": "doc07 f28"}])
        out_path = str(tmp_path / "pred.jsonl")
        code, _, _ = run(
            ["predict", "--checkpoint", workdir["ckpt"], "--input", inp,
             "--out", out_path],
            capsys,
        )
        assert code == 0
        rows = [json.loads(l) for l in Path(out_path).read_text().splitlines()]
        assert [r["index"] for r in rows] == [0, 1]
        for r in rows:
            assert isinstance(r["labels"], list)
            assert r["log_prob"] <= 0.0

    def test_bad_record_reported_and_skipped(self, workdir, tmp_path, capsys):
        inp = str(tmp_path / "in.jsonl")
        write_jsonl(inp, [{"text": "..."}, {"text": "doc01 f04"}])
        code, out, _ = run(
            ["predict", "--checkpoint", workdir["ckpt"], "--input", inp], capsys
        )
        assert code == 0
        rows = [json.loads(l) for l in out.strip().splitlines()]
        assert "error" in rows[0] and "labels" not in rows[0]
        assert rows[1]["index"] == 1 and "labels" in rows[1]

    def test_greedy_flag_matches_beam_one(self, workdir, tmp_path, capsys):
        inp = str(tmp_path / "in.jsonl")
        write_jsonl(inp, [{"text": "doc02 f08 f09 f10"}])
        base = ["predict", "--checkpoint", workdir["ckpt"], "--input", inp]
        _, greedy_out, _ = run(base + ["--greedy"], capsys)
        _, beam1_out, _ = run(base + ["--beam", "1"], capsys)
        assert greedy_out == beam1_out

    def test_attention_sidecar(self, workdir, tmp_path, capsys):
        inp = str(tmp_path / "in.jsonl")
        write_jsonl(inp, [{"text": "doc03 f12 f13"}])
        attn = str(tmp_path / "attn.jsonl")
        code, out, _ = run(
            ["predict", "--checkpoint", workdir["ckpt"], "--input", inp,
             "--attn", attn],
            capsys,
        )
        assert code == 0
        pred = json.loads(out.strip())
        trace = json.loads(Path(attn).read_text().strip())
        assert trace["index"] == 0
        assert trace["tokens"] == ["doc03", "f12", "f13"]
        assert trace["labels"] == pred["labels"]
        for row in trace["weights"]:
            assert len(row) == 3
            assert math.isclose(sum(row), 1.0, rel_tol=0, abs_tol=1e-9)

    def test_failure_midway_leaves_no_output(self, workdir, tmp_path, capsys, monkeypatch):
        inp = str(tmp_path / "in.jsonl")
        write_jsonl(inp, [{"text": "doc00 f00 f01"}, {"text": "doc07 f28"}, {"text": "doc01 f04"}])
        decode, calls = inference.decode, []

        def fail_on_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NumericError("decoder state went non-finite")
            return decode(*args, **kwargs)

        monkeypatch.setattr(inference, "decode", fail_on_second)
        code, _, err = run(
            ["predict", "--checkpoint", workdir["ckpt"], "--input", inp,
             "--out", str(tmp_path / "pred.jsonl"), "--attn", str(tmp_path / "attn.jsonl")],
            capsys,
        )
        assert code == 3
        assert err.startswith("error:") and "Traceback" not in err
        assert os.listdir(tmp_path) == ["in.jsonl"]  # no partial file, no temporary left

    def test_output_replaces_an_existing_file_whole(self, workdir, tmp_path, capsys):
        inp, out_path = str(tmp_path / "in.jsonl"), tmp_path / "pred.jsonl"
        write_jsonl(inp, [{"text": "doc00 f00 f01"}])
        out_path.write_text("old\n" * 5)
        code, _, _ = run(
            ["predict", "--checkpoint", workdir["ckpt"], "--input", inp, "--out", str(out_path)], capsys
        )
        assert code == 0
        assert [json.loads(l)["index"] for l in out_path.read_text().splitlines()] == [0]
        assert sorted(os.listdir(tmp_path)) == ["in.jsonl", "pred.jsonl"]

    def test_output_through_a_symlink_keeps_the_link(self, workdir, tmp_path, capsys):
        inp, real, link = str(tmp_path / "in.jsonl"), tmp_path / "real.jsonl", tmp_path / "link.jsonl"
        write_jsonl(inp, [{"text": "doc00 f00 f01"}])
        link.symlink_to(real)
        code, _, _ = run(["predict", "--checkpoint", workdir["ckpt"], "--input", inp, "--out", str(link)], capsys)
        assert code == 0
        assert link.is_symlink()
        assert json.loads(real.read_text())["index"] == 0


class TestConfigFile:
    def test_flags_override_file_over_defaults(self, tmp_path, capsys):
        train = str(tmp_path / "t.jsonl")
        write_jsonl(train, synthetic.memorization_corpus(0)[:6])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# training setup\n"
            "epochs = 3\n"
            "batch-size = 2   # hyphens allowed\n"
            "embed_size=4\nencoder_hidden=3\ndecoder_hidden=4\n"
        )
        ckpt = str(tmp_path / "m.ckpt")
        report = str(tmp_path / "r.json")

        assert main(["train", "--config", str(cfg), "--train", train,
                     "--checkpoint", ckpt, "--report", report]) == 0
        capsys.readouterr()
        assert len(json.loads(Path(report).read_text())["train_loss"]) == 3

        assert main(["train", "--config", str(cfg), "--train", train,
                     "--checkpoint", ckpt, "--report", report, "--epochs", "1"]) == 0
        capsys.readouterr()
        assert len(json.loads(Path(report).read_text())["train_loss"]) == 1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochz=3\n")
        with pytest.raises(ConfigError, match="line 1.*unknown"):
            read_config_file(str(cfg))

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs=many\n")
        with pytest.raises(ConfigError, match="bad value"):
            read_config_file(str(cfg))

    def test_bool_and_optional_int_parsing(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("no_mask=yes\nlls-buckets=off\nmax_steps=none\n")
        values = read_config_file(str(cfg))
        assert values == {"no_mask": True, "lls_buckets": False, "max_steps": None}

    def test_defaults_agree_with_library_configs(self):
        run_cfg = RunConfig()
        for lib_cfg in (ModelConfig(), TrainConfig()):
            shared = [f.name for f in fields(lib_cfg) if hasattr(run_cfg, f.name)]
            assert shared
            for name in shared:
                assert getattr(run_cfg, name) == getattr(lib_cfg, name), name
        assert run_cfg.model_config() == ModelConfig()
        assert run_cfg.train_config() == TrainConfig()
        assert not hasattr(run_cfg, "use_mask")  # the mask ablation is no_mask

    def test_every_key_parses_to_its_type(self, tmp_path):
        cases = {
            "train": ("a.jsonl", "a.jsonl"), "valid": ("v", "v"), "test": ("t", "t"),
            "input": ("i", "i"), "vocab": ("v.tsv", "v.tsv"), "label_vocab": ("l", "l"),
            "checkpoint": ("m.ckpt", "m.ckpt"), "out": ("o", "o"), "report": ("r", "r"),
            "attn": ("x", "x"), "vocab_size": ("7", 7), "max_len": ("9", 9),
            "embed_size": ("3", 3), "encoder_hidden": ("4", 4), "decoder_hidden": ("5", 5),
            "encoder_layers": ("2", 2), "decoder_layers": ("2", 2), "dropout": ("0.25", 0.25),
            "ge_mode": ("gate", "gate"), "ge_lambda": ("1", 1.0), "epochs": ("3", 3),
            "batch_size": ("2", 2), "learning_rate": ("0.5", 0.5), "beta1": ("0.8", 0.8),
            "beta2": ("0.99", 0.99), "adam_eps": ("1e-6", 1e-6), "clip_norm": ("5", 5.0),
            "seed": ("11", 11), "no_mask": ("true", True), "shuffle_labels": ("on", True),
            "beam": ("4", 4), "max_steps": ("6", 6), "lls_buckets": ("1", True),
            "lambda_list": ("0.1,0.2", "0.1,0.2"),
        }
        # the --config path itself is the one option a config file cannot set
        assert set(cases) == {f.name for f in fields(RunConfig)} - {"config"}
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{k.replace('_', '-')} = {text}\n" for k, (text, _) in cases.items()))
        values = read_config_file(str(cfg))
        for key, (_, want) in cases.items():
            assert values[key] == want and type(values[key]) is type(want), key
        cfg.write_text("use_mask = true\n")
        with pytest.raises(ConfigError, match="unknown option"):
            read_config_file(str(cfg))

    def test_config_error_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense\n")
        code, _, err = run(
            ["train", "--config", str(cfg), "--train", "x", "--checkpoint", "y"], capsys
        )
        assert code == 1
        assert "key=value" in err


class TestMaskAblation:
    def test_no_mask_reaches_the_model(self, workdir, tmp_path, capsys):
        assert RunConfig(no_mask=True).model_config().use_mask is False
        assert RunConfig().model_config().use_mask is True
        ckpt = str(tmp_path / "m.ckpt")
        code, _, _ = run(["train", "--train", workdir["train"], "--checkpoint", ckpt, "--no-mask"]
                         + FAST, capsys)
        assert code == 0
        for path, use_mask in ((ckpt, False), (workdir["ckpt"], True)):
            blob = Path(path).read_bytes()
            header = json.loads(blob.split(b"\n", 2)[1])
            assert header["model_config"]["use_mask"] is use_mask


class TestUndecodableInput:
    """Bytes that are not UTF-8 are a usage problem in a config file and a data
    problem in a data file: exit 1 or 2 with an error line, never a traceback."""

    @pytest.mark.parametrize("bad, argv, want", [
        ("run.cfg", ["train", "--config", "{bad}", "--train", "{train}", "--checkpoint", "{ckpt}"], 1),
        ("t.jsonl", ["train", "--train", "{bad}", "--checkpoint", "{ckpt}"], 2),
        ("t.jsonl", ["evaluate", "--checkpoint", "{model}", "--test", "{bad}"], 2),
        ("in.jsonl", ["predict", "--checkpoint", "{model}", "--input", "{bad}", "--out", "{ckpt}"], 2),
        ("v.tsv", ["train", "--train", "{train}", "--vocab", "{bad}", "--label-vocab", "{good}",
                   "--checkpoint", "{ckpt}"], 2),
        ("l.tsv", ["train", "--train", "{train}", "--vocab", "{good}", "--label-vocab", "{bad}",
                   "--checkpoint", "{ckpt}"], 2),
    ], ids=["config", "train-jsonl", "test-jsonl", "predict-input", "vocab", "label-vocab"])
    def test_exit_code_and_message(self, workdir, tmp_path, capsys, bad, argv, want):
        names = {"bad": str(tmp_path / bad), "good": str(tmp_path / "good.tsv"),
                 "train": workdir["train"], "model": workdir["ckpt"], "ckpt": str(tmp_path / "out")}
        with open(names["bad"], "wb") as f:
            f.write(b"caf\xe9\t1\n")
        with open(names["good"], "w") as f:
            f.write("doc00\t1\n")
        argv = [a.format(**names) for a in argv] + (FAST if argv[0] == "train" else [])
        code, _, err = run(argv, capsys)
        assert code == want
        assert err.startswith("error:") and "Traceback" not in err
        assert "UTF-8" in err and (want == 1 or "line 1" in err)
        assert not os.path.exists(names["ckpt"])


class TestExitCodes:
    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(["train", "--bogus-flag", "1"], capsys)
        assert code == 1
        assert "error:" in err

    def test_corrupt_jsonl_exits_two(self, tmp_path, capsys):
        train = tmp_path / "t.jsonl"
        train.write_text('{"text": "ok", "labels": ["a"]}\nnot json\n')
        code, _, err = run(
            ["train", "--train", str(train), "--checkpoint", str(tmp_path / "m.ckpt")],
            capsys,
        )
        assert code == 2
        assert "line 2" in err

    def test_numeric_failure_exits_three(self, tmp_path, capsys):
        # a learning rate at the float limit drives the weights, and then the
        # loss, to non-finite values (a merely divergent one, say 1e9, keeps
        # the log-space loss finite)
        train = str(tmp_path / "t.jsonl")
        write_jsonl(train, synthetic.memorization_corpus(0)[:6])
        code, _, err = run(
            ["train", "--train", train, "--checkpoint", str(tmp_path / "m.ckpt"),
             "--learning-rate", "1e308", "--epochs", "4", "--clip-norm", "1e30"]
            + FAST[:6],
            capsys,
        )
        assert code == 3
        assert "error:" in err

    def test_overflowing_training_exits_three_without_a_checkpoint(self, tmp_path, capsys):
        # a step this large overflows the weights in the first batch; the run
        # stops there instead of training on and writing a checkpoint
        train, ckpt = str(tmp_path / "t.jsonl"), tmp_path / "m.ckpt"
        write_jsonl(train, synthetic.memorization_corpus(0)[:6])
        code, _, err = run(
            ["train", "--train", train, "--checkpoint", str(ckpt), "--learning-rate", "1e300",
             "--clip-norm", "1e30", "--epochs", "4", "--embed-size", "8", "--encoder-hidden", "8",
             "--decoder-hidden", "8"],
            capsys,
        )
        assert code == 3
        assert "error:" in err and "overflow" in err and "batch 0" in err
        assert "Traceback" not in err
        assert not ckpt.exists()


class TestCheckpointErrors:
    """A checkpoint that cannot be used is a data problem: exit 2, no traceback."""

    @staticmethod
    def rewrite_header(src, dst, edit):
        blob = Path(src).read_bytes()
        magic_end = blob.index(b"\n") + 1
        header_end = blob.index(b"\n", magic_end)
        header = json.loads(blob[magic_end:header_end])
        edit(header)
        with open(dst, "wb") as f:
            f.write(blob[:magic_end] + json.dumps(header).encode("utf-8") + blob[header_end:])

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_non_finite_value_exits_two_before_writing(self, workdir, tmp_path, capsys, value, command):
        blob = bytearray(Path(workdir["ckpt"]).read_bytes())
        header_end = blob.index(b"\n", blob.index(b"\n") + 1)
        entries = json.loads(blob[blob.index(b"\n") + 1:header_end])["tensors"]
        offset = header_end + 1
        for entry in entries:
            if entry["name"] == "out.w_logits":
                break
            offset += 8 * math.prod(entry["shape"])
        blob[offset:offset + 8] = struct.pack("<d", value)
        bad, out = tmp_path / "bad.ckpt", tmp_path / "q.jsonl"
        bad.write_bytes(bytes(blob))
        data = ["--input", workdir["test"]] if command == "predict" else ["--test", workdir["test"]]
        code, _, err = run([command, "--checkpoint", str(bad), *data, "--out", str(out)], capsys)
        assert code == 2
        assert "error:" in err and "out.w_logits" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["bad.ckpt"]

    def test_missing_checkpoint_exits_two(self, workdir, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "seq2label.cli", "evaluate",
             "--checkpoint", str(tmp_path / "missing.ckpt"), "--test", workdir["test"]],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("model_config"),
        lambda h: h.pop("tensors"),
        lambda h: h["model_config"].update(bogus_key=1),
    ], ids=["missing-model-config", "missing-tensors", "unknown-config-key"])
    def test_malformed_header_exits_two(self, workdir, tmp_path, capsys, edit):
        bad = str(tmp_path / "bad.ckpt")
        self.rewrite_header(workdir["ckpt"], bad, edit)
        code, _, err = run(["evaluate", "--checkpoint", bad, "--test", workdir["test"]], capsys)
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(vocab=h["vocab"] + "".join(f"extra{i}\t1\n" for i in range(30))),
        lambda h: h.update(label_vocab="".join(h["label_vocab"].splitlines(keepends=True)[:-1])),
    ], ids=["more-tokens-than-vocab-size", "fewer-labels-than-num-labels"])
    def test_vocabulary_size_mismatch_exits_two(self, workdir, tmp_path, capsys, edit):
        bad, inp, out = (str(tmp_path / name) for name in ("bad.ckpt", "in.jsonl", "p.jsonl"))
        self.rewrite_header(workdir["ckpt"], bad, edit)
        write_jsonl(inp, [{"text": "doc00 f00 f01"}])
        code, _, err = run(["predict", "--checkpoint", bad, "--input", inp, "--out", out], capsys)
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not os.path.exists(out)


class TestOutputPaths:
    """An output that cannot be written exits 2 before any data is read or trained on."""

    @pytest.fixture
    def inputs(self, workdir, tmp_path):
        pred_in = str(tmp_path / "in.jsonl")
        write_jsonl(pred_in, [{"text": "doc00 f00"}])
        return {"train": workdir["train"], "test": workdir["test"], "ckpt": workdir["ckpt"], "in": pred_in}

    @pytest.mark.parametrize("argv", [
        ["train", "--train", "{train}", "--checkpoint", "{nodir}/m.ckpt"],
        ["train", "--train", "{train}", "--checkpoint", "{tmp}/m.ckpt", "--report", "{nodir}/r.json"],
        ["predict", "--checkpoint", "{ckpt}", "--input", "{in}", "--out", "{nodir}/p.jsonl"],
        ["predict", "--checkpoint", "{ckpt}", "--input", "{in}", "--out", "{tmp}/p.jsonl",
         "--attn", "{nodir}/a.jsonl"],
        ["evaluate", "--checkpoint", "{ckpt}", "--test", "{test}", "--out", "{nodir}/m.json"],
        ["evaluate", "--checkpoint", "{ckpt}", "--test", "{test}", "--out", "{tmp}"],
        ["build-vocab", "--train", "{train}", "--vocab", "{nodir}/v.tsv", "--label-vocab", "{tmp}/l.tsv"],
    ], ids=["train-checkpoint", "train-report", "predict-out", "predict-attn", "evaluate-out",
            "evaluate-out-is-dir", "build-vocab"])
    def test_unwritable_output_exits_two(self, inputs, tmp_path, capsys, argv):
        names = dict(inputs, nodir=str(tmp_path / "nodir"), tmp=str(tmp_path))
        argv = [a.format(**names) for a in argv]
        code, out, err = run(argv + (FAST if argv[0] == "train" else []), capsys)
        assert code == 2
        assert "error:" in err and "Traceback" not in err
        assert "epoch 1" not in out
        assert os.listdir(tmp_path) == ["in.jsonl"]  # nothing written, not even an empty file

    @pytest.mark.parametrize("argv", [
        ["predict", "--checkpoint", "{ckpt}", "--input", "{in}", "--out", "{tmp}/p.jsonl", "--max-steps", "0"],
        ["synth", "--out", "{tmp}/s.jsonl", "--seed", "-1"],
        ["build-vocab", "--train", "{train}", "--vocab", "{tmp}/v.tsv", "--label-vocab", ""],
        ["build-vocab", "--train", "{train}", "--vocab", "{tmp}/v.tsv", "--label-vocab", "{tmp}/l.tsv",
         "--vocab-size", "0"],
        ["train", "--train", "{train}", "--checkpoint", "{tmp}/m.ckpt", "--vocab-size", "-3"],
        ["ablate", "--train", "{train}", "--test", "{test}", "--out", "{tmp}/a.json", "--vocab-size", "0"],
        ["train", "--train", "{train}", "--checkpoint", "{tmp}/m.ckpt", "--max-len", "0"],
        ["evaluate", "--checkpoint", "{ckpt}", "--test", "{test}", "--out", "{tmp}/m.json", "--max-len", "0"],
        ["predict", "--checkpoint", "{ckpt}", "--input", "{in}", "--out", "{tmp}/p.jsonl", "--max-len", "0"],
        ["ablate", "--train", "{train}", "--test", "{test}", "--out", "{tmp}/a.json", "--max-len", "-1"],
    ], ids=["predict-zero-steps", "synth-negative-seed", "build-vocab-empty-path",
            "build-vocab-zero-vocab-size", "train-negative-vocab-size", "ablate-zero-vocab-size",
            "train-zero-max-len", "evaluate-zero-max-len", "predict-zero-max-len", "ablate-negative-max-len"])
    def test_bad_option_exits_one_before_writing(self, inputs, tmp_path, capsys, argv):
        code, _, err = run([a.format(**inputs, tmp=str(tmp_path)) for a in argv], capsys)
        assert code == 1
        assert "error:" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["in.jsonl"]

    @pytest.mark.parametrize("label", ["x\u2028y", "a\rb"], ids=["line-separator", "carriage-return"])
    def test_label_with_line_break_exits_two_before_writing(self, tmp_path, capsys, label):
        # such a label would be written into vocabulary files and checkpoints
        # that cannot be read back
        train = tmp_path / "t.jsonl"
        write_jsonl(str(train), [{"text": "red fish", "labels": [label]}, {"text": "blue", "labels": ["c"]}])
        code, out, err = run(
            ["train", "--train", str(train), "--checkpoint", str(tmp_path / "m.ckpt"),
             "--vocab", str(tmp_path / "v.tsv"), "--label-vocab", str(tmp_path / "l.tsv")] + FAST,
            capsys,
        )
        assert code == 2
        assert "error:" in err and "line break" in err and "Traceback" not in err
        assert "epoch 1" not in out
        assert os.listdir(tmp_path) == ["t.jsonl"]

    def test_token_with_line_break_exits_two_before_writing(self, tmp_path, capsys):
        # such a token would be written into a checkpoint that cannot be read back
        train = tmp_path / "t.jsonl"
        write_jsonl(str(train), [{"text": "red fish", "labels": ["a"]}, {"text": "blue", "labels": ["c"]}])
        (tmp_path / "v.tsv").write_text("red\t2\nx\u2028y\t1\n", encoding="utf-8")
        (tmp_path / "l.tsv").write_text("a\t1\nc\t1\n", encoding="utf-8")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        code, out, err = run(
            ["train", "--train", str(train), "--checkpoint", str(tmp_path / "m.ckpt"),
             "--vocab", str(tmp_path / "v.tsv"), "--label-vocab", str(tmp_path / "l.tsv")] + FAST,
            capsys,
        )
        assert code == 2
        assert "error:" in err and "line break" in err and "Traceback" not in err
        assert "epoch 1" not in out
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("argv, flags", [
        (["predict", "--checkpoint", "{ckpt}", "--input", "{in}", "--out", "{tmp}/x.jsonl",
          "--attn", "{tmp}/x.jsonl"], "--out and --attn"),
        (["build-vocab", "--train", "{train}", "--vocab", "{tmp}/x.tsv", "--label-vocab", "{tmp}/./x.tsv"],
         "--vocab and --label-vocab"),
        (["train", "--train", "{train}", "--checkpoint", "{tmp}/x", "--report", "{tmp}/x"],
         "--checkpoint and --report"),
        (["predict", "--checkpoint", "{ckpt}", "--input", "{in}", "--out", "{tmp}/link.jsonl",
          "--attn", "{tmp}/real.jsonl"], "--out and --attn"),
    ], ids=["predict", "build-vocab", "train", "predict-through-symlink"])
    def test_outputs_naming_one_file_exit_two(self, inputs, tmp_path, capsys, argv, flags):
        (tmp_path / "link.jsonl").symlink_to(tmp_path / "real.jsonl")
        argv = [a.format(**inputs, tmp=str(tmp_path)) for a in argv]
        code, out, err = run(argv + (FAST if argv[0] == "train" else []), capsys)
        assert code == 2
        assert f"error: {flags} name the same file" in err and "Traceback" not in err
        assert "epoch 1" not in out
        assert sorted(os.listdir(tmp_path)) == ["in.jsonl", "link.jsonl"]

    @pytest.mark.parametrize("argv, flags", [
        (["train", "--train", "{tmp}/train.jsonl", "--checkpoint", "{tmp}/train.jsonl"],
         "--train and --checkpoint"),
        (["predict", "--checkpoint", "{tmp}/model.ckpt", "--input", "{tmp}/in.jsonl", "--out", "{tmp}/in.jsonl"],
         "--input and --out"),
        (["predict", "--checkpoint", "{tmp}/model.ckpt", "--input", "{tmp}/in.jsonl", "--out", "{tmp}/model.ckpt"],
         "--checkpoint and --out"),
        (["evaluate", "--checkpoint", "{tmp}/model.ckpt", "--test", "{tmp}/train.jsonl",
          "--out", "{tmp}/train.jsonl"], "--test and --out"),
        (["build-vocab", "--train", "{tmp}/train.jsonl", "--vocab", "{tmp}/train.jsonl",
          "--label-vocab", "{tmp}/l.tsv"], "--train and --vocab"),
        (["predict", "--checkpoint", "{tmp}/model.ckpt", "--input", "{tmp}/in.jsonl",
          "--attn", "{tmp}/link.jsonl"], "--input and --attn"),
        (["train", "--config", "{tmp}/c.cfg", "--train", "{tmp}/train.jsonl", "--checkpoint", "{tmp}/c.cfg"],
         "--config and --checkpoint"),
    ], ids=["train", "predict-input", "predict-checkpoint", "evaluate", "build-vocab", "predict-through-symlink",
            "train-config"])
    def test_output_naming_an_input_exits_two(self, inputs, tmp_path, capsys, argv, flags):
        shutil.copy(inputs["train"], tmp_path / "train.jsonl")
        shutil.copy(inputs["ckpt"], tmp_path / "model.ckpt")
        (tmp_path / "c.cfg").write_text("epochs = 1\n")
        (tmp_path / "link.jsonl").symlink_to(tmp_path / "in.jsonl")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        argv = [a.format(tmp=str(tmp_path)) for a in argv]
        code, out, err = run(argv + (FAST if argv[0] == "train" else []), capsys)
        assert code == 2
        assert f"error: {flags} name the same file" in err and "Traceback" not in err
        assert "epoch 1" not in out
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_outputs_may_share_a_stream(self, inputs, capsys):
        code, _, _ = run(
            ["predict", "--checkpoint", inputs["ckpt"], "--input", inputs["in"],
             "--out", os.devnull, "--attn", os.devnull],
            capsys,
        )
        assert code == 0

    def test_failed_write_exits_two(self, workdir, capsys):
        # a path the checks accept but whose write fails: a full device
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        code, _, err = run(
            ["evaluate", "--checkpoint", workdir["ckpt"], "--test", workdir["test"],
             "--out", "/dev/full"],
            capsys,
        )
        assert code == 2
        assert "error:" in err and "Traceback" not in err


class TestAtomicWrites:
    """Every file the program writes appears whole or not at all: a write that
    fails partway leaves no new file, and an existing file as it was."""

    @staticmethod
    def fail_checkpoint(path, workdir, monkeypatch):
        ck = load_checkpoint(workdir["ckpt"])
        atomic_output, writes = checkpoint.atomic_output, []

        class FullDisk:
            """The file being written, whose sixth write fails: the magic
            line, the header, its line end and two tensors are written."""

            def __init__(self, f):
                self.f = f

            def write(self, data):
                writes.append(1)
                if len(writes) == 6:
                    raise OSError("disk full")
                return self.f.write(data)

        @contextlib.contextmanager
        def fill_up(*args, **kwargs):
            with atomic_output(*args, **kwargs) as f:
                yield FullDisk(f)

        monkeypatch.setattr(checkpoint, "atomic_output", fill_up)
        save_checkpoint(path, ck.model, ck.vocab, ck.label_vocab)

    @staticmethod
    def fail_json(path, workdir, monkeypatch):
        cli._write_json({"epochs": 3, "broken": object()}, path)  # fails after the first key

    @staticmethod
    def fail_jsonl(path, workdir, monkeypatch):
        write_jsonl(path, [{"text": "a"}, {"text": object()}])

    @staticmethod
    def fail_vocab(path, workdir, monkeypatch):
        ck = load_checkpoint(workdir["ckpt"])
        monkeypatch.setattr(Vocabulary, "to_text", lambda self: 1 / 0)
        ck.vocab.save(path)

    @staticmethod
    def fail_label_vocab(path, workdir, monkeypatch):
        ck = load_checkpoint(workdir["ckpt"])
        monkeypatch.setattr(LabelVocabulary, "to_text", lambda self: 1 / 0)
        ck.label_vocab.save(path)

    WRITERS = ["fail_checkpoint", "fail_json", "fail_jsonl", "fail_vocab", "fail_label_vocab"]

    @pytest.mark.parametrize("writer", WRITERS)
    @pytest.mark.parametrize("existing", [None, b"as it was\n"], ids=["new", "existing"])
    def test_failure_partway_leaves_no_trace(self, workdir, tmp_path, monkeypatch, writer, existing):
        path = tmp_path / "out"
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises((OSError, TypeError, ZeroDivisionError)):
            getattr(self, writer)(str(path), workdir, monkeypatch)
        assert os.listdir(tmp_path) == ([] if existing is None else ["out"])  # no temporary left
        if existing is not None:
            assert path.read_bytes() == existing

    def test_checkpoint_into_a_stream_is_written_directly(self, workdir):
        ck = load_checkpoint(workdir["ckpt"])
        save_checkpoint(os.devnull, ck.model, ck.vocab, ck.label_vocab)


class TestAblate:
    def test_runs_all_variants(self, tmp_path, capsys):
        train = str(tmp_path / "t.jsonl")
        write_jsonl(train, synthetic.memorization_corpus(0)[:8])
        out_path = str(tmp_path / "ablate.json")
        code, _, err = run(
            ["ablate", "--train", train, "--test", train, "--out", out_path,
             "--lambda-list", "0.5", "--greedy"] + FAST,
            capsys,
        )
        assert code == 0
        variants = json.loads(Path(out_path).read_text())["variants"]
        assert sorted(variants) == ["base", "lambda=0.5", "no_mask", "shuffled_labels"]
        for name, report in variants.items():
            assert 0.0 <= report["micro_f1"] <= 1.0, name
            assert f"{name}: test micro-F1" in err

    def test_bad_lambda_list_exits_one(self, tmp_path, capsys):
        code, _, err = run(
            ["ablate", "--train", "x", "--test", "y", "--lambda-list", "1.5"], capsys
        )
        assert code == 1
        assert "lambda" in err

    @pytest.mark.parametrize("lambdas", ["0.5,0.5", "0.1234561,0.1234562"])
    def test_lambdas_that_share_a_variant_name_exit_one(self, tmp_path, capsys, lambdas):
        # one variant would overwrite the other's result; refused before
        # the (missing) training file is read
        out_path = tmp_path / "ablate.json"
        code, _, err = run(
            ["ablate", "--train", "x", "--test", "y", "--out", str(out_path), "--lambda-list", lambdas], capsys
        )
        assert code == 1
        assert err.startswith("error:") and "both name the variant" in err and "Traceback" not in err
        assert not out_path.exists()


class TestSynth:
    def test_writes_three_corpora(self, tmp_path, capsys):
        out = str(tmp_path / "synth.jsonl")
        code, _, _ = run(["synth", "--out", out], capsys)
        assert code == 0
        with open(out) as f:
            assert len(f.readlines()) == 20
        assert os.path.exists(str(tmp_path / "synth-pairs-train.jsonl"))
        assert os.path.exists(str(tmp_path / "synth-pairs-heldout.jsonl"))

    @pytest.mark.parametrize("blocker", ["directory", "symlink-to-out"])
    def test_checks_every_output_before_writing(self, tmp_path, capsys, blocker):
        # the pair corpora are written beside --out; one that cannot be
        # written stops the command before --out is
        out, pairs = tmp_path / "d.jsonl", tmp_path / "d-pairs-train.jsonl"
        if blocker == "directory":
            pairs.mkdir()
        else:
            pairs.symlink_to(out)
        code, _, err = run(["synth", "--out", str(out)], capsys)
        assert code == 2
        assert "error:" in err and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["d-pairs-train.jsonl"]
        assert not out.exists()


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "seq2label.cli"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 1  # no subcommand is a usage error
    assert "error:" in proc.stderr
    assert "No module named" not in proc.stderr and "Traceback" not in proc.stderr


def test_train_exits_cleanly_with_the_sweep_pool_running(tmp_path):
    # the default model's Adam sweep is long enough to split, so on two CPUs
    # or more the pool's threads are running when the command returns
    model = Seq2LabelModel(ModelConfig(), 40, 5, RngStream(0))
    assert sum(t.data.size for _, t in model.params.items()) >= pool.SPLIT_MIN
    train, ckpt = tmp_path / "t.jsonl", tmp_path / "m.ckpt"
    write_jsonl(str(train), synthetic.memorization_corpus(0)[:8])
    proc = subprocess.Popen(
        [sys.executable, "-m", "seq2label", "train", "--train", str(train), "--checkpoint", str(ckpt),
         "--epochs", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CHILD_ENV, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 0, err
    assert ckpt.exists()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # no process of its session is left
