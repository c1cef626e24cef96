"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
from seq2label import corpus
from tracing import Span, Tracer, instrument, self_times
from workloads import SPECS, make_records, records_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

# the metrics the workloads exist to report, by kind, with their units
NAMED = {
    "train": {
        "setup_s": "s", "train.examples_per_s": "1/s", "train.tokens_per_s": "1/s",
        "train.final_loss": "nats", "peak_rss_mb": "MB",
    },
    "decode": {
        "setup_s": "s", "decode.greedy_docs_per_s": "1/s", "decode.beam5_docs_per_s": "1/s",
        "decode.beam5_ms_p50": "ms", "decode.beam5_ms_tail": "ms", "peak_rss_mb": "MB",
    },
}
COUNTS = ("numerics.tape_nodes_per_example", "numerics.lstm_calls_per_doc", "model.decoder_steps_per_doc")


def test_workloads_agree_with_the_contract():
    import run

    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS) == list(SPECS)
    assert [m["name"] for m in CONTRACT["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_records_follow_the_seed(name):
    spec = SPECS[name]
    first = make_records(spec, 7)
    assert records_digest(*make_records(spec, 7)) == records_digest(*first)
    assert records_digest(*make_records(spec, 8)) != records_digest(*first)
    vocab, label_vocab = corpus.build_vocab(first[0], spec.vocab_size)
    assert (len(vocab), len(label_vocab)) == (spec.vocab_size + 2, spec.num_labels)


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 6.5, 0, 0),
        Span("c", 6.0, 7.0, 0, 0),  # overlaps b; the overlap is covered once
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0, 2.0, 1.0, 1.5, 1.0])


def test_instrument_restores_the_library():
    from seq2label.numerics import Tensor

    before = [getattr(owner, attr) for owner, attr, _ in tracing.targets()] + [Tensor.backward]
    with instrument(Tracer()):
        assert all(getattr(o, a) is not f for (o, a, _), f in zip(tracing.targets(), before))
    after = [getattr(owner, attr) for owner, attr, _ in tracing.targets()] + [Tensor.backward]
    assert after == before


def test_instrument_skips_a_function_the_library_no_longer_has(monkeypatch):
    from seq2label import model

    monkeypatch.delattr(model, "lstm_cell_step")
    with instrument(Tracer()):
        assert not hasattr(model, "lstm_cell_step")
    assert not hasattr(model, "lstm_cell_step")


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.01", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def outputs():
    out = {}
    for name in SPECS:
        for trace in (0, 1):
            proc = _run(name, trace)
            assert proc.returncode == 0, proc.stderr
            detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
            out[name, trace] = detail, result
    return out


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_metric_is_reported_with_its_unit(outputs, name):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        detail, result = outputs[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and detail["error_rate"] == 0
        units = {m["name"]: m["unit"] for m in CONTRACT[section]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    detail, _ = outputs[name, 0]
    named = NAMED[SPECS[name].kind]
    assert {k: detail["metrics"][k]["unit"] for k in named} == named
    assert set(detail["env"]) >= {"python", "numpy", "blas", "nproc"}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_counts_repeat_exactly(outputs, name):
    _, first = outputs[name, 1]
    _, again = (json.loads(line) for line in _run(name, 1).stdout.strip().splitlines()[-2:])
    for count in COUNTS:
        assert again["metrics"][count] == first["metrics"][count]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("decode_manylabel", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
