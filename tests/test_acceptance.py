"""End-to-end verification gate.

Each test checks one advertised guarantee of the package at a pinned tolerance
and prints a single ``ACCEPTANCE <n> PASS/FAIL`` line, so a full run of this
module reads as a checklist. The slower criteria train small models from
scratch on the built-in synthetic corpora; everything is seeded and runs on a
desk machine in a few minutes.
"""

import math
import os
import sys
import time

import numpy as np
import pytest

from oracles import exhaustive_decode, metrics_oracle
from seq2label import corpus, synthetic
from seq2label.checkpoint import load_checkpoint
from seq2label.cli import main as cli_main
from seq2label.inference import (
    beam_search,
    decode_with_trace,
    export_attention,
    greedy_decode,
    predict_set,
)
from seq2label.metrics import score
from seq2label.model import ModelConfig, Seq2LabelModel
from seq2label.numerics import RngStream, Tensor, finite_difference_check
from seq2label.trainer import TrainConfig, evaluate_greedy, fit, sequence_loss


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_checklist(capfd):
    # the pass/fail lines must reach the real stdout even under fd capture
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(n: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" [{detail}]"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
    else:
        sys.stdout.write(line + "\n")
    assert ok, line


def small_random_model(seed: int, num_labels: int | None = None, ge=None):
    rng = np.random.default_rng(seed)
    num_labels = num_labels or int(rng.integers(2, 5))
    cfg = ModelConfig(
        embed_size=int(rng.integers(3, 6)),
        encoder_hidden=int(rng.integers(2, 5)),
        decoder_hidden=int(rng.integers(2, 5)),
        ge_mode=ge if ge is not None else ("off", "gate", "lambda")[seed % 3],
    )
    vocab_size = int(rng.integers(5, 12))
    model = Seq2LabelModel(cfg, vocab_size, num_labels, RngStream(seed))
    tokens = rng.integers(0, vocab_size, size=int(rng.integers(2, 8)))
    return model, tokens


def encode_corpus(records):
    vocab, lv = corpus.build_vocab(records, 50000)
    return corpus.encode_examples(records, vocab, lv), vocab, lv


def test_01_gradients_match_finite_differences():
    started = time.perf_counter()
    model = Seq2LabelModel(
        ModelConfig(embed_size=8, encoder_hidden=8, decoder_hidden=8, ge_mode="gate"),
        vocab_size=20,
        num_labels=4,
        rng=RngStream(7),
    )
    tokens = np.array([3, 11, 0, 17, 5])
    framed = [model.bos_class, 2, 0, 3, model.eos_class]
    n_coords = sum(min(11, model.params[name].data.size) for name in model.params.names())
    # step size balances truncation against roundoff: the error metric floors
    # its denominator at 1e-8, so coordinates with near-zero true gradient
    # need the probe noise (ulp(loss)/2eps) pushed below 1e-12
    worst = finite_difference_check(
        lambda: sequence_loss(model, tokens, framed),
        model.params,
        eps=2e-3,
        samples_per_param=11,
    )
    elapsed = time.perf_counter() - started
    _report(
        1,
        "analytic gradients agree with central differences (max rel err < 1e-4, "
        ">= 200 coordinates, < 60 s)",
        worst < 1e-4 and n_coords >= 200 and elapsed < 60.0,
        f"max rel err {worst:.2e}, {n_coords} coords, {elapsed:.1f}s",
    )


def test_02_mask_forbids_repeats_with_exact_zeros():
    violations = 0
    checked = 0
    for seed in range(1000):
        model, tokens = small_random_model(seed)
        seq, dists, _ = decode_with_trace(model, tokens, model.num_labels + 1)
        emitted: set[int] = set()
        for dist, cls in zip(dists, seq):
            checked += 1
            if not math.isclose(float(np.sum(dist)), 1.0, rel_tol=0, abs_tol=1e-9):
                violations += 1
            if any(dist[prev] != 0.0 for prev in emitted):
                violations += 1
            if dist[model.eos_class] <= 0.0:
                violations += 1
            if cls != model.eos_class:
                if cls in emitted:
                    violations += 1
                emitted.add(cls)
    _report(
        2,
        "1000 decode rollouts: emitted classes drop to exactly zero, no repeats, "
        "distributions sum to 1 within 1e-9",
        violations == 0,
        f"{checked} steps checked, {violations} violations",
    )


def test_03_beam_search_is_exact_and_beam_one_is_greedy():
    mismatches = 0
    for seed in range(100):
        model, tokens = small_random_model(seed, num_labels=2 + seed % 3)
        max_steps = model.num_labels + 1
        want_seq, want_lp = exhaustive_decode(model, tokens, max_steps)
        got_seq, got_lp = beam_search(model, tokens, beam_size=128, max_steps=max_steps)
        if got_seq != want_seq or abs(got_lp - want_lp) > 1e-9:
            mismatches += 1
        g_seq, g_lp = greedy_decode(model, tokens, max_steps)
        b_seq, b_lp = beam_search(model, tokens, beam_size=1, max_steps=max_steps)
        if b_seq != g_seq or abs(b_lp - g_lp) > 1e-12:
            mismatches += 1
    _report(
        3,
        "over 100 random models: saturating beam equals exhaustive search "
        "(log-prob within 1e-9) and beam size 1 equals greedy",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_04_metrics_match_per_label_enumeration():
    rng = np.random.default_rng(42)
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        pairs = []
        for _ in range(n):
            true = set(int(x) for x in rng.integers(0, 8, size=rng.integers(0, 9)))
            pred = set(int(x) for x in rng.integers(0, 8, size=rng.integers(0, 9)))
            pairs.append((true, pred))
        want = metrics_oracle(pairs, 8)
        got = score(pairs, num_labels=8)
        if (got.hamming_loss, got.micro_precision, got.micro_recall, got.micro_f1) != want:
            bad += 1
    _report(
        4,
        "hamming loss and micro precision/recall/F1 equal a per-label "
        "enumeration oracle exactly on 1000 random datasets",
        bad == 0,
        f"{bad} disagreements",
    )


def test_05_previous_label_modes_coincide_when_inert(monkeypatch):
    # a gate forced shut and a blend weight of zero must both reduce to the
    # plain previous-class embedding
    monkeypatch.setattr("seq2label.model.sigmoid", lambda t: t * 0.0)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed + 300)
        dims = dict(
            embed_size=int(rng.integers(3, 6)),
            encoder_hidden=int(rng.integers(2, 5)),
            decoder_hidden=int(rng.integers(2, 5)),
        )
        num_labels = int(rng.integers(2, 5))
        vocab_size = int(rng.integers(5, 12))
        tokens = rng.integers(0, vocab_size, size=int(rng.integers(2, 8)))

        models = [
            Seq2LabelModel(ModelConfig(ge_mode="off", **dims), vocab_size, num_labels, RngStream(seed)),
            Seq2LabelModel(ModelConfig(ge_mode="gate", **dims), vocab_size, num_labels, RngStream(seed)),
            Seq2LabelModel(ModelConfig(ge_mode="lambda", ge_lambda=0.0, **dims),
                           vocab_size, num_labels, RngStream(seed)),
        ]
        encs = [m.encode(tokens) for m in models]
        states = [m.init_state() for m in models]
        for _ in range(num_labels + 1):
            ys = []
            for i, m in enumerate(models):
                states[i], y, _ = m.decoder_step(states[i], encs[i])
                ys.append(y.data)
            worst = max(worst, float(np.max(np.abs(ys[1] - ys[0]))),
                        float(np.max(np.abs(ys[2] - ys[0]))))
            cls = int(np.argmax(ys[0]))
            if cls == models[0].eos_class:
                break
            states = [m.advance(s, cls) for m, s in zip(models, states)]
    _report(
        5,
        "previous-label modes produce identical distributions when inert "
        "(closed gate, zero blend; max abs diff < 1e-12)",
        worst < 1e-12,
        f"max abs diff {worst:.1e}",
    )


def test_06_memorizes_small_corpus_perfectly():
    started = time.perf_counter()
    examples, vocab, lv = encode_corpus(synthetic.memorization_corpus(0))
    model = Seq2LabelModel(
        ModelConfig(embed_size=32, encoder_hidden=32, decoder_hidden=32),
        len(vocab), len(lv), RngStream(0),
    )
    report = fit(model, examples, None, TrainConfig(epochs=200, batch_size=8, seed=0), lv)
    pairs = []
    for ex in examples:
        pred, _ = predict_set(model, ex.token_ids, 1, report.max_label_steps)
        pairs.append((set(ex.label_ids), set(pred)))
    result = score(pairs, len(lv))
    elapsed = time.perf_counter() - started
    _report(
        6,
        "memorizes the 20-document corpus exactly (train micro-F1 1.0, "
        "hamming loss 0.0) within 200 epochs and 5 minutes",
        result.micro_f1 == 1.0 and result.hamming_loss == 0.0 and elapsed < 300.0,
        f"micro-F1 {result.micro_f1:.3f}, hamming {result.hamming_loss:.3f}, {elapsed:.0f}s",
    )


def test_07_learns_label_correlation_on_held_out_text():
    started = time.perf_counter()
    train_records, held_records = synthetic.correlated_pair_corpus(0)
    train_examples, vocab, lv = encode_corpus(train_records)
    held_examples = corpus.encode_examples(held_records, vocab, lv)
    alpha, beta = lv.id_of("alpha"), lv.id_of("beta")

    passing = []
    for seed in range(10):
        model = Seq2LabelModel(
            ModelConfig(embed_size=20, encoder_hidden=20, decoder_hidden=20),
            len(vocab), len(lv), RngStream(seed),
        )
        fit(model, train_examples, None, TrainConfig(epochs=80, batch_size=8, seed=seed), lv)
        probs = []
        for ex in held_examples:
            seq, dists, _ = decode_with_trace(model, ex.token_ids, len(lv) + 1)
            p = 0.0
            for t, cls in enumerate(seq):
                if cls == alpha and t + 1 < len(dists):
                    p = float(dists[t + 1][beta])
                    break
            probs.append(p)
        passing.append(float(np.mean(probs)) > 0.9)
    elapsed = time.perf_counter() - started
    _report(
        7,
        "after emitting the first label of a correlated pair, the second "
        "gets > 0.9 probability on held-out text (at least 8 of 10 seeds)",
        sum(passing) >= 8,
        f"{sum(passing)}/10 seeds, {elapsed:.0f}s",
    )


def test_08_frequency_ordered_targets_beat_shuffled():
    started = time.perf_counter()
    train_records, test_records = synthetic.composition_corpus(0)
    train_examples, vocab, lv = encode_corpus(train_records)
    test_examples = corpus.encode_examples(test_records, vocab, lv)

    def mean_f1(shuffle: bool) -> float:
        scores = []
        for seed in range(5):
            model = Seq2LabelModel(
                ModelConfig(embed_size=20, encoder_hidden=20, decoder_hidden=20),
                len(vocab), len(lv), RngStream(seed),
            )
            tc = TrainConfig(epochs=60, batch_size=8, seed=seed, shuffle_labels=shuffle)
            report = fit(model, train_examples, None, tc, lv)
            scores.append(evaluate_greedy(model, test_examples, report.max_label_steps))
        return float(np.mean(scores))

    sorted_f1 = mean_f1(shuffle=False)
    shuffled_f1 = mean_f1(shuffle=True)
    elapsed = time.perf_counter() - started
    _report(
        8,
        "frequency-ordered target sequences score at least as well as "
        "shuffled ones on unseen label combinations (mean over 5 seeds)",
        sorted_f1 >= shuffled_f1,
        f"sorted {sorted_f1:.4f} vs shuffled {shuffled_f1:.4f}, {elapsed:.0f}s",
    )


def test_09_training_is_reproducible_across_directories(tmp_path, capfd):
    records = synthetic.memorization_corpus(0)[:8]
    cwd = os.getcwd()
    blobs = []
    try:
        for sub in ("runA", "runB"):
            d = tmp_path / sub
            d.mkdir()
            corpus.write_jsonl(str(d / "data.jsonl"), records)
            os.chdir(d)
            code = cli_main(
                ["train", "--train", "data.jsonl", "--checkpoint", "model.ckpt",
                 "--embed-size", "8", "--encoder-hidden", "6", "--decoder-hidden", "8",
                 "--epochs", "3", "--batch-size", "4", "--seed", "11"]
            )
            assert code == 0
            blobs.append((d / "model.ckpt").read_bytes())
            os.chdir(cwd)
    finally:
        os.chdir(cwd)
    capfd.readouterr()

    identical = blobs[0] == blobs[1]
    ckpt = load_checkpoint(str(tmp_path / "runA" / "model.ckpt"))
    examples = corpus.encode_examples(records, ckpt.vocab, ckpt.label_vocab)
    other = load_checkpoint(str(tmp_path / "runB" / "model.ckpt"))
    same_decodes = all(
        greedy_decode(ckpt.model, ex.token_ids, ckpt.max_label_steps)
        == greedy_decode(other.model, ex.token_ids, other.max_label_steps)
        for ex in examples
    )
    _report(
        9,
        "identical seed and data yield byte-identical checkpoints and "
        "identical decodes from separate working directories",
        identical and same_decodes,
        f"checkpoints {'equal' if identical else 'differ'}",
    )


def test_10_attention_rows_are_source_distributions():
    worst = 1.0
    rows_seen = 0
    bad_shapes = 0
    for seed in range(20):
        model, tokens = small_random_model(seed + 600)
        seq, _ = greedy_decode(model, tokens, model.num_labels + 1)
        trace = export_attention(model, tokens, seq)
        n_real = len([c for c in seq if c != model.eos_class])
        if trace.weights.shape != (n_real, len(tokens)):
            bad_shapes += 1
        for row in trace.weights:
            rows_seen += 1
            if np.any(row < 0.0):
                bad_shapes += 1
            worst = min(worst, 1.0 - abs(float(np.sum(row)) - 1.0))
    sums_ok = (1.0 - worst) <= 1e-9
    _report(
        10,
        "exported attention has one row per emitted label, sized to the "
        "unpadded source, each summing to 1 within 1e-9",
        bad_shapes == 0 and rows_seen > 0 and sums_ok,
        f"{rows_seen} rows, worst sum err {1.0 - worst:.1e}",
    )
