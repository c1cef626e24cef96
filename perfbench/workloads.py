"""Seeded corpora for the benchmark workloads.

Each workload is a ``Spec``; ``make_records`` turns a spec and a seed into
plain ``{"text", "labels"}`` records, which are all the library receives.

Document lengths and label-set sizes are stratified rather than drawn one by
one: every group of ``len(spec.label_counts)`` consecutive records carries the
log-normal's quantiles at (i + 0.5) / n as lengths and the listed label-set
sizes, in a seeded order. Every training batch and every decode round
therefore holds the same amount of work, so a run's figures vary with the
machine rather than with which lengths the seed happened to draw. The seed
still picks every word, every label and the order within each group.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

SIGMA = 0.6         # log-normal shape of document lengths
MAX_TOKENS = 500


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str                       # "train" or "decode"
    corpus_docs: int                # records the vocabularies are built from
    mean_tokens: float              # mean of the length distribution
    num_labels: int
    label_counts: tuple[int, ...]   # label-set sizes of one group (one batch or round)
    word_types: int                 # distinct words the generator can draw
    vocab_size: int                 # build_vocab cap; the corpus always exceeds it
    decode_docs: int = 0            # held-out documents decoded each round
    max_steps: int = 8              # decode step limit


# why each workload exists is recorded in BENCHMARK.json and README.md
SPECS = {
    "train_longdoc": Spec(
        name="train_longdoc",
        kind="train",
        corpus_docs=1600,
        mean_tokens=160.0,
        num_labels=54,
        label_counts=(1, 1, 2, 2, 2, 3, 4, 4),
        word_types=200_000,
        vocab_size=50_000,
    ),
    "train_shortdoc": Spec(
        name="train_shortdoc",
        kind="train",
        corpus_docs=1000,
        mean_tokens=40.0,
        num_labels=103,
        label_counts=(1, 2, 2, 3, 3, 4, 5, 6),
        word_types=20_000,
        vocab_size=5_000,
    ),
    "decode_manylabel": Spec(
        name="decode_manylabel",
        kind="decode",
        corpus_docs=1000,
        mean_tokens=40.0,
        num_labels=103,
        label_counts=(1, 2, 2, 3, 3, 4, 5, 6, 1, 2, 2, 3, 3, 4, 5, 6),
        word_types=20_000,
        vocab_size=5_000,
        decode_docs=16,
        max_steps=8,
    ),
}


def group_lengths(spec: Spec) -> list[int]:
    """Token counts of one group: log-normal quantiles with the spec's mean."""
    n = len(spec.label_counts)
    mu = math.log(spec.mean_tokens) - SIGMA ** 2 / 2
    z = [NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)]
    return [min(MAX_TOKENS, max(1, round(math.exp(mu + SIGMA * q)))) for q in z]


def _zipf_cdf(n: int) -> np.ndarray:
    w = 1.0 / (np.arange(n) + 2.7)
    cdf = np.cumsum(w)
    return cdf / cdf[-1]


def _documents(spec: Spec, rng: np.random.Generator, count: int, offset: int) -> list[dict]:
    lengths = group_lengths(spec)
    sizes = list(spec.label_counts)
    word_cdf = _zipf_cdf(spec.word_types)
    label_cdf = _zipf_cdf(spec.num_labels)
    records = []
    for g in range(0, count, len(sizes)):
        order = rng.permutation(len(sizes))
        for j in order[: count - g]:
            i = offset + len(records)
            ranks = np.searchsorted(word_cdf, rng.random(lengths[j]))
            # the first num_labels corpus documents each carry one label in
            # turn, so every label occurs and the label vocabulary has its size
            labels = [i] if i < spec.num_labels else []
            while len(labels) < sizes[j]:
                lab = int(np.searchsorted(label_cdf, rng.random()))
                if lab not in labels:
                    labels.append(lab)
            records.append(
                {"text": " ".join(f"w{r}" for r in ranks), "labels": [f"l{lab:03d}" for lab in labels]}
            )
    return records


def make_records(spec: Spec, seed: int) -> tuple[list[dict], list[dict]]:
    """(corpus records, held-out records to decode) for one seed."""
    rng = np.random.default_rng([seed, sum(spec.name.encode())])
    corpus = _documents(spec, rng, spec.corpus_docs, 0)
    held_out = _documents(spec, rng, spec.decode_docs, spec.corpus_docs)
    return corpus, held_out


def records_digest(*record_lists: list[dict]) -> str:
    h = hashlib.sha256()
    for records in record_lists:
        h.update(json.dumps(records, sort_keys=True).encode("utf-8"))
    return h.hexdigest()
