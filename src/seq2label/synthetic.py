"""Tiny generated corpora with known structure, for experiments and tests.

Two families: a memorization corpus where a unique key token determines each
label set, and a correlation corpus where one label is evidenced only by its
perfect co-occurrence with another. Both are plain record lists compatible
with ``corpus.build_vocab`` / ``corpus.encode_examples``.
"""

from __future__ import annotations

from .numerics import RngStream

MEMO_LABELS = ("alpha", "beta", "gamma", "delta", "epsilon")


def memorization_corpus(seed: int = 0) -> list[dict]:
    """20 documents, 50-token vocabulary, 1 to 3 labels each.

    Every document carries a unique key token plus four shared filler tokens,
    so the mapping from text to label set is learnable by rote. The filler
    assignment cycles through all 30 fillers, keeping the vocabulary size
    fixed at exactly 50.
    """
    rng = RngStream(seed)
    records = []
    for i in range(20):
        tokens = [f"doc{i:02d}"] + [f"f{(4 * i + j) % 30:02d}" for j in range(4)]
        rng.shuffle(tokens)
        # key label guarantees all five labels occur in the corpus
        size = 1 + int(rng.integers(0, 3))
        picked = {i % 5}
        while len(picked) < size:
            picked.add(int(rng.integers(0, 5)))
        labels = [MEMO_LABELS[j] for j in sorted(picked)]
        records.append({"text": " ".join(tokens), "labels": labels})
    return records


COMPO_LABELS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")

# inclusion probability per label; the skew mirrors the long tail of real
# label distributions and is what makes frequency-sorted emission informative
_COMPO_P = (0.85, 0.6, 0.45, 0.3, 0.2, 0.12)


def composition_corpus(seed: int = 0) -> tuple[list[dict], list[dict]]:
    """60 training and 15 test documents carrying one trigger token per label
    in their set.

    Each of six labels has its own trigger, so the token-to-label map
    generalizes to unseen trigger combinations; the test split contains only
    combinations absent from training. Inclusion probabilities are strongly
    skewed, giving a frequency order worth exploiting, and set sizes vary
    from 2 to 4.
    """
    rng = RngStream(seed)
    triggers = [f"q{i}" for i in range(6)]
    fillers = [f"w{i}" for i in range(8)]
    used: set[tuple[str, ...]] = set()

    def pick_labels() -> list[int]:
        while True:
            chosen = [j for j, p in enumerate(_COMPO_P) if float(rng.uniform(0.0, 1.0)) < p]
            if 2 <= len(chosen) <= 4:
                return chosen

    def doc() -> dict:
        while True:
            chosen = pick_labels()
            f_order = rng.permutation(len(fillers))
            tokens = [triggers[j] for j in chosen] + [fillers[int(f_order[0])], fillers[int(f_order[1])]]
            key = tuple(sorted(tokens))
            if key not in used:
                used.add(key)
                break
        rng.shuffle(tokens)
        return {"text": " ".join(tokens), "labels": [COMPO_LABELS[j] for j in chosen]}

    train = [doc() for _ in range(60)]
    test = [doc() for _ in range(15)]
    return train, test


def correlated_pair_corpus(seed: int = 0) -> tuple[list[dict], list[dict]]:
    """Corpus where label beta appears if and only if alpha does.

    Tokens qa0..qa3 trigger alpha, qc*/qd* trigger gamma/delta, and w0..w9 are
    neutral fillers. No token triggers beta: the only evidence for it is its
    co-occurrence with alpha, so a model can only get beta right by exploiting
    the label correlation. Returns (train, heldout): 72 training records, and
    10 heldout alpha-trigger documents with filler combinations absent from
    training.
    """
    rng = RngStream(seed)
    fillers = [f"w{i}" for i in range(10)]
    used: set[tuple[str, ...]] = set()

    def sample_fillers(n: int) -> list[str]:
        order = rng.permutation(len(fillers))
        return [fillers[int(j)] for j in order[:n]]

    def doc(trigger_tokens: list[str], labels: list[str], n_fill: int = 2) -> dict:
        while True:
            tokens = trigger_tokens + sample_fillers(n_fill)
            key = tuple(sorted(tokens))
            if key not in used:
                used.add(key)
                break
        rng.shuffle(tokens)
        return {"text": " ".join(tokens), "labels": labels}

    train = []
    for i in range(4):
        for _ in range(8):
            train.append(doc([f"qa{i}"], ["alpha", "beta"]))
    for i in range(4):
        for _ in range(4):
            train.append(doc([f"qc{i}"], ["gamma"]))
    for i in range(4):
        for _ in range(4):
            train.append(doc([f"qd{i}"], ["delta"]))
    for i in range(8):
        train.append(doc([f"qa{i % 4}", f"qc{(i + 1) % 4}"], ["alpha", "beta", "gamma"]))

    held = [doc([f"qa{i % 4}"], ["alpha", "beta"]) for i in range(10)]
    return train, held
