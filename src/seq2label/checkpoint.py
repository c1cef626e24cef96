"""Single-file checkpoints: versioned JSON header plus raw tensor bytes.

Layout: a magic line, a one-line JSON header (model config, both vocabularies
as embedded text blocks, the tensor manifest, training metadata), then each
tensor's little-endian float64 bytes in manifest order. Everything that
determines inference behavior lives in the file, so loading reconstructs the
model bit for bit; saving twice from identical runs yields identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import LabelVocabulary, Vocabulary, atomic_output
from .errors import DataError
from .model import ModelConfig, Seq2LabelModel
from .numerics import RngStream

MAGIC = b"seq2label checkpoint v1\n"


@dataclass
class Checkpoint:
    model: Seq2LabelModel
    vocab: Vocabulary
    label_vocab: LabelVocabulary
    best_valid_f1: float
    max_label_steps: int


def _tensor_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(
    path: str,
    model: Seq2LabelModel,
    vocab: Vocabulary,
    label_vocab: LabelVocabulary,
    best_valid_f1: float = 0.0,
    max_label_steps: int = 1,
    save_adam: bool = False,
) -> None:
    manifest = [
        {"name": name, "shape": list(t.data.shape)} for name, t in model.params.items()
    ]
    header = {
        "model_config": asdict(model.config),
        "vocab_size": model.vocab_size,
        "num_labels": model.num_labels,
        "vocab": vocab.to_text(),
        "label_vocab": label_vocab.to_text(),
        "best_valid_f1": float(best_valid_f1),
        "max_label_steps": int(max_label_steps),
        "tensors": manifest,
        "adam": {"saved": bool(save_adam), "step": model.params.step_count},
    }
    with atomic_output(path, binary=True) as f:
        f.write(MAGIC)
        f.write(json.dumps(header, ensure_ascii=False).encode("utf-8"))
        f.write(b"\n")
        for name, t in model.params.items():
            f.write(_tensor_bytes(t.data))
        if save_adam:
            state = model.params.adam_state()
            for name in model.params.names():
                f.write(_tensor_bytes(state["m"][name]))
            for name in model.params.names():
                f.write(_tensor_bytes(state["v"][name]))


def load_checkpoint(path: str) -> Checkpoint:
    """Rebuild the model and overwrite every tensor with the stored bytes.

    An unreadable file, a malformed header, vocabularies whose sizes differ
    from the model's, or a stored value that is not finite raise DataError.
    """
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise DataError(f"cannot read checkpoint: {e}") from None
    if not blob.startswith(MAGIC):
        raise DataError(f"{path} is not a checkpoint (bad magic)")
    newline = blob.find(b"\n", len(MAGIC))
    if newline < 0:
        raise DataError(f"{path} is truncated (no header line)")
    try:
        header = json.loads(blob[len(MAGIC):newline].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"{path} has a corrupt header: {e}") from None
    try:
        config = ModelConfig(**header["model_config"])
        vocab = Vocabulary.from_text(header["vocab"])
        label_vocab = LabelVocabulary.from_text(header["label_vocab"])
        vocab_size, num_labels = int(header["vocab_size"]), int(header["num_labels"])
        manifest = [(m["name"], tuple(m["shape"])) for m in header["tensors"]]
        adam_saved, adam_steps = bool(header["adam"]["saved"]), int(header["adam"]["step"])
        best_valid_f1, max_label_steps = float(header["best_valid_f1"]), int(header["max_label_steps"])
    except KeyError as e:
        raise DataError(f"{path} header has no {e} entry") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise DataError(f"{path} header has a malformed entry: {e}") from None

    if len(vocab) != vocab_size or len(label_vocab) != num_labels:
        raise DataError(
            f"{path} header holds {len(vocab)} tokens and {len(label_vocab)} labels, "
            f"but its model has {vocab_size} and {num_labels}"
        )
    if max_label_steps < 1:
        raise DataError(f"{path} header has max_label_steps {max_label_steps}, below 1")
    model = Seq2LabelModel(config, vocab_size, num_labels, RngStream(0))

    names = model.params.names()
    if [name for name, _ in manifest] != names:
        raise DataError(f"{path} tensor manifest does not match this configuration")

    copies = 3 if adam_saved else 1
    offset = newline + 1
    blocks: list[list[np.ndarray]] = []
    for _ in range(copies):
        block = []
        for name, shape in manifest:
            n = int(np.prod(shape, dtype=np.int64)) if shape else 1
            end = offset + 8 * n
            if end > len(blob):
                raise DataError(f"{path} is truncated (tensor {name})")
            block.append(np.frombuffer(blob[offset:end], dtype="<f8").reshape(shape).copy())
            offset = end
        blocks.append(block)
    if offset != len(blob):
        raise DataError(f"{path} has {len(blob) - offset} trailing bytes")

    for kind, block in zip(("tensor", "Adam m of", "Adam v of"), blocks):
        for name, arr in zip(names, block):
            if not np.isfinite(arr).all():
                raise DataError(f"{path} {kind} {name} holds a non-finite value")
    for name, arr in zip(names, blocks[0]):
        t = model.params[name]
        if arr.shape != t.data.shape:
            raise DataError(f"tensor {name} has shape {arr.shape}, expected {t.data.shape}")
        t.data = np.ascontiguousarray(arr)
    if adam_saved:
        model.params.load_adam_state(
            {"step": adam_steps, "m": dict(zip(names, blocks[1])), "v": dict(zip(names, blocks[2]))}
        )
    else:
        model.params.step_count = adam_steps

    return Checkpoint(
        model=model,
        vocab=vocab,
        label_vocab=label_vocab,
        best_valid_f1=best_valid_f1,
        max_label_steps=max_label_steps,
    )
