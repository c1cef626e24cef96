"""Single-file checkpoints: versioned JSON header plus raw tensor bytes.

Layout: a magic line, a one-line JSON header (model config, both vocabularies
as embedded text blocks, the tensor manifest, training metadata), then each
tensor's little-endian float64 bytes in manifest order. Everything that
determines inference behavior lives in the file, so loading reconstructs the
model bit for bit; saving twice from identical runs yields identical bytes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import LabelVocabulary, Vocabulary, atomic_output
from .errors import DataError
from .model import ModelConfig, Seq2LabelModel

MAGIC = b"seq2label checkpoint v1\n"


@dataclass
class Checkpoint:
    model: Seq2LabelModel
    vocab: Vocabulary
    label_vocab: LabelVocabulary
    best_valid_f1: float
    max_label_steps: int


def save_checkpoint(
    path: str,
    model: Seq2LabelModel,
    vocab: Vocabulary,
    label_vocab: LabelVocabulary,
    best_valid_f1: float = 0.0,
    max_label_steps: int = 1,
    save_adam: bool = False,
) -> None:
    """Write the model, both vocabularies and, with ``save_adam``, Adam's
    moments; each array's own buffer is written, not a copy of it."""
    params = model.params
    manifest = [
        {"name": name, "shape": list(t.data.shape)} for name, t in params.items()
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
        "adam": {"saved": bool(save_adam), "step": params.step_count},
    }
    arrays = [t.data for _, t in params.items()]
    if save_adam:
        m, v = params.moments()
        arrays += [m[name] for name in params] + [v[name] for name in params]
    with atomic_output(path, binary=True) as f:
        f.write(MAGIC)
        f.write(json.dumps(header, ensure_ascii=False).encode("utf-8"))
        f.write(b"\n")
        for arr in arrays:
            # the array itself when it is C-contiguous little-endian float64
            f.write(np.ascontiguousarray(arr, dtype="<f8"))


class _NoDraw:
    """The random stream of a model whose values are all read from a file
    next: it draws nothing, and leaves each new parameter unset."""

    @staticmethod
    def uniform(low: float, high: float, shape=()) -> np.ndarray:
        return np.empty(shape)


def load_checkpoint(path: str) -> Checkpoint:
    """Rebuild the model and read every tensor from the file into it.

    The model is built without drawing initial values, its names and shapes
    are checked against the tensor manifest before any tensor is read, and
    each tensor is read once, straight into the array that keeps it. An
    unreadable file, a malformed header, a negative Adam step, vocabularies
    whose sizes differ from the model's, a manifest that differs from the
    model's, a file longer or shorter than the manifest, or a stored value
    that is not finite raise DataError.
    """
    try:
        f = open(path, "rb")
    except OSError as e:
        raise DataError(f"cannot read checkpoint: {e}") from None
    with f:
        if f.read(len(MAGIC)) != MAGIC:
            raise DataError(f"{path} is not a checkpoint (bad magic)")
        line = f.readline()
        if not line.endswith(b"\n"):
            raise DataError(f"{path} is truncated (no header line)")
        try:
            header = json.loads(line.decode("utf-8"))
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
        if adam_steps < 0:
            raise DataError(f"{path} header has Adam step {adam_steps}, below 0")
        model = Seq2LabelModel(config, vocab_size, num_labels, _NoDraw())
        params = model.params
        names = params.names()
        if [name for name, _ in manifest] != names:
            raise DataError(f"{path} tensor manifest does not match this configuration")
        for (name, shape), (_, t) in zip(manifest, params.items()):
            if shape != t.data.shape:
                raise DataError(f"tensor {name} has shape {shape}, expected {t.data.shape}")

        blocks = [[t.data for _, t in params.items()]]
        if adam_saved:
            blocks += [[np.empty(t.data.shape) for _, t in params.items()] for _ in range(2)]
        for block in blocks:
            for name, arr in zip(names, block):
                if f.readinto(arr) != arr.nbytes:
                    raise DataError(f"{path} is truncated (tensor {name})")
                if sys.byteorder == "big":
                    arr.byteswap(inplace=True)  # the file holds little-endian values
        trailing = len(f.read())
        if trailing:
            raise DataError(f"{path} has {trailing} trailing bytes")

    for kind, block in zip(("tensor", "Adam m of", "Adam v of"), blocks):
        for name, arr in zip(names, block):
            if not np.isfinite(arr).all():
                raise DataError(f"{path} {kind} {name} holds a non-finite value")
    if adam_saved:
        params.load_adam_state(
            {"step": adam_steps, "m": dict(zip(names, blocks[1])), "v": dict(zip(names, blocks[2]))}
        )
    else:
        params.step_count = adam_steps

    return Checkpoint(
        model=model,
        vocab=vocab,
        label_vocab=label_vocab,
        best_valid_f1=best_valid_f1,
        max_label_steps=max_label_steps,
    )
