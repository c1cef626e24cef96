"""Command-line entry points: build-vocab, train, evaluate, predict, ablate.

Options resolve in three layers: built-in defaults, then a ``key=value``
config file given with --config, then explicit command-line flags. Exit codes
are 0 for success, 1 for usage or configuration problems, 2 for data problems,
and 3 for numeric failures at run time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, make_dataclass, replace

from . import corpus, inference, metrics, synthetic, trainer
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import LabelVocabulary, Vocabulary, atomic_output
from .errors import ConfigError, DataError, NumericError
from .model import GE_MODES, ModelConfig, Seq2LabelModel
from .numerics import RngStream
from .trainer import TrainConfig


@dataclass
class _CommandLineOptions:
    """The options only the command line has: paths, data, decoding, reporting."""

    # paths; ``config`` is the --config file itself, an input of every command
    config: str | None = None
    train: str | None = None
    valid: str | None = None
    test: str | None = None
    input: str | None = None
    vocab: str | None = None
    label_vocab: str | None = None
    checkpoint: str | None = None
    out: str | None = None
    report: str | None = None
    attn: str | None = None
    # data
    vocab_size: int = 50000
    max_len: int = 500
    # the mask ablation; the model's own switch is ModelConfig.use_mask
    no_mask: bool = False
    # decoding / reporting
    beam: int = 5
    max_steps: int | None = None
    lls_buckets: bool = False
    lambda_list: str = "0.0,0.5,1.0"

    def model_config(self) -> ModelConfig:
        return ModelConfig(use_mask=not self.no_mask, **self._values(ModelConfig))

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._values(TrainConfig))

    def _values(self, cls) -> dict:
        return {f.name: getattr(self, f.name) for f in _library_fields(cls)}


def _library_fields(cls) -> list:
    return [f for f in fields(cls) if f.name != "use_mask"]


RunConfig = make_dataclass(
    "RunConfig",
    [
        (f.name, f.type, field(default=f.default))
        for cls in (ModelConfig, TrainConfig)
        for f in _library_fields(cls)
    ],
    bases=(_CommandLineOptions,),
    namespace={
        "__module__": __name__,
        "__doc__": "Flat bag of every option any subcommand reads: the command line's own options "
        "plus each ModelConfig and TrainConfig field, with the library's type and default.",
    },
)

# every option a config file or a flag can set (a config file names no config file)
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig) if f.name != "config"}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse {text!r} as a boolean")


def int_or_none(text: str) -> int | None:
    return None if text.strip().lower() == "none" else int(text)


_PARSERS = {
    "str": str,
    "str | None": str,
    "int": int,
    "int | None": int_or_none,
    "float": float,
    "bool": _parse_bool,
}


def _field_parser(name: str):
    return _PARSERS[_FIELD_TYPES[name]]


def read_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and '#' comments are skipped."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read config file {path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path} line {lineno}: unknown option {key!r}")
        try:
            values[key] = _field_parser(key)(value)
        except ValueError:
            raise ConfigError(f"{path} line {lineno}: bad value {value!r} for {key}") from None
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config-file values, then explicitly passed flags."""
    cfg = RunConfig(config=args.config)
    if args.config:
        cfg = replace(cfg, **read_config_file(args.config))
    overrides = {
        k: v for k, v in vars(args).items() if k in _FIELD_TYPES and v is not None
    }
    cfg = replace(cfg, **overrides)
    if cfg.beam < 1:
        raise ConfigError(f"beam must be at least 1, got {cfg.beam}")
    if cfg.max_steps is not None and cfg.max_steps < 1:
        raise ConfigError(f"max_steps must be at least 1, got {cfg.max_steps}")
    for name in ("max_len", "vocab_size"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be at least 1, got {getattr(cfg, name)}")
    return cfg


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require(cfg: RunConfig, names: list[str], command: str) -> None:
    missing = [n for n in names if not getattr(cfg, n)]  # an empty path is no path
    if missing:
        flags = ", ".join(_flag(n) for n in missing)
        raise ConfigError(f"{command} requires {flags}")


def _check_outputs(cfg: RunConfig, names: list[str], inputs: list[str], derived=()) -> None:
    """Refuse, before any work, output paths that cannot be created, and an
    output that names an input or another output (through a symlink too).
    ``names`` and ``inputs`` are option names (the --config file is an input
    of every command); ``derived`` adds (label, path) pairs of outputs that
    no option names. Streams such as /dev/stdin and /dev/stdout are exempt."""
    seen: dict[str, str] = {}
    for name in [*inputs, "config"]:
        path = getattr(cfg, name)
        if path and not corpus.is_stream(path):
            seen[os.path.realpath(path)] = _flag(name)
    for label, path in [(_flag(name), getattr(cfg, name)) for name in names] + list(derived):
        if not path:
            continue
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise DataError(f"cannot write {path}: no directory {folder}")
        if os.path.isdir(path):
            raise DataError(f"cannot write {path}: it is a directory")
        if corpus.is_stream(path):
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise DataError(f"{seen[real]} and {label} name the same file {path}")
        seen[real] = label


def _load_records(path: str, require_labels: bool = True) -> list[dict]:
    try:
        return corpus.load_jsonl(path, require_labels=require_labels)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from None


def _load_examples(path: str, vocab: Vocabulary, label_vocab: LabelVocabulary, max_len: int):
    return corpus.encode_examples(_load_records(path), vocab, label_vocab, max_len)


def _write_json(payload: dict, out: str | None) -> None:
    if out:
        with atomic_output(out) as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    else:
        print(json.dumps(payload, indent=2))


# -- subcommands ----------------------------------------------------------------


def cmd_build_vocab(cfg: RunConfig) -> int:
    _require(cfg, ["train", "vocab", "label_vocab"], "build-vocab")
    _check_outputs(cfg, ["vocab", "label_vocab", "out"], ["train"])
    records = _load_records(cfg.train)
    vocab, label_vocab = corpus.build_vocab(records, cfg.vocab_size)
    vocab.save(cfg.vocab)
    label_vocab.save(cfg.label_vocab)
    _write_json(
        {
            "examples": len(records),
            "tokens": len(vocab) - 2,
            "labels": len(label_vocab),
        },
        cfg.out,
    )
    return 0


def _load_training_data(cfg: RunConfig):
    """Vocabularies (read if both files exist, else built and saved) and the
    encoded training and optional validation examples."""
    records = _load_records(cfg.train)
    if cfg.vocab and os.path.exists(cfg.vocab) and cfg.label_vocab and os.path.exists(cfg.label_vocab):
        vocab, label_vocab = Vocabulary.load(cfg.vocab), LabelVocabulary.load(cfg.label_vocab)
    else:
        vocab, label_vocab = corpus.build_vocab(records, cfg.vocab_size)
        if cfg.vocab:
            vocab.save(cfg.vocab)
        if cfg.label_vocab:
            label_vocab.save(cfg.label_vocab)
    train_examples = corpus.encode_examples(records, vocab, label_vocab, cfg.max_len)
    valid_examples = _load_examples(cfg.valid, vocab, label_vocab, cfg.max_len) if cfg.valid else None
    return vocab, label_vocab, train_examples, valid_examples


def cmd_train(cfg: RunConfig) -> int:
    _require(cfg, ["train", "checkpoint"], "train")
    _check_outputs(cfg, ["checkpoint", "report", "vocab", "label_vocab"], ["train", "valid"])
    model_config, train_config = cfg.model_config(), cfg.train_config()
    vocab, label_vocab, train_examples, valid_examples = _load_training_data(cfg)

    model = Seq2LabelModel(model_config, len(vocab), len(label_vocab), RngStream(cfg.seed))
    report = trainer.fit(model, train_examples, valid_examples, train_config, label_vocab)

    for epoch, loss in enumerate(report.train_loss, start=1):
        line = f"epoch {epoch}: loss {loss:.6f}"
        if report.valid_f1:
            line += f", valid micro-F1 {report.valid_f1[epoch - 1]:.4f}"
        print(line)
    print(f"selected epoch {report.selected_epoch} (valid micro-F1 {report.best_valid_f1:.4f})")

    save_checkpoint(
        cfg.checkpoint,
        model,
        vocab,
        label_vocab,
        best_valid_f1=report.best_valid_f1,
        max_label_steps=report.max_label_steps,
    )
    print(f"checkpoint written to {cfg.checkpoint}")
    if cfg.report:
        _write_json(
            {
                "train_loss": report.train_loss,
                "valid_f1": report.valid_f1,
                "selected_epoch": report.selected_epoch,
                "best_valid_f1": report.best_valid_f1,
                "epoch_seconds": report.epoch_seconds,
                "max_label_steps": report.max_label_steps,
            },
            cfg.report,
        )
    return 0


def _decode_steps(cfg: RunConfig, max_label_steps: int) -> int:
    return cfg.max_steps if cfg.max_steps is not None else max_label_steps


def cmd_evaluate(cfg: RunConfig) -> int:
    _require(cfg, ["checkpoint", "test"], "evaluate")
    _check_outputs(cfg, ["out"], ["checkpoint", "test"])
    ckpt = load_checkpoint(cfg.checkpoint)
    examples = _load_examples(cfg.test, ckpt.vocab, ckpt.label_vocab, cfg.max_len)
    pairs = trainer.label_set_pairs(ckpt.model, examples, cfg.beam, _decode_steps(cfg, ckpt.max_label_steps))
    report = metrics.score(pairs, len(ckpt.label_vocab))
    if cfg.lls_buckets:
        report.buckets = metrics.bucket_by_lls(pairs, len(ckpt.label_vocab))
    _write_json(report.as_dict(), cfg.out)
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    _require(cfg, ["checkpoint", "input"], "predict")
    _check_outputs(cfg, ["out", "attn"], ["checkpoint", "input"])
    ckpt = load_checkpoint(cfg.checkpoint)
    model, label_of = ckpt.model, ckpt.label_vocab.label_of
    records = _load_records(cfg.input, require_labels=False)
    max_steps = _decode_steps(cfg, ckpt.max_label_steps)

    with ExitStack() as outputs:
        out_f = outputs.enter_context(atomic_output(cfg.out)) if cfg.out else sys.stdout
        attn_f = outputs.enter_context(atomic_output(cfg.attn)) if cfg.attn else None
        for i, rec in enumerate(records):
            try:
                token_ids = corpus.encode_text(rec["text"], ckpt.vocab, cfg.max_len)
            except DataError as e:
                out_f.write(json.dumps({"index": i, "error": str(e)}) + "\n")
                continue
            best = inference.decode(model, token_ids, cfg.beam, max_steps, close_out=cfg.beam > 1)
            names = [label_of(l) for l in inference.extract_label_set(best.sequence, model.eos_class)]
            out_f.write(json.dumps({"index": i, "labels": names, "log_prob": best.log_prob}) + "\n")
            if attn_f is not None:
                emitted = [c for c in best.sequence if c != model.eos_class]
                attn_f.write(
                    json.dumps(
                        {
                            "index": i,
                            "tokens": [ckpt.vocab.token_of(t) for t in token_ids],
                            "labels": [label_of(l) for l in emitted],
                            "weights": [list(row) for row in best.attns[: len(emitted)]],
                        }
                    )
                    + "\n"
                )
    return 0


def _parse_lambda_list(text: str) -> dict[str, float]:
    """The ``lambda`` variants of ``--lambda-list``, by variant name."""
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse lambda list {text!r}") from None
    if not values:
        raise ConfigError("lambda list is empty")
    variants = {}
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"lambda {v} outside [0, 1]")
        name = f"lambda={v:g}"
        if name in variants:
            raise ConfigError(f"lambdas {variants[name]!r} and {v!r} both name the variant {name!r}")
        variants[name] = v
    return variants


def cmd_ablate(cfg: RunConfig) -> int:
    """Train and evaluate the base setup plus one variant per ablation switch."""
    _require(cfg, ["train", "test"], "ablate")
    lambdas = _parse_lambda_list(cfg.lambda_list)
    cfg.model_config(), cfg.train_config()  # a bad option fails here, before any data is read
    _check_outputs(cfg, ["out", "vocab", "label_vocab"], ["train", "valid", "test"])
    vocab, label_vocab, train_examples, valid_examples = _load_training_data(cfg)
    test_examples = _load_examples(cfg.test, vocab, label_vocab, cfg.max_len)

    variants: list[tuple[str, RunConfig]] = [("base", cfg)]
    variants.append(("no_mask", replace(cfg, no_mask=True)))
    variants.append(("shuffled_labels", replace(cfg, shuffle_labels=True)))
    for name, lam in lambdas.items():
        variants.append((name, replace(cfg, ge_mode="lambda", ge_lambda=lam)))

    results = {}
    for name, vcfg in variants:
        model = Seq2LabelModel(vcfg.model_config(), len(vocab), len(label_vocab), RngStream(vcfg.seed))
        report = trainer.fit(model, train_examples, valid_examples, vcfg.train_config(), label_vocab)
        pairs = trainer.label_set_pairs(model, test_examples, vcfg.beam, _decode_steps(vcfg, report.max_label_steps))
        results[name] = metrics.score(pairs, len(label_vocab)).as_dict()
        print(f"{name}: test micro-F1 {results[name]['micro_f1']:.4f}", file=sys.stderr)
    _write_json({"variants": results}, cfg.out)
    return 0


def cmd_synth(cfg: RunConfig) -> int:
    """Write the generated corpora to JSONL files (developer utility): the
    memorization corpus to --out, the correlated pair corpus beside it."""
    _require(cfg, ["out"], "synth")
    base, ext = os.path.splitext(cfg.out)
    pairs = {part: f"{base}-pairs-{part}{ext}" for part in ("train", "heldout")}
    _check_outputs(cfg, ["out"], [], [(f"the {part} pairs of --out", path) for part, path in pairs.items()])
    train, held = synthetic.correlated_pair_corpus(cfg.seed)
    corpus.write_jsonl(cfg.out, synthetic.memorization_corpus(cfg.seed))
    corpus.write_jsonl(pairs["train"], train)
    corpus.write_jsonl(pairs["heldout"], held)
    return 0


# -- argument parsing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


_HELP = {
    "train": "training JSONL",
    "valid": "validation JSONL",
    "vocab": "token vocabulary file",
    "label_vocab": "label vocabulary file",
    "no_mask": "ablation: decode without the no-repeat mask",
    "shuffle_labels": "ablation: random label order instead of frequency order",
    "checkpoint": "checkpoint output path",
    "report": "write a JSON training report here",
    "beam": "beam size (default 5)",
    "lls_buckets": "also report metrics per reference label-set size",
    "input": "JSONL with a 'text' field per line",
    "attn": "write per-label attention rows to this JSONL",
    "lambda_list": "comma-separated blend weights to sweep (default 0.0,0.5,1.0)",
}

# --out names a different file on each subcommand
_OUT_HELP = {
    "build-vocab": "write the JSON counts of examples, tokens and labels here instead of stdout",
    "evaluate": "write the JSON metrics here instead of stdout",
    "predict": "write one JSON line per input here instead of stdout",
    "ablate": "write each variant's JSON metrics here instead of stdout",
    "synth": "write the memorization corpus JSONL here (required), and the pair corpora beside it, "
             "with -pairs-train and -pairs-heldout added to its base name",
}

_MODEL_KEYS = tuple(f.name for f in _library_fields(ModelConfig))
_TRAIN_KEYS = ("train", "valid", "vocab", "label_vocab", "vocab_size", "max_len", "no_mask") + tuple(
    f.name for f in fields(TrainConfig)
)
_DECODE_KEYS = ("beam", "max_steps")

# subcommand -> (handler, help, the RunConfig fields its handler reads, a flag each)
_COMMANDS = {
    "build-vocab": (cmd_build_vocab, "count tokens and labels, write both vocabularies",
                    ("train", "vocab", "label_vocab", "vocab_size", "out")),
    "train": (cmd_train, "train a model and write a checkpoint",
              _TRAIN_KEYS + _MODEL_KEYS + ("checkpoint", "report")),
    "evaluate": (cmd_evaluate, "score a checkpoint on a labeled test set",
                 _DECODE_KEYS + ("checkpoint", "test", "max_len", "lls_buckets", "out")),
    "predict": (cmd_predict, "decode label sets for unlabeled inputs",
                _DECODE_KEYS + ("checkpoint", "input", "max_len", "attn", "out")),
    "ablate": (cmd_ablate, "train the base setup and its ablation variants",
               _TRAIN_KEYS + _MODEL_KEYS + _DECODE_KEYS + ("test", "lambda_list", "out")),
    "synth": (cmd_synth, "write the built-in synthetic corpora as JSONL", ("seed", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    """One --flag per config key a subcommand reads, typed like its RunConfig field.

    Every flag defaults to None, so resolve_config can tell a flag that was not
    given from one that was.
    """
    parser = _Parser(prog="seq2label", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override it")
        for key in keys:
            if _FIELD_TYPES[key] == "bool":
                kind = {"action": "store_true", "default": None}
            else:
                kind = {"type": _field_parser(key), "choices": GE_MODES if key == "ge_mode" else None}
            p.add_argument(_flag(key), help=_OUT_HELP[command] if key == "out" else _HELP.get(key), **kind)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        return args.func(cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        # an OSError here is a file that could not be read or written
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
