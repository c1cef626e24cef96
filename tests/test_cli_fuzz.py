"""Generated inputs for the command line: every run ends in a documented exit code.

Each case runs ``main`` in-process inside a fresh directory that holds a small
corpus and checkpoint, and checks that the exit code is 0, 1, 2 or 3 (an
exception escaping ``main`` fails the test, since the console script would print
it as a traceback), that a nonzero exit prints an ``error:`` line and no
traceback, and that it leaves every file in the directory as it was.

Vocabulary files that ``train`` and ``ablate`` build are exempt from the last
check on exit 2 or 3, except where an output flag names an input file: they are
complete the moment they are written, before training starts, and a later
failure does not make them wrong. A configuration error (exit 1) is found
before any data is read, so it leaves every file as it was.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seq2label import synthetic
from seq2label.cli import _COMMANDS, _FIELD_TYPES, main
from seq2label.corpus import write_jsonl

SETTINGS = settings(
    max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)

TINY = ["--embed-size", "2", "--encoder-hidden", "2", "--decoder-hidden", "2",
        "--epochs", "1", "--batch-size", "4"]

# what each subcommand needs to run to the end on the directory's files
BASE = {
    "build-vocab": ["--train", "train.jsonl", "--vocab", "v.tsv", "--label-vocab", "l.tsv"],
    "train": ["--train", "train.jsonl", "--checkpoint", "out.ckpt"] + TINY,
    "evaluate": ["--checkpoint", "model.ckpt", "--test", "train.jsonl", "--out", "m.json"],
    "predict": ["--checkpoint", "model.ckpt", "--input", "in.jsonl", "--out", "p.jsonl"],
    "ablate": ["--train", "train.jsonl", "--test", "train.jsonl", "--lambda-list", "0.5",
               "--out", "a.json"] + TINY,
    "synth": ["--out", "s.jsonl"],
}

# Paths stay inside the run's directory. Numbers stay small and text holds no
# digits, so that a value that parses cannot ask for a long run.
PATHS = st.sampled_from(["train.jsonl", "in.jsonl", "model.ckpt", "new.out", ".", "nodir/x", "", "-"])
JUNK = st.one_of(
    st.sampled_from(["", " ", "none", "nan", "inf", "-inf", "1e9", "1e-300", "0.5", "-0.5", "true",
                     "off", "gate", "lambda", "0,1", "0.5,", ",", "1.5", "x"]),
    st.text(alphabet="abe-.,+ _", max_size=6),
)
VALUES = {
    "str | None": PATHS,
    "str": st.one_of(JUNK, st.sampled_from(["off", "gate", "lambda", "0.0,1.0"])),
    "int": st.one_of(st.integers(-2, 3).map(str), JUNK),
    "int | None": st.one_of(st.integers(-2, 3).map(str), JUNK),
    "float": st.one_of(st.floats(-1.0, 2.0).map(repr), JUNK),
}


@pytest.fixture(scope="module")
def seed_dir(tmp_path_factory):
    """The files every case starts from: a corpus, an input file and a checkpoint."""
    root = tmp_path_factory.mktemp("fuzz-seed")
    records = synthetic.memorization_corpus(0)[:4]
    write_jsonl(str(root / "train.jsonl"), records)
    write_jsonl(str(root / "in.jsonl"), [{"text": r["text"]} for r in records])
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--train", str(root / "train.jsonl"),
                     "--checkpoint", str(root / "model.ckpt")] + TINY) == 0
    return root


def _snapshot(root):
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


def _flag_value(argv, flag):
    """The value the last ``flag`` in ``argv`` gives, or None."""
    values = [value for name, value in zip(argv, argv[1:]) if name == flag]
    return values[-1] if values else None


def check_run(seed_dir, argv, files=None, exempt_vocab=True):
    """Run ``argv`` in a copy of ``seed_dir`` (plus ``files``); return the exit code."""
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(seed_dir, work, dirs_exist_ok=True)
        for name, blob in (files or {}).items():
            with open(os.path.join(work, name), "wb") as f:
                f.write(blob)
        before = _snapshot(work)
        out, err = io.StringIO(), io.StringIO()
        home = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(home)
        after = _snapshot(work)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code:
        assert "error:" in err.getvalue(), (argv, err.getvalue())
        if exempt_vocab and code in (2, 3) and argv[0] in ("train", "ablate"):
            for flag in ("--vocab", "--label-vocab"):
                before.pop(_flag_value(argv, flag), None)
                after.pop(_flag_value(argv, flag), None)
        assert after == before, (argv, code, sorted(set(after) ^ set(before)))
    return code


CONFIG_KEYS = sorted(k for k, t in _FIELD_TYPES.items() if t != "str | None")
CONFIG_LINE = st.one_of(
    st.tuples(
        st.sampled_from(CONFIG_KEYS + ["use_mask", "bogus"]).map(lambda k: k.replace("_", "-")),
        JUNK,
    ).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.sampled_from(["", "# comment", "no equals sign", "=", "epochs"]),
)


class TestConfigFiles:
    @SETTINGS
    @given(blob=st.binary(max_size=60))
    def test_random_bytes(self, seed_dir, blob):
        argv = ["evaluate", "--config", "run.cfg"] + BASE["evaluate"]
        check_run(seed_dir, argv, {"run.cfg": blob})

    @SETTINGS
    @given(command=st.sampled_from(["train", "evaluate", "predict"]),
           lines=st.lists(CONFIG_LINE, max_size=5))
    def test_random_keys_and_values(self, seed_dir, command, lines):
        argv = [command, "--config", "run.cfg"] + BASE[command]
        check_run(seed_dir, argv, {"run.cfg": "\n".join(lines).encode()})


@st.composite
def flag_values(draw):
    """A subcommand and a value for some of its flags, each typed like its field."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command] + BASE[command]
    for key in draw(st.lists(st.sampled_from(_COMMANDS[command][2]), max_size=4, unique=True)):
        flag = "--" + key.replace("_", "-")
        if _FIELD_TYPES[key] == "bool":
            argv.append(flag)
        else:
            argv += [flag, draw(VALUES[_FIELD_TYPES[key]])]
    return argv


class TestFlags:
    @SETTINGS
    @given(argv=flag_values())
    def test_random_flag_values(self, seed_dir, argv):
        check_run(seed_dir, argv)


# the path flags each subcommand reads and writes
INPUTS = {
    "build-vocab": ["train", "config"],
    "train": ["train", "valid", "config"],
    "evaluate": ["checkpoint", "test", "config"],
    "predict": ["checkpoint", "input", "config"],
    "ablate": ["train", "valid", "test", "config"],
}
OUTPUTS = {
    "build-vocab": ["vocab", "label_vocab", "out"],
    "train": ["checkpoint", "report", "vocab", "label_vocab"],
    "evaluate": ["out"],
    "predict": ["out", "attn"],
    "ablate": ["out", "vocab", "label_vocab"],
}


@st.composite
def output_naming_an_input(draw):
    """A subcommand with one of its output flags set to one of its input files."""
    command = draw(st.sampled_from(sorted(INPUTS)))
    argv = [command, "--config", "run.cfg"] + BASE[command]
    if "valid" in INPUTS[command]:
        argv += ["--valid", "valid.jsonl"]
    source = draw(st.sampled_from(INPUTS[command]))
    path = _flag_value(argv, "--" + source.replace("_", "-"))
    output = draw(st.sampled_from(OUTPUTS[command]))
    return argv + ["--" + output.replace("_", "-"), draw(st.sampled_from([path, "./" + path]))]


class TestOutputNamesInput:
    @SETTINGS
    @given(argv=output_naming_an_input())
    def test_exits_two_and_writes_nothing(self, seed_dir, argv):
        valid = (seed_dir / "train.jsonl").read_bytes()
        files = {"valid.jsonl": valid, "run.cfg": b"# every option at its default\n"}
        assert check_run(seed_dir, argv, files, exempt_vocab=False) == 2


RECORD = st.fixed_dictionaries({
    "text": st.lists(st.sampled_from(["doc00", "f01", "f02", "zebra", "...", "!?", ""]), max_size=4)
    .map(" ".join),
    "labels": st.lists(st.sampled_from(["alpha", "beta", "gamma", ""]), max_size=3),
}).map(lambda r: json.dumps(r).encode())
JSONL_LINE = st.one_of(
    RECORD,
    st.sampled_from([
        b"\xff\xfe", b'{"text": "caf\xe9", "labels": ["a"]}', b"\xc3", b"[1, 2]", b'"text"', b"3",
        b"null", b"{", b"{}", b"", b'{"text": "...", "labels": ["a"]}', b'{"text": "ok", "labels": "a"}',
        b'{"text": 5, "labels": ["a"]}', b'{"text": "ok", "labels": [1]}', b'{"text": "ok"}',
    ]),
    st.binary(max_size=12),
)


class TestDataFiles:
    @SETTINGS
    @given(command=st.sampled_from(["build-vocab", "train", "evaluate", "predict"]),
           lines=st.lists(JSONL_LINE, max_size=5))
    def test_odd_jsonl(self, seed_dir, command, lines):
        data = {"build-vocab": "train.jsonl", "train": "train.jsonl",
                "evaluate": "train.jsonl", "predict": "in.jsonl"}[command]
        check_run(seed_dir, [command] + BASE[command], {data: b"\n".join(lines) + b"\n"})

    @SETTINGS
    @given(lines=st.lists(st.one_of(st.sampled_from([b"a\t1", b"b\t2", b"\xff\t1", b"c", b"d\tx"]),
                                    st.binary(max_size=8)), max_size=4),
           which=st.sampled_from(["v.tsv", "l.tsv"]))
    def test_odd_vocabulary_files(self, seed_dir, lines, which):
        good = {"v.tsv": b"doc00\t1\n", "l.tsv": b"alpha\t1\n"}
        files = dict(good, **{which: b"\n".join(lines) + b"\n"})
        argv = ["train"] + BASE["train"] + ["--vocab", "v.tsv", "--label-vocab", "l.tsv"]
        check_run(seed_dir, argv, files)


class TestCheckpoints:
    @SETTINGS
    @given(cut=st.floats(0.0, 1.0, exclude_max=True), command=st.sampled_from(["evaluate", "predict"]))
    def test_truncated(self, seed_dir, cut, command):
        blob = (seed_dir / "model.ckpt").read_bytes()
        code = check_run(seed_dir, [command] + BASE[command], {"model.ckpt": blob[: int(cut * len(blob))]})
        assert code == 2

    @SETTINGS
    @given(entry=st.integers(0, 16),
           shape=st.sampled_from([
               lambda s: s[:-1] + [s[-1] + 0.5], lambda s: [-d for d in s], lambda s: "ab",
               lambda s: [str(d) for d in s], lambda s: [s], lambda s: s + [1], lambda s: [], lambda s: None,
               lambda s: [10**9] * 2,
           ]),
           command=st.sampled_from(["evaluate", "predict"]))
    def test_manifest_shape_replaced(self, seed_dir, entry, shape, command):
        # one manifest entry's shape made malformed (a float, negatives, strings, another
        # rank, a size past the file's end): refused before any tensor is read
        blob = (seed_dir / "model.ckpt").read_bytes()
        start = blob.index(b"\n") + 1
        end = blob.index(b"\n", start)
        header = json.loads(blob[start:end])
        tensor = header["tensors"][entry % len(header["tensors"])]
        tensor["shape"] = shape(tensor["shape"])
        bad = blob[:start] + json.dumps(header).encode() + blob[end:]
        assert check_run(seed_dir, [command] + BASE[command], {"model.ckpt": bad}) == 2

    @SETTINGS
    @given(key=st.sampled_from(["model_config", "vocab", "label_vocab", "vocab_size", "num_labels", "tensors",
                                "adam", "best_valid_f1", "max_label_steps"]),
           value=st.sampled_from([None, 5, -1, 0, 1.5, "x", "a\t1\n", [], {}, [{"name": 1}],
                                  {"saved": True, "step": -1}]))
    def test_header_entry_replaced(self, seed_dir, key, value):
        blob = (seed_dir / "model.ckpt").read_bytes()
        start = blob.index(b"\n") + 1
        end = blob.index(b"\n", start)
        header = dict(json.loads(blob[start:end]), **{key: value})
        bad = blob[:start] + json.dumps(header).encode() + blob[end:]
        check_run(seed_dir, ["predict"] + BASE["predict"], {"model.ckpt": bad})
