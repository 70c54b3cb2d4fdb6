"""The one error path at the boundaries.

A corrupt file either loads or is refused with a ValueError, never with
another exception. A checkpoint loads only as the model it was saved from,
and its refusals name the file, as feature-file refusals do; a text file
with one changed digit is a valid, different file, so the other readers only
have to load or refuse. Each CLI verb given a corrupt or missing input exits
1 with one stderr line, ``silstream <verb>: <message>``, and no traceback or
warning."""
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from silstream.attention import AttentionConfig
from silstream.cli import main
from silstream.data import parse_alignment_corpus, read_features, read_references
from silstream.encoder import EncoderConfig
from silstream.model import ModelConfig, NeuralModel, _checkpoint_body, init_params, load_checkpoint, save_checkpoint
from silstream.vocab import load_vocab, make_vocab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VOCAB = make_vocab(["t0", "t1", "t2", "t3"])  # gen-synthetic's, so the checkpoint decodes the corpus below
CFG = ModelConfig(EncoderConfig(num_layers=2, input_dim=3, hidden=4, proj=3),
                  AttentionConfig(chunk_size=3, energy_hidden=2), decoder_hidden=4, embed_dim=1)
MODEL = NeuralModel(CFG, init_params(CFG, VOCAB.size, seed=1), VOCAB, silence_aware=True)
BODY = json.loads(json.dumps(_checkpoint_body(MODEL)))  # as the file holds it


def key_paths(value, prefix=()):
    """Every key of the JSON objects in ``value``, as the keys that lead to it."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield prefix + (key,)
            yield from key_paths(item, prefix + (key,))


def retyped(value) -> list:
    """Values of other types than ``value``'s, each small enough to allocate as a size."""
    return [v for v in ("x", str(value), [value], None, {"v": value}, True, 2.5, 7) if type(v) is not type(value)]


def mutate_key(body: dict, kind: str, keys: tuple, pick: int) -> dict:
    """A copy of ``body`` with the key at ``keys`` dropped, renamed, copied under
    a new name, or given the ``pick``-th of its ``retyped`` values."""
    body = json.loads(json.dumps(body))
    parent = body
    for key in keys[:-1]:
        parent = parent[key]
    key = keys[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "rename":
        parent[key + "x"] = parent.pop(key)
    elif kind == "add":
        parent[key + "x"] = parent[key]
    else:
        choices = retyped(parent[key])
        parent[key] = choices[pick % len(choices)]
    return body


def write_resigned(body: dict, path) -> None:
    """Writes ``body`` with the checksum ``save_checkpoint`` would give it."""
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"checksum": digest, **body}, f)


def corrupt(raw: bytes, data, truncate: bool) -> bytes:
    """``raw`` cut at a drawn byte, or with a drawn byte replaced by another."""
    at = data.draw(st.integers(0, len(raw) - 1))
    if truncate:
        return raw[:at]
    return raw[:at] + bytes([data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]))]) + raw[at + 1:]


def same_model(a: NeuralModel, b: NeuralModel) -> bool:
    # repr tells 3 from 3.0 and from True
    return (repr(a.cfg) == repr(b.cfg) and a.vocab.tokens == b.vocab.tokens and a.silence_aware is b.silence_aware
            and a.params.keys() == b.params.keys()
            and all(a.params[k].dtype == b.params[k].dtype and np.array_equal(a.params[k], b.params[k])
                    for k in a.params))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding ``model.ckpt`` (``MODEL``) and the corpus ``c``."""
    path = tmp_path_factory.mktemp("boundaries")
    save_checkpoint(MODEL, str(path / "model.ckpt"))
    assert main(["gen-synthetic", "--out", str(path / "c"), "--seed", "3", "--size", "3", "--vocab-size", "4",
                 "--feature-dim", "3", "--min-tokens", "1", "--max-tokens", "2", "--mid-silence-prob", "1.0",
                 "--mid-silence-min", "8", "--mid-silence-max", "12"]) == 0
    return path


class TestCheckpointMutations:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), truncate=st.booleans())
    def test_truncated_or_byte_replaced_loads_equal_or_names_the_path(self, work, data, truncate):
        path = work / "mutated.ckpt"
        path.write_bytes(corrupt((work / "model.ckpt").read_bytes(), data, truncate))
        try:
            model = load_checkpoint(str(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert same_model(model, MODEL)

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["drop", "rename", "add", "retype"]), keys=st.sampled_from(sorted(key_paths(BODY))),
           pick=st.integers(0, 7))
    @example(kind="drop", keys=("config",), pick=0)
    @example(kind="add", keys=("config", "embed_dim"), pick=0)
    @example(kind="retype", keys=("silence_aware",), pick=0)  # "x"
    @example(kind="retype", keys=("silence_aware",), pick=6)  # 7
    @example(kind="retype", keys=("config", "attention", "chunk_size"), pick=5)  # True, which equals 1
    @example(kind="retype", keys=("config", "embed_dim"), pick=5)  # True, which equals 1
    @example(kind="retype", keys=("config", "attention", "chunk_size"), pick=6)  # 2.5
    @example(kind="retype", keys=("version",), pick=6)  # 2.5
    def test_resigned_key_mutation_is_refused_naming_the_path(self, work, kind, keys, pick):
        path = work / "resigned.ckpt"
        write_resigned(mutate_key(BODY, kind, keys, pick), path)
        with pytest.raises(ValueError) as exc:
            load_checkpoint(str(path))
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("entry", [5, None, True, ["t0"]], ids=["int", "null", "bool", "list"])
    def test_resigned_vocabulary_entry_of_another_type_is_refused_naming_the_path(self, work, entry):
        """A list entry retyped, where the key mutations above retype only dict values."""
        body = json.loads(json.dumps(BODY))
        body["vocab"][body["vocab"].index("t0")] = entry
        path = work / "vocab.ckpt"
        write_resigned(body, path)
        with pytest.raises(ValueError) as exc:
            load_checkpoint(str(path))
        assert str(exc.value).startswith(f"{path}: ")


def corpus_file(corpus, name: str):
    """The file ``name`` of ``corpus``; "feats" names its first feature file."""
    return corpus / "feats" / sorted(os.listdir(corpus / "feats"))[0] if name == "feats" else corpus / name


def read_alignments(path):
    with open(path, encoding="utf-8") as f:
        return parse_alignment_corpus(f.read())


READERS = {"feats": read_features, "refs.tsv": read_references, "vocab.txt": load_vocab,
           "alignments.txt": read_alignments}


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data(), truncate=st.booleans())
def test_corrupt_reader_input_loads_or_raises_value_error(work, name, data, truncate):
    path = work / f"mutated-{name}"
    path.write_bytes(corrupt(corpus_file(work / "c", name).read_bytes(), data, truncate))
    try:
        READERS[name](str(path))
    except ValueError as exc:
        assert name != "feats" or str(exc).startswith(f"{path}: ")


@pytest.mark.parametrize("header, row, message", [
    ("8 10 25 x", None, "invalid literal for int() with base 10: 'x'"),
    ("8 10 25", None, "bad feature header ['8', '10', '25']"),
    (None, "abc", "could not convert string 'abc' to float64 at row 0, column 1."),
    ("3 10 25 999", None, "expected 999x3 features, got "),
    (None, "nan", "features contain non-finite values"),
], ids=["header-value", "header-length", "row-value", "row-count", "non-finite"])
def test_feature_file_errors_name_the_file(work, tmp_path, header, row, message):
    lines = corpus_file(work / "c", "feats").read_text().splitlines()
    if header is not None:
        lines[0] = header
    if row is not None:
        lines[1] = " ".join([row] + lines[1].split()[1:])
    path = tmp_path / "u.feat"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_features(str(path))
    assert str(exc.value).startswith(f"{path}: {message}")


def run_cli(*argv) -> tuple[int, list[str]]:
    """``silstream argv`` in this process: its exit status and what the interpreter
    would print to stderr (a string exit's message, warnings included)."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
            if isinstance(exc.code, str):
                print(exc.code, file=err)
    return status, err.getvalue().splitlines() + [str(w.message) for w in caught]


def corpus_with(work, tmp_path, name: str, edit) -> str:
    """A copy of the corpus whose file ``name`` (or first feature file) is ``edit(text)``."""
    corpus = tmp_path / "c"
    shutil.copytree(work / "c", corpus)
    path = corpus_file(corpus, name)
    path.write_text(edit(path.read_text()))
    return str(corpus)


def _header(text: str) -> str:
    return "8 10 25 x\n" + text.split("\n", 1)[1]


def _row(text: str) -> str:
    header, first, rest = text.split("\n", 2)
    return "\n".join([header, "abc " + first.split(" ", 1)[1], rest])


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "written"
    path.write_text(text)
    return str(path)


def _checkpoint(tmp_path, edit) -> str:
    body = json.loads(json.dumps(BODY))
    edit(body)
    write_resigned(body, tmp_path / "edited.ckpt")
    return str(tmp_path / "edited.ckpt")


ORACLE = ["--oracle", "silence_aware"]
CASES = {
    "label-silence-missing-corpus": ("label-silence", lambda w, t: ["--corpus", str(t / "nope")]),
    "label-silence-feature-header": ("label-silence", lambda w, t: ["--corpus", corpus_with(w, t, "feats", _header)]),
    "label-silence-feature-rows-cut": ("label-silence", lambda w, t: [
        "--corpus", corpus_with(w, t, "feats", lambda s: s.split("\n", 1)[0] + "\n")]),  # numpy warns on no rows
    "train-feature-row": ("train", lambda w, t: ["--corpus", corpus_with(w, t, "feats", _row)]),
    "train-refs-missing-utterance": ("train", lambda w, t: [
        "--corpus", str(w / "c"), "--refs", _write(t, (w / "c" / "refs.tsv").read_text().splitlines()[0])]),
    "train-empty-corpus": ("train", lambda w, t: ["--corpus", corpus_with(w, t, "refs.tsv", lambda s: "")]),
    "decode-offline-missing-model": ("decode-offline", lambda w, t: ["--corpus", str(w / "c"), "--model",
                                                                     str(t / "nope.ckpt")]),
    "decode-offline-non-json-model": ("decode-offline", lambda w, t: ["--corpus", str(w / "c"), "--model",
                                                                      _write(t, "not json")]),
    "decode-offline-no-config": ("decode-offline", lambda w, t: [
        "--corpus", str(w / "c"), "--model", _checkpoint(t, lambda b: b.pop("config"))]),
    "decode-offline-unknown-config-key": ("decode-offline", lambda w, t: [
        "--corpus", str(w / "c"), "--model", _checkpoint(t, lambda b: b["config"].update(foo=1))]),
    "decode-offline-silence-aware-string": ("decode-offline", lambda w, t: [
        "--corpus", str(w / "c"), "--model", _checkpoint(t, lambda b: b.update(silence_aware="yes"))]),
    "decode-offline-malformed-config": ("decode-offline", lambda w, t: ["--corpus", str(w / "c"), *ORACLE,
                                                                        "--config", _write(t, "{not json")]),
    "decode-online-bool-beam": ("decode-online", lambda w, t: ["--corpus", str(w / "c"), *ORACLE,
                                                               "--config", _write(t, '{"beam": true}')]),
    "decode-online-duplicate-vocab": ("decode-online", lambda w, t: [
        "--corpus", corpus_with(w, t, "vocab.txt", lambda s: s + "t0\n"), *ORACLE]),
    "evaluate-missing-hyps": ("evaluate", lambda w, t: ["--refs", str(w / "c" / "refs.tsv"),
                                                        "--hyps", str(t / "nope.tsv"),
                                                        "--vocab", str(w / "c" / "vocab.txt")]),
    "evaluate-unknown-token": ("evaluate", lambda w, t: [
        "--refs", str(w / "c" / "refs.tsv"), "--vocab", str(w / "c" / "vocab.txt"),
        "--hyps", _write(t, (w / "c" / "refs.tsv").read_text().replace("\t", "\tzz "))]),
    "sweep-truncated-model": ("sweep", lambda w, t: [
        "--corpus", str(w / "c"), "--model", _write(t, (w / "model.ckpt").read_text()[:-1])]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_corrupt_or_missing_input_exits_with_one_line(work, tmp_path, case):
    verb, argv = CASES[case]
    status, lines = run_cli(verb, *argv(work, tmp_path), "--out", str(tmp_path / "out"))
    assert status == 1 and len(lines) == 1 and lines[0].startswith(f"silstream {verb}: "), lines


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["alignments.txt", "feats", "refs.tsv", "vocab.txt", "model.ckpt"]), data=st.data(),
       truncate=st.booleans())
def test_corrupt_decode_input_exits_0_or_with_one_line(work, name, data, truncate):
    """A decode whose corpus file or checkpoint is cut or has a byte replaced
    succeeds or exits 1 with one line."""
    fuzzed = work / "fuzzed"
    if not fuzzed.exists():
        shutil.copytree(work / "c", fuzzed / "c")
        shutil.copy(work / "model.ckpt", fuzzed)
    target = fuzzed / name if name == "model.ckpt" else corpus_file(fuzzed / "c", name)
    original = target.read_bytes()
    target.write_bytes(corrupt(original, data, truncate))
    model = ["--model", str(target)] if name == "model.ckpt" else ORACLE
    try:
        status, lines = run_cli("decode-offline", "--corpus", str(fuzzed / "c"), *model, "--out", str(fuzzed / "hyps"))
    finally:
        target.write_bytes(original)
    assert (status, lines) == (0, []) or (status == 1 and len(lines) == 1
                                          and lines[0].startswith("silstream decode-offline: ")), lines


def test_console_script_prints_one_line_and_exits_1(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                                     os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "silstream.cli", "label-silence", "--corpus", str(tmp_path / "nope")],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr.splitlines() == [
        f"silstream label-silence: [Errno 2] No such file or directory: '{tmp_path / 'nope' / 'vocab.txt'}'"]
