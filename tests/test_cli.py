import hashlib
import json

import numpy as np
import pytest

from silstream import cli
from silstream.cli import main
from silstream.data import read_references
from silstream.decoder import BeamConfig
from silstream.model import ModelConfig, NeuralModel, init_params, save_checkpoint
from silstream.encoder import EncoderConfig
from silstream.attention import AttentionConfig
from silstream.streamer import StreamConfig, stream_decode
from silstream.synth import OracleMode, OracleModel, load_corpus
from silstream.trainer import TrainConfig
from silstream.vocab import SIL_TOKEN


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    rc = main([
        "gen-synthetic", "--out", str(path), "--seed", "5", "--size", "4",
        "--vocab-size", "4", "--min-tokens", "1", "--max-tokens", "2",
        "--mid-silence-prob", "1.0", "--mid-silence-min", "24", "--mid-silence-max", "48",
        "--align-to", "4",
    ])
    assert rc == 0
    return path


class TestGenSynthetic:
    def test_layout_and_loadability(self, corpus_dir):
        corpus, vocab = load_corpus(str(corpus_dir))
        assert len(corpus) == 4
        assert (corpus_dir / "vocab.txt").exists()
        assert (corpus_dir / "refs.tsv").exists()
        assert (corpus_dir / "alignments.txt").exists()

    def test_deterministic_given_seed(self, corpus_dir, tmp_path):
        other = tmp_path / "again"
        main([
            "gen-synthetic", "--out", str(other), "--seed", "5", "--size", "4",
            "--vocab-size", "4", "--min-tokens", "1", "--max-tokens", "2",
            "--mid-silence-prob", "1.0", "--mid-silence-min", "24", "--mid-silence-max", "48",
            "--align-to", "4",
        ])
        assert (other / "refs.tsv").read_text() == (corpus_dir / "refs.tsv").read_text()


class TestLabelSilence:
    def test_labels_written(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "labeled.tsv"
        rc = main(["label-silence", "--corpus", str(corpus_dir),
                   "--duration-frames", "24", "--out", str(out)])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["silence_tokens"] > 0
        labeled = read_references(str(out))
        assert any(SIL_TOKEN in tokens for tokens in labeled.values())


class TestDecodeAndEvaluate:
    def test_oracle_offline_roundtrip(self, corpus_dir, tmp_path, capsys):
        hyp = tmp_path / "hyp.tsv"
        trace = tmp_path / "trace.jsonl"
        rc = main(["decode-offline", "--corpus", str(corpus_dir), "--oracle", "silence_aware",
                   "--beam", "1", "--out", str(hyp), "--trace", str(trace)])
        assert rc == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert all({"utt_id", "token", "selected_index", "clock_ms"} <= set(r) for r in records)
        rc = main(["evaluate", "--refs", str(corpus_dir / "refs.tsv"), "--hyps", str(hyp),
                   "--vocab", str(corpus_dir / "vocab.txt"), "--out", str(tmp_path / "cer.csv")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["cer"] == 0.0

    def test_online_buffered_oracle(self, corpus_dir, tmp_path):
        hyp = tmp_path / "hyp_online.tsv"
        rc = main(["decode-online", "--corpus", str(corpus_dir), "--oracle", "silence_aware",
                   "--beam", "1", "--batch-ms", "160", "--min-buffer-ms", "240",
                   "--sil-buffer-ms", "240", "--out", str(hyp),
                   "--trace", str(tmp_path / "tr.jsonl")])
        assert rc == 0
        assert len(read_references(str(hyp))) == 4

    def test_online_plain_engine_matches_library(self, corpus_dir, tmp_path):
        hyp = tmp_path / "hyp_plain.tsv"
        trace = tmp_path / "tr.jsonl"
        rc = main(["decode-online", "--corpus", str(corpus_dir), "--oracle", "silence_skipping",
                   "--beam", "1", "--batch-ms", "160", "--min-buffer-ms", "240",
                   "--eos-policy", "accept", "--engine", "plain", "--out", str(hyp), "--trace", str(trace)])
        assert rc == 0
        written = read_references(str(hyp))
        corpus, vocab = load_corpus(str(corpus_dir))
        cfg = StreamConfig(batch_ms=160, min_buffer_ms=240, sil_buffer_ms=240, engine="plain")
        for utt_id, utt in corpus.items():
            model = OracleModel(OracleMode("silence_skipping"), vocab, utt.alignment, total_reduction=4)
            result, _ = stream_decode(model, utt.features, cfg, BeamConfig(beam_size=1, eos_policy="accept"))
            assert written[utt_id] == vocab.decode(result.tokens)
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert {r["utt_id"] for r in records if "decision" in r} == set(corpus)

    def test_trace_lines_are_byte_stable(self, corpus_dir, tmp_path):
        """Digests of the beam-8 ``--trace`` files of both decode commands,
        recorded when emissions were frozen dataclasses."""
        digests = []
        for command, extra in (("decode-offline", []), ("decode-online", ["--sil-buffer-ms", "480"])):
            trace = tmp_path / f"{command}.jsonl"
            rc = main([command, "--corpus", str(corpus_dir), "--oracle", "silence_aware", "--beam", "8",
                       "--out", str(tmp_path / "hyp.tsv"), "--trace", str(trace), *extra])
            assert rc == 0
            digests.append(hashlib.sha256(trace.read_bytes()).hexdigest()[:16])
        assert digests == ["fddff645b1eb4129", "6806c1a70a367f69"]


class TestTrainCli:
    def test_train_writes_checkpoint(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        rc = main(["train", "--corpus", str(corpus_dir), "--epochs", "1",
                   "--learning-rate", "0.01", "--enc-hidden", "8", "--enc-proj", "4",
                   "--att-hidden", "4", "--dec-hidden", "8", "--embed-dim", "4",
                   "--out", str(out), "--loss-log", str(tmp_path / "loss.jsonl")])
        assert rc == 0
        info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert not info["silence_aware"]
        assert out.exists()
        assert (tmp_path / "loss.jsonl").read_text().count("\n") == 1


class TestSweepCli:
    def test_sweep_csv_and_exit_code(self, corpus_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--corpus", str(corpus_dir), "--oracle", "silence_aware",
                   "--beams", "1", "--min-buffers", "240,480", "--sil-buffers", "480",
                   "--batch-ms", "160", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("beam,min_buffer_ms")
        assert len(lines) == 3

    def test_failed_row_nonzero_exit(self, corpus_dir, tmp_path):
        rc = main(["sweep", "--corpus", str(corpus_dir), "--oracle", "silence_aware",
                   "--beams", "1", "--min-buffers", "480", "--sil-buffers", "240",
                   "--batch-ms", "160", "--out", str(tmp_path / "bad.csv")])
        assert rc == 1


class TestConfigFile:
    def test_flags_override_config(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"size": 2, "vocab_size": 4, "seed": 9,
                                      "out": str(tmp_path / "from_config")}))
        rc = main(["gen-synthetic", "--config", str(config), "--size", "3"])
        assert rc == 0
        info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert info["utterances"] == 3  # flag wins over config value
        corpus, _ = load_corpus(str(tmp_path / "from_config"))
        assert len(corpus) == 3


class TestConfigPrecedence:
    """Config keys that are flags reach the built config classes, a flag beats
    the config, an unset field keeps the class default, a key that is not a
    flag of the verb is ignored, and an int field takes a JSON float."""

    def test_train(self, corpus_dir, tmp_path, monkeypatch):
        seen = {}

        def fake_train(cfg, params, vocab, examples, tcfg, **kwargs):
            seen.update(cfg=cfg, tcfg=tcfg)
            return params, {"train_loss": [], "diverged": False}

        monkeypatch.setattr(cli.trainer, "train", fake_train)
        config = tmp_path / "train.json"
        config.write_text(json.dumps({
            "corpus": str(corpus_dir), "enc_hidden": 12, "att_hidden": 5, "epochs": 3, "batch_size": 2.0,
            "learning_rate": 0.5, "selection_noise_std": 3.0, "reduction": 3, "out": str(tmp_path / "m.ckpt"),
        }))
        assert main(["train", "--config", str(config), "--learning-rate", "0.01"]) == 0
        cfg, tcfg = seen["cfg"], seen["tcfg"]
        assert (cfg.encoder.hidden, cfg.attention.energy_hidden, tcfg.epochs) == (12, 5, 3)
        assert tcfg.learning_rate == 0.01
        assert tcfg.batch_size == 2 and type(tcfg.batch_size) is int
        assert tcfg.selection_noise_std == TrainConfig.selection_noise_std
        assert cfg.encoder == EncoderConfig(input_dim=cfg.encoder.input_dim, hidden=12)
        assert (cfg.decoder_hidden, tcfg.momentum) == (ModelConfig.decoder_hidden, TrainConfig.momentum)

    def test_decode_online(self, corpus_dir, tmp_path, monkeypatch):
        seen = []

        def spy(model, features, stream_cfg, beam_cfg):
            seen.append((model, stream_cfg, beam_cfg))
            return stream_decode(model, features, stream_cfg, beam_cfg)

        monkeypatch.setattr(cli, "stream_decode", spy)
        config = tmp_path / "online.json"
        config.write_text(json.dumps({
            "corpus": str(corpus_dir), "oracle": "silence_skipping", "oracle_min_silence": 2, "batch_ms": 160,
            "min_buffer_ms": 240, "beam": 2.0, "eos_policy": "restart", "cap_base": 1,
        }))
        assert main(["decode-online", "--config", str(config), "--eos-policy", "accept",
                     "--out", str(tmp_path / "hyp.tsv")]) == 0
        model, stream_cfg, beam_cfg = seen[0]
        assert model.mode == OracleMode("silence_skipping", min_silence_encoded=2)
        assert stream_cfg == StreamConfig(batch_ms=160, min_buffer_ms=240.0, sil_buffer_ms=240.0)
        assert beam_cfg == BeamConfig(beam_size=2, eos_policy="accept")
        assert type(beam_cfg.beam_size) is int


def test_non_finite_buffer_exits_with_a_message(corpus_dir):
    with pytest.raises(SystemExit, match="silstream decode-online: min_buffer_ms must be finite and nonnegative"):
        main(["decode-online", "--corpus", str(corpus_dir), "--oracle", "silence_aware", "--min-buffer-ms", "nan"])


@pytest.mark.parametrize("verb, config, flags, message", [
    ("decode-online", {"beam": "abc"}, [], "beam: invalid literal for int() with base 10: 'abc'"),
    ("decode-online", {"beam": 8.7}, [], "beam: expected int, got 8.7"),
    ("decode-online", {"beam": True}, [], "beam: expected int, got True"),  # a bool is an int
    ("decode-online", {"min_buffer_ms": False}, [], "min_buffer_ms: expected float, got False"),
    ("sweep", {}, ["--beams", "1,x"], "beams: invalid literal for int() with base 10: 'x'"),
    ("sweep", {"beams": [1, 8.5]}, [], "beams: expected int, got 8.5"),
    ("sweep", {"beams": 8}, [], "beams: 'int' object is not iterable"),
    ("sweep", {"beams": [1, True]}, [], "beams: expected int, got True"),
    # min_segment_frames' field defaults to None, so only its flag gives it a type
    ("label-silence", {"min_segment_frames": "abc"}, [],
     "min_segment_frames: invalid literal for int() with base 10: 'abc'"),
    ("label-silence", {"min_segment_frames": 2.5}, [], "min_segment_frames: expected int, got 2.5"),
], ids=["no-cast", "cast-changes-it", "bool-for-int", "bool-for-float", "flag-list-item",
        "config-list-item", "config-list-scalar", "config-list-bool", "none-default-no-cast",
        "none-default-cast-changes-it"])
def test_bad_option_value_exits_naming_the_option(corpus_dir, tmp_path, verb, config, flags, message):
    """A value that does not cast, that the cast would change, or that is a
    JSON boolean exits with a message naming its option, from the config file
    or the command line.
    The oracle is a config key, which a verb without ``--oracle`` ignores."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"oracle": "silence_aware", **config}))
    with pytest.raises(SystemExit) as exc:
        main([verb, "--corpus", str(corpus_dir), "--config", str(path), "--out", str(tmp_path / "out"), *flags])
    assert str(exc.value) == f"silstream {verb}: {message}"


@pytest.mark.parametrize("flags, message", [
    (["--min-tokens", "5", "--max-tokens", "2"], "need 0 <= min_tokens <= max_tokens, got 5 and 2"),
    (["--mid-silence-min", "50", "--mid-silence-max", "10"], "mid_silence_frames needs 1 <= low <= high, got (50, 10)"),
    (["--align-to", "0"], "align_to must be >= 1"),
    (["--mid-silence-prob", "2"], "mid_silence_prob must be in [0, 1], got 2.0"),
    (["--vocab-size", "0"], "--vocab-size: vocabulary needs at least one non-reserved token"),
    (["--min-tokens", "0", "--max-tokens", "0", "--trail-silence-prob", "0"],
     "min_tokens 0 draws empty utterances unless lead_silence_prob or trail_silence_prob is 1"),
    (["--feature-dim", "1", "--vocab-size", "8"], "could not place distinct token patterns; raise feature_dim"),
], ids=["tokens", "silence-frames", "align-to", "silence-prob", "vocab-size", "empty-utterance", "feature-dim"])
def test_invalid_corpus_spec_exits_naming_the_option(tmp_path, flags, message):
    with pytest.raises(SystemExit) as exc:
        main(["gen-synthetic", "--out", str(tmp_path / "c"), "--size", "2", *flags])
    assert str(exc.value) == f"silstream gen-synthetic: {message}"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("config, message", [
    ([1, 2], "{path}: expected a JSON object, got list"),
    ({"corpus": 5}, "corpus: expected str, got 5"),
], ids=["not-an-object", "untyped-option-not-a-string"])
def test_bad_config_file_shape_exits_with_a_message(tmp_path, config, message):
    """A config file that is not a JSON object, or a value for an option with no
    type that is not a string, exits 1 with one line, not a traceback."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(["label-silence", "--config", str(path)])
    assert str(exc.value) == "silstream label-silence: " + message.format(path=path)


def test_config_file_flag_and_lists_stay_uncast(corpus_dir, tmp_path):
    """A store-true flag's JSON boolean and the sweep's JSON lists are read as they are."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"wall_clock": True, "beams": [1], "min_buffers": [240], "sil_buffers": [480]}))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--corpus", str(corpus_dir), "--oracle", "silence_aware", "--config", str(path),
                 "--out", str(out)]) == 0
    assert [line.split(",")[:3] for line in out.read_text().splitlines()[1:]] == [["1", "240.000000", "480.000000"]]


def test_config_file_list_option(corpus_dir, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"beams": [1, 8], "min_buffers": [240.0, 480], "sil_buffers": "480"}))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--corpus", str(corpus_dir), "--oracle", "silence_aware", "--config", str(path),
                 "--out", str(out)]) == 0
    rows = [line.split(",")[:3] for line in out.read_text().splitlines()[1:]]
    assert rows == [["1", "240.000000", "480.000000"], ["1", "480.000000", "480.000000"],
                    ["8", "240.000000", "480.000000"], ["8", "480.000000", "480.000000"]]


@pytest.mark.parametrize("argv, flag", [
    (["decode-offline", "--oracle", "silence_aware"], "--corpus"),
    (["train"], "--corpus"),
    (["evaluate"], "--refs"),
    (["evaluate", "--refs", "refs.tsv", "--hyps", "hyps.tsv"], "--vocab"),
])
def test_missing_required_path_names_its_flag(argv, flag):
    with pytest.raises(SystemExit, match=f"{flag} is required"):
        main(argv)
