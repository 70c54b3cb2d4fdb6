"""Command-line entry points.

Every verb reads an optional JSON config file; explicit flags override
config values, which override built-in defaults. Traces are JSON-lines,
summaries are CSV.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import data, metrics, trainer
from .decoder import BeamConfig
from .labeler import LabelerConfig, label_corpus
from .model import ModelConfig, NeuralModel, init_params, load_checkpoint, save_checkpoint
from .encoder import EncoderConfig
from .attention import AttentionConfig
from .streamer import ENGINES, StreamConfig, decode_offline, stream_decode
from .synth import CorpusSpec, OracleMode, OracleModel, SynthConfig, gen_corpus, load_corpus, save_corpus
from .vocab import load_vocab, make_vocab


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class Options:
    """Flag > config-file > default resolution."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config(getattr(args, "config", None))

    def get(self, key: str, default=None):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        return self.config.get(key, default)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _float_list(text: str) -> list[float]:
    return [math.inf if x == "inf" else float(x) for x in text.split(",") if x]


def _write_jsonl(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def _model_for_args(opt: Options):
    """Returns (model_for(utt), vocab) from --model or --oracle flags."""
    ckpt = opt.get("model")
    oracle = opt.get("oracle")
    if (ckpt is None) == (oracle is None):
        raise SystemExit("exactly one of --model or --oracle is required")
    if ckpt:
        model = load_checkpoint(ckpt)
        return (lambda utt: model), model.vocab
    mode = OracleMode(
        mode=oracle,
        sil_duration_encoded=int(opt.get("oracle_sil_duration", 6)),
        min_silence_encoded=int(opt.get("oracle_min_silence", 3)),
    )
    reduction = int(opt.get("oracle_reduction", 4))
    corpus_dir = opt.get("corpus")
    _, vocab = load_corpus(corpus_dir)
    return (lambda utt: OracleModel(mode, vocab, utt.alignment, total_reduction=reduction)), vocab


def cmd_gen_synthetic(args) -> int:
    opt = Options(args)
    tokens = [f"t{i}" for i in range(int(opt.get("vocab_size", 6)))]
    vocab = make_vocab(tokens)
    cfg = SynthConfig(
        vocab=vocab,
        feature_dim=int(opt.get("feature_dim", 8)),
        frames_per_token=int(opt.get("frames_per_token", 8)),
        noise_sigma=float(opt.get("noise_sigma", 0.0)),
        pattern_seed=int(opt.get("pattern_seed", 1234)),
    )
    spec = CorpusSpec(
        num_utterances=int(opt.get("size", 50)),
        min_tokens=int(opt.get("min_tokens", 2)),
        max_tokens=int(opt.get("max_tokens", 5)),
        mid_silence_prob=float(opt.get("mid_silence_prob", 0.5)),
        mid_silence_frames=(int(opt.get("mid_silence_min", 24)), int(opt.get("mid_silence_max", 96))),
        lead_silence_prob=float(opt.get("lead_silence_prob", 0.0)),
        lead_silence_frames=(int(opt.get("lead_silence_min", 8)), int(opt.get("lead_silence_max", 24))),
        trail_silence_prob=float(opt.get("trail_silence_prob", 1.0)),
        trail_silence_frames=(int(opt.get("trail_silence_min", 24)), int(opt.get("trail_silence_max", 72))),
        align_to=int(opt.get("align_to", 1)),
    )
    corpus = gen_corpus(cfg, spec, seed=int(opt.get("seed", 0)))
    save_corpus(corpus, vocab, opt.get("out", "corpus"))
    print(json.dumps({"utterances": len(corpus), "out": opt.get("out", "corpus")}))
    return 0


def cmd_label_silence(args) -> int:
    opt = Options(args)
    corpus_dir = opt.get("corpus")
    corpus, vocab = load_corpus(corpus_dir)
    cfg = LabelerConfig(
        duration_frames=int(opt.get("duration_frames", 24)),
        min_segment_frames=opt.get("min_segment_frames"),
    )
    references = {utt_id: utt.tokens for utt_id, utt in corpus.items()}
    alignments = {utt_id: utt.alignment for utt_id, utt in corpus.items()}
    labeled, stats = label_corpus(references, alignments, cfg, vocab)
    out = opt.get("out", "labeled_refs.tsv")
    data.write_references({u: vocab.decode(ids) for u, ids in labeled.items()}, out)
    print(json.dumps({
        "utterances": stats.utterances,
        "changed": stats.changed,
        "silence_tokens": stats.silence_tokens,
        "segments_skipped": stats.segments_skipped,
        "out": out,
    }))
    return 0


def cmd_train(args) -> int:
    opt = Options(args)
    corpus, vocab = load_corpus(opt.get("corpus"))
    refs_path = opt.get("refs")
    if refs_path:
        refs = {u: vocab.encode(toks) for u, toks in data.read_references(refs_path).items()}
    else:
        refs = {u: utt.tokens for u, utt in corpus.items()}
    silence_aware = any(vocab.sil_id in ids for ids in refs.values())
    sample = next(iter(corpus.values()))
    cfg = ModelConfig(
        encoder=EncoderConfig(
            num_layers=int(opt.get("enc_layers", 2)),
            input_dim=sample.features.dim,
            hidden=int(opt.get("enc_hidden", 32)),
            proj=int(opt.get("enc_proj", 16)),
        ),
        attention=AttentionConfig(
            chunk_size=int(opt.get("chunk_size", 3)),
            energy_hidden=int(opt.get("att_hidden", 16)),
        ),
        decoder_hidden=int(opt.get("dec_hidden", 32)),
        embed_dim=int(opt.get("embed_dim", 8)),
    )
    tcfg = trainer.TrainConfig(
        label_smoothing=float(opt.get("label_smoothing", 0.2)),
        scheduled_sampling=float(opt.get("scheduled_sampling", 0.2)),
        learning_rate=float(opt.get("learning_rate", 0.05)),
        epochs=int(opt.get("epochs", 10)),
        batch_size=int(opt.get("batch_size", 8)),
        seed=int(opt.get("seed", 0)),
        momentum=float(opt.get("momentum", 0.0)),
    )
    examples = [
        (corpus[u].features, [vocab.bos_id] + refs[u] + [vocab.eos_id]) for u in sorted(corpus)
    ]
    params = init_params(cfg, vocab.size, seed=tcfg.seed)
    params, history = trainer.train(
        cfg, params, vocab, examples, tcfg,
        checkpoint_dir=opt.get("checkpoint_dir"), silence_aware=silence_aware,
    )
    out = opt.get("out", "model.ckpt")
    save_checkpoint(NeuralModel(cfg, params, vocab, silence_aware=silence_aware), out)
    log_path = opt.get("loss_log")
    if log_path:
        _write_jsonl(
            [{"epoch": i, "train_loss": loss} for i, loss in enumerate(history["train_loss"])],
            log_path,
        )
    print(json.dumps({
        "out": out,
        "epochs": len(history["train_loss"]),
        "final_loss": history["train_loss"][-1] if history["train_loss"] else None,
        "silence_aware": silence_aware,
        "diverged": history["diverged"],
    }))
    return 1 if history["diverged"] else 0


def cmd_decode_offline(args) -> int:
    opt = Options(args)
    corpus, _ = load_corpus(opt.get("corpus"))
    model_for, vocab = _model_for_args(opt)
    beam_cfg = BeamConfig(beam_size=int(opt.get("beam", 8)))
    hyps = {}
    trace = []
    for utt_id in sorted(corpus):
        utt = corpus[utt_id]
        result = decode_offline(model_for(utt), utt.features, beam_cfg)
        hyps[utt_id] = vocab.decode(result.tokens)
        for record in result.trace_records(vocab):
            trace.append({"utt_id": utt_id, **record})
    data.write_references(hyps, opt.get("out", "hyps_offline.tsv"))
    if opt.get("trace"):
        _write_jsonl(trace, opt.get("trace"))
    print(json.dumps({"utterances": len(hyps), "out": opt.get("out", "hyps_offline.tsv")}))
    return 0


def cmd_decode_online(args) -> int:
    opt = Options(args)
    corpus, _ = load_corpus(opt.get("corpus"))
    model_for, vocab = _model_for_args(opt)
    beam_cfg = BeamConfig(beam_size=int(opt.get("beam", 8)), eos_policy=opt.get("eos_policy", "defer"))
    stream_cfg = StreamConfig(
        batch_ms=int(opt.get("batch_ms", 320)),
        min_buffer_ms=float(opt.get("min_buffer_ms", 480.0)),
        sil_buffer_ms=float(opt.get("sil_buffer_ms", opt.get("min_buffer_ms", 480.0))),
        engine=opt.get("engine", "buffered"),
    )
    hyps = {}
    trace = []
    summaries = []
    for utt_id in sorted(corpus):
        utt = corpus[utt_id]
        result, session = stream_decode(model_for(utt), utt.features, stream_cfg, beam_cfg)
        for record in session.trace:
            trace.append({"utt_id": utt_id, **record})
        hyps[utt_id] = vocab.decode(result.tokens)
        latency = metrics.cpl(result.display_log, utt.alignment, utt.features.frame_shift_ms)
        summaries.append({
            "utt_id": utt_id,
            "cpl_ms": latency.cpl_ms if latency.defined else None,
            "restarts": len(result.restarts),
            "backtracks": len(session.backtracks),
        })
    data.write_references(hyps, opt.get("out", "hyps_online.tsv"))
    if opt.get("trace"):
        _write_jsonl(trace + summaries, opt.get("trace"))
    print(json.dumps({"utterances": len(hyps), "out": opt.get("out", "hyps_online.tsv")}))
    return 0


def cmd_evaluate(args) -> int:
    opt = Options(args)
    vocab = load_vocab(opt.get("vocab"))
    refs = data.read_references(opt.get("refs"))
    hyps = data.read_references(opt.get("hyps"))
    missing = sorted(set(refs) - set(hyps))
    if missing:
        raise SystemExit(f"hypotheses missing for: {', '.join(missing)}")
    rows = ["utt_id,cer,substitutions,insertions,deletions,ref_len"]
    total = metrics.CerReport()
    for utt_id in sorted(refs):
        report = metrics.cer(vocab.encode(refs[utt_id]), vocab.encode(hyps[utt_id]), vocab)
        total = total + report
        rows.append(
            f"{utt_id},{report.cer:.6f},{report.substitutions},"
            f"{report.insertions},{report.deletions},{report.ref_len}"
        )
    rows.append(
        f"TOTAL,{total.cer:.6f},{total.substitutions},{total.insertions},{total.deletions},{total.ref_len}"
    )
    out = opt.get("out", "cer_report.csv")
    with open(out, "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")
    print(json.dumps({
        "cer": total.cer,
        "sub_rate": total.sub_rate,
        "ins_rate": total.ins_rate,
        "del_rate": total.del_rate,
        "out": out,
    }))
    return 0


def cmd_sweep(args) -> int:
    opt = Options(args)
    corpus, _ = load_corpus(opt.get("corpus"))
    model_for, _ = _model_for_args(opt)
    stream_cfg = StreamConfig(batch_ms=int(opt.get("batch_ms", 320)))
    beam_cfg = BeamConfig(eos_policy=opt.get("eos_policy", "defer"))
    rows = metrics.sweep(
        corpus,
        model_for,
        beams=_int_list(opt.get("beams", "8")),
        min_buffers_ms=_float_list(opt.get("min_buffers", "480")),
        sil_buffers_ms=_float_list(opt.get("sil_buffers", "480")),
        stream_cfg=stream_cfg,
        beam_cfg=beam_cfg,
        simulated_clock=not bool(opt.get("wall_clock", False)),
    )
    out = opt.get("out", "sweep.csv")
    with open(out, "w", encoding="utf-8") as f:
        f.write(metrics.sweep_csv(rows))
    failed = sum(1 for r in rows if r.get("failed"))
    print(json.dumps({"rows": len(rows), "failed": failed, "out": out}))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="silstream")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, flags):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("gen-synthetic", cmd_gen_synthetic, {
        "--out": {}, "--seed": {"type": int}, "--size": {"type": int},
        "--vocab-size": {"type": int}, "--feature-dim": {"type": int},
        "--frames-per-token": {"type": int}, "--noise-sigma": {"type": float},
        "--pattern-seed": {"type": int}, "--min-tokens": {"type": int},
        "--max-tokens": {"type": int}, "--mid-silence-prob": {"type": float},
        "--mid-silence-min": {"type": int}, "--mid-silence-max": {"type": int},
        "--lead-silence-prob": {"type": float}, "--lead-silence-min": {"type": int},
        "--lead-silence-max": {"type": int}, "--trail-silence-prob": {"type": float},
        "--trail-silence-min": {"type": int}, "--trail-silence-max": {"type": int},
        "--align-to": {"type": int},
    })
    add("label-silence", cmd_label_silence, {
        "--corpus": {}, "--duration-frames": {"type": int},
        "--min-segment-frames": {"type": int}, "--out": {},
    })
    add("train", cmd_train, {
        "--corpus": {}, "--refs": {}, "--out": {}, "--loss-log": {},
        "--checkpoint-dir": {}, "--epochs": {"type": int}, "--learning-rate": {"type": float},
        "--batch-size": {"type": int}, "--seed": {"type": int},
        "--label-smoothing": {"type": float}, "--scheduled-sampling": {"type": float},
        "--momentum": {"type": float}, "--enc-layers": {"type": int},
        "--enc-hidden": {"type": int}, "--enc-proj": {"type": int},
        "--chunk-size": {"type": int}, "--att-hidden": {"type": int},
        "--dec-hidden": {"type": int}, "--embed-dim": {"type": int},
    })
    model_flags = {
        "--model": {}, "--oracle": {"choices": ["silence_aware", "silence_skipping"]},
        "--oracle-sil-duration": {"type": int}, "--oracle-min-silence": {"type": int},
        "--oracle-reduction": {"type": int},
    }
    add("decode-offline", cmd_decode_offline, {
        "--corpus": {}, "--out": {}, "--trace": {}, "--beam": {"type": int}, **model_flags,
    })
    add("decode-online", cmd_decode_online, {
        "--corpus": {}, "--out": {}, "--trace": {}, "--beam": {"type": int},
        "--batch-ms": {"type": int}, "--min-buffer-ms": {"type": float},
        "--sil-buffer-ms": {"type": float},
        "--eos-policy": {"choices": ["defer", "restart", "accept"]},
        "--engine": {"choices": ENGINES}, **model_flags,
    })
    add("evaluate", cmd_evaluate, {
        "--refs": {}, "--hyps": {}, "--vocab": {}, "--out": {},
    })
    add("sweep", cmd_sweep, {
        "--corpus": {}, "--out": {}, "--beams": {}, "--min-buffers": {}, "--sil-buffers": {},
        "--batch-ms": {"type": int}, "--eos-policy": {"choices": ["defer", "restart", "accept"]},
        "--wall-clock": {"action": "store_true", "default": None}, **model_flags,
    })
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
