"""Command-line entry points.

Every verb reads an optional JSON config file. Its keys that are flags of
the verb set those flags' values; a flag given on the command line overrides
them, and they override the defaults of the library's config classes. Keys
that are not flags of the verb are ignored. Traces are JSON-lines,
summaries are CSV.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import data, metrics, trainer
from .decoder import EOS_POLICIES, BeamConfig
from .labeler import LabelerConfig, label_corpus
from .model import ModelConfig, NeuralModel, init_params, load_checkpoint, save_checkpoint
from .encoder import EncoderConfig
from .attention import AttentionConfig
from .streamer import ENGINES, StreamConfig, decode_offline, stream_decode
from .synth import ORACLE_MODES, CorpusSpec, OracleMode, OracleModel, SynthConfig, gen_corpus, load_corpus, save_corpus
from .vocab import load_vocab, make_vocab

# the flags whose config-file values may be JSON lists; ``_list`` casts their items
_LISTS = ("--beams", "--min-buffers", "--sil-buffers")
# the options whose names differ from the config field they set
_FLAG_OF = {
    "num_utterances": "size", "num_layers": "enc_layers", "hidden": "enc_hidden", "proj": "enc_proj",
    "energy_hidden": "att_hidden", "decoder_hidden": "dec_hidden", "beam_size": "beam", "mode": "oracle",
    "sil_duration_encoded": "oracle_sil_duration", "min_silence_encoded": "oracle_min_silence",
}


def _options(args: argparse.Namespace, *required: str) -> dict:
    """The config file's keys that are flags of the verb, each cast with its flag's type, ``bool``
    or ``str``, overridden by every flag given; refuses naming the first unset ``required`` option."""
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            config = json.load(f)
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: expected a JSON object, got {type(config).__name__}")
    flags = vars(args)
    opt = {k: _cast(k, args.types[k], v) if k in args.types else v
           for k, v in config.items() if k in flags and v is not None}
    opt.update((k, v) for k, v in flags.items() if v is not None)
    for key in required:
        if key not in opt:
            raise ValueError(f"--{key.replace('_', '-')} is required (as a flag or a config key)")
    return opt


def _cast(key: str, cast, value):
    """``cast(value)``; refuses, naming option ``key``, a value it fails on, a non-string it changes, or a
    bool unless ``cast`` is ``bool`` (a store-true flag's type), which takes nothing else."""
    try:
        typed = cast(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None
    if isinstance(value, bool) != (cast is bool) or not isinstance(value, (str, cast)) and typed != value:
        raise ValueError(f"{key}: expected {cast.__name__}, got {value!r}")
    return typed


def _config(cls, opt: dict, **given):
    """``cls`` from ``given`` and, for its other fields, the options named after them
    (or ``_FLAG_OF``). A field with no option keeps the class default."""
    for f in dataclasses.fields(cls):
        key = _FLAG_OF.get(f.name, f.name)
        if f.name not in given and opt.get(key) is not None:
            given[f.name] = opt[key]
    return cls(**given)


def _list(opt: dict, key: str, cast, default) -> list:
    """A comma-separated option, or a config file's JSON list, as a list;
    ``[default]`` when it is unset."""
    if key not in opt:
        return [default]
    items = _cast(key, list, opt[key].split(",") if isinstance(opt[key], str) else opt[key])
    return [_cast(key, cast, x) for x in items if x != ""]


def _write_jsonl(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def _model_for_args(opt: dict, vocab):
    """Returns (model_for(utt), vocab) from the --model or --oracle option;
    ``vocab`` is the corpus's, which a checkpoint replaces with its own."""
    if ("model" in opt) == ("oracle" in opt):
        raise ValueError("exactly one of --model or --oracle is required")
    if "model" in opt:
        model = load_checkpoint(opt["model"])
        return (lambda utt: model), model.vocab
    mode = _config(OracleMode, opt)
    reduction = {"total_reduction": opt["oracle_reduction"]} if "oracle_reduction" in opt else {}
    return (lambda utt: OracleModel(mode, vocab, utt.alignment, **reduction)), vocab


def cmd_gen_synthetic(args) -> int:
    opt = _options(args)
    try:
        vocab = make_vocab([f"t{i}" for i in range(opt.get("vocab_size", 6))])
    except ValueError as exc:
        raise ValueError(f"--vocab-size: {exc}") from None
    cfg = _config(SynthConfig, opt, vocab=vocab)
    ranges = {}
    for kind in ("mid", "lead", "trail"):
        low, high = getattr(CorpusSpec, f"{kind}_silence_frames")
        ranges[f"{kind}_silence_frames"] = (opt.get(f"{kind}_silence_min", low), opt.get(f"{kind}_silence_max", high))
    corpus = gen_corpus(cfg, _config(CorpusSpec, opt, **ranges), seed=opt.get("seed", 0))
    out = opt.get("out", "corpus")
    save_corpus(corpus, cfg.vocab, out)
    print(json.dumps({"utterances": len(corpus), "out": out}))
    return 0


def cmd_label_silence(args) -> int:
    opt = _options(args, "corpus")
    corpus, vocab = load_corpus(opt["corpus"])
    references = {utt_id: utt.tokens for utt_id, utt in corpus.items()}
    alignments = {utt_id: utt.alignment for utt_id, utt in corpus.items()}
    labeled, stats = label_corpus(references, alignments, _config(LabelerConfig, opt), vocab)
    out = opt.get("out", "labeled_refs.tsv")
    data.write_references({u: vocab.decode(ids) for u, ids in labeled.items()}, out)
    print(json.dumps({**dataclasses.asdict(stats), "out": out}))
    return 0


def cmd_train(args) -> int:
    opt = _options(args, "corpus")
    corpus, vocab = load_corpus(opt["corpus"])
    refs = {u: utt.tokens for u, utt in corpus.items()}
    if opt.get("refs"):
        refs = {u: vocab.encode(toks) for u, toks in data.read_references(opt["refs"]).items()}
    if missing := sorted(set(corpus) - set(refs)):
        raise ValueError(f"references missing for: {', '.join(missing)}")
    silence_aware = any(vocab.sil_id in ids for ids in refs.values())
    input_dim = next((utt.features.dim for utt in corpus.values()), 1)  # trainer.train refuses an empty corpus
    cfg = _config(ModelConfig, opt, encoder=_config(EncoderConfig, opt, input_dim=input_dim),
                  attention=_config(AttentionConfig, opt))
    tcfg = _config(trainer.TrainConfig, opt)
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
    if opt.get("loss_log"):
        _write_jsonl(
            [{"epoch": i, "train_loss": loss} for i, loss in enumerate(history["train_loss"])],
            opt["loss_log"],
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
    opt = _options(args, "corpus")
    corpus, vocab = load_corpus(opt["corpus"])
    model_for, vocab = _model_for_args(opt, vocab)
    beam_cfg = _config(BeamConfig, opt)
    hyps = {}
    trace = []
    for utt_id in sorted(corpus):
        utt = corpus[utt_id]
        result = decode_offline(model_for(utt), utt.features, beam_cfg)
        hyps[utt_id] = vocab.decode(result.tokens)
        for em in result.emissions:
            trace.append({"utt_id": utt_id, "token": em.token, "label": vocab.token_of(em.token), **em._asdict()})
    out = opt.get("out", "hyps_offline.tsv")
    data.write_references(hyps, out)
    if opt.get("trace"):
        _write_jsonl(trace, opt["trace"])
    print(json.dumps({"utterances": len(hyps), "out": out}))
    return 0


def cmd_decode_online(args) -> int:
    opt = _options(args, "corpus")
    corpus, vocab = load_corpus(opt["corpus"])
    model_for, vocab = _model_for_args(opt, vocab)
    beam_cfg = _config(BeamConfig, opt)
    stream_cfg = _config(StreamConfig, opt)
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
    out = opt.get("out", "hyps_online.tsv")
    data.write_references(hyps, out)
    if opt.get("trace"):
        _write_jsonl(trace + summaries, opt["trace"])
    print(json.dumps({"utterances": len(hyps), "out": out}))
    return 0


def cmd_evaluate(args) -> int:
    opt = _options(args, "refs", "hyps", "vocab")
    vocab = load_vocab(opt["vocab"])
    refs = data.read_references(opt["refs"])
    hyps = data.read_references(opt["hyps"])
    if missing := sorted(set(refs) - set(hyps)):
        raise ValueError(f"hypotheses missing for: {', '.join(missing)}")
    reports = {u: metrics.cer(vocab.encode(refs[u]), vocab.encode(hyps[u]), vocab) for u in sorted(refs)}
    total = sum(reports.values(), metrics.CerReport())
    rows = ["utt_id,cer,substitutions,insertions,deletions,ref_len"]
    for utt_id, r in [*reports.items(), ("TOTAL", total)]:
        rows.append(f"{utt_id},{r.cer:.6f},{r.substitutions},{r.insertions},{r.deletions},{r.ref_len}")
    out = opt.get("out", "cer_report.csv")
    with open(out, "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")
    print(json.dumps({**total.rates(), "out": out}))
    return 0


def cmd_sweep(args) -> int:
    opt = _options(args, "corpus")
    corpus, vocab = load_corpus(opt["corpus"])
    model_for, _ = _model_for_args(opt, vocab)
    stream_cfg, beam_cfg = _config(StreamConfig, opt), _config(BeamConfig, opt)
    rows = metrics.sweep(
        corpus,
        model_for,
        beams=_list(opt, "beams", int, beam_cfg.beam_size),
        min_buffers_ms=_list(opt, "min_buffers", float, stream_cfg.min_buffer_ms),
        sil_buffers_ms=_list(opt, "sil_buffers", float, None),
        stream_cfg=stream_cfg,
        beam_cfg=beam_cfg,
        simulated_clock=not opt.get("wall_clock"),
    )
    out = opt.get("out", "sweep.csv")
    with open(out, "w", encoding="utf-8") as f:
        f.write(metrics.sweep_csv(rows))
    failed = [r for r in rows if r["failed"]]
    for r in failed:
        print(f"silstream sweep: beam {r['beam']}, min_buffer_ms {r['min_buffer_ms']}, "
              f"sil_buffer_ms {r['sil_buffer_ms']}: {r['error']}", file=sys.stderr)
    print(json.dumps({"rows": len(rows), "failed": len(failed), "out": out}))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="silstream")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, flags):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn, types={f[2:].replace("-", "_"): bool if "action" in kw else kw.get("type", str)
                                     for f, kw in flags.items() if f not in _LISTS})
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
        "--model": {}, "--oracle": {"choices": ORACLE_MODES},
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
        "--eos-policy": {"choices": EOS_POLICIES},
        "--engine": {"choices": ENGINES}, **model_flags,
    })
    add("evaluate", cmd_evaluate, {
        "--refs": {}, "--hyps": {}, "--vocab": {}, "--out": {},
    })
    add("sweep", cmd_sweep, {
        "--corpus": {}, "--out": {}, "--beams": {}, "--min-buffers": {}, "--sil-buffers": {},
        "--batch-ms": {"type": int}, "--eos-policy": {"choices": EOS_POLICIES},
        "--wall-clock": {"action": "store_true", "default": None}, **model_flags,
    })
    return parser


def main(argv: list[str] | None = None) -> int:
    """Runs one verb; the one error path: a ValueError or OSError exits 1 as ``silstream <verb>: <message>``."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"silstream {args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
