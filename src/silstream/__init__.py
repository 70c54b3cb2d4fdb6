"""Streaming attention-based speech decoding with silence modeling.

A small numpy library around one idea: asynchronous attention decoders can
run fully online if (a) the model narrates silence with explicit tokens and
(b) decoding is gated by per-token-class buffer requirements with a
restricted region at the buffer tail whose hits are voided and retried.

The package ships the model (pyramidal encoder, monotonic chunkwise
attention, recurrent decoder), a toy trainer with verified gradients, a
synthetic task plus scripted oracle models for exact decoding tests, the
buffered streaming session, and CER/latency evaluation tooling.
"""

from .attention import AttentionConfig, AttentionState, AttentionStepResult, mocha_infer_step
from .data import (
    Alignment,
    FeatureSequence,
    Segment,
    ms_to_encoded_frames,
    parse_alignment,
    parse_alignment_corpus,
)
from .decoder import BeamConfig, DecodeResult, EncodedBuffer, Hypothesis, decode_step
from .encoder import EncoderConfig, PyramidalEncoder, init_encoder_params
from .labeler import LabelerConfig, LabelStats, insert_silence, label_corpus
from .metrics import CerReport, CplRecord, cer, cpl, sweep, sweep_csv
from .model import ModelConfig, NeuralModel, init_params, load_checkpoint, save_checkpoint
from .streamer import StreamConfig, StreamSession, decode_offline, stream_decode
from .synth import CorpusSpec, OracleMode, OracleModel, SynthConfig, Utterance, gen_corpus, gen_utterance
from .trainer import TrainConfig, backward, forward_loss, train
from .vocab import Vocab, make_vocab, strip_nonscoring

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "AttentionConfig",
    "AttentionState",
    "AttentionStepResult",
    "BeamConfig",
    "CerReport",
    "CorpusSpec",
    "CplRecord",
    "DecodeResult",
    "EncodedBuffer",
    "EncoderConfig",
    "FeatureSequence",
    "Hypothesis",
    "LabelStats",
    "LabelerConfig",
    "ModelConfig",
    "NeuralModel",
    "OracleMode",
    "OracleModel",
    "PyramidalEncoder",
    "Segment",
    "StreamConfig",
    "StreamSession",
    "SynthConfig",
    "TrainConfig",
    "Utterance",
    "Vocab",
    "backward",
    "cer",
    "cpl",
    "decode_offline",
    "decode_step",
    "forward_loss",
    "gen_corpus",
    "gen_utterance",
    "init_encoder_params",
    "init_params",
    "insert_silence",
    "label_corpus",
    "load_checkpoint",
    "make_vocab",
    "mocha_infer_step",
    "ms_to_encoded_frames",
    "parse_alignment",
    "parse_alignment_corpus",
    "save_checkpoint",
    "stream_decode",
    "strip_nonscoring",
    "sweep",
    "sweep_csv",
    "train",
]
