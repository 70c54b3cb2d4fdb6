"""Train the toy recognizer end to end on synthetic data and decode with it.

The model is the full pipeline in miniature: a two-layer pyramidal recurrent
encoder (4x time reduction), monotonic chunkwise attention with a chunk of
three, a recurrent decoder, and a softmax output layer. Training uses cross
entropy with label smoothing 0.2 and scheduled sampling, in two phases:
first without selection noise (the attention finds the alignment), then
with strong pre-sigmoid noise on the selection energies (the selection
probabilities saturate, which is what makes the hard scan used at inference
agree with the soft expectations used in training).

Takes about 15 s on a 2-vCPU Xeon VM; shrink the corpus or epochs for a quick look.
"""
import time

import numpy as np

from silstream import BeamConfig, decode_offline, make_vocab
from silstream.attention import AttentionConfig
from silstream.encoder import EncoderConfig
from silstream.metrics import CerReport, cer
from silstream.model import ModelConfig, NeuralModel, init_params
from silstream.synth import CorpusSpec, SynthConfig, gen_corpus
from silstream.trainer import TrainConfig, train

vocab = make_vocab([f"t{i}" for i in range(5)])
synth = SynthConfig(vocab=vocab, feature_dim=8, frames_per_token=8, noise_sigma=0.05)
spec = CorpusSpec(num_utterances=60, min_tokens=2, max_tokens=4,
                  mid_silence_prob=0.6, mid_silence_frames=(24, 72),
                  trail_silence_prob=1.0, trail_silence_frames=(24, 48), align_to=4)
corpus = gen_corpus(synth, spec, seed=1)
examples = [(u.features, [vocab.bos_id] + u.tokens + [vocab.eos_id]) for u in corpus.values()]

cfg = ModelConfig(
    encoder=EncoderConfig(num_layers=2, input_dim=8, hidden=32, proj=16),
    attention=AttentionConfig(chunk_size=3, energy_hidden=16),
    decoder_hidden=32, embed_dim=8,
)
params = init_params(cfg, vocab.size, seed=0)

started = time.time()
phase1 = TrainConfig(learning_rate=0.05, momentum=0.9, epochs=40, batch_size=8,
                     seed=0, selection_noise_std=0.0)
params, hist1 = train(cfg, params, vocab, examples, phase1)
print(f"phase 1 (no selection noise): loss {hist1['train_loss'][0]:.3f} "
      f"-> {hist1['train_loss'][-1]:.3f}")

phase2 = TrainConfig(learning_rate=0.015, momentum=0.9, epochs=60, batch_size=8,
                     seed=1, selection_noise_std=3.0, scheduled_sampling=0.3)
params, hist2 = train(cfg, params, vocab, examples, phase2)
print(f"phase 2 (noise saturates selections): loss -> {hist2['train_loss'][-1]:.3f}  "
      f"[{time.time()-started:.0f}s total]")

model = NeuralModel(cfg, params, vocab)
reports = []
for utt in list(corpus.values())[:20]:
    result = decode_offline(model, utt.features, BeamConfig(beam_size=1))
    reports.append(cer(utt.tokens, result.tokens, vocab))
total = sum(reports, CerReport())
print(f"offline greedy decode on 20 training utterances: "
      f"CER {total.cer:.3f} (S={total.substitutions} I={total.insertions} D={total.deletions})")
