"""Why asynchronous decoding breaks online: the premature end-of-utterance.

A decoder that terminates by *emitting* an end symbol (rather than by
exhausting its input) must decide, mid-stream, whether the silence it is
looking at is a pause or the end. This script builds one synthetic
utterance with a long mid pause and decodes it three ways with a scripted
"silence-skipping" model -- a stand-in for a model trained without silence
labels, which never attends silence frames:

  offline          -> perfect (the second word is visible, so it is found)
  online, accept   -> the second word is deleted: with only trailing
                      silence visible, the model declares the utterance over
  online, restart  -> restarting on premature ends recovers words that
                      arrive after the restart window, but not within it
"""
import numpy as np

from silstream import BeamConfig, StreamConfig, decode_offline, make_vocab, stream_decode
from silstream.synth import OracleMode, OracleModel, SynthConfig, gen_utterance

vocab = make_vocab(["hello", "world"])
synth = SynthConfig(vocab=vocab, feature_dim=8, frames_per_token=8)

# "hello <1.2s pause> world", then half a second of trailing silence
utt = gen_utterance(
    synth, seed=7,
    tokens=vocab.encode(["hello", "world"]),
    silence_layout=[(1, 120), (2, 48)],
)
print(f"utterance: {utt.features.num_frames} frames "
      f"({utt.features.duration_ms} ms), reference = {vocab.decode(utt.tokens)}")


def skipping_model():
    return OracleModel(OracleMode("silence_skipping"), vocab, utt.alignment, total_reduction=4)


offline = decode_offline(skipping_model(), utt.features, BeamConfig(beam_size=1))
print("\noffline decode:        ", vocab.decode(offline.tokens))

# the plain online baseline: a minimum buffer gates decoding, no restricted region
plain = StreamConfig(batch_ms=320, min_buffer_ms=480, engine="plain")
accept, _ = stream_decode(skipping_model(), utt.features, plain,
                          BeamConfig(beam_size=1, eos_policy="accept"))
print("online, accept policy: ", vocab.decode(accept.tokens), " <- 'world' deleted")

restart, _ = stream_decode(skipping_model(), utt.features, plain,
                           BeamConfig(beam_size=1, eos_policy="restart"))
print("online, restart policy:", vocab.decode(restart.tokens),
      f" ({len(restart.restarts)} restart(s) at {restart.restarts} ms)")

print("\nemission timeline of the accept run (note the early end symbol):")
for em in accept.emissions:
    print(f"  {vocab.token_of(em.token):>8s}  attended encoded frame {em.selected_index:3d}"
          f"  at stream clock {em.clock_ms:5.0f} ms")
