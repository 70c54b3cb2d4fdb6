"""Latency vs accuracy: sweeping buffer sizes on the simulated stream clock.

Larger minimum buffers make the decoder wait for more future context before
committing, which trades user-perceived latency for robustness. Latency here
is the span between the end of the last spoken word and the moment the
displayed hypothesis stops changing, measured on the simulated audio clock
so results are machine-independent.

The sweep below runs the silence-aware scripted model over a small corpus
for a grid of buffer settings and prints the CSV the command-line tool
would emit. Importing the file builds the corpus without sweeping;
``run_sweep()`` runs the sweep (``tools/bench_snapshot.py`` times it).
"""
from silstream import BeamConfig, StreamConfig, make_vocab
from silstream.metrics import sweep, sweep_csv
from silstream.synth import CorpusSpec, OracleMode, OracleModel, SynthConfig, gen_corpus

vocab = make_vocab([f"t{i}" for i in range(4)])
synth = SynthConfig(vocab=vocab, feature_dim=8, frames_per_token=8)
corpus = gen_corpus(
    synth,
    CorpusSpec(num_utterances=12, min_tokens=1, max_tokens=3,
               mid_silence_prob=0.7, mid_silence_frames=(32, 120),
               trail_silence_prob=0.8, trail_silence_frames=(16, 64), align_to=4),
    seed=5,
)


def model_for(utt):
    return OracleModel(
        OracleMode("silence_aware", sil_duration_encoded=6, min_silence_encoded=3),
        vocab, utt.alignment, total_reduction=4,
    )


frame_ms = 40  # one encoded frame at 10 ms shift and 4x reduction


def run_sweep() -> list[dict]:
    return sweep(
        corpus, model_for,
        beams=[1],
        min_buffers_ms=[1 * frame_ms, 2 * frame_ms, 4 * frame_ms, 8 * frame_ms],
        sil_buffers_ms=[8 * frame_ms],
        stream_cfg=StreamConfig(batch_ms=160),
        beam_cfg=BeamConfig(beam_size=1, eos_policy="defer"),
    )


if __name__ == "__main__":
    rows = run_sweep()
    print(sweep_csv(rows))

    print("reading: the scripted model is exact, so the error columns stay at zero")
    print("while average latency grows with the minimum buffer:")
    for row in rows:
        print(f"  min buffer {row['min_buffer_ms']:5.0f} ms -> "
              f"avg latency {row['avg_cpl_ms']:6.1f} ms, {row['backtracks']} backtracks")
