import numpy as np
import pytest

from silstream.data import parse_alignment
from silstream.decoder import BeamConfig
from silstream.metrics import (
    CerReport,
    average_cpl,
    cer,
    cpl,
    evaluate_point,
    sweep,
    sweep_csv,
)
from silstream.streamer import StreamConfig
from silstream.synth import CorpusSpec, OracleMode, OracleModel, SynthConfig, gen_corpus
from silstream.vocab import make_vocab

VOCAB = make_vocab(["a", "b", "c"])
A, B, C = (VOCAB.id_of(t) for t in "abc")


def levenshtein(ref, hyp):
    """Independent quadratic DP oracle for the total edit distance."""
    d = np.zeros((len(ref) + 1, len(hyp) + 1), dtype=int)
    d[:, 0] = np.arange(len(ref) + 1)
    d[0, :] = np.arange(len(hyp) + 1)
    for i in range(1, len(ref) + 1):
        for j in range(1, len(hyp) + 1):
            d[i, j] = min(
                d[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]),
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
            )
    return int(d[len(ref), len(hyp)])


class TestCer:
    def test_exact_match(self):
        report = cer([A, B, C], [A, B, C], VOCAB)
        assert report.cer == 0 and report.edits == 0

    def test_single_deletion(self):
        report = cer([A, B], [A], VOCAB)
        assert report.deletions == 1 and report.cer == 0.5

    def test_silence_is_not_scored(self):
        report = cer([A, B], [A, VOCAB.sil_id, B], VOCAB)
        assert report.cer == 0

    def test_substitution_preferred_over_ins_del_pair(self):
        report = cer([A], [B], VOCAB)
        assert (report.substitutions, report.insertions, report.deletions) == (1, 0, 0)

    def test_totals_match_independent_dp(self):
        rng = np.random.default_rng(0)
        tokens = [A, B, C]
        for _ in range(200):
            ref = [tokens[i] for i in rng.integers(0, 3, size=rng.integers(0, 8))]
            hyp = [tokens[i] for i in rng.integers(0, 3, size=rng.integers(0, 8))]
            report = cer(ref, hyp, VOCAB)
            assert report.edits == levenshtein(ref, hyp)

    def test_aggregate_is_sum(self):
        a = cer([A, B], [A], VOCAB)
        b = cer([C], [B], VOCAB)
        total = sum([a, b], CerReport())
        assert total.ref_len == 3
        assert total.deletions == 1 and total.substitutions == 1
        assert total.cer == pytest.approx(2 / 3)


class TestCpl:
    def test_hand_example_320ms(self):
        # last speech ends at frame 200 (2000ms); display last changed at the
        # batch whose audio ended at 2320ms
        alignment = parse_alignment("a 0 200\nSIL 200 260")
        log = [(320.0, ()), (1280.0, (A,)), (2320.0, (A, B)), (2600.0, (A, B))]
        record = cpl(log, alignment, frame_shift_ms=10)
        assert record.cpl_ms == pytest.approx(320.0)

    def test_negative_cpl_reported_as_is(self):
        alignment = parse_alignment("a 0 200")
        log = [(320.0, (A,)), (2000.0, (A,))]
        record = cpl(log, alignment, frame_shift_ms=10)
        assert record.cpl_ms == pytest.approx(320.0 - 2000.0)

    def test_all_silence_is_undefined(self):
        alignment = parse_alignment("SIL 0 100")
        record = cpl([(320.0, ())], alignment, frame_shift_ms=10)
        assert not record.defined

    def test_average_excludes_but_counts_undefined(self):
        alignment = parse_alignment("a 0 100")
        defined = cpl([(500.0, (A,)), (1000.0, (A,))], alignment, 10)
        undefined = cpl([(500.0, ())], parse_alignment("SIL 0 100"), 10)
        avg, count = average_cpl([defined, undefined])
        assert avg == pytest.approx(defined.cpl_ms)
        assert count == 1

    def test_average_reads_a_generator_once(self):
        defined = cpl([(500.0, (A,))], parse_alignment("a 0 100"), 10)
        undefined = cpl([(500.0, ())], parse_alignment("SIL 0 100"), 10)
        avg, count = average_cpl(r for r in [defined, undefined, defined])
        assert avg == defined.cpl_ms
        assert count == 1

    def test_average_equals_mean_of_defined(self):
        alignment = parse_alignment("a 0 50")
        records = [
            cpl([(clock, (A,))], alignment, 10)
            for clock in (600.0, 800.0, 1000.0)
        ]
        avg, _ = average_cpl(records)
        assert avg == pytest.approx(np.mean([r.cpl_ms for r in records]), abs=1e-9)


@pytest.fixture(scope="module")
def oracle_corpus():
    cfg = SynthConfig(vocab=VOCAB, feature_dim=8, frames_per_token=8)
    corpus = gen_corpus(cfg, CorpusSpec(num_utterances=6, min_tokens=1, max_tokens=3,
                                        mid_silence_prob=0.6, mid_silence_frames=(24, 64),
                                        trail_silence_prob=1.0, align_to=4), seed=21)
    model_for = lambda utt: OracleModel(
        OracleMode("silence_aware", sil_duration_encoded=6, min_silence_encoded=3),
        VOCAB, utt.alignment, total_reduction=4,
    )
    return corpus, model_for


class TestSweep:
    def test_single_point_single_row(self, oracle_corpus):
        corpus, model_for = oracle_corpus
        rows = sweep(corpus, model_for, [1], [480.0], [480.0],
                     StreamConfig(batch_ms=320), BeamConfig(beam_size=1))
        assert len(rows) == 1
        assert not rows[0]["failed"]
        assert rows[0]["cer"] == 0.0

    def test_oracle_exact_and_cpl_nondecreasing_in_buffer(self, oracle_corpus):
        corpus, model_for = oracle_corpus
        rows = sweep(corpus, model_for, [1], [480.0, 960.0], [960.0],
                     StreamConfig(batch_ms=320), BeamConfig(beam_size=1))
        assert [r["cer"] for r in rows] == [0.0, 0.0]
        assert rows[0]["avg_cpl_ms"] <= rows[1]["avg_cpl_ms"] + 1e-9

    def test_failed_point_marks_row_and_continues(self, oracle_corpus):
        corpus, model_for = oracle_corpus
        rows = sweep(corpus, model_for, [1], [960.0, 480.0], [480.0],
                     StreamConfig(batch_ms=320), BeamConfig(beam_size=1))
        # sil buffer below min buffer is invalid -> first row fails, second runs
        assert rows[0]["failed"] and not rows[1]["failed"]

    def test_csv_deterministic_and_ordered(self, oracle_corpus):
        corpus, model_for = oracle_corpus
        args = (corpus, model_for, [1, 2], [480.0], [480.0, 960.0],
                StreamConfig(batch_ms=320), BeamConfig(beam_size=1))
        one = sweep_csv(sweep(*args))
        two = sweep_csv(sweep(*args))
        assert one == two
        header = one.splitlines()[0]
        assert header == ("beam,min_buffer_ms,sil_buffer_ms,batch_ms,cer,sub_rate,ins_rate,"
                          "del_rate,avg_cpl_ms,undefined_cpl_count,backtracks,wall_ms")
        assert len(one.splitlines()) == 5

    def test_wall_ms_zero_on_simulated_clock(self, oracle_corpus):
        corpus, model_for = oracle_corpus
        point = evaluate_point(corpus, model_for, StreamConfig(batch_ms=320),
                               BeamConfig(beam_size=1), simulated_clock=True)
        assert point["wall_ms"] == 0.0
