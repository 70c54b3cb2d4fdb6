import numpy as np
import pytest

from silstream import nn
from silstream.attention import AttentionConfig, AttentionState
from silstream.decoder import EncodedBuffer
from silstream.encoder import EncoderConfig
from silstream.model import ModelConfig, NeuralModel, init_params
from silstream.vocab import make_vocab

from support import encode, flatten_params, unflatten_params

VOCAB = make_vocab(["a", "b", "c"])


@pytest.fixture
def model():
    cfg = ModelConfig(
        encoder=EncoderConfig(num_layers=2, input_dim=6, hidden=12, proj=8),
        attention=AttentionConfig(chunk_size=3, energy_hidden=6),
        decoder_hidden=10,
        embed_dim=5,
    )
    return NeuralModel(cfg, init_params(cfg, VOCAB.size, seed=9), VOCAB)


class TestNeuralModelInterface:
    def test_vocab_size_mismatch_rejected(self):
        cfg = ModelConfig(
            encoder=EncoderConfig(num_layers=1, input_dim=4, hidden=6, proj=4),
            attention=AttentionConfig(chunk_size=2, energy_hidden=4),
            decoder_hidden=6, embed_dim=3,
        )
        params = init_params(cfg, VOCAB.size + 1, seed=0)
        with pytest.raises(ValueError):
            NeuralModel(cfg, params, VOCAB)

    @pytest.mark.parametrize("name, shape", [("att.chunk.Wk", (6, 9)), ("dec.Uz", (10, 11))])
    def test_bad_attention_or_decoder_shape_rejected(self, model, name, shape):
        params = dict(model.params)
        params[name] = np.zeros(shape)
        with pytest.raises(ValueError, match=name):
            NeuralModel(model.cfg, params, VOCAB)

    def test_step_distribution_normalized(self, model):
        rng = np.random.default_rng(0)
        frames = encode(model, rng.normal(size=(24, 6)))
        out = model.decode_step(model.decode_start(), VOCAB.bos_id, frames,
                                AttentionState(), buffer_complete=True, force=True)
        assert out.log_probs is not None
        assert np.exp(out.log_probs).sum() == pytest.approx(1.0, abs=1e-9)

    def test_stall_leaves_state_untouched(self, model):
        # no frames at all: attention must exhaust, state must be unchanged
        state = model.decode_start()
        out = model.decode_step(state, VOCAB.bos_id, np.zeros((0, 8)), AttentionState(),
                                buffer_complete=False)
        assert out.stalled
        assert out.dec_state is state

    def test_total_reduction_matches_encoder(self, model):
        assert model.total_reduction == 4

    def test_silence_aware_default_false(self, model):
        assert model.silence_aware is False


def test_nn_helpers_roundtrip():
    rng = np.random.default_rng(1)
    params = {"a.W": rng.normal(size=(3, 4)), "b.v": rng.normal(size=5)}
    flat = flatten_params(params)
    back = unflatten_params(flat, params)
    for k in params:
        np.testing.assert_array_equal(back[k], params[k])


def test_nn_sigmoid_extremes():
    vals = nn.sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert vals[0] == 0.0 and vals[1] == 0.5 and vals[2] == 1.0


def test_gru_steps_squash_z_and_r_with_one_sigmoid(monkeypatch):
    rng = np.random.default_rng(2)
    params = {}
    nn.init_gru(params, "g", 4, 6, rng)
    calls = []
    sigmoid = nn.sigmoid

    def counting(x):
        calls.append(np.shape(x))
        return sigmoid(x)

    monkeypatch.setattr(nn, "sigmoid", counting)
    nn.gru_steps(params, "g", nn.gru_inputs(params, "g", rng.normal(size=(8, 4))), rng.normal(size=(8, 6)))
    assert calls == [(16, 6)]


def test_nn_log_softmax_normalizes():
    logits = np.array([1e3, -1e3, 0.0])
    lp = nn.log_softmax(logits)
    assert np.exp(lp).sum() == pytest.approx(1.0)


def test_encoded_buffer_append_only():
    buf = EncodedBuffer()
    assert len(buf) == 0
    buf.append(np.ones((2, 3)))
    buf.append(np.zeros((0, 3)))
    buf.append(np.ones((1, 3)) * 2)
    assert len(buf) == 3
    np.testing.assert_array_equal(buf.array[-1], [2, 2, 2])
