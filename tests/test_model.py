import re

import numpy as np
import pytest

from silstream import nn
from silstream.attention import AttentionConfig, AttentionState
from silstream.decoder import EncodedBuffer
from silstream.encoder import EncoderConfig
from silstream.model import ModelConfig, NeuralModel, init_params, load_checkpoint, save_checkpoint
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

    # one tensor of each kind: every GRU tensor of the encoder and the decoder, the encoder's
    # output projection, every attention tensor, the embedding and the output layer
    @pytest.mark.parametrize("name", ["att.chunk.Wk", "dec.U", "dec.W", "dec.b", "enc0.W", "enc0.U", "enc1.b",
                                      "enc1.P", "enc0.pb", "att.sel.Wq", "att.sel.b", "att.sel.v", "att.sel.r",
                                      "emb.E", "out.W", "out.b"])
    def test_bad_attention_or_decoder_shape_rejected(self, model, name):
        params = dict(model.params)
        shape = params[name].shape
        bad = shape[:-1] + (shape[-1] + 1,)
        params[name] = np.zeros(bad)
        with pytest.raises(ValueError, match=re.escape(f"expected [('{name}', {shape})], given [('{name}', {bad})]")):
            NeuralModel(model.cfg, params, VOCAB)

    def test_missing_or_unknown_tensor_rejected(self, model):
        params = dict(model.params)
        del params["enc1.U"]
        with pytest.raises(ValueError, match=re.escape("expected [('enc1.U', (3, 12, 12))], given []")):
            NeuralModel(model.cfg, params, VOCAB)
        params = dict(model.params, **{"enc0.Uz": np.zeros((12, 12))})  # a version-1 name
        with pytest.raises(ValueError, match=re.escape("expected [], given [('enc0.Uz', (12, 12))]")):
            NeuralModel(model.cfg, params, VOCAB)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, model, value):
        params = {name: arr.copy() for name, arr in model.params.items()}
        params["out.b"][0] = value
        params["enc1.U"][2, 3, 4] = value
        with pytest.raises(ValueError, match=re.escape("non-finite values in ['enc1.U', 'out.b']")):
            NeuralModel(model.cfg, params, VOCAB)

    def test_checkpoint_with_a_non_finite_tensor_does_not_load(self, model, tmp_path):
        # a valid checksum over a corrupt tensor: the checksum alone lets it through
        model.params["out.b"][0] = np.nan
        path = str(tmp_path / "nan.ckpt")
        save_checkpoint(model, path)
        with pytest.raises(ValueError, match=re.escape("non-finite values in ['out.b']")):
            load_checkpoint(path)

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
    assert calls == [(2, 8, 6)]


class CountedProducts(np.ndarray):
    """A weight tensor that records how many of its entries each product takes."""

    sizes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountedProducts.sizes += [x.size for x in inputs if isinstance(x, CountedProducts)]
        inputs = tuple(x.view(np.ndarray) if isinstance(x, CountedProducts) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("rows", [1, 8])
def test_gru_steps_take_one_gate_batched_recurrent_product(rows):
    rng = np.random.default_rng(3)
    params = {}
    nn.init_gru(params, "g", 4, 6, rng)
    wx, H = nn.gru_inputs(params, "g", rng.normal(size=(rows, 4))), rng.normal(size=(rows, 6))
    want = nn.gru_steps(params, "g", wx, H)[0]
    params["g.U"] = params["g.U"].view(CountedProducts)
    CountedProducts.sizes = []
    got = nn.gru_steps(params, "g", wx, H)[0]
    assert CountedProducts.sizes == [3 * 6 * 6] and np.array_equal(np.asarray(got), want)  # all of U at once


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
