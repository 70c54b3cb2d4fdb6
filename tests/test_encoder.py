import numpy as np
import pytest

from silstream import encoder as encoder_module
from silstream import nn
from silstream.data import FeatureSequence
from silstream.encoder import (EncoderConfig, LayerCache, PyramidalEncoder, encode_backward,
                               encode_with_cache, init_encoder_params)
from silstream.model import ModelConfig, NeuralModel, init_params
from silstream.trainer import TrainConfig, train
from silstream.vocab import make_vocab

from support import encode

VOCAB = make_vocab(["a", "b"])


@pytest.fixture
def toy():
    cfg = EncoderConfig(num_layers=2, input_dim=8, hidden=32, proj=16)
    params = init_encoder_params(cfg, np.random.default_rng(0))
    return cfg, PyramidalEncoder(cfg, params), params


def entry_points(cfg):
    """Build a model from parameters, and train them (no epoch), under ``cfg``."""
    example = (FeatureSequence(np.zeros((4, cfg.encoder.input_dim))), [VOCAB.bos_id, VOCAB.eos_id])
    return (lambda params: NeuralModel(cfg, params, VOCAB),
            lambda params: train(cfg, params, VOCAB, [example], TrainConfig(epochs=0)))


def random_partition(rng, total):
    cuts = sorted(rng.choice(total + 1, size=rng.integers(0, 5), replace=True))
    bounds = [0] + [int(c) for c in cuts] + [total]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


class TestStreamingEquivalence:
    def test_matches_one_shot_for_random_partitions(self, toy):
        cfg, enc, _ = toy
        rng = np.random.default_rng(1)
        for _ in range(25):
            total = int(rng.integers(1, 60))
            frames = rng.normal(size=(total, cfg.input_dim))
            reference = encode(enc, frames)
            state = enc.reset()
            chunks = [enc.push(state, frames[a:b]) for a, b in random_partition(rng, total)]
            chunks.append(enc.finish(state))
            streamed = np.vstack([c for c in chunks if c.size])
            assert streamed.shape == reference.shape
            np.testing.assert_allclose(streamed, reference, atol=1e-6)

    def test_empty_push_is_noop(self, toy):
        cfg, enc, _ = toy
        state = enc.reset()
        out = enc.push(state, np.zeros((0, cfg.input_dim)))
        assert out.shape == (0, cfg.proj)


class TestLengthLaw:
    @pytest.mark.parametrize("total", [0, 1, 2, 3, 7, 16, 33])
    def test_emitted_before_finish(self, toy, total):
        cfg, enc, _ = toy
        rng = np.random.default_rng(2)
        state = enc.reset()
        out = enc.push(state, rng.normal(size=(total, cfg.input_dim)))
        assert out.shape[0] == total // cfg.total_reduction

    def test_k1_push5_two_encoded_one_leftover(self):
        cfg = EncoderConfig(num_layers=1, input_dim=3, hidden=8, proj=4)
        enc = PyramidalEncoder(cfg, init_encoder_params(cfg, np.random.default_rng(3)))
        state = enc.reset()
        out = enc.push(state, np.random.default_rng(4).normal(size=(5, 3)))
        assert out.shape[0] == 2
        assert state.leftover[0] is not None

    def test_k1_two_pushes_match_single_encode(self):
        cfg = EncoderConfig(num_layers=1, input_dim=3, hidden=8, proj=4)
        enc = PyramidalEncoder(cfg, init_encoder_params(cfg, np.random.default_rng(5)))
        frames = np.random.default_rng(6).normal(size=(16, 3))
        state = enc.reset()
        a = enc.push(state, frames[:7])
        b = enc.push(state, frames[7:])
        np.testing.assert_allclose(np.vstack([a, b]), encode(enc, frames)[:8], atol=1e-12)


class TestFinish:
    def test_no_leftovers_no_extra_frames(self, toy):
        cfg, enc, _ = toy
        state = enc.reset()
        enc.push(state, np.random.default_rng(7).normal(size=(8, cfg.input_dim)))
        assert enc.finish(state).shape[0] == 0

    def test_k1_leftover_duplicated(self):
        cfg = EncoderConfig(num_layers=1, input_dim=3, hidden=8, proj=4)
        enc = PyramidalEncoder(cfg, init_encoder_params(cfg, np.random.default_rng(8)))
        frames = np.random.default_rng(9).normal(size=(3, 3))
        state = enc.reset()
        enc.push(state, frames)
        tail = enc.finish(state)
        # same as encoding [f0 f1 f2 f2] in one shot
        padded = np.vstack([frames, frames[-1:]])
        np.testing.assert_allclose(tail, encode(enc, padded)[1:], atol=1e-12)

    def test_k2_cascade_produces_frame(self, toy):
        cfg, enc, _ = toy
        state = enc.reset()
        enc.push(state, np.random.default_rng(10).normal(size=(5, cfg.input_dim)))
        # layer0 leftover (1 raw frame) and layer1 leftover (1 encoded frame)
        assert enc.finish(state).shape[0] >= 1

    def test_double_finish_rejected(self, toy):
        _, enc, _ = toy
        state = enc.reset()
        enc.finish(state)
        with pytest.raises(RuntimeError):
            enc.finish(state)

    def test_push_after_finish_rejected(self, toy):
        cfg, enc, _ = toy
        state = enc.reset()
        enc.finish(state)
        with pytest.raises(RuntimeError):
            enc.push(state, np.zeros((2, cfg.input_dim)))


class TestValidation:
    def test_wrong_input_dim(self, toy):
        cfg, enc, _ = toy
        with pytest.raises(ValueError):
            enc.push(enc.reset(), np.zeros((4, cfg.input_dim + 1)))

    def test_nonfinite_input(self, toy):
        cfg, enc, _ = toy
        bad = np.zeros((2, cfg.input_dim))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            enc.push(enc.reset(), bad)

    # the encoder's tensors are checked where parameters enter: by the model and by training
    def test_param_shape_mismatch(self):
        cfg = ModelConfig(encoder=EncoderConfig(num_layers=1, input_dim=3, hidden=8, proj=4))
        params = init_params(cfg, VOCAB.size, seed=11)
        other = ModelConfig(encoder=EncoderConfig(num_layers=1, input_dim=5, hidden=8, proj=4))
        for entry in entry_points(other):
            with pytest.raises(ValueError):
                entry(params)

    def test_every_encoder_tensor_checked(self):
        cfg = ModelConfig(encoder=EncoderConfig(num_layers=1, input_dim=3, hidden=8, proj=4))
        params = init_params(cfg, VOCAB.size, seed=11)
        for name, bad in (("enc0.U", np.zeros((3, 8, 9))), ("enc0.b", np.zeros(8)), ("enc0.pb", np.zeros(5)),
                          ("enc1.W", np.zeros((3, 8, 8)))):  # enc1.W: a layer the config does not have
            for entry in entry_points(cfg):
                with pytest.raises(ValueError, match=name):
                    entry(dict(params, **{name: bad}))


def test_determinism(toy):
    cfg, enc, _ = toy
    frames = np.random.default_rng(12).normal(size=(21, cfg.input_dim))
    np.testing.assert_array_equal(encode(enc, frames), encode(enc, frames))


def test_cached_encode_matches_streaming(toy):
    cfg, enc, params = toy
    frames = np.random.default_rng(13).normal(size=(19, cfg.input_dim))
    cached, _ = encode_with_cache(params, cfg, frames, [len(frames)])
    np.testing.assert_allclose(cached, encode(enc, frames), atol=1e-12)


def test_cached_encode_lengths_must_split_the_frames(toy):
    cfg, _, params = toy
    frames = np.random.default_rng(14).normal(size=(10, cfg.input_dim))
    for lengths in ([4, 5], [11, -1], [[10]], []):
        with pytest.raises(ValueError):
            encode_with_cache(params, cfg, frames, lengths)



class CountedProducts(np.ndarray):
    """A weight matrix that counts the products taken with it on its right."""

    products = 0

    def __rmatmul__(self, other):
        CountedProducts.products += 1
        return np.matmul(other, self.view(np.ndarray))


def test_backward_reuses_the_forward_gates_and_takes_one_product_per_step(toy, monkeypatch):
    cfg, _, params = toy
    rng = np.random.default_rng(4)
    lengths = [37, 0, 5, 64, 12, 64, 1, 30]
    encoded, cache = encode_with_cache(params, cfg, rng.normal(size=(sum(lengths), cfg.input_dim)), lengths)
    gate_calls, init = [], nn.GruBackward.__init__

    def counting(name, fn):
        def wrapper(*args):
            gate_calls.append(name)
            return fn(*args)
        return wrapper

    def counting_init(self, *args):
        init(self, *args)
        self.U = self.U.view(CountedProducts)

    monkeypatch.setattr(nn, "gru_steps", counting("gru_steps", nn.gru_steps))
    monkeypatch.setattr(nn, "gru_inputs", counting("gru_inputs", nn.gru_inputs))
    monkeypatch.setattr(nn.GruBackward, "__init__", counting_init)
    CountedProducts.products = 0
    encode_backward(params, cfg, cache, rng.normal(size=encoded.shape), nn.zero_grads(params))
    assert gate_calls == []
    assert CountedProducts.products == sum(len(layer.starts) - 1 for layer in cache.layers)


def test_streaming_keeps_no_gates(toy, monkeypatch):
    """``push``/``finish`` build no ``LayerCache`` and their state holds only
    each layer's recurrent state and leftover; the cached encode keeps one
    gate array per layer."""
    cfg, enc, params = toy
    built = []

    class RecordedCache(LayerCache):
        def __init__(self, **fields):
            super().__init__(**fields)
            built.append(self)

    monkeypatch.setattr(encoder_module, "LayerCache", RecordedCache)
    frames = np.random.default_rng(5).normal(size=(23, cfg.input_dim))
    state = enc.reset()
    for lo in range(0, 23, 4):
        enc.push(state, frames[lo : lo + 4])
        assert [h.shape for h in state.hidden] == [(1, cfg.hidden)] * cfg.num_layers
        assert all(left is None or len(left) == 1 for left in state.leftover)
    enc.finish(state)
    assert built == []
    encode_with_cache(params, cfg, frames, [len(frames)])
    assert [layer.gates.shape for layer in built] == [(4, 12, cfg.hidden), (4, 6, cfg.hidden)]
