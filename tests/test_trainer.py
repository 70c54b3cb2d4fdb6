import base64
import hashlib
import json
import math

import numpy as np
import pytest

from silstream.attention import AttentionConfig
from silstream.data import FeatureSequence
from silstream.encoder import EncoderConfig
from silstream.model import ModelConfig, NeuralModel, init_params, load_checkpoint, save_checkpoint
from silstream.trainer import (TrainConfig, _encode, _minibatch_gradients, backward, forward_loss,
                               smoothed_targets, train)
from silstream.vocab import make_vocab

from support import PARAM_GROUPS, corpus_loss, group_of, reference_train

VOCAB = make_vocab(["a", "b", "c"])


def tiny_model():
    cfg = ModelConfig(
        encoder=EncoderConfig(num_layers=2, input_dim=4, hidden=8, proj=6),
        attention=AttentionConfig(chunk_size=3, energy_hidden=5),
        decoder_hidden=8,
        embed_dim=4,
    )
    return cfg, init_params(cfg, VOCAB.size, seed=3)


def tiny_example(seed=11, frames=12):
    rng = np.random.default_rng(seed)
    feats = FeatureSequence(rng.normal(size=(frames, 4)))
    ref = [VOCAB.bos_id] + VOCAB.encode(["a", "b", "c"]) + [VOCAB.eos_id]
    return feats, ref


def encoded(cfg, params, feats):
    """The utterance's rows of a minibatch encode, as training gives them to forward_loss."""
    return _encode(cfg, params, [(feats, None)])[0][0]


NO_NOISE = TrainConfig(scheduled_sampling=0.0, selection_noise_std=0.0)


class TestTrainConfigValidation:
    # each of these trained before: batch 0 raised from range(), batch -2 trained on
    # nothing and reported loss nan without divergence, a NaN rate gave NaN params
    def test_batch_size_at_least_one(self):
        for bad in (0, -2):
            with pytest.raises(ValueError, match="batch_size"):
                TrainConfig(batch_size=bad)
        assert TrainConfig(batch_size=1).batch_size == 1

    def test_epochs_not_negative(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=-1)
        assert TrainConfig(epochs=0).epochs == 0

    def test_learning_rate_finite_and_positive(self):
        for bad in (0.0, -0.05, math.nan, math.inf):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=bad)

    def test_selection_noise_finite_and_not_negative(self):
        # NaN or inf noise was accepted and fed non-finite energies to every training step
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="selection_noise_std"):
                TrainConfig(selection_noise_std=bad)
        assert TrainConfig(selection_noise_std=0.0).selection_noise_std == 0.0

    def test_momentum_in_unit_interval(self):
        for bad in (-0.1, 1.0, math.nan):
            with pytest.raises(ValueError, match="momentum"):
                TrainConfig(momentum=bad)
        assert TrainConfig(momentum=0.0).momentum == 0.0


class TestSmoothedTargets:
    def test_spec_arithmetic(self):
        q = smoothed_targets(0, 4, 0.2)
        np.testing.assert_allclose(q, [0.85, 0.05, 0.05, 0.05])

    def test_zero_smoothing_is_one_hot(self):
        np.testing.assert_array_equal(smoothed_targets(2, 4, 0.0), [0, 0, 1, 0])

    def test_sums_to_one(self):
        assert smoothed_targets(1, 7, 0.3).sum() == pytest.approx(1.0)


class TestForwardLoss:
    def test_reference_must_be_bos_eos_bracketed(self):
        cfg, params = tiny_model()
        feats, _ = tiny_example()
        with pytest.raises(ValueError):
            forward_loss(cfg, params, encoded(cfg, params, feats), VOCAB.encode(["a"]), NO_NOISE, VOCAB)

    def test_perfect_prediction_zero_loss(self):
        # an output layer that gives EOS all the mass whatever the state and context
        cfg, params = tiny_model()
        feats, _ = tiny_example()
        params["out.W"][:] = 0.0
        params["out.b"][VOCAB.eos_id] = 100.0
        plain = TrainConfig(label_smoothing=0.0, scheduled_sampling=0.0, selection_noise_std=0.0)
        loss, _ = forward_loss(cfg, params, encoded(cfg, params, feats), [VOCAB.bos_id, VOCAB.eos_id], plain, VOCAB)
        assert 0.0 <= loss < 1e-12

    def test_smoothed_loss_is_at_least_the_target_entropy(self):
        cfg, params = tiny_model()
        feats, ref = tiny_example()
        q = smoothed_targets(0, VOCAB.size, NO_NOISE.label_smoothing)
        floor = -(q * np.log(q)).sum()
        smoothed, _ = forward_loss(cfg, params, encoded(cfg, params, feats), ref, NO_NOISE, VOCAB)
        assert smoothed >= floor - 1e-9

    def test_deterministic_without_sampling(self):
        cfg, params = tiny_model()
        feats, ref = tiny_example()
        H = encoded(cfg, params, feats)
        a, _ = forward_loss(cfg, params, H, ref, NO_NOISE, VOCAB)
        b, _ = forward_loss(cfg, params, H, ref, NO_NOISE, VOCAB)
        assert a == b

    def test_sampling_requires_rng(self):
        cfg, params = tiny_model()
        feats, ref = tiny_example()
        with pytest.raises(ValueError):
            forward_loss(cfg, params, encoded(cfg, params, feats), ref, TrainConfig(scheduled_sampling=0.5), VOCAB)

    def test_empty_features_rejected(self):
        cfg, params = tiny_model()
        with pytest.raises(ValueError, match="empty utterance"):
            corpus_loss(cfg, params, [(FeatureSequence(np.zeros((0, 4))), [VOCAB.bos_id, VOCAB.eos_id])],
                        NO_NOISE, VOCAB)


class TestGradients:
    def test_finite_differences_every_group(self):
        # a ragged minibatch: the gradient train applies against its loss, the mean over the utterances
        cfg, params = tiny_model()
        batch = [tiny_example(seed, frames) for seed, frames in ((11, 12), (12, 7), (13, 13))]
        _, grads = _minibatch_gradients(cfg, params, batch, NO_NOISE, VOCAB, np.random.default_rng(0))
        step = 1e-4
        worst = dict.fromkeys(PARAM_GROUPS, 0.0)
        for name in sorted(params):
            g_fd = np.zeros_like(params[name])
            it = np.nditer(params[name], flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = params[name][idx]
                params[name][idx] = orig + step
                up = corpus_loss(cfg, params, batch, NO_NOISE, VOCAB)
                params[name][idx] = orig - step
                dn = corpus_loss(cfg, params, batch, NO_NOISE, VOCAB)
                params[name][idx] = orig
                g_fd[idx] = (up - dn) / (2 * step)
            denom = max(np.abs(g_fd).max(), np.abs(grads[name]).max(), 1e-8)
            rel = np.abs(grads[name] - g_fd).max() / denom
            worst[group_of(name)] = max(worst[group_of(name)], rel)
        for group, rel in worst.items():
            assert rel <= 1e-3, f"{group} gradient off by {rel}"

    def test_gradients_scale_linearly_with_sum_reduction(self):
        # duplicating an utterance doubles summed gradients, keeps mean ones
        cfg, params = tiny_model()
        feats, ref = tiny_example()
        rng = np.random.default_rng(0)
        _, mean_one = _minibatch_gradients(cfg, params, [(feats, ref)], NO_NOISE, VOCAB, rng)
        _, mean_two = _minibatch_gradients(cfg, params, [(feats, ref)] * 2, NO_NOISE, VOCAB, rng)
        H = encoded(cfg, params, feats)
        caches = [forward_loss(cfg, params, H, ref, NO_NOISE, VOCAB)[1] for _ in range(3)]
        summed_two, summed_one = backward(cfg, params, caches[:2])[0], backward(cfg, params, caches[2:])[0]
        for k in params:
            np.testing.assert_allclose(summed_two[k], 2 * summed_one[k], atol=1e-12)
            np.testing.assert_allclose(mean_two[k], mean_one[k], atol=1e-12)

    def test_zero_loss_zero_gradients(self):
        # if the loss floor is reached exactly the gradient vanishes; emulate
        # with a loss that is already minimal wrt the output bias direction:
        # gradient wrt out.b sums to zero across the vocabulary by softmax
        cfg, params = tiny_model()
        feats, ref = tiny_example()
        _, cache = forward_loss(cfg, params, encoded(cfg, params, feats), ref, NO_NOISE, VOCAB)
        grads, _ = backward(cfg, params, [cache])
        assert abs(grads["out.b"].sum()) <= 1e-10


class TestTrainLoop:
    def corpus(self, n=6):
        rng = np.random.default_rng(0)
        out = []
        for _ in range(n):
            feats = FeatureSequence(rng.normal(size=(int(rng.integers(8, 16)), 4)))
            tokens = [VOCAB.id_of(t) for t in rng.choice(["a", "b", "c"], size=2)]
            out.append((feats, [VOCAB.bos_id] + tokens + [VOCAB.eos_id]))
        return out

    def test_zero_epochs_params_unchanged(self):
        cfg, params = tiny_model()
        out, history = train(cfg, params, VOCAB, self.corpus(), TrainConfig(epochs=0))
        assert history["train_loss"] == []
        for k in params:
            np.testing.assert_array_equal(out[k], params[k])

    def test_same_seed_identical_loss_logs(self):
        cfg, params = tiny_model()
        tcfg = TrainConfig(epochs=3, learning_rate=0.05, seed=7)
        _, h1 = train(cfg, params, VOCAB, self.corpus(), tcfg)
        _, h2 = train(cfg, params, VOCAB, self.corpus(), tcfg)
        assert h1["train_loss"] == h2["train_loss"]

    def test_loss_decreases_on_tiny_corpus(self):
        cfg, params = tiny_model()
        tcfg = TrainConfig(epochs=12, learning_rate=0.1, momentum=0.9,
                           scheduled_sampling=0.0, selection_noise_std=0.0, seed=1)
        trained, history = train(cfg, params, VOCAB, self.corpus(), tcfg)
        examples = self.corpus()
        before = corpus_loss(cfg, params, examples, tcfg, VOCAB)
        after = corpus_loss(cfg, trained, examples, tcfg, VOCAB)
        assert after < before

    def test_divergence_aborts_with_last_good_params(self):
        cfg, params = tiny_model()
        tcfg = TrainConfig(epochs=40, learning_rate=1e160, seed=2,
                           scheduled_sampling=0.0, selection_noise_std=0.0)
        out, history = train(cfg, params, VOCAB, self.corpus(), tcfg)
        assert history["diverged"]
        for k in out:
            assert np.all(np.isfinite(out[k]))

    def test_minibatches_match_per_utterance_reference(self):
        # uneven lengths (one frame, odd, even) with scheduled sampling and
        # selection noise: any change in the order of the random draws would
        # move the losses far more than the summation order can
        cfg, params = tiny_model()
        rng = np.random.default_rng(5)
        corpus = []
        for frames in (1, 2, 5, 8, 13, 16, 3, 11):
            tokens = [VOCAB.id_of(t) for t in rng.choice(["a", "b", "c"], size=int(rng.integers(1, 4)))]
            corpus.append((FeatureSequence(rng.normal(size=(frames, 4))), [VOCAB.bos_id] + tokens + [VOCAB.eos_id]))
        tcfg = TrainConfig(epochs=3, batch_size=3, learning_rate=0.1, momentum=0.9, scheduled_sampling=0.5,
                           selection_noise_std=0.5, seed=9)
        got, history = train(cfg, params, VOCAB, corpus, tcfg)
        want, reference = reference_train(cfg, params, VOCAB, corpus, tcfg)
        assert len(history["train_loss"]) == len(reference["train_loss"]) == 3
        for a, b in zip(history["train_loss"], reference["train_loss"]):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
        for k in want:
            assert np.abs(got[k] - want[k]).max() <= 1e-12 * np.abs(want[k]).max(), k

    def test_checkpoints_written_per_epoch(self, tmp_path):
        cfg, params = tiny_model()
        tcfg = TrainConfig(epochs=2, learning_rate=0.05, seed=4)
        train(cfg, params, VOCAB, self.corpus(), tcfg, checkpoint_dir=str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["epoch_000.ckpt", "epoch_001.ckpt"]
        load_checkpoint(tmp_path / "epoch_001.ckpt")


class TestCheckpointRoundTrip:
    def test_forward_loss_bit_identical_after_reload(self, tmp_path):
        cfg, params = tiny_model()
        feats, ref = tiny_example()
        model = NeuralModel(cfg, params, VOCAB, silence_aware=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.cfg == cfg and back.silence_aware
        assert back.vocab.tokens == VOCAB.tokens
        for k in params:
            np.testing.assert_array_equal(back.params[k], params[k])
        a = corpus_loss(cfg, params, [(feats, ref)], NO_NOISE, VOCAB)
        b = corpus_loss(back.cfg, back.params, [(feats, ref)], NO_NOISE, VOCAB)
        assert a == b

    def test_checksum_tamper_detected(self, tmp_path):
        cfg, params = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(NeuralModel(cfg, params, VOCAB), path)
        text = path.read_text().replace('"silence_aware": false', '"silence_aware": true')
        path.write_text(text)
        with pytest.raises(ValueError, match="checksum"):
            load_checkpoint(path)

    def test_version_1_with_valid_checksum_refused(self, tmp_path):
        cfg, params = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(NeuralModel(cfg, params, VOCAB), path)
        body = json.loads(path.read_text())
        del body["checksum"]
        tensors = body["tensors"]
        for name in [n for n in tensors if n.split(".")[-1] in ("W", "U", "b") and n.startswith(("enc", "dec"))]:
            spec = tensors.pop(name)  # version 1 kept one tensor per gate: enc0.Wz, enc0.Wr, ...
            stacked = np.frombuffer(base64.b64decode(spec["data"]), dtype="<f8").reshape(spec["shape"])
            for gate, values in zip("zrn", stacked):
                tensors[name + gate] = {"shape": list(values.shape),
                                        "data": base64.b64encode(values.tobytes()).decode("ascii")}
        body["version"] = 1
        digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()
        path.write_text(json.dumps({"checksum": digest, **body}))
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_version_2_with_valid_checksum_refused(self, tmp_path):
        cfg, params = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(NeuralModel(cfg, params, VOCAB), path)
        body = json.loads(path.read_text())
        del body["checksum"]
        # version 2 saved the per-layer reduction and the initial selection bias with the config
        body["config"]["encoder"]["reduction"] = 2
        body["config"]["attention"]["init_selection_bias"] = -1.0
        body["version"] = 2
        digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()
        path.write_text(json.dumps({"checksum": digest, **body}))
        with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
            load_checkpoint(path)


class TestScheduledSampling:
    def test_coin_flips_change_loss_stream_deterministically(self):
        cfg, params = tiny_model()
        feats, ref = tiny_example()
        tcfg = TrainConfig(scheduled_sampling=1.0, selection_noise_std=0.0)
        H = encoded(cfg, params, feats)
        a, _ = forward_loss(cfg, params, H, ref, tcfg, VOCAB, rng=np.random.default_rng(5))
        b, _ = forward_loss(cfg, params, H, ref, tcfg, VOCAB, rng=np.random.default_rng(5))
        c, _ = forward_loss(cfg, params, H, ref, tcfg, VOCAB, rng=np.random.default_rng(6))
        assert a == b
        assert a != c  # different sampled histories almost surely differ
