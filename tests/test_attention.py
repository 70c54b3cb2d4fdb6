import math

import numpy as np
import pytest

from silstream import nn
from silstream.attention import (
    AttentionConfig,
    AttentionState,
    chunk_attend,
    first_crossing,
    init_attention_params,
    initial_alpha,
    soft_step,
)

from support import first_selection, infer_step, selection_probability

QUERY_DIM, KEY_DIM = 6, 5


@pytest.fixture
def setup():
    cfg = AttentionConfig(chunk_size=3, energy_hidden=4)
    params = init_attention_params(cfg, QUERY_DIM, KEY_DIM, np.random.default_rng(0))
    return cfg, params


class TestSelectionProbability:
    def test_zero_energy_gives_half(self):
        assert nn.sigmoid(np.array([0.0]))[0] == 0.5

    def test_saturation(self):
        assert nn.sigmoid(np.array([20.0]))[0] == pytest.approx(1.0, abs=1e-8)

    def test_matches_scalar_recomputation(self, setup):
        cfg, params = setup
        rng = np.random.default_rng(1)
        s = rng.normal(size=QUERY_DIM)
        h = rng.normal(size=KEY_DIM)
        got = selection_probability(params, s, h)
        # independent scalar evaluation of the additive energy
        act = math.tanh
        pre = [
            act(float(params["att.sel.Wq"][i] @ s + params["att.sel.Wk"][i] @ h + params["att.sel.b"][i]))
            for i in range(4)
        ]
        energy = sum(float(params["att.sel.v"][i]) * pre[i] for i in range(4)) + float(params["att.sel.r"][0])
        want = 1.0 / (1.0 + math.exp(-energy))
        assert got == pytest.approx(want, rel=1e-12)

    def test_in_open_interval(self, setup):
        _, params = setup
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = selection_probability(params, rng.normal(size=QUERY_DIM), rng.normal(size=KEY_DIM))
            assert 0.0 < p < 1.0


def scan_and_attend(probs, chunk_energies, prev_index, chunk_size, frames=None):
    """Drive the hard-mode scan and chunk softmax from given probabilities."""
    n = len(probs)
    frames = np.eye(n) if frames is None else frames
    start = max(prev_index, 0)
    rel = first_selection(np.asarray(probs)[start:])
    if rel < 0:
        return None
    selected = start + rel
    lo = max(0, selected - chunk_size + 1)
    context, peak = chunk_attend(np.asarray(chunk_energies, float)[lo : selected + 1], frames, lo)
    return selected, peak, context


class TestHardMode:
    def test_hand_example_scan_and_tie_break(self):
        # probs (0.2, 0.8, 0.9), prev=-1, w=2, equal chunk energies
        selected, peak, context = scan_and_attend([0.2, 0.8, 0.9], [1.0, 1.0, 1.0], -1, 2)
        assert selected == 1
        np.testing.assert_allclose(context, [0.5, 0.5, 0.0])  # equal weights on frames 0 and 1
        assert peak == 0  # tie resolves to the lowest index

    def test_scan_starts_at_previous_selection(self):
        result = scan_and_attend([0.9, 0.1, 0.8], [0.0, 0.0, 0.0], 1, 2)
        selected, _, _ = result
        assert selected == 2  # frame 0 is behind the scan position

    def test_all_below_threshold_exhausts(self, setup):
        cfg, params = setup
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(6, KEY_DIM))
        # crank the selection bias far down so nothing crosses 0.5
        params = dict(params)
        params["att.sel.r"] = np.array([-50.0])
        res = infer_step(params, cfg, rng.normal(size=QUERY_DIM), frames, AttentionState())
        assert res.status == "exhausted"

    def test_chunk_of_one_copies_frame(self):
        selected, peak, context = scan_and_attend([0.6, 0.1], [0.3, 0.9], -1, 1)
        assert selected == 0 and peak == 0
        np.testing.assert_array_equal(context, np.eye(2)[0])

    def test_empty_buffer_exhausts(self, setup):
        cfg, params = setup
        res = infer_step(params, cfg, np.zeros(QUERY_DIM), np.zeros((0, KEY_DIM)), AttentionState())
        assert res.status == "exhausted"

    def test_force_selects_last_frame(self, setup):
        cfg, params = setup
        params = dict(params)
        params["att.sel.r"] = np.array([-50.0])
        frames = np.random.default_rng(4).normal(size=(5, KEY_DIM))
        res = infer_step(params, cfg, np.zeros(QUERY_DIM), frames, AttentionState(), force=True)
        assert res.status == "selected" and res.forced
        assert res.selected_index == 4

    def test_selected_indices_nondecreasing_over_random_decodes(self, setup):
        cfg, params = setup
        rng = np.random.default_rng(5)
        for _ in range(200):
            frames = rng.normal(size=(int(rng.integers(2, 12)), KEY_DIM))
            state = AttentionState()
            last = -1
            for _step in range(6):
                res = infer_step(params, cfg, rng.normal(size=QUERY_DIM), frames, state)
                if res.status != "selected":
                    break
                assert res.selected_index >= last
                assert res.selected_index - cfg.chunk_size + 1 <= res.peak_index <= res.selected_index
                last = res.selected_index
                state = AttentionState(prev_index=last)


class TestEnergyCrossing:
    def test_hand_examples(self):
        assert first_crossing(np.array([-1.0, -0.5, 0.0, 2.0])) == 2
        assert first_crossing(np.array([-1.0, np.nan, -np.inf])) == -1
        assert first_crossing(np.zeros(0)) == -1
        assert first_crossing(np.array([-1e-15, -0.0])) == 1
        # a tiny negative energy whose exp rounds to 1 has probability exactly 0.5
        assert nn.sigmoid(np.array([-1e-17]))[0] == 0.5
        assert first_crossing(np.array([-1e-3, -1e-17, 1.0])) == 1

    def test_crossing_in_first_window_calls_no_sigmoid(self, setup, monkeypatch):
        """A hard step whose first window crosses squashes no energy, so the
        saving of deciding the crossing on energies cannot silently come back."""
        cfg, params = setup
        calls = []
        sigmoid = nn.sigmoid

        def counting(x):
            calls.append(np.shape(x))
            return sigmoid(x)

        monkeypatch.setattr(nn, "sigmoid", counting)
        params = dict(params)
        params["att.sel.r"] = np.array([50.0])  # every selection energy far above 0
        frames = np.random.default_rng(11).normal(size=(20, KEY_DIM))
        res = infer_step(params, cfg, np.zeros(QUERY_DIM), frames, AttentionState(prev_index=4))
        assert res.selected_index == 4 and calls == []


def enumerate_expected_alignment(prob_rows, alpha0):
    """Brute-force expected alignment of the stochastic monotonic scan."""
    n = len(alpha0)
    dist = np.asarray(alpha0, float)
    out = []
    for p in prob_rows:
        nxt = np.zeros(n)
        for start, mass in enumerate(dist):
            if mass == 0.0:
                continue
            stay = mass
            for t in range(start, n):
                nxt[t] += stay * p[t]
                stay *= 1.0 - p[t]
        dist = nxt
        out.append(dist.copy())
    return out


class TestSoftMode:
    def test_chunk_one_beta_equals_alpha_exactly(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.0, 1.0, size=7)
        u = rng.normal(size=7)
        alpha, beta, _ = soft_step(nn.sigmoid(np.log(p / (1 - p))), u, initial_alpha(7), 1)
        np.testing.assert_array_equal(alpha, beta)

    def test_windows_far_below_the_largest_energy_keep_their_mass(self):
        # running-sum differences cancel to 0 for the windows of u = -40 (exp 4e-18 of
        # the sum before them); the 1e-300 floor then made beta sum to 2.8e282
        n, w = 12, 3
        u = np.zeros(n)
        u[6:] = -40.0
        p = np.full(n, 0.3)
        alpha = initial_alpha(n)
        for _ in range(3):
            alpha, beta, cache = soft_step(p, u, alpha, w)
            assert math.isclose(beta.sum(), alpha.sum(), rel_tol=0.0, abs_tol=1e-12)
            expu, denom = cache[3], cache[4]
            for k in range(n):
                assert math.isclose(denom[k], math.fsum(expu[max(0, k - w + 1) : k + 1]), rel_tol=1e-15)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(7)
        prob_rows = rng.uniform(0.05, 0.95, size=(3, 4))
        expected = enumerate_expected_alignment(prob_rows, initial_alpha(4))
        alpha = initial_alpha(4)
        for p, want in zip(prob_rows, expected):
            alpha, _, _ = soft_step(p, np.zeros(4), alpha, 3)
            np.testing.assert_allclose(alpha, want, atol=1e-8)

    def test_saturated_probabilities_follow_hard_path(self):
        # all selection probabilities ~1: mass stays one-hot at frame 0
        energies_row = np.full(4, 40.0)
        alpha, _, _ = soft_step(nn.sigmoid(energies_row), np.zeros(4), initial_alpha(4), 2)
        np.testing.assert_allclose(alpha, [1.0, 0.0, 0.0, 0.0], atol=1e-4)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(8)
        p = np.full(3, 0.5)
        alpha, _, _ = soft_step(p, np.zeros(3), initial_alpha(3), 1)
        n = 10**6
        counts = np.zeros(3)
        # vectorized simulation of the scan from frame 0
        draws = rng.random(size=(n, 3)) < p
        first = np.argmax(draws, axis=1)
        hit = draws.any(axis=1)
        for t in range(3):
            counts[t] = np.sum(hit & (first == t))
        estimate = counts / n
        sigma = np.sqrt(np.maximum(alpha * (1 - alpha), 1e-12) / n)
        assert np.all(np.abs(estimate - alpha) <= 3 * sigma)

    def test_mass_conservation_and_beta_support(self):
        rng = np.random.default_rng(9)
        alpha_prev = initial_alpha(10)
        for w in (1, 2, 3, 5):
            alpha = alpha_prev
            for _ in range(4):
                p = rng.uniform(0, 1, size=10)
                u = rng.normal(size=10)
                new_alpha, beta, _ = soft_step(p, u, alpha, w)
                assert new_alpha.sum() <= alpha.sum() + 1e-6
                assert np.all(new_alpha >= 0) and np.all(beta >= 0)
                assert beta.sum() == pytest.approx(new_alpha.sum(), abs=1e-6)
                alpha = new_alpha
