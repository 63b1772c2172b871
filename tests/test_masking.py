import numpy as np
import pytest

from cmlmkit.errors import ContractError, DataError
from cmlmkit.masking import (default_num_mask, make_batch, make_pairs,
                             mask_clamp_count, mask_tokens,
                             reset_mask_clamp_count)
from cmlmkit.text import MASK, NUM_RESERVED, build_vocab


@pytest.fixture
def vocab():
    lines = ["alpha beta gamma delta epsilon zeta eta theta " * 3]
    return build_vocab(lines, target_size=48)


class TestMakePairs:
    def test_adjacency(self, vocab):
        rng = np.random.default_rng(0)
        pairs = make_pairs(["alpha beta", "gamma", "delta eta"], vocab, rng,
                           max_len=16)
        assert len(pairs) == 2

    def test_single_sentence_yields_empty(self, vocab):
        assert make_pairs(["alpha"], vocab, np.random.default_rng(0), 16) == []

    def test_forced_swap(self, vocab):
        class HeadsRng:
            def random(self):
                return 0.0  # always below 0.5 -> swap

        pairs = make_pairs(["alpha", "beta", "gamma"], vocab, HeadsRng(), 16)
        assert all(p.swapped for p in pairs)
        assert pairs[0].s1_tokens == [vocab.id_of("beta")]
        assert pairs[0].s2_tokens == [vocab.id_of("alpha")]

    def test_swap_fraction_near_half(self, vocab):
        rng = np.random.default_rng(123)
        sentences = ["alpha beta"] * 10001  # 10k adjacent pairs
        pairs = make_pairs(sentences, vocab, rng, max_len=8)
        frac = np.mean([p.swapped for p in pairs])
        assert abs(frac - 0.5) < 0.02  # ~4 sigma for n=10k

    def test_truncation(self, vocab):
        rng = np.random.default_rng(1)
        long = " ".join(["alpha"] * 50)
        pairs = make_pairs([long, long], vocab, rng, max_len=8)
        assert len(pairs[0].s1_tokens) == 8
        assert len(pairs[0].s2_tokens) == 8


class TestMaskTokens:
    def test_exact_count_and_labels(self, vocab):
        rng = np.random.default_rng(3)
        tokens = [vocab.id_of(w) for w in
                  ("alpha", "beta", "gamma", "delta", "epsilon")]
        corrupted, positions, labels = mask_tokens(tokens, 3, vocab, rng)
        assert len(positions) == 3
        assert len(set(positions.tolist())) == 3
        for pos, lab in zip(positions, labels):
            assert tokens[pos] == lab
        untouched = set(range(5)) - set(positions.tolist())
        for pos in untouched:
            assert corrupted[pos] == tokens[pos]

    def test_full_mask(self, vocab):
        rng = np.random.default_rng(4)
        tokens = [vocab.id_of("alpha"), vocab.id_of("beta")]
        _, positions, labels = mask_tokens(tokens, 2, vocab, rng)
        assert sorted(positions.tolist()) == [0, 1]
        assert labels.tolist() == tokens

    def test_clamp_records_warning(self, vocab):
        reset_mask_clamp_count()
        rng = np.random.default_rng(5)
        mask_tokens([vocab.id_of("alpha")], 10, vocab, rng)
        assert mask_clamp_count() == 1
        reset_mask_clamp_count()

    def test_action_split_statistics(self, vocab):
        rng = np.random.default_rng(6)
        tokens = [vocab.id_of(w) for w in ("alpha", "beta", "gamma", "delta")] * 5
        n_mask = n_random = n_same = total = 0
        while total < 100_000:
            corrupted, positions, labels = mask_tokens(tokens, len(tokens), vocab, rng)
            for pos, lab in zip(positions, labels):
                total += 1
                if corrupted[pos] == MASK:
                    n_mask += 1
                elif corrupted[pos] == lab:
                    n_same += 1
                else:
                    n_random += 1
        # random replacement can reproduce the original id (prob 1/(V-5));
        # those events count as unchanged here, shifting ~0.23% of mass
        spill = 0.1 / (vocab.size - NUM_RESERVED)
        assert abs(n_mask / total - 0.8) < 0.01
        assert abs(n_random / total - (0.1 - spill)) < 0.01
        assert abs(n_same / total - (0.1 + spill)) < 0.01

    def test_rejects_empty_and_zero_budget(self, vocab):
        rng = np.random.default_rng(7)
        with pytest.raises(ContractError):
            mask_tokens([], 1, vocab, rng)
        with pytest.raises(ContractError):
            mask_tokens([5], 0, vocab, rng)

    def test_default_budget_tracks_max_len(self):
        assert default_num_mask(256) == 80
        assert default_num_mask(64) == 20


class TestMakeBatch:
    def test_padding_and_attention_masks(self, vocab):
        rng = np.random.default_rng(8)
        pairs = make_pairs(["alpha beta gamma", "delta epsilon zeta eta theta"],
                           vocab, rng, max_len=16)
        batch = make_batch(pairs, vocab, num_mask=1, rng=rng)
        assert batch.s1_ids.shape[1] == max(len(p.s1_tokens) for p in pairs)
        longest = batch.s2_ids.shape[1]
        for i, pair in enumerate(pairs):
            real = len(pair.s2_tokens)
            assert batch.s2_mask[i, :real].tolist() == [1.0] * real
            assert batch.s2_mask[i, real:].tolist() == [0.0] * (longest - real)

    def test_deterministic_given_seed(self, vocab):
        def build():
            rng = np.random.default_rng(99)
            pairs = make_pairs(["alpha beta", "gamma delta", "epsilon zeta"],
                               vocab, rng, max_len=8)
            return make_batch(pairs, vocab, num_mask=1, rng=rng)

        a, b = build(), build()
        np.testing.assert_array_equal(a.s2_ids, b.s2_ids)
        np.testing.assert_array_equal(a.mask_rows, b.mask_rows)
        np.testing.assert_array_equal(a.mask_cols, b.mask_cols)

    def test_unmasking_round_trip(self, vocab):
        # restoring labels at mask positions reproduces the original s2
        rng = np.random.default_rng(10)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        for _ in range(50):
            n = int(rng.integers(2, 7))
            sentences = [" ".join(rng.choice(words, size=n)) for _ in range(4)]
            pairs = make_pairs(sentences, vocab, rng, max_len=8)
            originals = [list(p.s2_tokens) for p in pairs]
            batch = make_batch(pairs, vocab, num_mask=2, rng=rng)
            restored = batch.s2_ids.copy()
            restored[batch.mask_rows, batch.mask_cols] = batch.mask_labels
            for i, original in enumerate(originals):
                assert restored[i, :len(original)].tolist() == original

    def test_no_mask_position_points_at_padding(self, vocab):
        rng = np.random.default_rng(11)
        words = ["alpha", "beta", "gamma", "delta"]
        for _ in range(1000):
            n_sent = int(rng.integers(2, 5))
            sentences = [" ".join(rng.choice(words, size=int(rng.integers(1, 6))))
                         for _ in range(n_sent)]
            pairs = make_pairs(sentences, vocab, rng, max_len=8)
            batch = make_batch(pairs, vocab, num_mask=3, rng=rng)
            assert np.all(batch.s2_mask[batch.mask_rows, batch.mask_cols] == 1.0)

    def test_flat_mask_layout(self, vocab):
        # one entry per masked position: example order, then sorted positions,
        # with a clamped (shorter) example masking fewer positions
        rng = np.random.default_rng(12)
        pairs = make_pairs(["alpha beta gamma delta epsilon", "zeta", "eta theta"],
                           vocab, rng, max_len=8)
        reset_mask_clamp_count()
        batch = make_batch(pairs, vocab, num_mask=3, rng=rng)
        assert mask_clamp_count() > 0
        reset_mask_clamp_count()
        counts = [min(3, len(p.s2_tokens)) for p in pairs]
        assert batch.mask_rows.tolist() == [i for i, c in enumerate(counts)
                                            for _ in range(c)]
        for arr in (batch.mask_rows, batch.mask_cols, batch.mask_labels):
            assert arr.dtype == np.int64 and arr.shape == (sum(counts),)
        for i, pair in enumerate(pairs):
            cols = batch.mask_cols[batch.mask_rows == i]
            assert np.all(np.diff(cols) > 0)
            assert batch.mask_labels[batch.mask_rows == i].tolist() == \
                [pair.s2_tokens[c] for c in cols]

    def test_empty_pairs_rejected(self, vocab):
        with pytest.raises(DataError):
            make_batch([], vocab, 1, np.random.default_rng(0))
