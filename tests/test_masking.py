import numpy as np
import pytest

from cmlmkit.errors import ContractError, DataError
from cmlmkit.masking import (SentencePair, default_num_mask, make_batch,
                             make_pairs, mask_clamp_count,
                             reset_mask_clamp_count)
from cmlmkit.text import MASK, NUM_RESERVED, build_vocab


@pytest.fixture(scope="module")
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


def one_row(tokens, num_mask, vocab, rng):
    """The corrupted ids, sorted live positions and labels of a one-pair batch."""
    batch = make_batch([SentencePair([5], list(tokens), False)], vocab,
                       num_mask, rng)
    return (batch.s2_ids[0].tolist(), batch.mask_cols[batch.mask_live],
            batch.mask_labels)


class TestMaskTokens:
    def test_exact_count_and_labels(self, vocab):
        rng = np.random.default_rng(3)
        tokens = [vocab.id_of(w) for w in
                  ("alpha", "beta", "gamma", "delta", "epsilon")]
        corrupted, positions, labels = one_row(tokens, 3, vocab, rng)
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
        _, positions, labels = one_row(tokens, 2, vocab, rng)
        assert sorted(positions.tolist()) == [0, 1]
        assert labels.tolist() == tokens

    def test_clamp_records_warning(self, vocab):
        reset_mask_clamp_count()
        rng = np.random.default_rng(5)
        one_row([vocab.id_of("alpha")], 10, vocab, rng)
        assert mask_clamp_count() == 1
        reset_mask_clamp_count()

    def test_action_split_statistics(self, vocab):
        rng = np.random.default_rng(6)
        tokens = [vocab.id_of(w) for w in ("alpha", "beta", "gamma", "delta")] * 5
        n_mask = n_random = n_same = total = 0
        while total < 100_000:
            corrupted, positions, labels = one_row(tokens, len(tokens), vocab, rng)
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
        with pytest.raises(DataError):
            one_row([], 1, vocab, rng)
        with pytest.raises(ContractError):
            one_row([5], 0, vocab, rng)

    def test_default_budget_tracks_max_len(self):
        assert default_num_mask(256) == 80
        assert default_num_mask(64) == 20

    def test_default_budget_is_at_least_one(self):
        # round(0.3125 * 1) is 0, a budget make_batch refuses
        assert default_num_mask(1) == 1
        assert default_num_mask(2) == 1


class TestMaskStatistics:
    """One budget of 4 over rows of 2, 4, 5, 9 and 12 tokens, so the 2-token
    rows clamp, the 4-token rows just fit and every batch pads."""

    LENGTHS = (2, 4, 5, 9, 12)
    BUDGET = 4

    @pytest.fixture(scope="class")
    def draws(self, vocab):
        rng = np.random.default_rng(13)
        words = [vocab.id_of(w) for w in ("alpha", "beta", "gamma", "delta",
                                           "epsilon", "zeta", "eta", "theta")]
        batches, clamps = [], []
        for _ in range(20):
            lengths = rng.permutation(np.repeat(self.LENGTHS, 200))
            pairs = [SentencePair([words[0]], [words[int(i)] for i in
                                               rng.integers(0, 8, size=n)],
                                  False) for n in lengths]
            reset_mask_clamp_count()
            batches.append((lengths, pairs, make_batch(pairs, vocab,
                                                       self.BUDGET, rng)))
            clamps.append(mask_clamp_count())
        reset_mask_clamp_count()
        return batches, clamps

    def test_positions_are_uniform_over_real_tokens_only(self, draws):
        batches, _ = draws
        hits = {n: np.zeros(max(self.LENGTHS)) for n in self.LENGTHS}
        rows = dict.fromkeys(self.LENGTHS, 0)
        for lengths, _, batch in batches:
            for n in self.LENGTHS:
                own = lengths == n
                cols = batch.mask_cols[own][batch.mask_live[own]]
                hits[n] += np.bincount(cols, minlength=max(self.LENGTHS))
                rows[n] += int(own.sum())
            live_rows = np.nonzero(batch.mask_live)[0]
            live_cols = batch.mask_cols[batch.mask_live]
            assert np.all(batch.s2_mask[live_rows, live_cols] == 1.0)
        for n in self.LENGTHS:
            p = min(self.BUDGET, n) / n
            expected = rows[n] * p
            sigma = np.sqrt(rows[n] * p * (1 - p))
            assert np.all(np.abs(hits[n][:n] - expected) <= 5 * sigma), n
            assert np.all(hits[n][n:] == 0), n

    def test_positions_are_distinct_and_sorted_within_each_row(self, draws):
        for _, _, batch in draws[0]:
            assert batch.mask_cols.dtype == np.int64
            assert np.all(np.diff(batch.mask_cols, axis=1) > 0)
            assert np.all(batch.mask_cols < batch.s2_ids.shape[1])

    def test_each_row_has_one_live_slot_per_clamped_budget(self, draws):
        for lengths, _, batch in draws[0]:
            want = np.minimum(lengths, self.BUDGET)
            assert batch.mask_live.shape == batch.mask_cols.shape
            assert batch.mask_live.shape[1] == self.BUDGET
            np.testing.assert_array_equal(batch.mask_live.sum(axis=1), want)
            # the live slots lead each row
            np.testing.assert_array_equal(
                batch.mask_live, np.arange(self.BUDGET) < want[:, None])
            assert batch.mask_labels.shape == (want.sum(),)

    def test_clamp_count_is_one_per_short_row(self, draws):
        batches, clamps = draws
        for (lengths, _, _), count in zip(batches, clamps):
            assert count == int(np.sum(lengths < self.BUDGET))

    def test_labels_are_the_original_ids_in_row_major_order(self, draws):
        for _, pairs, batch in draws[0]:
            rows = np.nonzero(batch.mask_live)[0]
            cols = batch.mask_cols[batch.mask_live]
            want = [pairs[r].s2_tokens[c] for r, c in zip(rows, cols)]
            assert batch.mask_labels.tolist() == want

    def test_action_rates(self, draws, vocab):
        counts = np.zeros(3)
        for _, _, batch in draws[0]:
            rows = np.nonzero(batch.mask_live)[0]
            now = batch.s2_ids[rows, batch.mask_cols[batch.mask_live]]
            is_mask = now == MASK
            is_same = now == batch.mask_labels
            counts += [is_mask.sum(), (~is_mask & ~is_same).sum(), is_same.sum()]
        total = counts.sum()
        # a random id equal to the label counts as unchanged
        spill = 0.1 / (vocab.size - NUM_RESERVED)
        for seen, p in zip(counts, (0.8, 0.1 - spill, 0.1 + spill)):
            assert abs(seen - total * p) <= 5 * np.sqrt(total * p * (1 - p))


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
        np.testing.assert_array_equal(a.mask_live, b.mask_live)
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
            restored[np.nonzero(batch.mask_live)[0],
                     batch.mask_cols[batch.mask_live]] = batch.mask_labels
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
            assert np.all(batch.s2_mask[np.nonzero(batch.mask_live)[0],
                                        batch.mask_cols[batch.mask_live]] == 1.0)

    def test_slot_mask_layout(self, vocab):
        # a [B, m] grid of sorted positions whose live slots lead each row,
        # with a clamped (shorter) example masking fewer positions
        rng = np.random.default_rng(12)
        pairs = make_pairs(["alpha beta gamma delta epsilon", "zeta", "eta theta"],
                           vocab, rng, max_len=8)
        reset_mask_clamp_count()
        batch = make_batch(pairs, vocab, num_mask=3, rng=rng)
        assert mask_clamp_count() > 0
        reset_mask_clamp_count()
        counts = [min(3, len(p.s2_tokens)) for p in pairs]
        assert batch.mask_live.tolist() == [[j < c for j in range(3)]
                                            for c in counts]
        assert batch.mask_cols.dtype == np.int64 and batch.mask_cols.shape == (2, 3)
        assert batch.mask_labels.dtype == np.int64
        assert batch.mask_labels.shape == (sum(counts),)
        labels = iter(batch.mask_labels.tolist())
        for i, pair in enumerate(pairs):
            cols = batch.mask_cols[i]
            assert np.all(np.diff(cols) > 0)
            assert [next(labels) for _ in range(counts[i])] == \
                [pair.s2_tokens[c] for c in cols[:counts[i]]]

    def test_empty_pairs_rejected(self, vocab):
        with pytest.raises(DataError):
            make_batch([], vocab, 1, np.random.default_rng(0))
