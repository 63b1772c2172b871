import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmlmkit.errors import ContractError, DataError
from cmlmkit.text import (PAD, UNK, NUM_RESERVED, build_vocab, pad_token_lists,
                          read_lines, tokenize)


class TestBuildVocab:
    def test_tiny_corpus_by_hand(self):
        # "a b a": chars {' ', 'a', 'b'}; minimum size 5 + 3 = 8
        vocab = build_vocab(["a b a"], target_size=8)
        assert vocab.size == 8
        for tok in ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", " ", "a", "b"):
            assert vocab.id_of(tok) is not None
        assert vocab.id_of("[PAD]") == PAD

    def test_words_ranked_by_frequency_then_lexicographic(self):
        lines = ["red red red blue blue green", "blue cyan cyan"]
        n_chars = len(set("".join(lines)))
        # room for exactly three words: blue(3) ties red(3) lexicographically,
        # then cyan(2); green(1) falls off the budget
        vocab = build_vocab(lines, target_size=5 + n_chars + 3)
        assert vocab.id_of("blue") < vocab.id_of("red") < vocab.id_of("cyan")
        assert vocab.id_of("green") is None

    def test_target_below_minimum_rejected(self):
        with pytest.raises(ContractError):
            build_vocab(["a b a"], target_size=7)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([], target_size=100)
        with pytest.raises(DataError):
            build_vocab(["   ", ""], target_size=100)

    def test_deterministic(self):
        lines = ["the quick brown fox", "jumps over the lazy dog"]
        a = build_vocab(lines, target_size=64)
        b = build_vocab(lines, target_size=64)
        assert a.tokens == b.tokens

    def test_round_trip_ids(self):
        vocab = build_vocab(["alpha beta gamma alpha"], target_size=40)
        for i, token in enumerate(vocab.tokens):
            assert vocab.id_of(token) == i


class TestTokenize:
    def setup_method(self):
        self.vocab = build_vocab(["a b a", "ab cd"], target_size=16)

    def test_empty_text(self):
        assert tokenize("", self.vocab) == []

    def test_direct_lookup(self):
        ids = tokenize("a b", self.vocab)
        assert ids == [self.vocab.id_of("a"), self.vocab.id_of("b")]

    def test_unknown_word_decomposes_to_characters(self):
        ids = tokenize("ba", self.vocab)
        assert ids == [self.vocab.id_of("b"), self.vocab.id_of("a")]

    def test_greedy_longest_prefix(self):
        # "abc": "ab" is a known word and the longest prefix; 'c' is a char
        ids = tokenize("abc", self.vocab)
        assert ids == [self.vocab.id_of("ab"), self.vocab.id_of("c")]

    def test_unknown_character_maps_to_unk(self):
        assert tokenize("zq", self.vocab) == [UNK, UNK]

    def test_lowercasing(self):
        assert tokenize("A B", self.vocab) == tokenize("a b", self.vocab)

    def test_reserved_never_matched_from_text(self):
        ids = tokenize("[pad]", self.vocab)
        assert all(i == UNK or i >= NUM_RESERVED for i in ids)
        assert PAD not in ids

    @settings(max_examples=300, deadline=None)
    @given(words=st.lists(st.one_of(
        st.sampled_from(["a", "ab", "abc", "cd", "AB", "Cd", "zq", "[x]",
                         "[PAD]", "[pad]", "[MASK]", "[unk]", "[cls]"]),
        st.text(alphabet="abcdxzAQ[]", min_size=1, max_size=7)), max_size=8))
    def test_equals_encode_word_per_word(self, words):
        # whole words, decompositions, out-of-vocabulary characters,
        # uppercase, and words that spell a reserved token
        vocab = build_vocab(["a b a", "ab cd", "[x] ab"], target_size=24)
        text = " ".join(words)
        want = [i for word in text.lower().split() for i in vocab.encode_word(word)]
        assert tokenize(text, vocab) == want


def _pad_per_row(token_lists):
    """The per-row loop ``pad_token_lists`` replaced, kept as its reference."""
    width = max(len(t) for t in token_lists)
    ids = np.full((len(token_lists), width), PAD, dtype=np.int64)
    mask = np.zeros((len(token_lists), width), dtype=np.float32)
    for i, tokens in enumerate(token_lists):
        ids[i, :len(tokens)] = tokens
        mask[i, :len(tokens)] = 1.0
    return ids, mask


class TestPadTokenLists:
    @pytest.mark.parametrize("token_lists", [
        [[5, 6, 7], [8], [9, 10, 11, 12, 13], [14, 15]],  # ragged
        [[7]],                                             # a single token
        [[5, 9, 9, 6]],                                    # a single list
        [[5], [6], [7]],                                   # all one token
        [[NUM_RESERVED + 300, 5], [2 ** 40]],              # large ids
    ], ids=["ragged", "one-token", "one-list", "all-one", "large-ids"])
    def test_bit_identical_to_the_per_row_loop(self, token_lists):
        ids, mask = pad_token_lists(token_lists)
        want_ids, want_mask = _pad_per_row(token_lists)
        assert ids.dtype == np.int64 and mask.dtype == np.float32
        assert ids.shape == want_ids.shape and mask.shape == want_mask.shape
        assert ids.tobytes() == want_ids.tobytes()
        assert mask.tobytes() == want_mask.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=12),
                    min_size=1, max_size=20))
    def test_random_lists_match_the_per_row_loop(self, token_lists):
        ids, mask = pad_token_lists(token_lists)
        want_ids, want_mask = _pad_per_row(token_lists)
        assert ids.tobytes() == want_ids.tobytes() and ids.shape == want_ids.shape
        assert mask.tobytes() == want_mask.tobytes()


class TestReadLines:
    def test_line_ends_and_tail(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a\r\nb\rc\n\nd")
        assert read_lines(str(path), "t") == ["a", "b", "c", "", "d"]
        path.write_bytes(b"a\n")
        assert read_lines(str(path), "t") == ["a", ""]
        path.write_bytes(b"")
        assert read_lines(str(path), "t") == [""]

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(alphabet="a \t\r\n\x0b\x0c\x1c\x85\u2028\ufeff"))
    def test_matches_text_mode_open(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "text-mode.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            assert read_lines(str(path), "t") == fh.read().split("\n")

    def test_bad_byte_names_line_and_offset(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a\r\nb\rc\n\xc3\xa9\xff")  # 0xC3 0xA9 is "é"
        with pytest.raises(DataError) as info:
            read_lines(str(path), "corpus file")
        message = str(info.value)
        assert message.startswith(f"corpus file {str(path)!r} line 4 ")
        assert "offset 9" in message

    @pytest.mark.parametrize("name", ["missing.txt", ""])
    def test_unreadable_path_is_a_data_error(self, tmp_path, name):
        path = str(tmp_path / name)  # a missing file, then a directory
        with pytest.raises(DataError) as info:
            read_lines(path, "bitext file")
        assert str(info.value).startswith(f"bitext file {path!r} cannot be read: ")
