import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtpretrain import tokenizer as tk


def write_vocab(tmp_path, extra_tokens, name="vocab.txt"):
    path = tmp_path / name
    lines = list(tk.SPECIAL_TOKENS) + list(extra_tokens)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


BASE_WORDS = ["un", "##aff", "##able", "hello", "paris", "is", "the",
              "cat", "dog", "ran", "a", "##s", "##ing", ",", ".", "!"]


@pytest.fixture()
def vocab(tmp_path):
    return tk.load_vocab(write_vocab(tmp_path, BASE_WORDS))


def test_load_vocab_size_and_ids(tmp_path, vocab):
    assert len(vocab) == len(tk.SPECIAL_TOKENS) + len(BASE_WORDS)
    assert vocab.pad_id == 0
    assert vocab.token_to_id["hello"] == vocab.id_to_token.index("hello")


def test_load_vocab_full_scale_line_count(tmp_path):
    # a 30522-line file (specials + generated fillers) loads with size 30522
    n_total = 30522
    fillers = [f"w{i:05d}" for i in range(n_total - len(tk.SPECIAL_TOKENS))]
    path = write_vocab(tmp_path, fillers, name="big_vocab.txt")
    v = tk.load_vocab(path)
    assert len(v) == 30522


def test_load_vocab_duplicate_errors(tmp_path):
    path = write_vocab(tmp_path, ["cat", "dog", "cat"])
    with pytest.raises(tk.VocabError, match="duplicate"):
        tk.load_vocab(path)


def test_load_vocab_missing_special_errors(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "cat"]),
                    encoding="utf-8")
    with pytest.raises(tk.VocabError, match=r"\[MASK\]"):
        tk.load_vocab(path)


def test_load_vocab_pad_must_be_first(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join(["[UNK]", "[PAD]", "[CLS]", "[SEP]", "[MASK]"]),
                    encoding="utf-8")
    with pytest.raises(tk.VocabError, match=r"\[PAD\]"):
        tk.load_vocab(path)


def test_tokenize_word_greedy_decomposition(vocab):
    assert tk.tokenize_word("unaffable", vocab) == ["un", "##aff", "##able"]


def test_tokenize_word_whole_word(vocab):
    assert tk.tokenize_word("hello", vocab) == ["hello"]


def test_tokenize_word_unknown_character(vocab):
    assert tk.tokenize_word("xyzzy", vocab) == [tk.UNK]


def test_tokenize_word_over_length_limit(vocab):
    assert tk.tokenize_word("a" * 101, vocab) == [tk.UNK]


def test_piece_ids_split_each_word_once(vocab, monkeypatch):
    calls = []
    real = tk.tokenize_word
    monkeypatch.setattr(tk, "tokenize_word",
                        lambda word, v: calls.append(word) or real(word, v))
    ids, _, _ = tk.encode_sentence("Unaffable cats, unaffable cats.", vocab)
    assert [vocab.id_to_token[i] for i in ids] == [
        "un", "##aff", "##able", "cat", "##s", ",",
        "un", "##aff", "##able", "cat", "##s", "."]
    assert calls == ["unaffable", "cats", ",", "."]
    assert vocab.piece_ids("cats") == tuple(vocab.token_to_id[p]
                                            for p in real("cats", vocab))


def greedy_oracle(word, pieces_in_vocab):
    """Brute-force longest-prefix-first reference used to check greediness."""
    out = []
    start = 0
    while start < len(word):
        best = None
        for end in range(len(word), start, -1):
            cand = word[start:end]
            if start > 0:
                cand = "##" + cand
            if cand in pieces_in_vocab:
                best = (cand, end)
                break
        if best is None:
            return [tk.UNK]
        out.append(best[0])
        start = best[1]
    return out


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abcde", min_size=1, max_size=8), st.integers(0, 2**31 - 1))
def test_tokenize_word_matches_greedy_oracle(word, seed):
    rng = np.random.default_rng(seed)
    candidates = []
    for a in "abcde":
        candidates.append(a)
        candidates.append("##" + a)
        for b in "abcde":
            candidates.append(a + b)
            candidates.append("##" + a + b)
    keep = [c for c in candidates if rng.random() < 0.4]
    table = {t: i for i, t in
             enumerate(list(tk.SPECIAL_TOKENS) + sorted(set(keep)))}
    vocab = tk.Vocabulary.__new__(tk.Vocabulary)
    vocab.token_to_id = table  # only the lookup is exercised here
    assert tk.tokenize_word(word, vocab) == greedy_oracle(word, table)


def test_encode_sentence_capitalization_flags(vocab):
    ids, _, capitalized = tk.encode_sentence("Paris is", vocab)
    assert [vocab.id_to_token[i] for i in ids] == ["paris", "is"]
    assert capitalized == [1, 0]


def test_encode_sentence_char_length(vocab):
    # the token-length label of an encoded piece is the vocabulary's count
    ids, _, _ = tk.encode_sentence("hello", vocab)
    assert vocab.piece_char_lengths[ids].tolist() == [5]


def test_encode_sentence_multi_piece_flags(vocab):
    ids, word_starts, capitalized = tk.encode_sentence("Unaffable", vocab)
    assert [vocab.id_to_token[i] for i in ids] == ["un", "##aff", "##able"]
    assert capitalized == [1, 0, 0]
    assert word_starts == [1, 0, 0]
    assert vocab.piece_char_lengths[ids].tolist() == [2, 3, 4]


def test_encode_sentence_one_word_start_per_source_word(vocab):
    ids, word_starts, capitalized = tk.encode_sentence(
        "Unaffable cats, running", vocab)
    assert len(ids) == len(word_starts) == len(capitalized)
    # source words after punctuation isolation: unaffable / cats / , / running
    assert sum(word_starts) == 4
    for start, cap in zip(word_starts, capitalized):
        if not start:
            assert not cap


# splits and encodings pinned from the per-character tokenizer, which the
# regex split and the id/flag encoding had to reproduce exactly
@pytest.mark.parametrize("text,words", [
    ("snake_case_name __init__",
     ["snake", "_", "case", "_", "name", "_", "_", "init", "_", "_"]),
    ("Café naïve ÉCOLE", ["Café", "naïve", "ÉCOLE"]),
    ("½ cup 3½", ["½", "cup", "3½"]),
    ("東京タワー。に行く", ["東京タワー", "。", "に行く"]),
    ("“Quoted” ‘text’ «x»",
     ["“", "Quoted", "”", "‘", "text", "’", "«", "x", "»"]),
    ("don't rock'n'roll", ["don", "'", "t", "rock", "'", "n", "'", "roll"]),
    ("Unaffable Cats, ran!", ["Unaffable", "Cats", ",", "ran", "!"]),
    (" \t\n\u00a0\u2003 ", []),
])
def test_basic_tokenize_pinned(text, words):
    assert tk.basic_tokenize(text) == words


def _encoded(text, vocab):
    """(piece, word start, capitalized) per token of encode_sentence."""
    ids, word_starts, capitalized = tk.encode_sentence(text, vocab)
    return [(vocab.id_to_token[i], start, cap)
            for i, start, cap in zip(ids, word_starts, capitalized)]


def test_encode_sentence_pinned():
    vocab = tk.Vocabulary(list(tk.SPECIAL_TOKENS) + BASE_WORDS + [
        "café", "é", "##é", "½", "_", "東", "##京", "'", "“", "”", "t", "don"])
    text = "Café don't Cats_½ “東京” Unaffable ÉCOLE naïve Éé"
    assert _encoded(text, vocab) == [
        ("café", 1, 1), ("don", 1, 0), ("'", 1, 0), ("t", 1, 0),
        ("cat", 1, 1), ("##s", 0, 0), ("_", 1, 0), ("½", 1, 0),
        ("“", 1, 0), ("東", 1, 0), ("##京", 0, 0), ("”", 1, 0),
        ("un", 1, 1), ("##aff", 0, 0), ("##able", 0, 0),
        ("[UNK]", 1, 1), ("[UNK]", 1, 0), ("é", 1, 1), ("##é", 0, 0)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["hello", "paris", "is", "the", "cat",
                                 "dog", "ran", "a", "un"]),
                min_size=1, max_size=10))
def test_encode_vocab_words_to_their_ids(tmp_path_factory, words):
    vocab = tk.load_vocab(
        write_vocab(tmp_path_factory.mktemp("v"), BASE_WORDS))
    ids, word_starts, capitalized = tk.encode_sentence(" ".join(words), vocab)
    assert ids == [vocab.token_to_id[w] for w in words]
    assert word_starts == [1] * len(words)
    assert capitalized == [0] * len(words)


def test_piece_char_lengths_table(vocab):
    assert vocab.piece_char_lengths[vocab.token_to_id["##aff"]] == 3
    assert vocab.piece_char_lengths[vocab.token_to_id["hello"]] == 5
    assert (vocab.piece_char_lengths >= 1).all()


def test_random_regular_id_never_special(vocab):
    rng = np.random.default_rng(0)
    draws = set(vocab.random_regular_id(rng, 300).tolist())
    assert draws.isdisjoint(vocab.special_ids)
    assert len(draws) > 1
