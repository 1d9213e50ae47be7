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
    toks = tk.encode_sentence("Paris is", vocab)
    assert [t.piece for t in toks] == ["paris", "is"]
    assert toks[0].source_capitalized is True
    assert toks[1].source_capitalized is False


def test_encode_sentence_char_length(vocab):
    (tok,) = tk.encode_sentence("hello", vocab)
    assert tok.source_char_length == 5


def test_encode_sentence_multi_piece_flags(vocab):
    toks = tk.encode_sentence("Unaffable", vocab)
    assert [t.piece for t in toks] == ["un", "##aff", "##able"]
    assert [t.source_capitalized for t in toks] == [True, False, False]
    assert [t.is_word_start for t in toks] == [True, False, False]
    assert [t.source_char_length for t in toks] == [2, 3, 4]


def test_encode_sentence_one_word_start_per_source_word(vocab):
    toks = tk.encode_sentence("Unaffable cats, running", vocab)
    starts = [t for t in toks if t.is_word_start]
    # source words after punctuation isolation: unaffable / cats / , / running
    assert len(starts) == 4
    for t in toks:
        if not t.is_word_start:
            assert not t.source_capitalized


def test_decode_strips_continuations(vocab):
    ids = [vocab.token_to_id[p] for p in ("un", "##aff", "##able")]
    assert tk.decode(ids, vocab) == "unaffable"


def test_decode_empty(vocab):
    assert tk.decode([], vocab) == ""


def test_decode_out_of_range(vocab):
    with pytest.raises(tk.VocabError, match="out of range"):
        tk.decode([len(vocab)], vocab)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["hello", "paris", "is", "the", "cat",
                                 "dog", "ran", "a", "un"]),
                min_size=1, max_size=10))
def test_encode_decode_roundtrip_on_vocab_words(tmp_path_factory, words):
    vocab = tk.load_vocab(
        write_vocab(tmp_path_factory.mktemp("v"), BASE_WORDS))
    text = " ".join(words)
    ids = [tok.id for tok in tk.encode_sentence(text, vocab)]
    assert tk.decode(ids, vocab) == text


def test_piece_char_lengths_table(vocab):
    assert vocab.piece_char_lengths[vocab.token_to_id["##aff"]] == 3
    assert vocab.piece_char_lengths[vocab.token_to_id["hello"]] == 5
    assert (vocab.piece_char_lengths >= 1).all()


def test_random_regular_id_never_special(vocab):
    rng = np.random.default_rng(0)
    draws = {vocab.random_regular_id(rng) for _ in range(300)}
    assert draws.isdisjoint(vocab.special_ids)
    assert len(draws) > 1
