import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from mtpretrain import corpus as cp
from mtpretrain import tokenizer as tk


def make_doc(sentence_token_ids):
    """A document of one word per token."""
    ids = np.concatenate(sentence_token_ids).astype(np.int64)
    counts = [len(s) for s in sentence_token_ids]
    return cp.Document("d0", ids, np.ones(len(ids), np.uint8),
                       np.cumsum([0] + counts), np.array(counts))


def tokens(doc):
    return doc.token_ids.tolist()


def segment_scores(token_lists):
    """score_segments over the lists as one corpus, as one {token: tf} and
    one {token: tf-idf} dict per list; every position of a token in a list
    must read the same value."""
    tf, tfidf = cp.score_segments(np.concatenate(token_lists).astype(np.int64),
                                  [len(t) for t in token_lists])
    out, at = [], 0
    for toks in token_lists:
        maps = ({}, {})
        for pos, t in enumerate(toks, at):
            for labels, mapping in zip((tf, tfidf), maps):
                assert mapping.setdefault(t, labels[pos]) == labels[pos]
        out.append(maps)
        at += len(toks)
    return out


# ---------------------------------------------------------------- splitting

def test_split_two_periods():
    assert cp.split_sentences("A cat. A dog.") == ["A cat.", "A dog."]


def test_split_three_terminators():
    assert len(cp.split_sentences("Hi! Ok? Yes.")) == 3


def test_split_abbreviation_not_boundary():
    assert cp.split_sentences("Mr. Smith ran.") == ["Mr. Smith ran."]


def test_split_abbreviation_corpus_counts():
    # every abbreviation in the documented list must suppress the split
    for abbrev in sorted(cp.ABBREVIATIONS):
        shown = abbrev.capitalize()
        text = f"We saw {shown} Smith today. The dog barked."
        got = cp.split_sentences(text)
        assert len(got) == 2, f"{abbrev} split unexpectedly: {got}"


def test_split_requires_sentence_start():
    # lowercase continuation after the period: no split
    assert cp.split_sentences("It ran 3.5 km. then stopped.") == \
        ["It ran 3.5 km. then stopped."]


def test_split_initials_kept_together():
    assert cp.split_sentences("J. Smith arrived. He sat.") == \
        ["J. Smith arrived.", "He sat."]


def test_split_empty():
    assert cp.split_sentences("") == []


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet=" .!?abcABC\n\t", max_size=120))
def test_split_roundtrip_collapsed_whitespace(text):
    sentences = cp.split_sentences(text)
    assert " ".join(sentences).split() == text.split()


SPLIT_WORDS = ["Mr.", "mr.", "MR.", "Dr.", "e.g.", "U.S.", "etc.", "J.", "j.",
               "É.", "ß.", "A", "a", "cat", "Dog", "3.5", "42.", "7", "x!",
               "?!", "...", ".", "!", "?", '"Hi!"', "'ok?'", "(end.)",
               "“Quote.”", "«x.»", "»", "‘y", "[z.]", "{w}", "Über.",
               "ending?'"]
SPLIT_SPACES = [" ", "  ", "\t", "\n", "\r\n", "\u00a0", "\u3000", "\x1c",
                "\u2028", "\x85", "\x0b"]


def test_split_matches_per_word_splitter_on_random_texts():
    """Testing only the words that end in a terminator splits as testing
    every word did, on texts of abbreviations, initials, quotes, digits and
    odd whitespace."""
    rng = np.random.default_rng(2020)
    for _ in range(3000):
        n = int(rng.integers(0, 25))
        words = rng.choice(SPLIT_WORDS, n).tolist()
        spaces = rng.choice(SPLIT_SPACES, n + 1).tolist()
        text = "".join(s + w for s, w in zip(spaces, words + [""]))
        assert cp.split_sentences(text) == oracles.split_sentences_per_word(
            text, cp.ABBREVIATIONS, cp._TRAILING_CLOSERS, cp._OPENING_QUOTES)


# ---------------------------------------------------------------- filtering

def words(n, base="cat"):
    return " ".join(f"{base}" for _ in range(n))


def test_filter_rejects_few_sentences(word_vocab):
    text = "Aaa " + words(20) + ". Bbb " + words(20) + ". Ccc " + words(5) + "."
    raw = cp.RawDocument(id="x", text=text)
    assert len(cp.split_sentences(text)) == 3
    assert cp.filter_document(raw, word_vocab) is None


def test_filter_rejects_few_words(word_vocab):
    text = "Aa bb. Cc dd. Ee ff. Gg hh ii."
    assert len(text.split()) == 9
    assert len(cp.split_sentences(text)) == 4
    assert cp.filter_document(cp.RawDocument(id="x", text=text),
                              word_vocab) is None


def test_filter_accepts_boundary(word_vocab):
    text = "Aa bb cc. Dd ee. Ff gg. Hh ii jj."
    assert len(text.split()) == 10
    assert len(cp.split_sentences(text)) == 4
    doc = cp.filter_document(cp.RawDocument(id="x", text=text), word_vocab)
    assert doc is not None
    assert doc.word_counts.tolist() == [3, 2, 2, 3]
    assert doc.sentence_offsets.tolist() == [0, 4, 7, 10, 14]


# ------------------------------------------------------------- segmentation

def test_segment_under_target_unchanged():
    doc = make_doc([[1] * 90] * 10)  # 900 tokens
    segs = cp.segment_document(doc, target_tokens=1024)
    assert len(segs) == 1
    assert len(segs[0].token_ids) == 900
    assert segs[0].id == doc.id


def test_segment_equal_sentences_greedy_boundary():
    # 16 sentences x 128 tokens = 2048 -> two segments of 8 sentences
    doc = make_doc([list(range(128))] * 16)
    segs = cp.segment_document(doc, target_tokens=1024)
    assert [len(s.word_counts) for s in segs] == [8, 8]
    assert all(len(s.token_ids) == 1024 for s in segs)
    assert all(s.sentence_offsets.tolist() == list(range(0, 1025, 128))
               for s in segs)


def test_greedy_spans_match_oracle_case():
    counts = [512, 512, 1]  # 1025 tokens, last sentence one token
    assert cp.greedy_sentence_spans(counts, 1024) == [(0, 2), (2, 3)]
    assert oracles.greedy_fill_spans(counts, 1024) == [(0, 2), (2, 3)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 300), min_size=1, max_size=30),
       st.integers(100, 1200))
def test_greedy_spans_property(counts, target):
    got = cp.greedy_sentence_spans(counts, target)
    assert got == oracles.greedy_fill_spans(counts, target)
    # spans are a partition in order
    assert got[0][0] == 0 and got[-1][1] == len(counts)
    for (a, b), (c, d) in zip(got, got[1:]):
        assert b == c
    for a, b in got:
        size = sum(counts[a:b])
        assert size <= target or b - a == 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 300), st.integers(1, 6)),
                min_size=4, max_size=40),
       st.integers(50, 1200))
def test_segment_merges_match_restarting_oracle(sentences, target):
    counts = [c for c, _ in sentences]
    words = [w for _, w in sentences]
    assume(sum(words) >= cp.MIN_WORDS)
    doc = cp.Document("d0", np.zeros(sum(counts), np.int64),
                      np.ones(sum(counts), np.uint8), np.cumsum([0] + counts),
                      np.array(words))
    want = oracles.merge_undersized_spans(
        oracles.greedy_fill_spans(counts, target), words,
        cp.MIN_SENTENCES, cp.MIN_WORDS)
    segs = cp.segment_document(doc, target)
    assert [len(seg.word_counts) for seg in segs] == [b - a for a, b in want]
    assert [seg.word_counts.tolist() for seg in segs] \
        == [words[a:b] for a, b in want]
    assert [len(seg.token_ids) for seg in segs] \
        == [sum(counts[a:b]) for a, b in want]


def test_segment_merges_undersized_tail():
    # trailing 1-sentence span fails the filter and folds back
    doc = make_doc([[1] * 512, [2] * 512, [3]])
    segs = cp.segment_document(doc, target_tokens=1024)
    assert len(segs) == 1
    assert len(segs[0].token_ids) == 1025
    # a trailing span of four sentences but eight words fails on words
    doc = make_doc([[1] * 504] + [[2] * 130] * 4 + [[3] * 2] * 4)
    segs = cp.segment_document(doc, target_tokens=1024)
    assert [len(s.token_ids) for s in segs] == [1032]


def test_segment_preserves_sentence_sequence():
    doc = make_doc([[i] * 200 for i in range(10)])
    segs = cp.segment_document(doc, target_tokens=1024)
    assert [seg.id for seg in segs] == ["d0#0", "d0#1"]
    assert sum((tokens(seg) for seg in segs), []) == tokens(doc)
    assert np.concatenate([np.diff(seg.sentence_offsets)
                           for seg in segs]).tolist() == [200] * 10
    for seg in segs:
        assert len(seg.word_counts) >= cp.MIN_SENTENCES


# ------------------------------------------------------------------- tf/idf

def test_tf_hand_counted():
    [(tf, _)] = segment_scores([[5, 5, 5, 7]])
    assert tf[5] == pytest.approx(10.0)
    assert tf[7] == pytest.approx(10.0 / 3.0)


def test_tf_all_distinct():
    [(tf, _)] = segment_scores([[1, 2, 3, 4]])
    assert set(tf.values()) == {10.0}


def test_tf_single_token():
    assert segment_scores([[9]]) == [({9: 10.0}, {9: 0.0})]


def test_tfidf_token_everywhere_is_zero():
    [(_, scaled), _] = segment_scores([[1, 2], [1, 3]])
    assert scaled[1] == 0.0
    assert scaled[2] == 10.0


def test_tfidf_single_document_corpus_all_zero():
    [(_, scaled)] = segment_scores([[1, 1, 2]])
    assert set(scaled.values()) == {0.0}


def test_tfidf_two_doc_example():
    # token t only in doc A (twice), token u in both (once in A)
    doc_a, doc_b = [10, 10, 20], [20, 30]
    [(_, scaled), _] = segment_scores([doc_a, doc_b])
    assert scaled[10] == pytest.approx(10.0)
    assert scaled[20] == pytest.approx(0.0)
    ref = oracles.brute_force_tfidf(doc_a, [doc_a, doc_b])
    for t, v in scaled.items():
        assert v == pytest.approx(ref[t], abs=1e-12)


def test_tf_tfidf_random_corpora_match_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(10):
        n_docs = int(rng.integers(1, 11))
        docs = [rng.integers(0, 30, size=int(rng.integers(1, 51))).tolist()
                for _ in range(n_docs)]
        for doc, (tf, tfidf) in zip(docs, segment_scores(docs)):
            tf_ref = oracles.brute_force_tf(doc)
            assert set(tf) == set(tf_ref)
            for t in tf:
                assert abs(tf[t] - tf_ref[t]) < 1e-9
            tfidf_ref = oracles.brute_force_tfidf(doc, docs)
            assert set(tfidf) == set(tfidf_ref)
            for t in tfidf:
                assert abs(tfidf[t] - tfidf_ref[t]) < 1e-9


def test_stats_maps_bounds():
    rng = np.random.default_rng(3)
    docs = [rng.integers(0, 12, size=20).tolist() for _ in range(5)]
    for tf, tfidf in segment_scores(docs):
        for mapping in (tf, tfidf):
            vals = list(mapping.values())
            assert min(vals) >= 0.0
            assert max(vals) <= 10.0 + 1e-12
        assert max(tf.values()) == pytest.approx(10.0)


# -------------------------------------------------------------------- store

def corpus_block(rng, n_sentences=5, n_words=7):
    from conftest import synthetic_doc_text
    return synthetic_doc_text(rng, n_sentences, n_words)


def test_build_corpus_empty_input_errors(tmp_path, word_vocab):
    src = tmp_path / "empty.txt"
    src.write_text("", encoding="utf-8")
    with pytest.raises(cp.CorpusError, match="zero accepted"):
        cp.build_corpus([src], tmp_path / "out.mtpc", word_vocab)


def test_build_corpus_missing_file_errors(tmp_path, word_vocab):
    with pytest.raises(cp.CorpusError, match="unreadable"):
        cp.build_corpus([tmp_path / "nope.txt"], tmp_path / "out.mtpc",
                        word_vocab)


def test_build_corpus_deterministic_and_up_to_date(tmp_path, word_vocab):
    rng = np.random.default_rng(11)
    text = "\n\n".join(corpus_block(rng) for _ in range(8))
    src = tmp_path / "docs.txt"
    src.write_text(text, encoding="utf-8")
    out1 = tmp_path / "a.mtpc"
    out2 = tmp_path / "b.mtpc"
    r1 = cp.build_corpus([src], out1, word_vocab)
    r2 = cp.build_corpus([src], out2, word_vocab)
    assert out1.read_bytes() == out2.read_bytes()
    assert not r1.up_to_date
    r3 = cp.build_corpus([src], out1, word_vocab)
    assert r3.up_to_date
    assert r1.stored_segments == r2.stored_segments == r3.stored_segments


def test_build_corpus_filter_counts(tmp_path, word_vocab):
    rng = np.random.default_rng(5)
    blocks = [corpus_block(rng, n_sentences=6) for _ in range(93)]
    # 3 docs with too few sentences (3), 4 docs with too few words (9)
    for _ in range(3):
        blocks.append("W01 w02 w03 w04 w05 w06 w07 w08 w09 w10. "
                      "W11 w12 w13 w14. W15 w16 w17.")
    for _ in range(4):
        blocks.append("W01 w02. W03 w04. W05 w06. W07 w08 w09.")
    rng.shuffle(blocks)
    src = tmp_path / "docs.txt"
    src.write_text("\n\n".join(blocks), encoding="utf-8")
    out = tmp_path / "out.mtpc"
    result = cp.build_corpus([src], out, word_vocab)
    assert result.blocks_parsed == 100
    assert result.rejected == 7
    assert result.accepted == 93
    assert result.stored_segments == 93  # all under the token target
    reader = cp.load_corpus(out)
    assert len(reader) == 93


def test_store_roundtrip_values(tmp_path, word_vocab):
    rng = np.random.default_rng(13)
    text = "\n\n".join(corpus_block(rng) for _ in range(6))
    src = tmp_path / "docs.txt"
    src.write_text(text, encoding="utf-8")
    out = tmp_path / "out.mtpc"
    cp.build_corpus([src], out, word_vocab)
    reader = cp.load_corpus(out)
    reader.check_vocab(word_vocab)

    # re-derive every document from the tokenizer and the brute-force
    # oracles (all six are under the token target: one segment each)
    docs = []
    for block in cp.parse_blocks(text):
        encoded = [tk.encode_sentence(s, word_vocab)
                   for s in cp.split_sentences(block)]
        docs.append([sum(column, []) for column in zip(*encoded)]
                    + [[len(ids) for ids, _, _ in encoded]])
    all_ids = [ids for ids, _, _, _ in docs]

    assert [d.id for d in reader.documents] \
        == [f"docs.txt:{k}" for k in range(len(docs))]
    for stored, (ids, starts, caps, counts) in zip(reader.documents, docs):
        assert stored.token_ids.tolist() == ids
        assert stored.sentence_offsets.tolist() \
            == np.cumsum([0] + counts).tolist()
        tf = oracles.brute_force_tf(ids)
        tfidf = oracles.brute_force_tfidf(ids, all_ids)
        for pos, t in enumerate(ids):
            assert stored.tf[pos] == pytest.approx(tf[t], abs=1e-6)
            assert stored.tfidf[pos] == pytest.approx(tfidf[t], abs=1e-6)
        for pos, (start, cap) in enumerate(zip(starts, caps)):
            assert bool(stored.flags[pos] & cp.FLAG_WORD_START) == start
            assert bool(stored.flags[pos] & cp.FLAG_CAPITALIZED) == cap


def test_interrupted_store_write_keeps_previous(tmp_path, word_vocab,
                                                fail_writes_after):
    rng = np.random.default_rng(23)
    src = tmp_path / "docs.txt"
    src.write_text("\n\n".join(corpus_block(rng) for _ in range(3)),
                   encoding="utf-8")
    out = tmp_path / "out.mtpc"
    cp.build_corpus([src], out, word_vocab)
    before = out.read_bytes()
    src.write_text("\n\n".join(corpus_block(rng) for _ in range(4)),
                   encoding="utf-8")
    fail_writes_after(40)
    with pytest.raises(OSError, match="disk full"):
        cp.build_corpus([src], out, word_vocab)
    assert out.read_bytes() == before
    assert len(cp.load_corpus(out)) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["docs.txt",
                                                          "out.mtpc"]


@pytest.mark.parametrize("which,value", [
    (1, 10**6),        # an offset beyond the document's tokens
    (-1, None),        # the last offset past the tokens (n_tok + 50)
    (2, 0),            # offsets that decrease
])
def test_store_rejects_bad_sentence_offsets(small_store, tmp_path, which,
                                            value):
    blob = bytearray(small_store.read_bytes())
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    arrays = json.loads(blob[16:16 + header_len])["arrays"]
    blocks = 16 + header_len
    n_docs = arrays[0]["shape"][0]
    (n_tok,) = struct.unpack_from("<I", blob, blocks)
    (n_sent,) = struct.unpack_from("<I", blob, blocks + 4 * n_docs)
    # document 0's offsets open the offsets block, after both count blocks
    at = blocks + 8 * n_docs + 4 * (which % (n_sent + 1))
    struct.pack_into("<I", blob, at, n_tok + 50 if value is None else value)
    bad = tmp_path / "bad.mtpc"
    bad.write_bytes(bytes(blob))
    with pytest.raises(cp.CorpusError, match=r"bad\.mtpc: document 0 "):
        cp.load_corpus(bad)


def _blocks(reader):
    """A reader's documents as the store's seven blocks, in file order."""
    docs = reader.documents
    return [[d.n_tokens for d in docs], [d.n_sentences for d in docs]] + [
        np.concatenate([getattr(d, name) for d in docs])
        for name in ("sentence_offsets", "token_ids", "tf", "tfidf", "flags")]


@pytest.mark.parametrize("which,value", [(1, 10**6), (-1, None), (2, 0)])
def test_reader_from_blocks_rejects_bad_sentence_offsets(small_reader, which,
                                                         value):
    docs = small_reader.documents
    ids = [d.id for d in docs]
    blocks = _blocks(small_reader)
    at = docs[0].n_sentences + 1 + which % (docs[1].n_sentences + 1)
    blocks[2][at] = docs[1].n_tokens + 50 if value is None else value
    with pytest.raises(cp.CorpusError, match=rf"^made: document 1 "
                                             rf"\({re.escape(ids[1])}\): "):
        cp.CorpusReader(ids, small_reader.vocab_hash, blocks, "made")

    reader = cp.CorpusReader(ids, small_reader.vocab_hash,
                             _blocks(small_reader), "made")
    reader.documents[1].sentence_offsets[which] = blocks[2][at]
    with pytest.raises(cp.CorpusError, match=rf"^made \(subset\): document 1 "
                                             rf"\({re.escape(ids[1])}\): "):
        reader.subset([0, 1])


def test_store_vocab_mismatch(tmp_path, word_vocab):
    rng = np.random.default_rng(17)
    src = tmp_path / "docs.txt"
    src.write_text(corpus_block(rng), encoding="utf-8")
    out = tmp_path / "out.mtpc"
    cp.build_corpus([src], out, word_vocab)
    reader = cp.load_corpus(out)
    other = tk.load_vocab(
        _write_other_vocab(tmp_path / "other_vocab.txt"))
    with pytest.raises(cp.CorpusError, match="hash mismatch"):
        reader.check_vocab(other)


def _write_other_vocab(path):
    lines = list(tk.SPECIAL_TOKENS) + ["different", "tokens"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# sha256 of the store build_corpus writes for the session corpus
# (synthetic_corpus_text(seed=7), the word vocabulary); pinned before the
# tokenizer stopped making one object per token, which had to keep it
GOLDEN_STORE = ("c10b55b9a249eda3891c215987701236"
                "f892724d507ce242335c1e43c51812f6")


def test_golden_store_digest(small_store):
    assert hashlib.sha256(small_store.read_bytes()).hexdigest() \
        == GOLDEN_STORE


def test_stored_documents_pass_filter_invariants(small_reader):
    for doc in small_reader.documents:
        assert doc.n_sentences >= cp.MIN_SENTENCES
        assert doc.n_tokens >= 1
        assert doc.sentence_offsets[0] == 0
        assert doc.sentence_offsets[-1] == doc.n_tokens
        assert (np.diff(doc.sentence_offsets) > 0).all()


def test_reader_arrays_hold_every_document_as_views(small_reader):
    r = small_reader
    assert r.doc_starts[0] == 0
    assert r.doc_starts[-1] == r.total_tokens == r.token_ids.size
    for i, doc in enumerate(r.documents):
        a, b = r.doc_starts[i], r.doc_starts[i + 1]
        for name in ("token_ids", "tf", "tfidf", "flags"):
            table = getattr(r, name)
            assert np.shares_memory(getattr(doc, name), table)
            assert np.array_equal(getattr(doc, name), table[a:b])
    sub = r.subset([3, 1])
    assert np.array_equal(sub.token_ids, np.concatenate(
        [r.documents[3].token_ids, r.documents[1].token_ids]))
    assert not np.shares_memory(sub.token_ids, r.token_ids)


# the edge corpus: what the session corpus never reaches. Its words split
# into several pieces (some capitalized), map to [UNK] (one past
# MAX_WORD_CHARS) and carry punctuation; one document segments, with an
# under-filter leading span merged forward (one 340-word sentence) and an
# under-filter tail merged back (four sentences of eight words); one
# document is rejected, one scores tf-idf 0 everywhere, and the second
# input file, of the same name, is found by a directory walk
EDGE_VOCAB = list(tk.SPECIAL_TOKENS) + [
    "the", "cat", "sat", "on", "mat", "a", "dog", "ran", "and", "un",
    "##aff", "##able", "##s", "run", "##ning", "don", "t", ".", ",", "!",
    "?", "'"]
EDGE_SENTENCES = [
    "The cat sat on the mat.",
    "Unaffable cats, running dogs and a mat!",
    "A dog ran on the mat and the cat sat?",
    "Don't run, unaffable zebra cat.",
    "The catz sat on a mat and ran.",
    "Running cats sat, and the dog ran.",
]


def edge_corpus_inputs(root):
    """The edge corpus's vocabulary and input paths, written under root."""
    vocab_path = root / "edge_vocab.txt"
    vocab_path.write_text("\n".join(EDGE_VOCAB) + "\n", encoding="utf-8")
    first = " ".join(EDGE_SENTENCES[k % 6] for k in range(9))
    # token counts: 1022, then two runs of nine 100s and one 123, then
    # four 3s; the greedy spans are [1022], [1023], [1023], [12]
    body = ["The " + "unaffable " * 32 + "cat sat."] * 9 \
        + ["The " + "unaffable " * 40 + "sat."]
    long_doc = " ".join(["Unaffable " + "unaffable " * 339 + "cat."]
                        + body + body
                        + ["Cat sat.", "Dog ran.", "Cat ran.", "Dog sat."])
    common = "The cat sat. Cat sat the. Sat the cat. The cat sat cat."
    second = " ".join(EDGE_SENTENCES[(3 * k + 1) % 6] for k in range(7)) \
        + " A " + "x" * (tk.MAX_WORD_CHARS + 1) + " cat sat."
    (root / "a.txt").write_text("\n\n".join(
        [first, long_doc, "Too short. Cat sat.", common]) + "\n",
        encoding="utf-8")
    walk = root / "walk"
    (walk / "sub").mkdir(parents=True)
    (walk / "sub" / "a.txt").write_text(second + "\n", encoding="utf-8")
    (walk / "notes.md").write_text("Not a corpus file.\n", encoding="utf-8")
    return tk.load_vocab(vocab_path), [root / "a.txt", walk]


# sha256 of the store build_corpus writes for the edge corpus; pinned
# before documents were held as arrays
GOLDEN_EDGE_STORE = ("f466c1f905746b2c107577021cf6e4b2"
                     "34edd05325f6ddf0e15af5efc5768943")


def test_golden_edge_store_digest(tmp_path):
    vocab, inputs = edge_corpus_inputs(tmp_path)
    out = tmp_path / "edge.mtpc"
    result = cp.build_corpus(inputs, out, vocab)
    assert (result.files_read, result.blocks_parsed, result.rejected,
            result.accepted, result.stored_segments) == (2, 5, 1, 4, 5)
    reader = cp.load_corpus(out)
    assert [d.id for d in reader.documents] == [
        "a.txt:0", "a.txt:1#0", "a.txt:1#1", "a.txt:3", "a.txt:0.1"]
    assert (reader.token_ids == vocab.unk_id).any()
    assert (reader.documents[3].tfidf == 0).all()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_EDGE_STORE
