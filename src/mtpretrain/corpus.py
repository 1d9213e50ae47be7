"""Corpus pipeline: sentence splitting, filtering, segmentation, per-segment
token statistics, and a deterministic binary store.

Input is plain UTF-8 text with one document per blank-line-separated block.
Accepted documents are split into sentence-aligned segments of roughly
``DEFAULT_TARGET_TOKENS`` WordPiece tokens, scored with per-position TF and
TF-IDF labels, and written to a columnar store (magic "MTPC") in the layout
of ``arrayfile``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import arrayfile
from .tokenizer import Vocabulary, encode_sentence

STORE_MAGIC = b"MTPC"
STORE_VERSION = 2

# the store's blocks: per-document token and sentence counts, every
# document's sentence offsets (S+1 each, from 0 to its token count), then
# the token ids, tf, tf-idf and flags of all documents, one after another
_STORE_DTYPES = ["<u4", "<u4", "<u4", "<u4", "<f4", "<f4", "|u1"]

MIN_WORDS = 10
MIN_SENTENCES = 4
DEFAULT_TARGET_TOKENS = 1024

# token flag bits stored per position, from encode_sentence's two marks
FLAG_WORD_START = 1
FLAG_CAPITALIZED = 2

# Words (lowercased, terminal period included) that do not end a sentence.
# The list is fixed; README documents it as part of the splitting rule.
ABBREVIATIONS = frozenset({
    "mr.", "mrs.", "ms.", "dr.", "prof.", "rev.", "gen.", "sen.", "rep.",
    "sr.", "jr.", "st.", "mt.", "capt.", "col.", "sgt.",
    "vs.", "etc.", "e.g.", "i.e.", "cf.", "al.",
    "fig.", "no.", "vol.", "ch.", "pp.", "ed.",
    "inc.", "ltd.", "co.", "corp.", "dept.", "est.", "approx.",
    "a.m.", "p.m.", "u.s.", "u.k.", "d.c.",
    "jan.", "feb.", "mar.", "apr.", "jun.", "jul.", "aug.", "sep.",
    "sept.", "oct.", "nov.", "dec.",
})

_TRAILING_CLOSERS = "\"')]}’”»"
_OPENING_QUOTES = "\"'([{‘“«"


class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class RawDocument:
    id: str
    text: str


@dataclass
class Document:
    """A filtered document, or one of its segments, as arrays: the token
    ids and the store's flag bytes of its sentences, one after another,
    the sentence offsets (S+1, from 0 to its token count) and each
    sentence's whitespace word count."""

    id: str
    token_ids: np.ndarray         # int64 (T,)
    flags: np.ndarray             # uint8 (T,)
    sentence_offsets: np.ndarray  # int64 (S+1,)
    word_counts: np.ndarray       # int64 (S,)


@dataclass
class StoredDocument:
    """One stored document: token stream plus aligned per-position labels."""

    id: str
    token_ids: np.ndarray        # int32 (T,)
    sentence_offsets: np.ndarray  # int32 (S+1,), offsets[0]=0, offsets[-1]=T
    tf: np.ndarray               # float32 (T,)
    tfidf: np.ndarray            # float32 (T,)
    flags: np.ndarray            # uint8 (T,)

    @property
    def n_tokens(self) -> int:
        return int(self.token_ids.shape[0])

    @property
    def n_sentences(self) -> int:
        return int(self.sentence_offsets.shape[0]) - 1


# a terminator that ends its word, with the word's trailing closers: in
# text whose words are joined by single spaces, the only places a sentence
# can end
_TERMINATOR = re.compile(rf"[.!?][{re.escape(_TRAILING_CLOSERS)}]*(?![^ ])")


def split_sentences(text: str) -> list[str]:
    """Rule-based splitting after '.', '!' or '?' at a word boundary.

    A split additionally requires the next word to open with an uppercase
    letter, digit, or quote, and the terminator word must not be on the
    abbreviation list. Whitespace inside sentences is collapsed, so joining
    the output with single spaces reproduces the input modulo whitespace.
    """
    text = " ".join(text.split())
    sentences: list[str] = []
    start = 0
    for match in _TERMINATOR.finditer(text):
        end = match.end()
        after = text[end + 1:end + 2]  # the next word's first character
        if after and not (after.isupper() or after.isdigit()
                          or after in _OPENING_QUOTES):
            continue
        stop = match.start() + 1
        if text[stop - 1] == ".":
            core = text[text.rfind(" ", 0, stop) + 1:stop]
            if core.lower() in ABBREVIATIONS:
                continue
            # single-letter initials such as "J." never end a sentence
            if len(core) == 2 and core[0].isalpha() and core[0].isupper():
                continue
        sentences.append(text[start:end])
        start = end + 1
    if start < len(text):
        sentences.append(text[start:])
    return sentences


def filter_document(raw: RawDocument, vocab: Vocabulary) -> Document | None:
    """Apply the length gate: None for under 10 words or under 4 sentences."""
    sentences = split_sentences(raw.text)
    # a sentence is whole words joined by single spaces
    word_counts = np.array([s.count(" ") + 1 for s in sentences], np.int64)
    if word_counts.sum() < MIN_WORDS or len(sentences) < MIN_SENTENCES:
        return None
    ids, word_starts, capitalized = zip(
        *[encode_sentence(s, vocab) for s in sentences])
    offsets = np.cumsum([0] + [len(s) for s in ids])
    if offsets[-1] == 0:
        return None

    def flat(column, dtype):
        return np.fromiter(chain.from_iterable(column), dtype, offsets[-1])

    flags = FLAG_WORD_START * flat(word_starts, np.uint8) \
        | FLAG_CAPITALIZED * flat(capitalized, np.uint8)
    return Document(raw.id, flat(ids, np.int64), flags, offsets, word_counts)


def greedy_sentence_spans(token_counts: list[int], target_tokens: int) -> list[tuple[int, int]]:
    """Greedy fill: add whole sentences until the next one would overflow.

    Returns [start, end) sentence-index spans. A single sentence larger than
    the target occupies a span of its own.
    """
    spans: list[tuple[int, int]] = []
    start = 0
    running = 0
    for i, count in enumerate(token_counts):
        if i > start and running + count > target_tokens:
            spans.append((start, i))
            start = i
            running = 0
        running += count
    if start < len(token_counts):
        spans.append((start, len(token_counts)))
    return spans


def segment_document(doc: Document, target_tokens: int = DEFAULT_TARGET_TOKENS) -> list[Document]:
    """Split a document into sentence-aligned segments near the token target.

    Greedy spans that fall below the document filter thresholds are merged
    into their preceding segment (the leading span merges forward), so every
    emitted segment re-passes the filter; a merged segment may exceed the
    token target.
    """
    offsets, words = doc.sentence_offsets, doc.word_counts
    spans = greedy_sentence_spans(np.diff(offsets).tolist(), target_tokens)
    cuts = [a for a, _ in spans] + [len(words)]
    # span k runs from cuts[k] to cuts[k + 1]. Deleting cuts[k] folds span
    # k into the passing span before it, which still passes; deleting
    # cuts[1] folds the leading span into the next. The scan goes on at k.
    k = 0
    while k < len(cuts) - 1 and len(cuts) > 2:
        a, b = cuts[k], cuts[k + 1]
        if b - a >= MIN_SENTENCES and words[a:b].sum() >= MIN_WORDS:
            k += 1
        else:
            del cuts[max(k, 1)]
    if len(cuts) == 2:
        return [doc]
    return [Document(f"{doc.id}#{k}", doc.token_ids[offsets[a]:offsets[b]],
                     doc.flags[offsets[a]:offsets[b]],
                     offsets[a:b + 1] - offsets[a], words[a:b])
            for k, (a, b) in enumerate(zip(cuts, cuts[1:]))]


def score_segments(token_ids: np.ndarray, lengths) \
        -> "tuple[np.ndarray, np.ndarray]":
    """Every token's tf and tf-idf label, as float64, for segments of the
    given lengths (each at least 1) stored one after another.

    Over a token's count c in its segment: tf is 10 * c / the segment's
    largest count, and tf-idf is c * ln(N/df), rescaled so that the
    segment's largest value is 10 (all 0 when that is 0), where N is the
    segment count and df the number of segments holding the token.
    """
    n = len(lengths)
    segment = np.repeat(np.arange(n), lengths)
    stride = int(token_ids.max()) + 1
    pairs, inverse, counts = np.unique(segment * stride + token_ids,
                                       return_inverse=True,
                                       return_counts=True)
    pair_segment, pair_token = np.divmod(pairs, stride)
    firsts = np.searchsorted(pair_segment, np.arange(n))
    df = np.bincount(pair_token)[pair_token]
    # math.log, once per distinct df: numpy's log may differ from it in
    # the last bit, and the store's bytes must not move
    dfs = np.unique(df)
    idf = np.array([math.log(n / d) for d in dfs.tolist()])
    raw = counts * idf[np.searchsorted(dfs, df)]
    tf = 10.0 * counts / np.maximum.reduceat(counts, firsts)[pair_segment]
    top = np.maximum.reduceat(raw, firsts)
    tfidf = 10.0 * raw / np.where(top > 0.0, top, 1.0)[pair_segment]
    return tf[inverse], tfidf[inverse]


def parse_blocks(text: str) -> list[str]:
    """Blank-line-separated document blocks."""
    blocks: list[str] = []
    current: list[str] = []
    for line in text.splitlines():
        if line.strip():
            current.append(line)
        elif current:
            blocks.append("\n".join(current))
            current = []
    if current:
        blocks.append("\n".join(current))
    return blocks


def _iter_input_files(input_paths) -> list[Path]:
    if isinstance(input_paths, (str, Path)):
        input_paths = [input_paths]
    files: list[Path] = []
    for p in input_paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(q for q in p.rglob("*")
                                if q.is_file() and q.suffix == ".txt"))
        else:
            files.append(p)
    return files


@dataclass
class BuildResult:
    files_read: int
    blocks_parsed: int
    rejected: int
    accepted: int
    stored_segments: int
    total_tokens: int
    up_to_date: bool


def build_corpus(input_paths, output_path, vocab: Vocabulary) -> BuildResult:
    """Filter, segment, score, and serialize every input document.

    Re-running on identical inputs produces byte-identical output; if the
    store already holds those bytes it is left untouched.
    """
    files = _iter_input_files(input_paths)
    if not files:
        raise CorpusError("no input files found")
    raw_docs: list[RawDocument] = []
    seen_ids: dict[str, int] = {}
    for path in files:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise CorpusError(f"unreadable input file {path}: {exc}") from exc
        for k, block in enumerate(parse_blocks(text)):
            doc_id = f"{Path(path).name}:{k}"
            if doc_id in seen_ids:
                seen_ids[doc_id] += 1
                doc_id = f"{doc_id}.{seen_ids[doc_id]}"
            else:
                seen_ids[doc_id] = 0
            raw_docs.append(RawDocument(id=doc_id, text=block))

    segments: list[Document] = []
    rejected = 0
    accepted = 0
    for raw in raw_docs:
        doc = filter_document(raw, vocab)
        if doc is None:
            rejected += 1
            continue
        accepted += 1
        segments.extend(segment_document(doc))
    if not segments:
        raise CorpusError("zero accepted documents")

    lengths = [len(seg.token_ids) for seg in segments]
    offsets, ids, flags = (np.concatenate([getattr(seg, name)
                                           for seg in segments])
                           for name in ("sentence_offsets", "token_ids",
                                        "flags"))
    tf, tfidf = score_segments(ids, lengths)
    blocks = [np.asarray(column).astype(dtype) for column, dtype in zip(
        [lengths, [len(seg.word_counts) for seg in segments], offsets, ids,
         tf, tfidf, flags], _STORE_DTYPES)]
    blob = arrayfile.pack(
        STORE_MAGIC, STORE_VERSION,
        {"vocab_hash": vocab.content_hash.hex(),
         "doc_ids": [seg.id for seg in segments]}, blocks)
    total_tokens = len(blocks[3])

    output_path = Path(output_path)
    up_to_date = output_path.exists() and output_path.read_bytes() == blob
    if not up_to_date:
        arrayfile.write_atomic(output_path, blob)
    return BuildResult(files_read=len(files), blocks_parsed=len(raw_docs),
                       rejected=rejected, accepted=accepted,
                       stored_segments=len(segments),
                       total_tokens=total_tokens, up_to_date=up_to_date)


class CorpusReader:
    """In-memory view of a corpus store.

    Built from the store's seven blocks in file order (see _STORE_DTYPES),
    which it validates; ``source`` names them in every error. The token
    ids, TF and TF-IDF labels and flags of all documents sit in four
    reader-wide arrays, one document after another; document i starts at
    ``doc_starts[i]``, and its own arrays are views into these.
    """

    def __init__(self, doc_ids: "list[str]", vocab_hash: bytes, blocks,
                 source):
        blocks = [np.asarray(b) for b in blocks]
        n_tok, n_sent, offsets, ids, tf, tfidf, flags = blocks
        sizes = n_sent.astype(np.int64) + 1
        n_docs, n_offsets = len(doc_ids), int(sizes.sum())
        if not doc_ids or [a.shape for a in blocks] \
                != [(n_docs,)] * 2 + [(n_offsets,)] \
                + [(int(n_tok.sum(dtype=np.int64)),)] * 4:
            raise CorpusError(f"{source}: block sizes do not match the "
                              f"document counts")
        ends = np.cumsum(sizes)
        owner = np.repeat(np.arange(n_docs), sizes)
        offsets = offsets.astype(np.int64)
        bad = (sizes < 2) | (offsets[ends - sizes] != 0) \
            | (offsets[ends - 1] != n_tok)
        bad[owner[1:][(np.diff(offsets) < 0)
                      & (owner[1:] == owner[:-1])]] = True
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise CorpusError(f"{source}: document {i} ({doc_ids[i]}): "
                              f"sentence offsets do not run from 0 up to "
                              f"its {n_tok[i]} tokens")
        self.doc_starts = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(n_tok, dtype=np.int64, out=self.doc_starts[1:])
        self.token_ids = ids.astype(np.int32)
        self.tf = np.asarray(tf, dtype=np.float32)
        self.tfidf = np.asarray(tfidf, dtype=np.float32)
        self.flags = np.asarray(flags, dtype=np.uint8)
        offsets = offsets.astype(np.int32)
        tok, cut = self.doc_starts.tolist(), [0] + ends.tolist()
        self.documents = [StoredDocument(
            doc_id, self.token_ids[tok[i]:tok[i + 1]],
            offsets[cut[i]:cut[i + 1]], self.tf[tok[i]:tok[i + 1]],
            self.tfidf[tok[i]:tok[i + 1]], self.flags[tok[i]:tok[i + 1]])
            for i, doc_id in enumerate(doc_ids)]
        self.vocab_hash = vocab_hash
        self.source = source

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def total_tokens(self) -> int:
        return int(self.doc_starts[-1])

    def check_vocab(self, vocab: Vocabulary) -> None:
        if vocab.content_hash != self.vocab_hash:
            raise CorpusError(
                "vocabulary hash mismatch: the store was built with a "
                "different vocabulary file")

    def subset(self, indices) -> "CorpusReader":
        """A reader over a document subset (e.g. a held-out split)."""
        docs = [self.documents[i] for i in indices]
        return CorpusReader(
            [d.id for d in docs], self.vocab_hash,
            [[d.n_tokens for d in docs], [d.n_sentences for d in docs]]
            + [np.concatenate([getattr(d, name) for d in docs])
               for name in ("sentence_offsets", "token_ids", "tf", "tfidf",
                            "flags")],
            f"{self.source} (subset)")


def load_corpus(path) -> CorpusReader:
    """Read a store; any short or garbled file raises CorpusError."""
    header, blocks = arrayfile.read(path, STORE_MAGIC, STORE_VERSION,
                                    CorpusError)
    doc_ids, vocab_hash = header.get("doc_ids"), header.get("vocab_hash")
    if not (isinstance(vocab_hash, str)
            and re.fullmatch("[0-9a-f]{64}", vocab_hash)
            and isinstance(doc_ids, list)
            and all(isinstance(d, str) for d in doc_ids)
            and [a.dtype.str for a in blocks] == _STORE_DTYPES):
        raise CorpusError(f"{path}: header or blocks do not describe a store")
    return CorpusReader(doc_ids, bytes.fromhex(vocab_hash), blocks, path)
