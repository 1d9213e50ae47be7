"""Corpus pipeline: sentence splitting, filtering, segmentation, per-document
token statistics, and a deterministic binary store.

Input is plain UTF-8 text with one document per blank-line-separated block.
Accepted documents are split into sentence-aligned segments of roughly
``target_tokens`` WordPiece tokens, scored with per-position TF and TF-IDF
labels, and written to a self-describing little-endian store (magic "MTPC").
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .tokenizer import EncodedToken, Vocabulary, encode_sentence

STORE_MAGIC = b"MTPC"
STORE_VERSION = 1

MIN_WORDS = 10
MIN_SENTENCES = 4
DEFAULT_TARGET_TOKENS = 1024

# token flag bits stored per position
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
    """A filtered document: ordered sentences with their encoded tokens."""

    id: str
    sentences: list[str]
    encoded: list[list[EncodedToken]]
    word_count: int

    @property
    def sentence_token_counts(self) -> list[int]:
        return [len(s) for s in self.encoded]

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.encoded)

    def all_token_ids(self) -> list[int]:
        return [tok.id for sent in self.encoded for tok in sent]


@dataclass
class DocumentStats:
    tf_scaled: dict[int, float]
    tfidf_scaled: dict[int, float]


@dataclass
class CorpusStats:
    document_count: int
    document_frequency: dict[int, int] = field(default_factory=dict)


@dataclass
class StoredDocument:
    """One store record: flat token stream plus aligned per-position labels."""

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


def _ends_sentence(word: str, next_word: str | None) -> bool:
    core = word.rstrip(_TRAILING_CLOSERS)
    if not core or core[-1] not in ".!?":
        return False
    if core[-1] == ".":
        lowered = core.lower()
        if lowered in ABBREVIATIONS:
            return False
        # single-letter initials such as "J." never end a sentence
        if len(core) == 2 and core[0].isalpha() and core[0].isupper():
            return False
    if next_word is None:
        return True
    start = next_word[0]
    return start.isupper() or start.isdigit() or start in _OPENING_QUOTES


def split_sentences(text: str) -> list[str]:
    """Rule-based splitting after '.', '!' or '?' at a word boundary.

    A split additionally requires the next word to open with an uppercase
    letter, digit, or quote, and the terminator word must not be on the
    abbreviation list. Whitespace inside sentences is collapsed, so joining
    the output with single spaces reproduces the input modulo whitespace.
    """
    words = text.split()
    sentences: list[str] = []
    current: list[str] = []
    for i, word in enumerate(words):
        current.append(word)
        nxt = words[i + 1] if i + 1 < len(words) else None
        if _ends_sentence(word, nxt):
            sentences.append(" ".join(current))
            current = []
    if current:
        sentences.append(" ".join(current))
    return sentences


def filter_document(raw: RawDocument, vocab: Vocabulary) -> Document | None:
    """Apply the length gate: None for under 10 words or under 4 sentences."""
    words = raw.text.split()
    if len(words) < MIN_WORDS:
        return None
    sentences = split_sentences(raw.text)
    if len(sentences) < MIN_SENTENCES:
        return None
    encoded = [encode_sentence(s, vocab) for s in sentences]
    doc = Document(id=raw.id, sentences=sentences, encoded=encoded,
                   word_count=len(words))
    if doc.token_count == 0:
        return None
    return doc


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


def _span_passes_filter(doc: Document, span: tuple[int, int]) -> bool:
    a, b = span
    n_sentences = b - a
    n_words = sum(len(doc.sentences[i].split()) for i in range(a, b))
    return n_sentences >= MIN_SENTENCES and n_words >= MIN_WORDS


def segment_document(doc: Document, target_tokens: int = DEFAULT_TARGET_TOKENS) -> list[Document]:
    """Split a document into sentence-aligned segments near the token target.

    Greedy spans that fall below the document filter thresholds are merged
    into their preceding segment (the leading span merges forward), so every
    emitted segment re-passes the filter; a merged segment may exceed the
    token target.
    """
    spans = greedy_sentence_spans(doc.sentence_token_counts, target_tokens)
    merged = True
    while merged and len(spans) > 1:
        merged = False
        for k, span in enumerate(spans):
            if not _span_passes_filter(doc, span):
                if k == 0:
                    spans[0] = (spans[0][0], spans[1][1])
                    del spans[1]
                else:
                    spans[k - 1] = (spans[k - 1][0], span[1])
                    del spans[k]
                merged = True
                break
    out: list[Document] = []
    for k, (a, b) in enumerate(spans):
        seg_id = doc.id if len(spans) == 1 else f"{doc.id}#{k}"
        out.append(Document(
            id=seg_id,
            sentences=doc.sentences[a:b],
            encoded=doc.encoded[a:b],
            word_count=sum(len(doc.sentences[i].split()) for i in range(a, b)),
        ))
    return out


def compute_tf(doc: Document) -> dict[int, float]:
    """Scaled term frequency: 10 * count / max count, per distinct token."""
    counts: dict[int, int] = {}
    for token_id in doc.all_token_ids():
        counts[token_id] = counts.get(token_id, 0) + 1
    if not counts:
        return {}
    max_count = max(counts.values())
    return {t: 10.0 * c / max_count for t, c in counts.items()}


def compute_tfidf(doc: Document, corpus: CorpusStats) -> dict[int, float]:
    """Count * ln(N/df), max-rescaled so the document maximum is 10."""
    if corpus.document_count < 1:
        raise CorpusError("corpus stats cover zero documents")
    counts: dict[int, int] = {}
    for token_id in doc.all_token_ids():
        counts[token_id] = counts.get(token_id, 0) + 1
    raw = {
        t: c * math.log(corpus.document_count
                        / corpus.document_frequency.get(t, 1))
        for t, c in counts.items()
    }
    if not raw:
        return {}
    max_raw = max(raw.values())
    if max_raw <= 0.0:
        return {t: 0.0 for t in raw}
    return {t: 10.0 * v / max_raw for t, v in raw.items()}


def document_stats(doc: Document, corpus: CorpusStats) -> DocumentStats:
    return DocumentStats(tf_scaled=compute_tf(doc),
                         tfidf_scaled=compute_tfidf(doc, corpus))


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
    stats: CorpusStats
    files_read: int
    blocks_parsed: int
    rejected: int
    accepted: int
    stored_segments: int
    total_tokens: int
    up_to_date: bool


def _encode_record(doc: Document, stats: DocumentStats) -> bytes:
    ids = np.array(doc.all_token_ids(), dtype="<u4")
    offsets = np.zeros(len(doc.encoded) + 1, dtype="<u4")
    np.cumsum([len(s) for s in doc.encoded], out=offsets[1:])
    tf = np.array([stats.tf_scaled[t] for t in ids], dtype="<f4")
    tfidf = np.array([stats.tfidf_scaled[t] for t in ids], dtype="<f4")
    flags = np.zeros(len(ids), dtype=np.uint8)
    k = 0
    for sent in doc.encoded:
        for tok in sent:
            f = FLAG_WORD_START if tok.is_word_start else 0
            if tok.source_capitalized:
                f |= FLAG_CAPITALIZED
            flags[k] = f
            k += 1
    id_bytes = doc.id.encode("utf-8")
    payload = b"".join([
        struct.pack("<H", len(id_bytes)), id_bytes,
        struct.pack("<I", len(doc.encoded)),
        struct.pack("<I", len(ids)),
        offsets.tobytes(), ids.tobytes(),
        tf.tobytes(), tfidf.tobytes(), flags.tobytes(),
    ])
    return struct.pack("<I", len(payload)) + payload


def build_corpus(input_paths, output_path, vocab: Vocabulary,
                 target_tokens: int = DEFAULT_TARGET_TOKENS) -> BuildResult:
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
        segments.extend(segment_document(doc, target_tokens))
    if not segments:
        raise CorpusError("zero accepted documents")

    stats = CorpusStats(document_count=len(segments))
    for seg in segments:
        for token_id in set(seg.all_token_ids()):
            stats.document_frequency[token_id] = \
                stats.document_frequency.get(token_id, 0) + 1

    chunks = [STORE_MAGIC,
              struct.pack("<I", STORE_VERSION),
              struct.pack("<Q", len(segments)),
              vocab.content_hash]
    total_tokens = 0
    for seg in segments:
        total_tokens += seg.token_count
        chunks.append(_encode_record(seg, document_stats(seg, stats)))
    blob = b"".join(chunks)

    output_path = Path(output_path)
    up_to_date = output_path.exists() and output_path.read_bytes() == blob
    if not up_to_date:
        output_path.write_bytes(blob)
    return BuildResult(stats=stats, files_read=len(files),
                       blocks_parsed=len(raw_docs), rejected=rejected,
                       accepted=accepted, stored_segments=len(segments),
                       total_tokens=total_tokens, up_to_date=up_to_date)


class CorpusReader:
    """In-memory view of a corpus store.

    The token ids, TF and TF-IDF labels and flags of all documents sit in
    four reader-wide arrays, one document after another; document i starts
    at ``doc_starts[i]``, and its own arrays are views into these.
    """

    def __init__(self, documents: list[StoredDocument], vocab_hash: bytes):
        if not documents:
            raise CorpusError("corpus store holds no documents")
        self.doc_starts = np.zeros(len(documents) + 1, dtype=np.int64)
        np.cumsum([d.n_tokens for d in documents], out=self.doc_starts[1:])
        self.token_ids = np.concatenate([d.token_ids for d in documents],
                                        dtype=np.int32)
        self.tf = np.concatenate([d.tf for d in documents], dtype=np.float32)
        self.tfidf = np.concatenate([d.tfidf for d in documents],
                                    dtype=np.float32)
        self.flags = np.concatenate([d.flags for d in documents],
                                    dtype=np.uint8)
        bounds = zip(self.doc_starts[:-1].tolist(), self.doc_starts[1:].tolist())
        self.documents = [
            replace(d, token_ids=self.token_ids[a:b], tf=self.tf[a:b],
                    tfidf=self.tfidf[a:b], flags=self.flags[a:b])
            for d, (a, b) in zip(documents, bounds)]
        self.vocab_hash = vocab_hash

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
        return CorpusReader([self.documents[i] for i in indices],
                            self.vocab_hash)


def load_corpus(path) -> CorpusReader:
    """Read a store; any short or garbled file raises CorpusError."""
    blob = Path(path).read_bytes()
    if blob[:4] != STORE_MAGIC:
        raise CorpusError(f"{path} is not a corpus store (bad magic)")
    if len(blob) < 48:
        raise CorpusError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != STORE_VERSION:
        raise CorpusError(f"{path}: unsupported store version {version}")
    (doc_count,) = struct.unpack_from("<Q", blob, 8)
    vocab_hash = blob[16:48]
    pos = 48
    documents: list[StoredDocument] = []
    for _ in range(doc_count):
        if pos + 4 > len(blob):
            raise CorpusError(f"{path}: truncated before record {len(documents)}")
        (rec_len,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if pos + rec_len > len(blob):
            raise CorpusError(f"{path}: truncated inside record {len(documents)}")
        try:
            documents.append(_parse_record(memoryview(blob)[pos:pos + rec_len]))
        except (ValueError, struct.error) as exc:
            raise CorpusError(
                f"{path}: corrupt record {len(documents)} ({exc})") from None
        pos += rec_len
    if pos != len(blob):
        raise CorpusError(f"{path}: trailing bytes after final record")
    return CorpusReader(documents, vocab_hash)


def _parse_record(rec: memoryview) -> StoredDocument:
    (id_len,) = struct.unpack_from("<H", rec, 0)
    off = 2
    doc_id = bytes(rec[off:off + id_len]).decode("utf-8")
    off += id_len
    n_sent, n_tok = struct.unpack_from("<II", rec, off)
    off += 8
    if off + 4 * (n_sent + 1) + 13 * n_tok != len(rec):
        raise CorpusError(f"document {doc_id}: record length does not match "
                          f"its counts")
    offsets = np.frombuffer(rec, dtype="<u4", count=n_sent + 1,
                            offset=off).astype(np.int32)
    if n_sent < 1 or offsets[0] != 0 or offsets[-1] != n_tok \
            or (np.diff(offsets) < 0).any():
        raise CorpusError(f"document {doc_id}: sentence offsets do not run "
                          f"from 0 up to its {n_tok} tokens")
    off += 4 * (n_sent + 1)
    # views into the file's bytes: CorpusReader copies them into its arrays
    ids = np.frombuffer(rec, dtype="<u4", count=n_tok, offset=off)
    off += 4 * n_tok
    tf = np.frombuffer(rec, dtype="<f4", count=n_tok, offset=off)
    off += 4 * n_tok
    tfidf = np.frombuffer(rec, dtype="<f4", count=n_tok, offset=off)
    off += 4 * n_tok
    flags = np.frombuffer(rec, dtype=np.uint8, count=n_tok, offset=off)
    return StoredDocument(id=doc_id, token_ids=ids, sentence_offsets=offsets,
                          tf=tf, tfidf=tfidf, flags=flags)
