"""Uncased WordPiece tokenizer over a fixed vocabulary file.

The vocabulary is plain UTF-8 text, one token per line, line number = id.
Encoding a sentence gives its token ids plus two 0/1 marks per token, which
the corpus store packs into its flags: whether the piece starts a source
word, and whether that source word was capitalized. The token-length task
reads each piece's character count from the vocabulary
(``Vocabulary.piece_char_lengths``).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

PAD = "[PAD]"
UNK = "[UNK]"
CLS = "[CLS]"
SEP = "[SEP]"
MASK = "[MASK]"

SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)

#: words longer than this are mapped straight to [UNK]
MAX_WORD_CHARS = 100


class VocabError(ValueError):
    pass


class Vocabulary:
    """Immutable token <-> id mapping with the five special tokens."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = list(tokens)
        self.token_to_id: dict[str, int] = {}
        for i, tok in enumerate(tokens):
            if tok in self.token_to_id:
                raise VocabError(f"duplicate token {tok!r} at lines "
                                 f"{self.token_to_id[tok]} and {i}")
            self.token_to_id[tok] = i
        for special in SPECIAL_TOKENS:
            if special not in self.token_to_id:
                raise VocabError(f"vocabulary is missing special token {special}")
        if self.token_to_id[PAD] != 0:
            raise VocabError(f"{PAD} must be the first vocabulary line, "
                             f"found at {self.token_to_id[PAD]}")
        self.pad_id = self.token_to_id[PAD]
        self.unk_id = self.token_to_id[UNK]
        self.cls_id = self.token_to_id[CLS]
        self.sep_id = self.token_to_id[SEP]
        self.mask_id = self.token_to_id[MASK]
        self.special_ids = frozenset(self.token_to_id[s] for s in SPECIAL_TOKENS)
        # piece character counts (## stripped), used as regression labels
        self.piece_char_lengths = np.array(
            [max(1, len(t[2:]) if t.startswith("##") else len(t))
             for t in tokens],
            dtype=np.int32,
        )
        # ids that may be sampled as "random vocab token" replacements
        self.sampleable_ids = np.array(
            [i for i in range(len(tokens)) if i not in self.special_ids],
            dtype=np.int64,
        )
        # canonical digest over the token list; corpus stores and trainers
        # use it to detect vocabulary mismatches
        self.content_hash = hashlib.sha256(
            "\n".join(self.id_to_token).encode("utf-8")).digest()
        # lowercased word -> its WordPiece ids; the token list never changes
        self._piece_ids: dict[str, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def piece_ids(self, word: str) -> "tuple[int, ...]":
        """tokenize_word's split of a lowercased word, as ids (memoised)."""
        ids = self._piece_ids.get(word)
        if ids is None:
            ids = tuple(self.token_to_id[p] for p in tokenize_word(word, self))
            self._piece_ids[word] = ids
        return ids

    def random_regular_id(self, rng: np.random.Generator,
                          size: int) -> np.ndarray:
        """size uniform draws over the non-special vocabulary ids."""
        n = len(self.sampleable_ids)
        if n == 0 and size:
            raise VocabError("vocabulary has no non-special tokens to sample")
        return self.sampleable_ids[rng.integers(0, n, size=size)]


def load_vocab(path) -> Vocabulary:
    """Load a one-token-per-line vocabulary file; line index = token id."""
    with open(path, encoding="utf-8") as fh:
        tokens = [line.rstrip("\n") for line in fh]
    while tokens and tokens[-1] == "":
        tokens.pop()
    if any(t == "" for t in tokens):
        raise VocabError(f"blank vocabulary line in {path}")
    return Vocabulary(tokens)


# a run of alphanumerics or one other non-space character; "\w" is
# str.isalnum() plus "_", so "[^\W_]" is exactly str.isalnum()
_WORD = re.compile(r"[^\W_]+|\S")


def basic_tokenize(text: str) -> list[str]:
    """Whitespace split plus punctuation isolation, casing preserved."""
    return _WORD.findall(text)


def tokenize_word(word: str, vocab: Vocabulary) -> list[str]:
    """Greedy longest-match-first WordPiece split of one lowercased word.

    The first piece is looked up bare, continuations with a "##" prefix.
    Words with no full decomposition (or longer than MAX_WORD_CHARS)
    collapse to a single [UNK].
    """
    if not word:
        return []
    if len(word) > MAX_WORD_CHARS:
        return [UNK]
    pieces: list[str] = []
    start = 0
    n = len(word)
    while start < n:
        end = n
        found = None
        while end > start:
            candidate = word[start:end]
            if start > 0:
                candidate = "##" + candidate
            if candidate in vocab.token_to_id:
                found = candidate
                break
            end -= 1
        if found is None:
            return [UNK]
        pieces.append(found)
        start = end
    return pieces


def encode_sentence(text: str, vocab: Vocabulary) \
        -> "tuple[list[int], list[int], list[int]]":
    """Encode raw text to WordPiece ids and two 0/1 marks per token.

    Returns (ids, word_starts, capitalized), three int lists of one length.
    Capitalization is read before lowercasing and marked on the first
    subword of each source word only; continuations carry 0.
    """
    ids: list[int] = []
    word_starts: list[int] = []
    capitalized: list[int] = []
    for word in basic_tokenize(text):
        pieces = vocab.piece_ids(word.lower())
        ids += pieces
        rest = [0] * (len(pieces) - 1)
        word_starts += [1] + rest
        capitalized += [int(word[0].isupper())] + rest
    return ids, word_starts, capitalized
