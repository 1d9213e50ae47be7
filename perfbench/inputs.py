"""Seeded benchmark inputs: a chained-sentence corpus and its word vocabulary.

Every word of the closed word list is a vocabulary entry of its own, so the
benchmark knows the token id of every word it wrote without calling the
tokenizer. That lets the correctness checks compare assembled batches with
the benchmark's own copy of the documents.

Each document draws a topic pool from the word list. A sentence opens with
a link word, holds words from the topic pool and closes with the next
sentence's link word, followed by a period. The link words chain adjacent
sentences, which gives the ordering tasks a learnable signal; the topic
pools give tf-idf its structure; the capitalized first word of a sentence
gives `cap` its labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
PUNCT = (".", "!", "?", ",")

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class CorpusShape:
    """The make-up of one workload's generated corpus."""

    n_words: int                 # size of the closed word list
    n_docs: int
    sentences: "tuple[int, int]"  # inclusive range of sentences per document
    words_per_sentence: int       # link + body + link
    topic_size: int
    varied_words: bool           # syllable words of 1-4 syllables, else wNN


def word_list(n_words: int, varied: bool) -> "list[str]":
    """The closed word list. It does not depend on the workload seed."""
    if not varied:
        width = max(2, len(str(n_words - 1)))
        return [f"w{i:0{width}d}" for i in range(n_words)]
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    rng = np.random.default_rng(20201004)
    words: "list[str]" = []
    seen = set()
    while len(words) < n_words:
        n_syl = int(rng.integers(1, 5))
        word = "".join(syllables[int(k)]
                       for k in rng.integers(len(syllables), size=n_syl))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def vocab_lines(words: "list[str]") -> "list[str]":
    return list(SPECIAL_TOKENS) + list(words) + list(PUNCT)


def generate_documents(seed: int, shape: CorpusShape,
                       words: "list[str]") -> "list[list[list[int]]]":
    """Documents as lists of sentences, each a list of word indices.

    A word index w stands for words[w]; -1 stands for the closing period.
    """
    rng = np.random.default_rng([seed, 5])
    lo, hi = shape.sentences
    docs = []
    for _ in range(shape.n_docs):
        n_sent = int(rng.integers(lo, hi + 1))
        topic = rng.choice(len(words), size=shape.topic_size, replace=False)
        links = rng.choice(len(words), size=n_sent + 1, replace=True)
        body_len = max(1, shape.words_per_sentence - 2)
        doc = []
        for s in range(n_sent):
            body = topic[rng.integers(0, shape.topic_size, size=body_len)]
            doc.append([int(links[s])] + [int(w) for w in body]
                       + [int(links[s + 1]), -1])
        docs.append(doc)
    return docs


def document_text(doc, words: "list[str]") -> str:
    sentences = []
    for sent in doc:
        tokens = [words[w] for w in sent[:-1]]
        tokens[0] = tokens[0].capitalize()
        sentences.append(" ".join(tokens) + ".")
    return " ".join(sentences)


@dataclass
class GeneratedInputs:
    text_path: Path
    vocab_path: Path
    docs: "list[list[list[int]]]"
    words: "list[str]"

    def doc_token_ids(self) -> "list[np.ndarray]":
        """Each document's token ids, worked out from the vocabulary layout."""
        base = len(SPECIAL_TOKENS)
        period = base + len(self.words) + PUNCT.index(".")
        return [np.array([period if w < 0 else base + w
                          for sent in doc for w in sent], dtype=np.int64)
                for doc in self.docs]

    def capitalized_ids(self) -> "list[np.ndarray]":
        """Per document, 1 where the source word was capitalized."""
        return [np.array([int(k == 0) for sent in doc
                          for k in range(len(sent))], dtype=np.int64)
                for doc in self.docs]


def write_inputs(workdir: Path, seed: int, shape: CorpusShape) -> GeneratedInputs:
    """Write the corpus text and the vocabulary file into workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    words = word_list(shape.n_words, shape.varied_words)
    docs = generate_documents(seed, shape, words)
    text_path = workdir / "docs.txt"
    text_path.write_text(
        "\n\n".join(document_text(d, words) for d in docs) + "\n",
        encoding="utf-8")
    vocab_path = workdir / "vocab.txt"
    vocab_path.write_text("\n".join(vocab_lines(words)) + "\n",
                          encoding="utf-8")
    return GeneratedInputs(text_path, vocab_path, docs, words)
