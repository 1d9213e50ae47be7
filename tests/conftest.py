import numpy as np
import pytest

from mtpretrain import arrayfile
from mtpretrain import tensor as tz
from mtpretrain import tokenizer as tk
from mtpretrain import corpus as cp

@pytest.fixture()
def float64_mode():
    tz.set_default_dtype("float64")
    yield
    tz.set_default_dtype("float32")


@pytest.fixture()
def spy_encode_rows():
    """Install a spy on a model's encode; it returns the list of the
    (`cls_only` flag, input width) of each later call."""
    def install(model):
        seen = []
        real = model.encode

        def spy(x, mask, rng=None, cls_only=False):
            seen.append((cls_only, x.shape[1]))
            return real(x, mask, rng=rng, cls_only=cls_only)

        model.encode = spy
        return seen

    return install


#: closed word list for synthetic corpora; every word tokenizes to itself
CORPUS_WORDS = [f"w{i:02d}" for i in range(80)]
PUNCT = [".", "!", "?", ","]


def write_word_vocab(path):
    lines = list(tk.SPECIAL_TOKENS) + CORPUS_WORDS + PUNCT
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def word_vocab_path(tmp_path_factory):
    return write_word_vocab(tmp_path_factory.mktemp("vocab") / "vocab.txt")


@pytest.fixture(scope="session")
def word_vocab(word_vocab_path):
    return tk.load_vocab(word_vocab_path)


def synthetic_doc_text(rng: np.random.Generator, n_sentences: int,
                       words_per_sentence: int = 8,
                       topic_size: int = 12) -> str:
    """One document: topically coherent sentences chained by a linking word.

    Each sentence ends with the word that opens the next one, giving the
    ordering and continuation tasks a learnable signal; a per-document
    topic pool gives adjacency/TF-IDF structure.
    """
    topic = rng.choice(len(CORPUS_WORDS), size=topic_size, replace=False)
    links = rng.choice(len(CORPUS_WORDS), size=n_sentences + 1, replace=True)
    sentences = []
    for s in range(n_sentences):
        body = [CORPUS_WORDS[topic[int(rng.integers(0, topic_size))]]
                for _ in range(max(1, words_per_sentence - 2))]
        words = [CORPUS_WORDS[links[s]]] + body + [CORPUS_WORDS[links[s + 1]]]
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + ".")
    return " ".join(sentences)


def synthetic_corpus_text(seed: int, n_docs: int = 40,
                          sentences_per_doc: tuple[int, int] = (6, 12),
                          words_per_sentence: int = 8) -> str:
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n_docs):
        n_sent = int(rng.integers(sentences_per_doc[0],
                                  sentences_per_doc[1] + 1))
        blocks.append(synthetic_doc_text(rng, n_sent, words_per_sentence))
    return "\n\n".join(blocks) + "\n"


@pytest.fixture(scope="session")
def small_store(tmp_path_factory, word_vocab, word_vocab_path):
    """A ready-built synthetic corpus store shared across test modules."""
    root = tmp_path_factory.mktemp("corpus")
    text_path = root / "docs.txt"
    text_path.write_text(synthetic_corpus_text(seed=7, n_docs=40),
                         encoding="utf-8")
    store_path = root / "corpus.mtpc"
    cp.build_corpus([text_path], store_path, word_vocab)
    return store_path


@pytest.fixture(scope="session")
def small_reader(small_store):
    return cp.load_corpus(small_store)


class _FailingFile:
    """A writable file that writes `limit` bytes, then raises OSError."""

    def __init__(self, fh, limit):
        self.fh, self.limit, self.written = fh, limit, 0

    def write(self, data):
        room = self.limit - self.written
        if len(data) > room:
            self.fh.write(data[:room])
            raise OSError("disk full")
        self.written += len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture()
def fail_writes_after(monkeypatch):
    """arm(limit): the atomic writer's next files stop with OSError after
    `limit` bytes."""
    def arm(limit):
        def failing_open(file, mode="r", *args, **kwargs):
            return _FailingFile(open(file, mode, *args, **kwargs), limit)
        monkeypatch.setattr(arrayfile, "open", failing_open, raising=False)
    return arm
