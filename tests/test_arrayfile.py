"""The one file layout, through both of its formats: the corpus store and
the checkpoint. Every malformed file must raise the format's typed error
naming the file."""

import json
import struct

import numpy as np
import pytest

from mtpretrain import arrayfile
from mtpretrain import corpus as cp
from mtpretrain import tensor as tz
from mtpretrain.tensor import Tensor

from conftest import synthetic_doc_text


def _store(tmp_path, word_vocab):
    rng = np.random.default_rng(19)
    src = tmp_path / "docs.txt"
    text = "\n\n".join(synthetic_doc_text(rng, 5, 7) for _ in range(2))
    src.write_text(text, encoding="utf-8")
    out = tmp_path / "full.mtpc"
    cp.build_corpus([src], out, word_vocab)
    assert len(cp.load_corpus(out).documents) == 2
    return out, cp.load_corpus, cp.CorpusError


def _checkpoint(tmp_path, word_vocab):
    params = {
        "w.weight": Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True),
        "w.bias": Tensor(np.ones(3), requires_grad=True),
    }
    out = tmp_path / "full.mtpt"
    tz.save_checkpoint(out, params, tz.Adam(params), config={"layers": 1},
                       step=0, tokens_seen=0)
    assert set(tz.load_checkpoint(out).adam_m) == set(params)
    return out, tz.load_checkpoint, tz.CheckpointError


@pytest.fixture(params=[_store, _checkpoint], ids=["store", "checkpoint"])
def fmt(request, tmp_path, word_vocab):
    """(a valid file, its loader, its error class), for each format."""
    return request.param(tmp_path, word_vocab)


def _rewrite_header(blob: bytes, edit) -> bytes:
    """The file with its JSON header replaced by edit(header) (bytes are
    written as they are) and the header length field kept in step."""
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = edit(json.loads(blob[16:16 + header_len]))
    if not isinstance(header, bytes):
        header = json.dumps(header).encode("utf-8")
    return (blob[:8] + struct.pack("<Q", len(header)) + header
            + blob[16 + header_len:])


def test_every_prefix_and_byte_flip_loads_or_raises_typed_error(fmt,
                                                                tmp_path):
    path, load, error = fmt
    blob = path.read_bytes()
    cut = tmp_path / ("cut" + path.suffix)
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(error, match=cut.name):
            load(cut)
    # a flipped byte either still parses (no checksum yet) or is refused
    for i in range(len(blob)):
        for bits in (0x01, 0xFF):
            cut.write_bytes(blob[:i] + bytes([blob[i] ^ bits]) + blob[i + 1:])
            try:
                load(cut)
            except error as exc:
                assert cut.name in str(exc)


def _dtype(h):
    h["arrays"][0]["dtype"] = "<f8"
    return h


def _overflow(h):
    # each dimension is under the file size, but the block's byte count
    # is far past 2**63
    h["arrays"][0]["shape"] = [64] * 12
    return h


@pytest.mark.parametrize("edit, message", [
    (_dtype, "array 0 needs a dtype"),
    (_overflow, "array 0 runs past the end"),
    (lambda h: b"[1, 2, 3]", "header is not a JSON object"),
    (lambda h: {"arrays": h["arrays"], "x": [1] * 3}, None),
], ids=["dtype", "overflow", "not-object", "no-caller-header"])
def test_malformed_layout_raises_typed_error(fmt, tmp_path, edit, message):
    path, load, error = fmt
    bad = tmp_path / ("bad" + path.suffix)
    bad.write_bytes(_rewrite_header(path.read_bytes(), edit))
    with pytest.raises(error, match=f"{bad.name}: {message or ''}"):
        load(bad)


def test_trailing_byte_raises_typed_error(fmt, tmp_path):
    path, load, error = fmt
    bad = tmp_path / ("bad" + path.suffix)
    bad.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(error, match=f"{bad.name}: 1 trailing bytes"):
        load(bad)


def test_version_1_is_refused(fmt, tmp_path):
    path, load, error = fmt
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, 1)
    old = tmp_path / ("old" + path.suffix)
    old.write_bytes(bytes(blob))
    with pytest.raises(error, match=f"{old.name}: unsupported version 1"):
        load(old)


def test_read_returns_header_and_arrays(tmp_path):
    arrays = [np.arange(6, dtype="<f4").reshape(2, 3),
              np.array([7, 8], dtype="<u4"), np.zeros(0, dtype="|u1")]
    path = tmp_path / "a.bin"
    arrayfile.write_atomic(path, arrayfile.pack(b"TEST", 3, {"k": "v"},
                                                arrays))
    header, got = arrayfile.read(path, b"TEST", 3, ValueError)
    assert header["k"] == "v"
    for a, b in zip(arrays, got):
        assert a.dtype == b.dtype and np.array_equal(a, b)
