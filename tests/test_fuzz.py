"""Property tests: every byte string either decodes or raises its format's
named error (MSCM tensors, checkpoint archives)."""
import io
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crackfuse import train
from crackfuse.tensor import MAGIC, TensorFormatError, tensor_from_bytes


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory):
    """The bytes of a tiny checkpoint as save_checkpoint writes it."""
    path = tmp_path_factory.mktemp("fuzz") / "tiny.ckpt"
    train.save_checkpoint(path, {"w": np.arange(3.0), "opt.m.w": np.zeros((1, 2), np.float32)},
                          {"format": train.CHECKPOINT_FORMAT, "iteration": 2})
    data = path.read_bytes()
    assert train.load_checkpoint(io.BytesIO(data))[1]["iteration"] == 2
    return data


def _decodes_or_checkpoint_error(data):
    try:
        tensors, manifest = train.load_checkpoint(io.BytesIO(data))
    except train.CheckpointError:
        return
    assert isinstance(manifest, dict)
    assert all(isinstance(t, np.ndarray) for t in tensors.values())


def test_checkpoint_single_byte_edits(ckpt):
    # every byte of the archive, set to values that hit the zip format's
    # flags, compression methods, versions and sizes
    for pos in range(len(ckpt)):
        for value in (0x00, 0x01, 0x08, 0x63, 0xFF):
            data = bytearray(ckpt)
            data[pos] = value
            _decodes_or_checkpoint_error(bytes(data))


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=600))
def test_checkpoint_random_bytes(data):
    _decodes_or_checkpoint_error(data)


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), min_size=1,
                      max_size=8),
       keep=st.floats(0.0, 1.0))
def test_checkpoint_mutated_bytes(ckpt, edits, keep):
    data = bytearray(ckpt)
    for pos, value in edits:
        data[pos % len(data)] = value
    _decodes_or_checkpoint_error(bytes(data[: round(keep * len(data))]))


def _header(code, extents):
    return MAGIC + bytes([code, len(extents)]) + b"".join(struct.pack("<Q", e) for e in extents)


# well-formed headers (any code; ranks near 0 and near numpy's 64 axes;
# extents small or up to 2**64 - 1) followed by empty or random payloads,
# beside raw random bytes
_EXTENT = st.one_of(st.integers(0, 3), st.sampled_from([2**31, 2**63 - 1, 2**63, 2**64 - 1]),
                    st.integers(0, 2**64 - 1))
_TENSOR_BYTES = st.one_of(
    st.binary(max_size=200),
    st.builds(lambda code, ext, payload: _header(code, ext) + payload,
              st.integers(0, 3),
              st.one_of(st.integers(0, 4), st.integers(62, 68)).flatmap(
                  lambda rank: st.lists(_EXTENT, min_size=rank, max_size=rank)),
              st.one_of(st.just(b""), st.binary(max_size=48))),
)


@settings(max_examples=200, deadline=None)
@given(_TENSOR_BYTES)
@example(_header(2, [0, 2**63]))            # zero elements, an extent past numpy's index range
@example(_header(2, [1] * 65) + bytes(8))  # one element on more axes than numpy allows
def test_tensor_random_bytes(data):
    try:
        arr = tensor_from_bytes(data)
    except TensorFormatError:
        return
    assert isinstance(arr, np.ndarray) and arr.dtype in (np.float32, np.float64)
