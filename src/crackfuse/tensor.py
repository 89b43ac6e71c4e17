"""Dense tensor carrier and the MSCM binary tensor format.

Tensors are plain numpy ndarrays restricted to float32/float64, row-major.
The on-disk format is fixed so independent implementations interoperate:

    bytes 0..3   magic "MSCM"
    byte  4      dtype code (1 = float32, 2 = float64)
    byte  5      rank
    then   rank * u64 little-endian extents
    then   payload, little-endian scalars, row-major
"""
from __future__ import annotations

import struct

import numpy as np

Tensor = np.ndarray

MAGIC = b"MSCM"

_DTYPE_FOR_CODE = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR_KIND = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}


class TensorFormatError(ValueError):
    """Raised when a buffer does not decode as an MSCM tensor."""


def check_tensor(x: np.ndarray) -> np.ndarray:
    """Validate the tensor contract: float32/float64 dtype, finite payload."""
    x = np.asarray(x)
    if x.dtype not in _CODE_FOR_KIND:
        raise TensorFormatError(f"unsupported dtype {x.dtype}; expected float32 or float64")
    if not np.all(np.isfinite(x)):
        raise TensorFormatError("tensor contains non-finite values")
    return x


def tensor_to_bytes(x: np.ndarray) -> bytes:
    x = np.asarray(x)
    code = _CODE_FOR_KIND.get(x.dtype)
    if code is None:
        raise TensorFormatError(f"unsupported dtype {x.dtype}; expected float32 or float64")
    if x.ndim > 255:
        raise TensorFormatError(f"rank {x.ndim} exceeds format limit 255")
    header = MAGIC + bytes([code, x.ndim])
    header += b"".join(struct.pack("<Q", int(e)) for e in x.shape)
    payload = np.ascontiguousarray(x).astype(_DTYPE_FOR_CODE[code], copy=False)
    return header + payload.tobytes()


def tensor_from_bytes(buf: bytes) -> np.ndarray:
    if len(buf) < 6:
        raise TensorFormatError(f"buffer too short for header: {len(buf)} bytes")
    if buf[:4] != MAGIC:
        raise TensorFormatError(f"bad magic {buf[:4]!r}, expected {MAGIC!r}")
    code, rank = buf[4], buf[5]
    dtype = _DTYPE_FOR_CODE.get(code)
    if dtype is None:
        raise TensorFormatError(f"unknown dtype code {code}")
    need = 6 + 8 * rank
    if len(buf) < need:
        raise TensorFormatError(f"truncated extent table: have {len(buf)} bytes, need {need}")
    shape = tuple(struct.unpack_from("<Q", buf, 6 + 8 * i)[0] for i in range(rank))
    count = 1
    for e in shape:
        count *= e
    payload = buf[need:]
    expect = count * dtype.itemsize
    if len(payload) != expect:
        raise TensorFormatError(
            f"payload length {len(payload)} does not match shape {shape} ({expect} bytes)"
        )
    arr = np.frombuffer(payload, dtype=dtype).reshape(shape)
    # native byte order, writable copy
    return arr.astype(dtype.newbyteorder("="), copy=True)


def save_tensor(path, x: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(tensor_to_bytes(x))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        return tensor_from_bytes(f.read())
