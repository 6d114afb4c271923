"""Erasure coding: the k+m codec used by EC pools (paper section 4.4).

RADOS protects data "using common techniques such as erasure coding,
replication, and scrubbing".  This module is the codec half: split an
object's bytestream into ``k`` data shards plus ``m`` parity shards
such that any ``k`` of the ``k+m`` shards reconstruct the original.

The code is systematic: the data shards are the padded bytestream
itself, and parity shard ``j`` is the XOR over data shards ``i`` of
``3^(i*j) * shard_i`` in GF(256) (a Reed-Solomon-style Vandermonde
code).  Parity 0 has every weight 1 — the plain XOR of the data
shards, RAID-5 style — so an ``m = 1`` profile never multiplies.

GF(256) arithmetic is implemented directly (AES polynomial 0x11B); no
external dependencies.  Both shard operations work on whole buffers:
a multiply is one ``bytes.translate`` through the coefficient's
256-byte table, and an XOR is one big-integer XOR.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.errors import InvalidArgument

# ----------------------------------------------------------------------
# GF(256) arithmetic (log/antilog tables, generator 3, poly 0x11B)
# ----------------------------------------------------------------------
_EXP = [0] * 512
_LOG = [0] * 256


def _build_tables() -> None:
    x = 1
    for i in range(255):
        _EXP[i] = x
        _LOG[x] = i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        _EXP[i] = _EXP[i - 255]


_build_tables()


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(256)")
    return _EXP[255 - _LOG[a]]


#: coeff -> its 256-byte multiplication table, built on first use so
#: import stays cheap.  Coefficient 1 needs none, and an m = 1 profile
#: uses no other.
_MUL_TABLES: Dict[int, bytes] = {}


def _mul_slice(chunk: bytes, coeff: int) -> bytes:
    """``chunk`` with every byte multiplied by ``coeff`` in GF(256)."""
    if coeff == 1:
        return chunk
    table = _MUL_TABLES.get(coeff)
    if table is None:
        table = _MUL_TABLES[coeff] = bytes(gf_mul(coeff, b)
                                           for b in range(256))
    return chunk.translate(table)


def _xor(chunks: Iterable[bytes], size: int) -> bytes:
    """The XOR of equal-length ``chunks``, as one whole-buffer op."""
    acc = 0
    for chunk in chunks:
        acc ^= int.from_bytes(chunk, "little")
    return acc.to_bytes(size, "little")


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
class ErasureCodec:
    """Systematic k+m erasure codec over GF(256)."""

    def __init__(self, k: int, m: int):
        if k < 1 or m < 1:
            raise InvalidArgument(f"bad EC profile k={k} m={m}")
        if k + m > 255:
            raise InvalidArgument("k+m must be <= 255")
        self.k = k
        self.m = m
        # Vandermonde rows: parity j weights data shard i by 3^(i*j).
        # (Row 0 is all ones: plain XOR.)
        self._coeff = [[_EXP[(j * i) % 255] for i in range(k)]
                       for j in range(m)]

    # -- encoding -------------------------------------------------------
    def shard_size(self, length: int) -> int:
        return (length + self.k - 1) // self.k if length else 0

    def encode(self, data: bytes) -> List[bytes]:
        """Return k data shards + m parity shards (padded equal size)."""
        size = self.shard_size(len(data))
        shards = [data[i * size:(i + 1) * size].ljust(size, b"\x00")
                  for i in range(self.k)]
        return shards + [
            _xor((_mul_slice(shard, c) for shard, c in zip(shards, row)),
                 size)
            for row in self._coeff]

    # -- decoding -------------------------------------------------------
    def decode(self, shards: Dict[int, bytes], length: int) -> bytes:
        """Reconstruct the original from any k of the k+m shards.

        ``shards`` maps shard index -> bytes; raises if fewer than k
        shards are present.
        """
        if length == 0:
            return b""
        size = self.shard_size(length)
        have = {i: s for i, s in shards.items() if s is not None}
        if len(have) < self.k:
            raise InvalidArgument(
                f"need {self.k} shards to reconstruct, have {len(have)}")
        missing_data = [i for i in range(self.k) if i not in have]
        if missing_data:
            self._reconstruct_data(have, missing_data, size)
        data = b"".join(have[i] for i in range(self.k))
        return data[:length]

    def _reconstruct_data(self, have: Dict[int, bytes],
                          missing: List[int], size: int) -> None:
        # Build the linear system over the available parity rows.
        parity_rows = [j for j in range(self.m)
                       if (self.k + j) in have]
        if len(parity_rows) < len(missing):
            raise InvalidArgument("not enough parity to reconstruct")
        rows = parity_rows[: len(missing)]
        # For each chosen parity row: known = parity XOR contributions
        # of present data shards; unknowns are the missing shards.
        rhs: List[bytes] = []
        matrix: List[List[int]] = []
        for j in rows:
            row = self._coeff[j]
            rhs.append(_xor([have[self.k + j]]
                            + [_mul_slice(have[i], row[i])
                               for i in range(self.k) if i in have],
                            size))
            matrix.append([row[i] for i in missing])
        # Gaussian elimination over GF(256) on (matrix | rhs).
        n = len(missing)
        for col in range(n):
            pivot = next((r for r in range(col, n)
                          if matrix[r][col] != 0), None)
            if pivot is None:
                raise InvalidArgument("singular reconstruction matrix")
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
            inv = gf_inv(matrix[col][col])
            matrix[col] = [gf_mul(v, inv) for v in matrix[col]]
            rhs[col] = _mul_slice(rhs[col], inv)
            for r in range(n):
                if r != col and matrix[r][col]:
                    factor = matrix[r][col]
                    matrix[r] = [a ^ gf_mul(factor, b)
                                 for a, b in zip(matrix[r], matrix[col])]
                    rhs[r] = _xor((rhs[r], _mul_slice(rhs[col], factor)),
                                  size)
        for idx, shard_index in enumerate(missing):
            have[shard_index] = rhs[idx]
