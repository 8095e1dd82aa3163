"""Bit-packed GF(2) matrix kernels.

A row is packed little-endian, bit j for column j: into uint64 words for the
product, and into a Python int for row reduction.
"""
from __future__ import annotations

import numpy as np

__all__ = ["pack_rows", "unpack_rows", "mul_packed", "rref_packed"]


def _words(a: np.ndarray) -> np.ndarray:
    """The rows of a 0/1 array packed into (rows, max(1, ceil(cols/64)))
    little-endian uint64 words."""
    n, c = a.shape
    buf = np.zeros((n, 8 * max(1, -(-c // 64))), dtype=np.uint8)
    buf[:, : (c + 7) // 8] = np.packbits(a != 0, axis=1, bitorder="little")
    return buf.view("<u8")


def _bits(words: np.ndarray, ncols: int) -> np.ndarray:
    """The 0/1 array (uint8) of rows of little-endian uint64 words."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=ncols,
                         bitorder="little")


def pack_rows(a: np.ndarray) -> list[int]:
    """Rows of a 0/1 array as ints: one ``tolist`` of the words up to 64
    columns, one int per slice of the packed bytes past that."""
    words = _words(np.asarray(a))
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    buf = words.tobytes()
    step = 8 * words.shape[1]
    return [int.from_bytes(buf[i: i + step], "little")
            for i in range(0, len(buf), step)]


def unpack_rows(rows: list[int], ncols: int) -> np.ndarray:
    """The 0/1 array (uint8) of int rows with ncols columns."""
    nw = max(1, -(-ncols // 64))
    if nw == 1:
        words = np.array(rows, dtype="<u8")
    else:
        words = np.frombuffer(b"".join(v.to_bytes(8 * nw, "little")
                                       for v in rows), dtype="<u8")
    return _bits(words.reshape(len(rows), nw), ncols)


def mul_packed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of 0/1 arrays a and b, as a 0/1 array (uint8).

    Row i is the XOR of the word rows of b at the nonzero entries of row i
    of a: one gather of those word rows and one ``np.bitwise_xor.reduceat``
    over the runs of equal rows in ``np.nonzero(a)``, so the work follows
    the nonzero entries of the left factor.
    """
    words = _words(b)
    out = np.zeros((a.shape[0], words.shape[1]), dtype="<u8")
    ii, jj = np.nonzero(a)
    if jj.size:
        # ii is sorted; a run of equal row indices starts where it changes
        first = np.ones(ii.size, dtype=bool)
        np.not_equal(ii[1:], ii[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        out[ii[starts]] = np.bitwise_xor.reduceat(words[jj], starts, axis=0)
    return _bits(out, b.shape[1])


def rref_packed(rows: list[int], ncols: int) -> tuple[int, tuple[int, ...], list[int]]:
    """Reduced row echelon form: (rank, pivot columns, reduced rows).

    The rows are inserted one at a time into a basis keyed by pivot bit,
    its lowest set bit: a row is reduced by the pivots it meets, and a new
    pivot bit is cleared from the basis rows that carry it, so the basis
    stays reduced.  The RREF is unique, so the basis sorted by pivot and
    padded with zero rows is the RREF that column-by-column elimination
    gives.  The cost follows rows x rank, not rows x cols.
    """
    basis: dict[int, int] = {}
    pivmask = 0
    for v in rows:
        hit = v & pivmask
        while hit:
            low = hit & -hit
            v ^= basis[low]
            hit ^= low
        if v:
            low = v & -v
            for key, row in basis.items():
                if row & low:
                    basis[key] = row ^ v
            basis[low] = v
            pivmask |= low
            if len(basis) == ncols:
                break
    keys = sorted(basis)
    out = [basis[k] for k in keys]
    out += [0] * (len(rows) - len(out))
    return len(keys), tuple(k.bit_length() - 1 for k in keys), out
