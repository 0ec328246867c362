"""Upper-triangle edge-slot indexing and bit-packed edge masks.

Vertex pairs (i, j) with 1 <= i < j <= n are numbered row-major:
(1,2), (1,3), ..., (1,n), (2,3), ..., (n-1,n).  Slot s of a mask is
bit ``1 << s``; the same numbering drives the text encoding, the
planarity tables, and census enumeration, so all three agree bit for bit.
Vertex sets are bitsets too: vertex v is bit ``1 << v`` (bit 0 unused).
"""

from __future__ import annotations

from math import isqrt


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Slot of the pair (i, j), requiring 1 <= i < j <= n."""
    return (i - 1) * (2 * n - i) // 2 + (j - i - 1)


def slot_pair(n: int, s: int) -> tuple[int, int]:
    """The pair in slot s, 0 <= s < pair_count(n): pair_index inverted by
    arithmetic, so no pair table is built.  Row i is the largest with
    pair_index(n, i, i + 1) <= s, a root of that quadratic in i."""
    b = 2 * n - 1
    i = (b + 1 - isqrt(b * b - 8 * s - 1)) // 2
    return i, s - (i - 1) * (2 * n - i) // 2 + i + 1


def bit_positions(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_from_edges(n: int, edges) -> int:
    mask = 0
    for i, j in edges:
        mask |= 1 << pair_index(n, i, j)
    return mask


def edges_from_mask(n: int, mask: int) -> tuple[tuple[int, int], ...]:
    """The edges of mask in slot order, read by its set bits: row i holds the
    n - i slots of (i, i+1) .. (i, n), so each bit's row is found by moving
    on from the row of the bit before.  No pair table is built, and a sparse
    mask costs a few big-int steps per edge, not a shift per row."""
    edges = []
    i, end = 1, n - 1  # row i ends at slot end - 1
    while mask:
        low = mask & -mask
        mask ^= low
        s = low.bit_length()  # the slot plus one
        while s > end:
            i += 1
            end += n - i
        edges.append((i, s - end + n))
    return tuple(edges)
