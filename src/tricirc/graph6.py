"""Standard graph6 encoding and decoding for simple undirected graphs.

The format packs the upper triangle of the adjacency matrix, read column by
column, into 6-bit chunks offset by 63, after a size header N(n): one byte
n+63 for n <= 62, byte 126 plus three 6-bit bytes for n <= 258047, and two
bytes 126 plus six 6-bit bytes up to 2^36 - 1.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import SimpleGraph

_HEADER = b">>graph6<<"
_MAX_N = (1 << 36) - 1
_OFFSET = bytes((b + 63) & 255 for b in range(256))  # 6-bit value -> byte
_VALUE = bytes((b - 63) & 255 for b in range(256))  # byte -> 6-bit value
_BODY_BYTES = bytes(range(63, 127))  # the bytes of 6-bit values


class Graph6Error(ValueError):
    """Malformed graph6 data."""


def encode_graph6(g: SimpleGraph) -> bytes:
    """Encode a graph as a graph6 byte string (no trailing newline).

    Vertices are emitted in their construction order.
    """
    return pack_graph6(g.n, [j * (j - 1) // 2 + i for i, j in g.edges()])


def pack_graph6(n: int, bits: Iterable[int]) -> bytes:
    """graph6 bytes of the graph on 0..n-1 whose upper-triangle bits are set.

    Read column by column, pair i < j is body bit j(j-1)/2 + i, most
    significant first, six bits a byte. Graphs of one order get one header
    and one body length, so their encodings compare as the bits they pack."""
    if n > _MAX_N:
        raise ValueError(f"graph6 only supports n <= {_MAX_N}")
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    else:  # one 126 and three 6-bit bytes, or two and six
        width = 3 if n <= 258047 else 6
        out += bytes(width // 3 * [126])
        out += bytes(((n >> shift) & 63) + 63
                     for shift in range(6 * width - 6, -1, -6))
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for t in bits:
        body[t // 6] |= 32 >> (t % 6)
    out += body.translate(_OFFSET)
    return bytes(out)


def _read_size(data: bytes) -> tuple[int, int]:
    """Parse the N(n) header; return (n, bytes consumed)."""
    if not data:
        raise Graph6Error("empty graph6 data")
    if data[0] != 126:
        n = data[0] - 63
        if not 0 <= n <= 62:
            raise Graph6Error("malformed size header")
        return n, 1
    # One 126 and three 6-bit bytes, or two and six, each for n past the
    # reach of the shorter header.
    start, width, least = (
        (2, 6, 258048) if len(data) >= 2 and data[1] == 126 else (1, 3, 63))
    chunk = data[start:start + width]
    if len(chunk) != width:
        raise Graph6Error("truncated size header")
    n = 0
    for byte in chunk:
        if not 63 <= byte <= 126:
            raise Graph6Error("invalid byte in size header")
        n = (n << 6) | (byte - 63)
    if n < least:
        raise Graph6Error("non-canonical size header")
    return n, start + width


def decode_graph6(blob) -> SimpleGraph:
    """Decode a graph6 byte or text string into a SimpleGraph.

    Validates the exact body length and that padding bits are zero. The
    optional ">>graph6<<" prefix and surrounding whitespace are accepted.

    Each set bit (i, j), i < j, appends j to row i and i to row j, and the
    rows become the graph as they are, without `SimpleGraph`'s per-edge
    checks. They need none: a bit stands for one pair of distinct vertices
    below n, so no edge is a loop, out of range or given twice. The bits
    come column by column, in increasing j and, within column j, increasing
    i, so row v first gets its i < v (in column v) and then its j > v (in the
    later columns), each in increasing order: every row comes out sorted.
    """
    if isinstance(blob, str):
        try:
            blob = blob.encode("ascii")
        except UnicodeEncodeError:
            raise Graph6Error("graph6 text is not ASCII") from None
    data = blob.strip()
    if data.startswith(_HEADER):
        data = data[len(_HEADER):].lstrip()
    n, used = _read_size(data)
    body = data[used:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise Graph6Error(
            f"body length {len(body)} does not match n={n}"
        )
    if body.translate(None, _BODY_BYTES):  # what is left is out of range
        raise Graph6Error("invalid byte in graph6 body")
    if nbits:
        pad = body[-1] - 63
        extra = expected * 6 - nbits
        if extra and pad & ((1 << extra) - 1):
            raise Graph6Error("nonzero padding bits")
    # Column-major upper triangle: bit t = j(j-1)/2 + i covers pair (i, j).
    # As 8-bit bytes the body reads as one bit string in which character p
    # is body bit 6(p // 8) + p % 8 - 2 (each byte's top two bits are 0).
    # The set bits come in increasing t, so the column j only grows.
    bits = format(int.from_bytes(body.translate(_VALUE), "big"),
                  f"0{8 * len(body)}b")
    rows = [[] for _ in range(n)]
    j = first = 0  # column j holds bits first .. first + j - 1
    p = bits.find("1")
    while p >= 0:
        t = 6 * (p >> 3) + (p & 7) - 2
        while t >= first + j:
            first += j
            j += 1
        i = t - first
        rows[i].append(j)
        rows[j].append(i)
        p = bits.find("1", p + 1)
    return SimpleGraph._from_rows(rows)
