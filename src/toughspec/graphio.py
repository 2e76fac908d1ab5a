"""Graph serialization: a plain edge-list text format and standard graph6.

Edge list layout: a header line ``n m`` followed by exactly m lines ``u v``
with 0-based endpoints.  Serialization writes edges sorted lexicographically
so output is canonical for a given labeled graph.
"""

from __future__ import annotations

import re
from enum import Enum

from .graphs import Graph


class GraphFormat(str, Enum):
    EDGE_LIST = "edge-list"
    GRAPH6 = "graph6"


class GraphFormatError(ValueError):
    """Malformed graph text; message carries a 1-based line number when known."""


# ---------------------------------------------------------------------------
# edge list
# ---------------------------------------------------------------------------


def _parse_edge_list(text: str) -> Graph:
    lines = text.split("\n")
    entries = [
        (idx + 1, line.strip()) for idx, line in enumerate(lines) if line.strip()
    ]
    if not entries:
        raise GraphFormatError("line 1: missing 'n m' header")
    lineno, header = entries[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(f"line {lineno}: header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: header must hold two integers, got {header!r}"
        ) from None
    if n < 1:
        raise GraphFormatError(f"line {lineno}: order must be at least 1, got {n}")
    if m < 0:
        raise GraphFormatError(f"line {lineno}: edge count must be nonnegative")
    body = entries[1:]
    if len(body) != m:
        raise GraphFormatError(
            f"header announces {m} edges but {len(body)} edge lines follow"
        )
    masks = [0] * n
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: edge must be 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: edge endpoints must be integers, got {line!r}"
            ) from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: endpoint out of range 0..{n - 1}")
        if masks[u] >> v & 1:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({min(u, v)}, {max(u, v)})")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph._from_masks(n, masks)


def _serialize_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# graph6 (printable ASCII, upper triangle column by column, 6 bits per char)
# ---------------------------------------------------------------------------


# order header forms by number of leading "~" bytes: (largest order, 6-bit digits)
_G6_ORDER_FORMS = ((62, 1), (258047, 3), (68719476735, 6))


def _g6_encode_order(n: int) -> str:
    for lead, (top, digits) in enumerate(_G6_ORDER_FORMS):
        if n <= top:
            return "~" * lead + "".join(
                chr((n >> 6 * k & 63) + 63) for k in reversed(range(digits))
            )
    raise ValueError("graph too large for graph6")


def _g6_decode_order(codes: bytes) -> tuple[int, int]:
    """The order that the header of the graph6 bytes ``codes`` announces, and
    the header's length."""
    lead = 0
    while lead < 2 and lead < len(codes) and codes[lead] == 126:
        lead += 1
    end = lead + _G6_ORDER_FORMS[lead][1]
    if len(codes) < end:
        raise GraphFormatError("truncated graph6 order")
    n = 0
    for c in codes[lead:end]:
        n = n << 6 | c - 63
    return n, end


def _serialize_graph6(g: Graph) -> str:
    # column j of the upper triangle holds bits (0, j), ..., (j - 1, j)
    bits = "".join(
        f"{g.masks[j] & (1 << j) - 1:0{j}b}"[::-1] for j in range(1, g.n)
    )
    bits += "0" * (-len(bits) % 6)
    body = "".join(chr(int(bits[k : k + 6], 2) + 63) for k in range(0, len(bits), 6))
    return _g6_encode_order(g.n) + body


def _parse_graph6(text: str) -> Graph:
    data = text.strip()
    if not data:
        raise GraphFormatError("empty graph6 string")
    bad = re.search("[^?-~]", data)
    if bad:
        raise GraphFormatError(f"graph6 character {bad.group()!r} out of range")
    codes = data.encode("ascii")
    n, pos = _g6_decode_order(codes)
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(codes) - pos != expected:
        raise GraphFormatError(
            f"graph6 body for n={n} needs {expected} characters, got {len(codes) - pos}"
        )
    bits = "".join(f"{c - 63:06b}" for c in codes[pos:])
    if "1" in bits[nbits:]:
        raise GraphFormatError("graph6 padding bits must be zero")
    if n < 1:
        raise GraphFormatError("graph needs at least one vertex")
    masks = [0] * n
    for j in range(1, n):
        column = int(bits[j * (j - 1) // 2 : j * (j + 1) // 2][::-1], 2)
        masks[j] |= column
        while column:
            low = column & -column
            masks[low.bit_length() - 1] |= 1 << j
            column ^= low
    return Graph._from_masks(n, masks)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def parse_graph(text: str, fmt: GraphFormat = GraphFormat.EDGE_LIST) -> Graph:
    """Parse a graph from text in the given format."""
    fmt = GraphFormat(fmt)
    if fmt is GraphFormat.EDGE_LIST:
        return _parse_edge_list(text)
    return _parse_graph6(text)


def serialize_graph(g: Graph, fmt: GraphFormat = GraphFormat.EDGE_LIST) -> str:
    """Serialize a graph to canonical text; parse_graph inverts this exactly."""
    fmt = GraphFormat(fmt)
    if fmt is GraphFormat.EDGE_LIST:
        return _serialize_edge_list(g)
    return _serialize_graph6(g)
