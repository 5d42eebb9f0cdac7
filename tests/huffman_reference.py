"""Plain references for the Huffman-shaped wavelet matrix.

``huffman_cost`` is the textbook heap construction, kept deliberately
apart from the run-based one in ``upag.wavelet``.  ``matrix_codes`` and
``matrix_levels`` build a matrix's code words and level bits from code
lengths by the definitions, one symbol and one element at a time.
"""

from __future__ import annotations

import heapq


def huffman_cost(counts) -> int:
    """Sum of length * count of an optimal prefix code for the positive
    counts: the sum of the weights of all merges (0 for at most one)."""
    heap = [int(c) for c in counts if c > 0]
    heapq.heapify(heap)
    cost = 0
    while len(heap) > 1:
        merged = heapq.heappop(heap) + heapq.heappop(heap)
        cost += merged
        heapq.heappush(heap, merged)
    return cost


def matrix_codes(lengths: dict[int, int]) -> dict[int, str]:
    """Code word of every symbol, depth by depth: the children of depth d's
    internal nodes are their bit-0 children in order, then their bit-1
    children; the first ones continue and the rest are the leaves of the
    symbols of length d + 1, in symbol order.  A lone symbol has length 0
    and the empty code."""
    codes = {s: "" for s, n in lengths.items() if n == 0}
    internal = [""] if any(lengths.values()) else []
    depth = 0
    while internal:
        children = [c + "0" for c in internal] + [c + "1" for c in internal]
        ending = sorted(s for s, n in lengths.items() if n == depth + 1)
        keep = len(children) - len(ending)
        assert keep >= 0
        internal = children[:keep]
        codes.update(zip(ending, children[keep:]))
        depth += 1
    return codes


def matrix_levels(values, codes: dict[int, str]) -> tuple[list[list[int]], list[bool]]:
    """Level bits by the definition, and per level whether the elements
    whose code ends right after it form the tail of its partitioned
    sequence: level 0 reads the string; level d + 1 reads level d's
    sequence stably partitioned by bit d, zeros first, without the
    elements whose code has d + 1 bits."""
    seq = [v for v in values if codes[v]]
    levels, tails = [], []
    while seq:
        d = len(levels)
        bits = [int(codes[v][d]) for v in seq]
        levels.append(bits)
        part = [v for v, b in zip(seq, bits) if b == 0] + [v for v, b in zip(seq, bits) if b == 1]
        ended = [len(codes[v]) == d + 1 for v in part]
        tails.append(ended == sorted(ended))
        seq = [v for v in part if len(codes[v]) > d + 1]
    return levels, tails
