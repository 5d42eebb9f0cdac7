"""Step-by-step reference for the block-wise string reduction.

This is the plain loop that ``upag.construct.reduce_string`` replaces with
closed forms: S lists the symbols of the string by ascending frequency, and
each step takes the leftmost surviving letter of S, flags the first
unflagged block containing it, crosses out one S-occurrence of every letter
of that block, and deletes the chosen letter's first occurrence inside the
block.  The tests compare the array code against it, field by field;
nothing in the package imports this module.
"""

from __future__ import annotations

from collections import Counter

from upag.construct import LfcResult


def reduce_steps(s, block_size: int, want_trace: bool = False) -> LfcResult:
    """The reduction of ``s`` in blocks of ``block_size``, one step at a time."""
    if block_size < 1:
        raise ValueError("block size must be positive")
    seq = list(s)
    if len(seq) % block_size:
        raise ValueError(f"length {len(seq)} is not a multiple of block size {block_size}")
    n = len(seq) // block_size
    blocks = [seq[i * block_size : (i + 1) * block_size] for i in range(n)]

    counts = Counter(seq)
    order = sorted(counts, key=lambda x: (counts[x], x))
    sigma = {sym: r for r, sym in enumerate(order)}
    start = {}
    acc = 0
    for sym in order:
        start[sym] = acc
        acc += counts[sym]

    holding: dict = {sym: [] for sym in order}      # blocks that contain sym
    for j, blk in enumerate(blocks):
        for sym in dict.fromkeys(blk):
            holding[sym].append(j)
    hold_ptr = {sym: 0 for sym in order}

    consumed = {sym: 0 for sym in order}            # leading lambdas per S-region
    flagged = [False] * n
    deleted_pos = [-1] * n
    flag_order: list[int] = []
    selected: list[int] = []
    trace: list[dict] | None = [] if want_trace else None

    rank_ptr = 0
    for _step in range(n):
        while consumed[order[rank_ptr]] == counts[order[rank_ptr]]:
            rank_ptr += 1
        c = order[rank_ptr]
        k = start[c] + consumed[c] + 1              # 1-based position in S
        lst = holding[c]
        p = hold_ptr[c]
        while p < len(lst) and flagged[lst[p]]:
            p += 1
        hold_ptr[c] = p
        if p == len(lst):
            raise RuntimeError("no unflagged block holds the selected symbol")
        j = lst[p]
        flagged[j] = True
        for sym in blocks[j]:
            consumed[sym] += 1
            if consumed[sym] > counts[sym]:
                raise RuntimeError("crossed out more occurrences than exist")
        deleted_pos[j] = blocks[j].index(c)
        flag_order.append(j + 1)
        selected.append(k)
        if trace is not None:
            after = tuple(
                None if i == deleted_pos[j] else x for i, x in enumerate(blocks[j])
            )
            trace.append(
                {"step": _step + 1, "symbol": c, "s_index": k, "block": j + 1, "after": after}
            )

    out = [x for j, blk in enumerate(blocks) for i, x in enumerate(blk) if i != deleted_pos[j]]
    reduced = "".join(out) if isinstance(s, str) else out
    deleted = [blocks[j][deleted_pos[j]] for j in range(n)]
    return LfcResult(
        reduced=reduced,
        sigma=sigma,
        flag_order=flag_order,
        selected_indices=selected,
        deleted=deleted,
        trace=trace,
    )
