"""Auto Rechunk — Algorithm 1 of the paper (Section V-D).

Given the raw array ``shape``, a ``dim_to_size`` constraint dict fixing
the chunk extent of certain dimensions ("the chunked matrices are
tall-and-skinny" is expressed as ``{1: n_cols}``), the ``itemsize`` and
the configured chunk-size limit, compute the chunk extents of every
remaining dimension such that each chunk stays under the limit.

The paper's worked example is reproduced by our unit tests: for shape
``(10000, 10000)``, ``dim_to_size={1: 10000}``, ``itemsize=8`` and a
128 MiB chunk limit, the algorithm yields row chunks
``(1677, 10000) × 5`` plus ``(1615, 10000)``.
"""
from __future__ import annotations

from typing import Mapping, Sequence


def auto_rechunk(
    shape: Sequence[int],
    dim_to_size: Mapping[int, int],
    itemsize: int,
    max_chunk_size: int,
) -> dict[int, list[int]]:
    """Return dim → list of chunk extents along that dim.

    Fixed dims (keys of ``dim_to_size``) come back as a single extent;
    free dims are split so that (product of fixed extents) × (product of
    one chunk's free extents) × itemsize ≤ ``max_chunk_size``. Mirrors
    the paper's Algorithm 1 line by line (with its ``left_dim_to_size``
    bookkeeping), including the ``max(·, 1)`` floor that guarantees
    progress even when a single row exceeds the limit.
    """
    shape = list(shape)
    for d in dim_to_size:
        if not 0 <= d < len(shape):
            raise ValueError(f"dim {d} out of range for shape {shape}")
        if dim_to_size[d] > shape[d]:
            raise ValueError(
                f"fixed extent {dim_to_size[d]} exceeds shape[{d}]={shape[d]}"
            )
    result: dict[int, list[int]] = {d: [int(s)] for d, s in dim_to_size.items()}

    # lines 3-6: free dims start with an empty split list and their full
    # extent left unsplit
    left_dim_to_size: dict[int, list[int]] = {}
    left_unsplit: dict[int, int] = {}
    for i in range(len(shape)):
        if i not in dim_to_size:
            left_dim_to_size[i] = []
            left_unsplit[i] = shape[i]
    if not left_dim_to_size:
        return result

    while True:  # line 7
        # line 8: bytes already fixed per chunk by the constrained dims
        nbytes = itemsize
        for s in dim_to_size.values():
            nbytes *= s
        # line 9-11: elements available for the free dims, split evenly
        # across them in the geometric sense
        divided = max_chunk_size / nbytes
        left_dims = len(left_dim_to_size)
        cur_size = max(int(divided ** (1.0 / left_dims)), 1)
        for j in list(left_dim_to_size):  # lines 12-18
            ns = left_dim_to_size[j]
            unsplit = left_unsplit[j]
            ns.append(min(unsplit, cur_size))
            left_unsplit[j] = left_unsplit[j] - ns[-1]
            if left_unsplit[j] <= 0:
                result[j] = ns
                del left_dim_to_size[j]
        if len(left_dim_to_size) == 0:  # line 19
            break
    return result


def chunk_slices(extents: list[int]) -> list[tuple[int, int]]:
    """Turn chunk extents [a, b, c] into [(0,a), (a,a+b), (a+b,a+b+c)]."""
    out = []
    lo = 0
    for e in extents:
        out.append((lo, lo + e))
        lo += e
    return out
