"""ds-array: a 2-D block-partitioned distributed array.

A ds-array only partitions and collects.  Blocks are either concrete
``numpy.ndarray`` values or runtime futures of them: the estimators
(:class:`~repro.dislib.KMeans`, :class:`~repro.dislib.LinearRegression`,
:class:`~repro.dislib.StandardScaler`) submit one task per block, so the
task graph exposes all inter-block parallelism.  ``collect()`` is the only
synchronization point.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np

from repro.core import compss_wait_on


class DsArray:
    """A dense 2-D array split into a grid of blocks.

    Attributes:
        shape: logical (rows, cols).
        block_shape: regular block size; edge blocks may be smaller.
    """

    def __init__(
        self,
        blocks: List[List[Any]],
        shape: Tuple[int, int],
        block_shape: Tuple[int, int],
    ) -> None:
        if not blocks or not blocks[0]:
            raise ValueError("DsArray needs at least one block")
        self._blocks = blocks
        self.shape = shape
        self.block_shape = block_shape

    # ----------------------------------------------------------- structure

    @property
    def n_block_rows(self) -> int:
        return len(self._blocks)

    @property
    def n_block_cols(self) -> int:
        return len(self._blocks[0])

    @property
    def blocks(self) -> List[List[Any]]:
        """The raw block grid (futures and/or ndarrays)."""
        return self._blocks

    # -------------------------------------------------------------- collect

    def collect(self) -> np.ndarray:
        """Synchronize every block and assemble the full ndarray."""
        rows = []
        for i in range(self.n_block_rows):
            row_blocks = [np.asarray(compss_wait_on(b)) for b in self._blocks[i]]
            rows.append(np.hstack(row_blocks))
        return np.vstack(rows)


# -------------------------------------------------------------- constructors


def _grid(shape: Tuple[int, int], block_shape: Tuple[int, int]):
    rows, cols = shape
    br, bc = block_shape
    if br <= 0 or bc <= 0:
        raise ValueError(f"block_shape must be positive, got {block_shape}")
    row_splits = [(i, min(br, rows - i)) for i in range(0, rows, br)]
    col_splits = [(j, min(bc, cols - j)) for j in range(0, cols, bc)]
    return row_splits, col_splits


def array(x: np.ndarray, block_shape: Tuple[int, int]) -> DsArray:
    """Partition an in-memory ndarray into a ds-array."""
    x = np.asarray(x)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2:
        raise ValueError(f"ds-arrays are 2-D, got ndim={x.ndim}")
    row_splits, col_splits = _grid(x.shape, block_shape)
    blocks = [
        [x[r : r + rn, c : c + cn].copy() for c, cn in col_splits]
        for r, rn in row_splits
    ]
    return DsArray(blocks, x.shape, block_shape)
