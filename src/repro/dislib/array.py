"""ds-array: a 2-D block-partitioned distributed array.

Blocks are either concrete ``numpy.ndarray`` values or runtime futures of
them; every operation submits one task per (pair of) block(s), so the task
graph exposes all inter-block parallelism while the user sees ordinary
array semantics.  ``collect()`` is the only synchronization point.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.core import compss_wait_on, task


# ---------------------------------------------------------------- block tasks


@task(returns=1)
def _block_full(rows, cols, value):
    return np.full((rows, cols), float(value))


@task(returns=1)
def _block_add(a, b):
    return a + b


@task(returns=1)
def _block_sub(a, b):
    return a - b


@task(returns=1)
def _block_scale(a, factor):
    return a * factor

@task(returns=1)
def _block_apply(a, fn):
    return fn(a)


@task(returns=1)
def _block_transpose(a):
    return a.T


@task(returns=1)
def _block_matmul(a, b):
    return a @ b


@task(returns=1)
def _block_accumulate(blocks):
    total = blocks[0]
    for b in blocks[1:]:
        total = total + b
    return total


@task(returns=1)
def _block_sum(a):
    return float(a.sum())


@task(returns=1)
def _block_sqnorm(a):
    return float((a * a).sum())


@task(returns=1)
def _scalar_sum(values):
    return float(sum(values))


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

    def _check_same_grid(self, other: "DsArray") -> None:
        if self.shape != other.shape or self.block_shape != other.block_shape:
            raise ValueError(
                f"array grids differ: {self.shape}/{self.block_shape} vs "
                f"{other.shape}/{other.block_shape}"
            )

    def _map_blocks(self, fn: Callable, *others: "DsArray") -> "DsArray":
        out: List[List[Any]] = []
        for i in range(self.n_block_rows):
            row: List[Any] = []
            for j in range(self.n_block_cols):
                args = [self._blocks[i][j]] + [o._blocks[i][j] for o in others]
                row.append(fn(*args))
            out.append(row)
        return DsArray(out, self.shape, self.block_shape)

    # ----------------------------------------------------------- arithmetic

    def __add__(self, other: "DsArray") -> "DsArray":
        self._check_same_grid(other)
        return self._map_blocks(_block_add, other)

    def __sub__(self, other: "DsArray") -> "DsArray":
        self._check_same_grid(other)
        return self._map_blocks(_block_sub, other)

    def scale(self, factor: float) -> "DsArray":
        """Multiply every element by a scalar."""
        return self._map_blocks(lambda b: _block_scale(b, factor))

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "DsArray":
        """Apply an element-preserving function block-wise (one task/block)."""
        return self._map_blocks(lambda b: _block_apply(b, fn))

    def transpose(self) -> "DsArray":
        out: List[List[Any]] = []
        for j in range(self.n_block_cols):
            out.append([_block_transpose(self._blocks[i][j]) for i in range(self.n_block_rows)])
        return DsArray(
            out,
            (self.shape[1], self.shape[0]),
            (self.block_shape[1], self.block_shape[0]),
        )

    @property
    def T(self) -> "DsArray":
        return self.transpose()

    def matmul(self, other: "DsArray") -> "DsArray":
        """Blocked matrix multiply: C[i][j] = sum_k A[i][k] @ B[k][j]."""
        if self.shape[1] != other.shape[0]:
            raise ValueError(
                f"matmul shape mismatch: {self.shape} @ {other.shape}"
            )
        if self.block_shape[1] != other.block_shape[0]:
            raise ValueError(
                "matmul requires A's column blocking == B's row blocking"
            )
        out: List[List[Any]] = []
        for i in range(self.n_block_rows):
            row: List[Any] = []
            for j in range(other.n_block_cols):
                partials = [
                    _block_matmul(self._blocks[i][k], other._blocks[k][j])
                    for k in range(self.n_block_cols)
                ]
                row.append(partials[0] if len(partials) == 1 else _block_accumulate(partials))
            out.append(row)
        return DsArray(
            out,
            (self.shape[0], other.shape[1]),
            (self.block_shape[0], other.block_shape[1]),
        )

    def __matmul__(self, other: "DsArray") -> "DsArray":
        return self.matmul(other)

    # ----------------------------------------------------------- reductions

    def sum(self) -> Any:
        """Grand total of all elements (returns a future under a runtime)."""
        partials = [
            _block_sum(self._blocks[i][j])
            for i in range(self.n_block_rows)
            for j in range(self.n_block_cols)
        ]
        return partials[0] if len(partials) == 1 else _scalar_sum(partials)

    def mean(self) -> Any:
        total = compss_wait_on(self.sum())
        return total / (self.shape[0] * self.shape[1])

    def norm(self) -> Any:
        """Frobenius norm (synchronizes)."""
        partials = [
            _block_sqnorm(self._blocks[i][j])
            for i in range(self.n_block_rows)
            for j in range(self.n_block_cols)
        ]
        total = compss_wait_on(
            partials[0] if len(partials) == 1 else _scalar_sum(partials)
        )
        return float(np.sqrt(total))

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


def zeros(shape: Tuple[int, int], block_shape: Tuple[int, int]) -> DsArray:
    """All-zeros ds-array."""
    row_splits, col_splits = _grid(shape, block_shape)
    blocks = [
        [_block_full(rn, cn, 0.0) for c, cn in col_splits] for r, rn in row_splits
    ]
    return DsArray(blocks, shape, block_shape)
