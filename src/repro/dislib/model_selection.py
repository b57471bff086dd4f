"""Model selection utilities: splits and cross-validation on ds-arrays.

Cross-validation is the canonical embarrassingly parallel ML workload the
paper's dislib targets: each fold's fit/score is an independent subgraph, so
all folds train concurrently under an active runtime.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.dislib.array import DsArray, array


def train_test_split(
    x: DsArray,
    y: DsArray,
    test_blocks: int = 1,
    seed: int = 0,
) -> Tuple[DsArray, DsArray, DsArray, DsArray]:
    """Split by row *blocks*: ``test_blocks`` blocks become the test set.

    Block-granular splitting keeps every piece distributed (no
    synchronization), matching dislib's design.  Blocks are chosen with a
    seeded shuffle so the split is random but reproducible.
    """
    if x.n_block_rows != y.n_block_rows:
        raise ValueError("x and y must share row blocking")
    if not 0 < test_blocks < x.n_block_rows:
        raise ValueError(
            f"test_blocks must be in (0, {x.n_block_rows}), got {test_blocks}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(x.n_block_rows)
    test_idx = sorted(order[:test_blocks].tolist())
    train_idx = sorted(order[test_blocks:].tolist())

    def take(a: DsArray, idx: List[int]) -> DsArray:
        blocks = [[a.blocks[i][0]] for i in idx]
        rows = a.block_shape[0] * len(idx)  # upper bound; edge block may be short
        return DsArray(blocks, (min(rows, a.shape[0]), a.shape[1]), a.block_shape)

    return take(x, train_idx), take(x, test_idx), take(y, train_idx), take(y, test_idx)


class KFold:
    """Block-granular K-fold iterator."""

    def __init__(self, n_splits: int = 5) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits

    def split(
        self, x: DsArray, y: DsArray
    ) -> Iterator[Tuple[DsArray, DsArray, DsArray, DsArray]]:
        """Yield (x_train, x_test, y_train, y_test) per fold."""
        if x.n_block_rows < self.n_splits:
            raise ValueError(
                f"need >= {self.n_splits} row blocks, got {x.n_block_rows}"
            )
        folds = np.array_split(np.arange(x.n_block_rows), self.n_splits)
        for fold in folds:
            test_idx = set(fold.tolist())
            train_blocks_x, test_blocks_x = [], []
            train_blocks_y, test_blocks_y = [], []
            for i in range(x.n_block_rows):
                (test_blocks_x if i in test_idx else train_blocks_x).append(
                    [x.blocks[i][0]]
                )
                (test_blocks_y if i in test_idx else train_blocks_y).append(
                    [y.blocks[i][0]]
                )

            def wrap(blocks, template):
                rows = template.block_shape[0] * len(blocks)
                return DsArray(
                    blocks,
                    (min(rows, template.shape[0]), template.shape[1]),
                    template.block_shape,
                )

            yield (
                wrap(train_blocks_x, x),
                wrap(test_blocks_x, x),
                wrap(train_blocks_y, y),
                wrap(test_blocks_y, y),
            )


def cross_val_score(
    estimator_factory,
    x: DsArray,
    y: DsArray,
    n_splits: int = 5,
) -> List[float]:
    """Fit and score one estimator per fold; all folds run concurrently.

    ``estimator_factory`` builds a fresh estimator with ``fit(x, y)`` and
    ``score(x, y)`` (e.g. ``LinearRegression``).
    """
    scores = []
    for x_train, x_test, y_train, y_test in KFold(n_splits).split(x, y):
        model = estimator_factory()
        model.fit(x_train, y_train)
        scores.append(model.score(x_test, y_test))
    return scores
