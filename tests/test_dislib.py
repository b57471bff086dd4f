"""Tests for the dislib-like distributed ML library, with and without runtime."""

import numpy as np
import pytest

from repro import Runtime
from repro.dislib import KMeans, LinearRegression, StandardScaler, array


@pytest.fixture(params=["sequential", "runtime"])
def maybe_runtime(request):
    """Run each test both without a runtime and under a 4-worker runtime."""
    if request.param == "sequential":
        yield None
    else:
        with Runtime(workers=4) as rt:
            yield rt


class TestDsArray:
    def test_partition_and_collect_roundtrip(self, maybe_runtime):
        x = np.arange(30, dtype=float).reshape(6, 5)
        ds = array(x, block_shape=(2, 3))
        assert ds.n_block_rows == 3
        assert ds.n_block_cols == 2
        np.testing.assert_array_equal(ds.collect(), x)

    def test_uneven_blocks(self, maybe_runtime):
        x = np.arange(35, dtype=float).reshape(7, 5)
        ds = array(x, block_shape=(3, 2))
        np.testing.assert_array_equal(ds.collect(), x)

    def test_one_dim_input_reshaped(self, maybe_runtime):
        ds = array(np.arange(4.0), block_shape=(2, 1))
        assert ds.shape == (4, 1)


class TestKMeans:
    @staticmethod
    def blob_data(seed=0):
        rng = np.random.default_rng(seed)
        c0 = rng.normal(loc=(0, 0), scale=0.3, size=(60, 2))
        c1 = rng.normal(loc=(5, 5), scale=0.3, size=(60, 2))
        c2 = rng.normal(loc=(0, 5), scale=0.3, size=(60, 2))
        return np.vstack([c0, c1, c2])

    def test_recovers_blobs(self, maybe_runtime):
        data = self.blob_data()
        ds = array(data, block_shape=(45, 2))
        model = KMeans(n_clusters=3, seed=1).fit(ds)
        centers = np.sort(model.centers_.round(0), axis=0)
        expected = np.sort(np.array([[0, 0], [5, 5], [0, 5]]), axis=0)
        np.testing.assert_allclose(centers, expected, atol=1.0)

    def test_labels_partition_points(self, maybe_runtime):
        data = self.blob_data(seed=3)
        ds = array(data, block_shape=(50, 2))
        labels = KMeans(n_clusters=3, seed=2).fit_predict(ds)
        assert labels.shape == (180,)
        assert set(labels) == {0, 1, 2}
        # Points of one blob share a label.
        assert len(set(labels[:60])) == 1

    def test_inertia_decreases_with_more_clusters(self, maybe_runtime):
        data = self.blob_data(seed=4)
        ds = array(data, block_shape=(60, 2))
        i1 = KMeans(n_clusters=1, seed=0).fit(ds).inertia_
        i3 = KMeans(n_clusters=3, seed=0).fit(ds).inertia_
        assert i3 < i1

    def test_column_blocked_input_rejected(self, maybe_runtime):
        ds = array(np.ones((10, 4)), block_shape=(5, 2))
        with pytest.raises(ValueError):
            KMeans(n_clusters=2).fit(ds)

    def test_predict_before_fit_rejected(self, maybe_runtime):
        with pytest.raises(RuntimeError):
            KMeans().predict(array(np.ones((4, 2)), (2, 2)))


class TestLinearRegression:
    def test_recovers_plane(self, maybe_runtime):
        rng = np.random.default_rng(7)
        x = rng.random((200, 3))
        true_coef = np.array([[2.0], [-1.0], [0.5]])
        y = x @ true_coef + 3.0
        dx = array(x, block_shape=(50, 3))
        dy = array(y, block_shape=(50, 1))
        model = LinearRegression().fit(dx, dy)
        np.testing.assert_allclose(model.coef_, true_coef, atol=1e-8)
        assert model.intercept_ == pytest.approx(3.0, abs=1e-8)
        assert model.score(dx, dy) == pytest.approx(1.0)

    def test_noisy_fit_reasonable(self, maybe_runtime):
        rng = np.random.default_rng(8)
        x = rng.random((400, 2))
        y = x @ np.array([[1.0], [2.0]]) + 0.05 * rng.normal(size=(400, 1))
        dx = array(x, block_shape=(100, 2))
        dy = array(y, block_shape=(100, 1))
        model = LinearRegression().fit(dx, dy)
        assert model.score(dx, dy) > 0.9

    def test_mismatched_rows_rejected(self, maybe_runtime):
        dx = array(np.ones((10, 2)), (5, 2))
        dy = array(np.ones((8, 1)), (4, 1))
        with pytest.raises(ValueError):
            LinearRegression().fit(dx, dy)


class TestStandardScaler:
    def test_standardizes(self, maybe_runtime):
        rng = np.random.default_rng(9)
        x = rng.normal(loc=5.0, scale=2.0, size=(300, 4))
        ds = array(x, block_shape=(75, 4))
        scaled = StandardScaler().fit_transform(ds).collect()
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_no_nan(self, maybe_runtime):
        x = np.hstack([np.ones((20, 1)), np.arange(20.0).reshape(20, 1)])
        ds = array(x, block_shape=(10, 2))
        scaled = StandardScaler().fit_transform(ds).collect()
        assert not np.isnan(scaled).any()

    def test_transform_before_fit_rejected(self, maybe_runtime):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(array(np.ones((4, 2)), (2, 2)))
