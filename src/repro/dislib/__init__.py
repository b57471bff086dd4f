"""dislib: a distributed machine-learning library on the task runtime.

"Our group is also doing developments on a distributed computing library
(dislib) for machine learning which is internally parallelized with
PyCOMPSs. The goal is to provide a simple and easy to use interface, which
enables the use of optimized algorithms that run in parallel." (§VI-C)

The public surface mirrors the real dislib: a blocked distributed array
(:func:`array`, which partitions an in-memory array and collects it back)
plus scikit-learn-style estimators whose ``fit``/``predict`` are internally
expressed as ``@task`` graphs, so they parallelize under an active
:class:`~repro.Runtime` and degrade to sequential execution without one.
"""

from repro import _export_lazily

_export_lazily(
    globals(),
    {
        "DsArray": "array",
        "array": "array",
        "KMeans": "kmeans",
        "LinearRegression": "linear_regression",
        "StandardScaler": "preprocessing",
    },
)
