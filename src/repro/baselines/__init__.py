"""Baseline execution models (DESIGN.md S14).

The paper's motivation: "traditional scientific computational workflows are
fragmented into separated components, with HPC and HDA phases using
different programming models and different environments" (§I).  This package
implements that status quo as a comparator: stage-batch execution with
global barriers and hand-managed (worst-case) resource reservations.
"""

from repro import _export_lazily

_export_lazily(
    globals(),
    {
        "FragmentedPipeline": "fragmented",
        "run_fragmented": "fragmented",
        "run_holistic": "fragmented",
    },
)
