"""The intelligent-runtime layer (§IV, §VI-C).

"Instead of running the workflows following traditional brute force
approaches, the runtime will use machine learning techniques to make
intelligent decisions on the execution of the workflows, and learning from
previous executions, to come up with better application results while
reducing the execution time and energy consumption."

Concretely buildable pieces of that vision:

* :class:`DurationPredictor` — online per-task-type duration models
  (running moments + optional size regression) learned from completed
  executions, feeding schedulers that need estimates;
* :class:`TaskMemoizer` — result reuse for deterministic tasks invoked with
  identical arguments (the cheapest form of "learning from previous
  executions");
* :class:`PredictiveScheduler` hooks — an EFT-style policy whose estimates
  come from the predictor instead of oracle profiles.
"""

from repro import _export_lazily

_export_lazily(
    globals(),
    {
        "DurationPredictor": "predictor",
        "TaskTypeStats": "predictor",
        "TaskMemoizer": "memoization",
        "PredictedFinishTimePolicy": "policy",
    },
)
