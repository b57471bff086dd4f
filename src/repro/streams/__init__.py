"""Streaming dataflows across the continuum (§I, §III).

"the systems where future scientific workflows are to be executed will also
include edge devices like sensors or scientific instruments that will
stream continuous flows of data and similarly the scientists expect results
to be streamed out for monitoring, streaming and visualization of the
scientific results to enable interactivity."

The subsystem runs in virtual time on the DES engine:

* :class:`SensorSource` — an edge device emitting readings (singly or in
  batches, optionally through a :class:`CreditValve` for backpressure)
  into a :class:`DataStream`;
* :class:`DataStream` — an append-only, subscribable channel of timestamped
  elements with watermark-driven retention (pruned prefixes stay
  addressable through :meth:`DataStream.since` down to the watermark);
* :class:`OperatorGraph` / :class:`DataflowPlane` — the one window path:
  a described dataflow (map/filter chains into tumbling windows, keyed
  joins, and stream-fed batch stages) lowered into the task runtime, one
  task per window publishing a :class:`WindowResult`, at flat per-event
  cost.  The fragmented collect-then-compute baseline of experiment E14 is
  the same graph with one window as long as the campaign.
"""

from repro import _export_lazily

_export_lazily(
    globals(),
    {
        "DataStream": "stream",
        "StreamElement": "stream",
        "CreditValve": "sources",
        "SensorSource": "sources",
        "WindowResult": "dataflow",
        "OperatorError": "operators",
        "OperatorGraph": "operators",
        "StreamHandle": "operators",
        "WindowHandle": "operators",
        "DataflowPlane": "dataflow",
    },
)
