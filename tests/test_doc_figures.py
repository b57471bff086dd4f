"""Doc figures cannot drift from the benchmark artifact they quote.

``EXPERIMENTS.md`` E14b prints the throughput rows of the committed
``BENCH_streaming.json``, and the README's dataflow-plane section quotes
its 1M-event point.  A figure retyped by hand once read 1.4 µs/event
where the JSON said 1.77; this test makes the pair inseparable: every
printed number must equal the JSON value at the printed precision.  It is
tier-1, so in CI it runs before the bench smoke steps rewrite the JSON and
therefore checks the committed pair.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _e14b():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    section = text[text.index("\n## E14b") :]
    section = section[: section.index("\n## ", 1)]
    summary = re.search(r"^\| E14b \|.*$", text, re.MULTILINE).group(0)
    results = json.loads((ROOT / "BENCH_streaming.json").read_text())
    return section, summary, results["scale"], results["throughput"]


def _printed(pattern, text):
    match = re.search(pattern, text)
    assert match, f"E14b no longer contains /{pattern}/"
    return match.group(1)


def test_e14b_throughput_rows_equal_bench_streaming_json():
    section, _summary, scale, throughput = _e14b()
    assert scale == "default"  # a smoke run must not be committed
    count, number = r"([\d,]+)", r"([\d.]+)"
    rows = re.findall(
        rf"^\| {count} \| {number} s \| {count} \| {number} \| {count} \| {count} \|$",
        section,
        re.MULTILINE,
    )
    assert rows == [
        (
            f"{point['events']:,}",
            f"{point['wall_s']:.3f}",
            f"{point['events_per_sec']:,.0f}",
            f"{point['us_per_event']:.2f}",
            f"{point['engine_events']:,}",
            f"{point['retained_high_water']:,}",
        )
        for point in throughput["campaigns"]
    ]


def test_e14b_spread_and_speedup_sentence_equal_bench_streaming_json():
    section, summary, _scale, throughput = _e14b()
    sentence = " ".join(section.split())
    baseline = throughput["before_per_element"]
    spread = f"{throughput['spread']:.2f}"
    assert _printed(r"spread 100k→1M is \*\*([\d.]+)×\*\*", sentence) == spread
    assert _printed(r"\(ceiling ([\d.]+)×", sentence) == (
        f"{throughput['spread_ceiling']:g}"
    )
    assert _printed(r"floor (\d+)k events/s asserted", sentence) == (
        f"{throughput['events_per_sec_floor'] / 1000:.0f}"
    )
    assert _printed(r"measures ([\d.]+) µs/event at 100k events", sentence) == (
        f"{baseline['us_per_event']:.2f}"
    )
    assert baseline["events"] == 100_000
    assert _printed(r"is \*\*([\d.]+)×\*\* cheaper per event", sentence) == (
        f"{throughput['speedup_vs_per_element']:.2f}"
    )
    largest = throughput["campaigns"][-1]
    assert _printed(r"@ ([\d.]+) µs/event", summary) == (
        f"{largest['us_per_event']:.2f}"
    )
    assert _printed(r"([\d.]+)× spread", summary) == spread


def test_readme_dataflow_plane_figures_equal_bench_streaming_json():
    _section, _summary, _scale, throughput = _e14b()
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    quoted = readme[readme.index("`benchmarks/bench_streaming.py` holds the plane") :]
    largest = throughput["campaigns"][-1]
    assert _printed(r"absolute (\d+)k events/sec floor", quoted) == (
        f"{throughput['events_per_sec_floor'] / 1000:.0f}"
    )
    assert _printed(r"campaign at ([\d.]+) µs/event", quoted) == (
        f"{largest['us_per_event']:.2f}"
    )
    assert _printed(r"\(([\d.]+)M events/s", quoted) == (
        f"{largest['events_per_sec'] / 1e6:.2f}"
    )
    assert _printed(r"spread ([\d.]+)×", quoted) == f"{throughput['spread']:.2f}"
    assert _printed(r"([\d.]+)× cheaper than per-element", quoted) == (
        f"{throughput['speedup_vs_per_element']:.2f}"
    )
