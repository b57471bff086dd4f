"""Doc figures cannot drift from the benchmark artifact they quote.

``EXPERIMENTS.md`` E14b prints the throughput rows of the committed
``BENCH_streaming.json``, and the README's dataflow-plane section quotes
its 1M-event point.  A figure retyped by hand once read 1.4 µs/event
where the JSON said 1.77; this test makes the pair inseparable: every
printed number must equal the JSON value at the printed precision.  It is
tier-1, so in CI it runs before the bench smoke steps rewrite the JSON and
therefore checks the committed pair.

E16 is held the same way: the table rows, the measured-speedup /
projected-speedup sentence, the per-event cost spread, the soak rows and
bytes per death, the summary row and the README's churn paragraph must
equal ``BENCH_continuum_churn.json``.
So are the real-runtime figures of E11 and E1c, against
``BENCH_runtime_overhead.json``, and E2b's dated rows, against
``BENCH_data_plane.json`` (its PR 5 before/after table stays as history).
E15's table is held to ``BENCH_compile_reuse.json`` on the columns that
repeat from run to run (counts of tasks, not wall time).
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _section(text, heading):
    section = text[text.index(f"\n## {heading} ") :]
    return section[: section.index("\n## ", 1)]


def _e14b():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    section = _section(text, "E14b")
    summary = re.search(r"^\| E14b \|.*$", text, re.MULTILINE).group(0)
    results = json.loads((ROOT / "BENCH_streaming.json").read_text())
    return section, summary, results["scale"], results["throughput"]


def _printed(pattern, text):
    match = re.search(pattern, text)
    assert match, f"the docs no longer contain /{pattern}/"
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
    """The spread sentence and summary row (the per-element speedup it also
    used to quote left with the per-element path: E14b "History")."""
    section, summary, _scale, throughput = _e14b()
    sentence = " ".join(section.split())
    spread = f"{throughput['spread']:.2f}"
    assert _printed(r"spread 100k→1M is \*\*([\d.]+)×\*\*", sentence) == spread
    assert _printed(r"\(ceiling ([\d.]+)×", sentence) == (
        f"{throughput['spread_ceiling']:g}"
    )
    assert _printed(r"floor (\d+)k events/s asserted", sentence) == (
        f"{throughput['events_per_sec_floor'] / 1000:.0f}"
    )
    largest = throughput["campaigns"][-1]
    assert _printed(r"DES — ([\d.]+) per element", sentence) == (
        f"{largest['engine_events'] / largest['events']:.3f}"
    )
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


# --------------------------------------------------------------------- E16


def _e16():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    section = _section(text, "E16")
    summary = re.search(r"^\| E16 \|.*$", text, re.MULTILINE).group(0)
    results = json.loads((ROOT / "BENCH_continuum_churn.json").read_text())
    return " ".join(section.split()), section, summary, results


def _e16_headline(results):
    reference = results["broadcast_reference"]
    projection = results["broadcast_projection"]
    return (
        f"{reference['measured_speedup']:.0f}× measured at "
        f"{reference['agents'] // 1000}k agents, "
        f"~{projection['projected_speedup']:,.0f}× projected at "
        f"{projection['agents'] // 1000}k"
    )


def test_e16_table_rows_equal_bench_continuum_churn_json():
    _sentence, section, _summary, results = _e16()
    assert results["scale"] == "default"  # a smoke run must not be committed
    count, number = r"([\d,]+)", r"([\d.]+)"
    rows = re.findall(
        rf"^\| {count} \| (broadcast|interest) \| {count} \| {count} \| "
        rf"{number} s \| {count} \| {number} \| {number} \|$",
        section,
        re.MULTILINE,
    )
    assert rows == [
        (
            f"{point['agents']:,}",
            point["notification"],
            f"{point['deaths']:,}",
            f"{point['useful_events']:,}",
            f"{point['seconds']:.3f}",
            f"{point['useful_events_per_sec']:,.0f}",
            f"{point['us_per_useful_event']:.1f}",
            f"{point['recovered_work_fraction']:.2f}",
        )
        for point in results["reference_points"] + results["points"]
    ]


def test_e16_speedup_and_flatness_sentences_equal_bench_continuum_churn_json():
    sentence, _section, summary, results = _e16()
    reference = results["broadcast_reference"]
    projection = results["broadcast_projection"]
    points, top = results["points"], results["points"][-1]
    assert top["agents"] == projection["agents"]
    assert _printed(r"reference: \*\*(\d+)×\*\* \(floor", sentence) == (
        f"{reference['measured_speedup']:.0f}"
    )
    assert _printed(r"≈ (\d+)M notices", sentence) == (
        f"{projection['projected_down_notices'] / 1e6:.0f}"
    )
    assert _printed(r"notices, ~([\d,]+) s at the measured", sentence) == (
        f"{projection['projected_seconds']:,.0f}"
    )
    assert _printed(r"measured ([\d.]+) µs/notice", sentence) == (
        f"{projection['per_notice_us']:.1f}"
    )
    assert _printed(r"\*\*~([\d,]+)× slower\*\*", sentence) == (
        f"{projection['projected_speedup']:,.0f}"
    )
    assert _printed(r"than the ([\d.]+) s interest run", sentence) == (
        f"{top['seconds']:.2f}"
    )
    assert _printed(r"5k→50k \(([\d.→ ]+) µs,", sentence) == " → ".join(
        f"{point['us_per_useful_event']:.1f}" for point in points
    )
    costs = [point["us_per_useful_event"] for point in points]
    assert results["flatness"]["spread"] == max(costs) / min(costs)
    assert _printed(r"µs, spread \*\*([\d.]+)×\*\*", sentence) == (
        f"{results['flatness']['spread']:.2f}"
    )
    assert _printed(r"asserted bound ([\d.]+)×", sentence) == (
        f"{results['flatness']['bound']:g}"
    )
    assert _e16_headline(results) in summary


def test_e16_soak_rows_equal_bench_continuum_churn_json():
    sentence, section, _summary, results = _e16()
    soak = results["soak"]
    assert _printed(r"\*\*Churn soak\*\* \(([\d,]+) agents", section) == (
        f"{soak['agents']:,}"
    )
    assert _printed(r"for ([\d,]+) simulated seconds", sentence) == (
        f"{soak['duration_s']:,.0f}"
    )

    def row(label):
        cells = _printed(rf"(?m)^\| {re.escape(label)} \|(.*)\|$", section)
        return [cell.strip() for cell in cells.split("|")]

    assert row("t (s)") == [f"{t:,.0f}" for t in soak["times_s"]]
    assert row("deaths") == [f"{d:,}" for d in soak["deaths"]]
    assert row("traced heap (MB)") == [f"{mb:.3f}" for mb in soak["traced_mb"]]
    assert row("RSS (MB)") == [f"{mb:.1f}" for mb in soak["rss_mb"]]
    assert _printed(r"traced heap grows \*\*(\d+) B per death\*\*", sentence) == (
        f"{soak['traced_bytes_per_death']:.0f}"
    )
    assert _printed(r"asserted bound (\d+) B", sentence) == (
        f"{soak['bound_bytes_per_death']:.0f}"
    )
    assert _printed(r"and RSS (\d+) B per death", sentence) == (
        f"{soak['rss_bytes_per_death']:.0f}"
    )


def test_readme_churn_figures_equal_bench_continuum_churn_json():
    results = _e16()[3]
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    quoted = readme[readme.index("`benchmarks/bench_continuum_churn.py` (E16)") :]
    quoted = quoted[: quoted.index("`BENCH_continuum_churn.json`")]
    headline = _e16_headline(results).replace("measured at", "at the").replace(
        "k agents,", "k-agent reference point,"
    )
    assert headline in quoted
    assert _printed(r"spread ([\d.]+)× across 5k→50k", quoted) == (
        f"{results['flatness']['spread']:.2f}"
    )


# --------------------------------------------------------------- E11 / E1c


def _runtime_overhead():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    results = json.loads((ROOT / "BENCH_runtime_overhead.json").read_text())
    assert results["scale"] == "default"  # a smoke run must not be committed
    return text, results


def test_e11_rows_equal_bench_runtime_overhead_json():
    text, results = _runtime_overhead()
    section = _section(text, "E11")
    independent = results["independent_tasks"]
    chain = results["dependency_chain"]
    assert _printed(
        r"\| independent-task throughput \(([\d,]+) tasks, \d+ workers\)", section
    ) == f"{independent['tasks']:,}"
    assert _printed(r"workers\) \| ([\d,]+) tasks/s \|", section) == (
        f"{independent['tasks_per_sec']:,.0f}"
    )
    assert _printed(r"hop latency \(([\d,]+)-task chain\)", section) == (
        f"{chain['length']:,}"
    )
    assert _printed(r"chain\) \| ([\d.]+) µs \|", section) == (
        f"{chain['us_per_hop']:.1f}"
    )
    assert _printed(r"resolved future \| ([\d.]+) µs \|", section) == (
        f"{results['wait_on_resolved']['us']:.1f}"
    )
    summary = re.search(r"^\| E11 \|.*$", text, re.MULTILINE).group(0)
    assert _printed(r"([\d,]+) tasks/s real execution", summary) == (
        f"{independent['tasks_per_sec']:,.0f}"
    )


def test_e11_soak_rows_equal_bench_runtime_overhead_json():
    text, results = _runtime_overhead()
    section = _section(text, "E11")
    soak = results["soak"]
    assert _printed(r"\*\*Master-memory soak\*\* \(([\d,]+) waves", section) == (
        f"{soak['waves']:,}"
    )
    assert _printed(r"waves of ([\d,]+) tasks", section) == f"{soak['tasks_per_wave']:,}"

    def row(label):
        cells = _printed(rf"(?m)^\| {re.escape(label)} \|(.*)\|$", section)
        return [cell.strip() for cell in cells.split("|")]

    assert row("traced heap (MB)") == [f"{mb:.3f}" for mb in soak["traced_mb"]]
    assert row("RSS (MB)") == [f"{mb:.1f}" for mb in soak["rss_mb"]]
    for label, key in (("traced heap", "traced_growth_per_wave"), ("RSS", "rss_growth_per_wave")):
        assert _printed(rf"{label} (-?[\d.]+) % per wave", section) == (
            f"{100 * soak[key]:.2f}"
        )


def test_e1c_submission_rates_equal_bench_runtime_overhead_json():
    text, results = _runtime_overhead()
    sentence = " ".join(_section(text, "E1c").split())
    submission = results["submission"]
    assert _printed(r"real backend \(([\d,]+) trivial tasks", sentence) == (
        f"{submission['tasks']:,}"
    )
    assert _printed(r"\*\*([\d,]+) tasks/s\*\* via per-call", sentence) == (
        f"{submission['submit_tasks_per_sec']:,.0f}"
    )
    assert _printed(r"\*\*([\d,]+) tasks/s\*\* via `submit_many\(\)`", sentence) == (
        f"{submission['submit_many_tasks_per_sec']:,.0f}"
    )


# --------------------------------------------------------------------- E2b


def test_e2b_dated_rows_equal_bench_data_plane_json():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    section = _section(text, "E2b")
    results = json.loads((ROOT / "BENCH_data_plane.json").read_text())
    assert results["scale"] == "default"  # a smoke run must not be committed
    count, number = r"([\d,]+)", r"([\d.]+)"
    rows = re.findall(
        rf"^\| \d{{4}}-\d\d-\d\d \| {count} \| {count} \| {number} s \| {count} \| {count}× \|$",
        section,
        re.MULTILINE,
    )
    assert rows == [
        (
            f"{point['objects']:,}",
            f"{point['ops']:,}",
            f"{point['seconds']:.3f}",
            f"{point['ops_per_sec']:,.0f}",
            f"{results['speedup_vs_baseline'][str(point['objects'])]:,.0f}",
        )
        for point in results["points"]
    ]


# --------------------------------------------------------------------- E15


def test_e15_counts_equal_bench_compile_reuse_json():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    results = json.loads((ROOT / "BENCH_compile_reuse.json").read_text())
    assert results["scale"] == "default"  # a smoke run must not be committed
    count, number = r"(\d+)", r"([\d.]+)"
    rows = re.findall(
        rf"^\| {number} \| {count} \| {count} \| {count} \| {count} \| {count} "
        rf"\| {number} \| {number} \|$",
        _section(text, "E15"),
        re.MULTILINE,
    )
    assert len(rows) == len(results["points"]) == 4
    for row, point in zip(rows, results["points"]):
        overlap, submitted, off, on, aliased, from_cache, fewer, _faster = row
        assert (overlap, submitted, off, on, fewer) == (
            f"{point['overlap']:.2f}",
            f"{point['submitted']}",
            f"{point['executed_off']}",
            f"{point['executed_on']}",
            f"{point['exec_ratio']:.1f}",
        )
        # Alias or hit depends on how far the workers had got; the sum —
        # every submission that never became a task — does not.
        reused = point["submitted"] - point["executed_on"]
        assert int(aliased) + int(from_cache) == reused
        assert point["aliased"] + point["from_cache"] == reused
