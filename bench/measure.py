"""Timed phase of one benchmark run, in a process of its own.

Started by run.py after set-up, so the peak resident set it reports covers
the timed phase only. Usage: ``python3 bench/measure.py SPEC.json``; the spec
names the workload, work directory, program source, run length and tracing,
and the result is written to the path the spec gives.

The loop is closed with one client: each CLI command starts when the previous
one has finished, all in this process. A run makes at least one pass over
each of the workload's inputs, then starts another pass only while it is
expected to end within the run's seconds. With tracing on, untraced and
traced passes alternate, so per-layer numbers and the tracing overhead come
from the same stretch of time. Each pass is timed through its own
host-speed sampler (hostspeed.py), and records the sampler's factor.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import hostspeed
import spans
import workloads

LAYERS = ("dataset", "logistic", "trees", "neural", "metrics", "cli")


def layer_metrics(summary: dict, ctx: dict) -> dict:
    """Per-layer metrics of one traced pass (see README.md for what each moves)."""
    names, layers = summary["names"], summary["layers"]

    def get(name, field="s"):
        return names.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{layer}.s": layers.get(layer, 0.0) for layer in LAYERS if layer != "cli"}
    for name in ("dataset.ingest_csv", "dataset.label", "dataset.write_labeled_csv",
                 "dataset.read_labeled_csv", "trees.fit_forest", "trees.fit_tree",
                 "trees.best_split", "trees.oob_error", "trees.forest_to_dict",
                 "trees.forest_from_dict", "trees.predict_forest", "trees.tree_predict",
                 "logistic.train", "logistic.predict_proba", "neural.train_network",
                 "neural.forward", "metrics.evaluate", "metrics.render",
                 "cli.prepare", "cli.compare", "cli.evaluate"):
        m[f"{name}.s"] = get(name)
    for name in ("dataset.read_labeled_csv", "trees.fit_tree", "trees.best_split",
                 "neural.forward"):
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("trees.fit_forest", "cli.prepare", "cli.compare", "cli.evaluate"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["cli.self_s"] = sum(v["self_s"] for k, v in names.items() if k.startswith("cli."))
    m["dataset.ingest_csv.rows_per_s"] = ratio(ctx["input_rows"], get("dataset.ingest_csv"))
    m["dataset.rows_dropped"] = ctx["rows_dropped"]
    calls = get("trees.best_split", "calls")
    m["trees.best_split.hit_ratio"] = ratio(calls - get("trees.best_split", "none"), calls)
    m["trees.nodes"] = ctx["tree_nodes"]
    m["trees.predict_forest.row_trees_per_s"] = ratio(ctx["rf_row_trees"],
                                                      get("trees.predict_forest"))
    return m


def _median_dicts(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def measure(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    cli = importlib.import_module("candlebias.cli")
    work = Path(spec["work"])
    wl = workloads.WORKLOADS[spec["workload"]]
    state = spec["state"]
    ledger = checks.Ledger(spec["pinned"])

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        for layer in LAYERS:
            tracer.install(importlib.import_module(f"candlebias.{layer}"), layer)

    attempted = failed = 0
    problems: list = []
    passes: list = []
    start = time.perf_counter()
    # Traced runs keep to input 0, so per-layer counts are exact per seed,
    # and need an untraced pass beside a traced one.
    min_passes = 2 if tracer else wl.inputs

    def another_pass() -> bool:
        if len(passes) < min_passes:
            return True
        expected = statistics.median(p["wall_s"] for p in passes)
        return time.perf_counter() - start + expected <= spec["seconds"]

    while another_pass():
        traced = tracer is not None and len(passes) % 2 == 1
        index = 0 if tracer else len(passes) % wl.inputs
        times: dict = {}
        run_ids = []
        sampler = hostspeed.Sampler()
        for cmd in wl.iteration(work, state, ledger, index):
            if traced:
                tracer.run_id = attempted
                run_ids.append(attempted)
                tracer.enabled = True
            seconds, found = workloads.run_command(cli.main, cmd, sampler)
            if tracer:
                tracer.enabled = False
            attempted += 1
            failed += bool(found)
            problems += found
            times.setdefault(cmd.name, []).append(seconds)
        passes.append({"traced": traced, "input": index, "run_ids": run_ids, "times": times,
                       "wall_s": sum(sum(v) for v in times.values()),
                       "factor": sampler.factor()})
    measured_s = time.perf_counter() - start

    for cmd in wl.verify(work, state, ledger):
        _, found = workloads.run_command(cli.main, cmd)
        attempted += 1
        failed += bool(found)
        problems += found
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"attempted": attempted, "failed": failed, "problems": problems,
              "passes": passes, "measured_s": measured_s, "peak_rss_mb": peak_rss_mb,
              "digests": ledger.first}
    if tracer:
        tracer.uninstall()
        result["per_layer"] = _per_layer(tracer, passes, wl, work, state)
        tracer.write(spec["spans_out"])
    return result


def _per_layer(tracer, passes, wl, work, state) -> dict:
    model_dir = wl.model_dir(work)
    n_trees = 0
    if model_dir is not None:
        n_trees = len(json.loads((model_dir / "model_rf.json").read_text())["trees"])
    accounting = wl.timed_input(state)
    ctx = {"input_rows": accounting["input_rows"],
           "rows_dropped": accounting["dropped_missing"] + accounting["dropped_malformed"],
           "tree_nodes": checks.count_tree_nodes(model_dir) if model_dir else 0,
           "rf_row_trees": wl.rf_rows(work) * n_trees}
    per_pass = []
    for p in passes:
        if p["traced"]:
            ids = set(p["run_ids"])
            summary = spans.summarize(tracer.spans, keep=lambda s: s.run_id in ids)
            per_pass.append(layer_metrics(summary, ctx) | {"trace.wall_s": p["wall_s"]})
    m = _median_dicts(per_pass)
    untraced = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    m["trace.overhead_s"] = m["trace.wall_s"] - untraced
    m["trace.overhead_share"] = m["trace.overhead_s"] / untraced
    return m


if __name__ == "__main__":
    spec_path = Path(sys.argv[1])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    Path(spec["result"]).write_text(json.dumps(measure(spec)), encoding="utf-8")
