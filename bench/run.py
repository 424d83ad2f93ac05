"""Run one candlebias benchmark workload and print its metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload paper_compare --seed 7 --seconds 40 --trace 0

Set-up generates the workload's inputs from the seed (and, for score_saved,
trains the models once). A second process then runs the timed closed loop
through ``candlebias.cli.main`` and checks every output. Times are scaled to
a reference host speed (hostspeed.py); the raw times are printed beside
them. The last line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics of BENCHMARK.json with ``--trace 0`` and
its per-layer metrics with ``--trace 1``. ``--pin`` records the output
digests of seed 7 in digests.json instead of checking them.
"""

import os

# One BLAS/OpenMP thread: the program is single-threaded and the benchmark
# must not compete with itself for the host's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SPANS_ROOT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"
PINNED_SEED = workloads.PINNED_SEED
# Set-up repeats input generation at least this often and for at least this
# long, and reports the median, so one slow moment of the host does not set it.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0
RUN_LIMIT_S = 175


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Terminated(BaseException):
    """Raised on SIGTERM. Not an Exception, and not SystemExit, which the
    program's CLI turns into an exit status, so nothing on the way swallows it."""


def _terminate(signum, frame):
    raise Terminated


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _pinned(wl, seed: int) -> dict:
    """Digests this run must reproduce: all of PINNED_SEED's, else the seed-free ones."""
    if not DIGESTS.is_file():
        return {}
    pins = json.loads(DIGESTS.read_text(encoding="utf-8")).get(wl.name, {})
    return {k: v for k, v in pins.items()
            if seed == PINNED_SEED or k.startswith(wl.seed_free_outputs)}


def _per_input(passes, value):
    """Mean over the inputs of the median of ``value(pass)`` on each input, or None."""
    by_input: dict = {}
    for p in passes:
        v = value(p)
        if v is not None:
            by_input.setdefault(p["input"], []).append(v)
    if not by_input:
        return None
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def _command_s(passes, command: str, combine=statistics.median):
    """A command's time in reference seconds, scaled by its pass's factor."""
    return _per_input(passes, lambda p: combine(p["times"][command]) * p["factor"]
                      if command in p["times"] else None)


def run(wl, work: Path, args) -> tuple[dict, dict, dict]:
    """Set up, run the timed phase; returns (declared metrics, extra metrics, outcome)."""
    started = time.perf_counter()
    ledger = checks.Ledger({} if args.pin else _pinned(wl, args.seed))
    generate_s = []
    generating = hostspeed.Sampler()
    while len(generate_s) < SETUP_MIN_REPEATS or sum(generate_s) < SETUP_MIN_S:
        seconds, state = generating.time(wl.generate, work, args.seed)
        generate_s.append(seconds)

    attempted = failed = 0
    problems = []
    prime_s = 0.0
    priming = hostspeed.Sampler()
    prime = wl.prime(work, state, ledger)
    if prime:
        sys.path.insert(0, str(SRC))
        from candlebias import cli
        for cmd in prime:
            seconds, found = workloads.run_command(cli.main, cmd, priming)
            prime_s += seconds
            attempted += 1
            failed += bool(found)
            problems += found
    raw_setup_s = statistics.median(generate_s) + prime_s
    setup_s = statistics.median(generate_s) * generating.factor() + prime_s * priming.factor()

    SPANS_ROOT.mkdir(exist_ok=True)
    spec = {"src": str(SRC), "work": str(work), "workload": wl.name, "state": state,
            "seconds": args.seconds, "trace": args.trace, "pinned": ledger.pinned,
            "result": str(work / "result.json"),
            "spans_out": str(SPANS_ROOT / f"spans-{wl.name}-{args.seed}.jsonl")}
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    try:
        child = subprocess.run([sys.executable, str(BENCH / "measure.py"),
                                str(work / "spec.json")], timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed phase did not finish within {budget:.0f} s") from exc
    if child.returncode != 0:
        raise BenchError(f"timed phase exited with status {child.returncode}")
    res = json.loads((work / "result.json").read_text(encoding="utf-8"))

    attempted += res["attempted"]
    failed += res["failed"]
    problems += res["problems"]
    untraced = [p for p in res["passes"] if not p["traced"]]
    raw_wall_s = _per_input(untraced, lambda p: p["wall_s"])
    e2e = {"setup_s": setup_s,
           "wall_s": _per_input(untraced, lambda p: p["wall_s"] * p["factor"]),
           "peak_rss_mb": res["peak_rss_mb"]}
    prepare_s = _command_s(untraced, "prepare")
    extra = {"fail_ratio": failed / attempted, "passes": len(res["passes"]),
             "measured_s": res["measured_s"], "raw_setup_s": raw_setup_s,
             "raw_wall_s": raw_wall_s, "timed_speed_factor": e2e["wall_s"] / raw_wall_s,
             "prepare_s": prepare_s,
             "ingest_rows_per_s": wl.timed_input(state)["input_rows"] / prepare_s}
    compare_s = _command_s(untraced, "compare")
    if compare_s is not None:
        extra["compare_s"] = compare_s
    evaluate_s = _command_s(untraced, "evaluate", combine=sum)
    if evaluate_s is not None:
        extra["evaluate_s"] = evaluate_s
        extra["scored_rows_per_s"] = wl.rf_rows(work) * len(workloads.MODELS) / evaluate_s
    outcome = {"attempted": attempted, "failed": failed, "problems": problems,
               "digests": ledger.first | res["digests"]}
    return res["per_layer"] if args.trace else e2e, extra, outcome


def _pin(workload: str, digests: dict) -> None:
    pins = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    pins[workload] = dict(sorted(digests.items()))
    DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help=f"write this run's output digests to {DIGESTS.name}")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and waits for the
    # timed-phase process, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, _terminate)
    if args.pin and args.seed != PINNED_SEED:
        parser.error(f"--pin needs --seed {PINNED_SEED}")
    if not (SRC / "candlebias" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'candlebias'}", file=sys.stderr)
        return 2
    declared = _spec()["per_layer" if args.trace else "end_to_end"]

    wl = workloads.WORKLOADS[args.workload]
    work = WORK_ROOT / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        values, extra, outcome = run(wl, work, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Terminated:
        print("error: terminated", file=sys.stderr)
        return 143
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in outcome["problems"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    if args.pin:
        _pin(wl.name, outcome["digests"])
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:42s} {values[m['name']]:.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"{name:42s} {value:.6g}")
    print(json.dumps({"correct": outcome["failed"] == 0, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
