"""The benchmark's workloads: inputs, timed command sequence and output checks.

A workload is built in three steps. ``generate`` writes the input files from
the workload seed; set-up repeats it and reports the median. ``prime`` lists
CLI commands that set-up runs once before timing. ``iteration`` lists the
commands of one pass of the closed loop, and ``verify`` the untimed commands
run after the loop. Every command carries the checks that decide whether it
counts as failed.

``iteration`` takes the index of the input the pass runs on: paper_compare
cycles its passes through ``inputs`` random walks (see :class:`PaperCompare`);
the other workloads have one input.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen
import hostspeed

PINNED_SEED = 7            # ROADMAP baseline seed; its outputs are pinned in digests.json
PAPER_DAYS = 1200          # the paper's scale, Kaggle 2017-01-04..2021-12-03
PAPER_INPUTS = 3           # paper_compare: walks its passes cycle through
HISTORY_WALKS = 10         # score_saved: 12k-day history scored by the saved models
HISTORY_SPLIT = "0.01,0.01"
JPX_DAYS = 1200
JPX_CODES = 1000           # 1.2M rows, about half the 2.3M-row Kaggle file
MODELS = ("lr", "dt", "rf", "fnn")


@dataclass
class Command:
    name: str
    argv: list
    check: Callable[[], list]


def run_command(main, cmd: Command, sampler: hostspeed.Sampler | None = None
                ) -> tuple[float, list]:
    """Run one CLI command in-process; returns (seconds, problems).

    Only the CLI call is timed, through ``sampler`` (a fresh one if None), so
    the seconds leave out its host-speed samples. Its stdout and stderr are
    captured so report printing costs what it costs a user piping the output
    to a file.
    """
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return main(cmd.argv)
        except Exception:  # a crash is a failed command, not a failed benchmark
            err.write(traceback.format_exc())
            return None

    seconds, status = (sampler or hostspeed.Sampler()).time(call)
    if status != 0:
        tail = err.getvalue().strip().splitlines()[-1:] or [""]
        return seconds, [f"{cmd.name}: exit status {status}: {tail[0]}"]
    return seconds, [f"{cmd.name}: {p}" for p in cmd.check()]


def _prepare(data: Path, out: Path, expected: dict, ledger: checks.Ledger,
             key: str, *flags: str) -> Command:
    argv = ["prepare", "--data", str(data), "--out", str(out), "--format", "json", *flags]
    return Command("prepare", argv, lambda: checks.check_summary(out, expected)
                   + ledger.check(f"{key}/dataset.csv", out / "dataset.csv"))


def _compare(out: Path, ledger: checks.Ledger, key: str) -> Command:
    def check():
        problems = checks.check_compare_report(out)
        for name in [f"model_{m}.json" for m in MODELS] + ["report_compare.json"]:
            problems += ledger.check(f"{key}/{name}", out / name)
        return problems
    return Command("compare", ["compare", "--out", str(out), "--format", "json"], check)


def _evaluate(model_file: Path, data_dir: Path, out: Path, split: str, model: str,
              check: Callable[[Path], list], *flags: str) -> Command:
    argv = ["evaluate", "--model-file", str(model_file),
            "--dataset", str(data_dir / "dataset.csv"), "--eval-split", split,
            "--format", "json", "--out", str(out), *flags]
    report = out / f"report_{model}_{split}.json"
    return Command("evaluate", argv, lambda: check(report))


class Workload:
    """Defaults for a workload with no set-up commands, checks after the loop or models."""

    name = ""
    timed_key = ""              # state entry of the input the timed prepare reads
    seed_free_outputs = ()      # digest keys pinned for every seed, not only PINNED_SEED
    inputs = 1                  # inputs the passes cycle through; a run covers each

    def generate(self, work: Path, seed: int) -> dict:
        raise NotImplementedError

    def prime(self, work, state, ledger) -> list:
        return []

    def iteration(self, work, state, ledger, index) -> list:
        raise NotImplementedError

    def verify(self, work, state, ledger) -> list:
        return []

    def timed_input(self, state) -> dict:
        return state[self.timed_key]

    def model_dir(self, work):
        return None

    def rf_rows(self, work) -> int:
        """Rows the RF model scores in one traced pass."""
        return 0


class PaperCompare(Workload):
    """One security at the paper's scale: prepare, then compare all four models.

    Tree-fitting work (rows scanned by best_split) varies 12% (CV, 12 seeds)
    from one random walk to the next, so successive passes cycle through
    PAPER_INPUTS walks and a run reports the mean of their pass times. Walk 0
    is the workload seed's own, so seed 7 pass 0 is the ROADMAP baseline.
    """

    name = "paper_compare"
    timed_key = "paper"
    inputs = PAPER_INPUTS

    def generate(self, work: Path, seed: int) -> dict:
        for k in range(PAPER_INPUTS):
            accounting = gen.single_security(work / f"paper-{k}.csv", PAPER_DAYS,
                                             gen.sub_seed(seed, k))
        return {"paper": accounting}

    def iteration(self, work, state, ledger, index):
        key = f"paper-{index}"
        out = work / key
        return [_prepare(work / f"{key}.csv", out, state["paper"], ledger, key),
                _compare(out, ledger, key)]

    def model_dir(self, work):
        return work / "paper-0"

    def rf_rows(self, work) -> int:
        report = json.loads((work / "paper-0" / "report_compare.json").read_text())
        rf = next(r for r in report["models"] if r["model"] == "RF")
        return rf["tp"] + rf["fp"] + rf["tn"] + rf["fn"]


class JpxPrepare(Workload):
    """Many securities in the Kaggle layout: prepare one code from the full file."""

    name = "jpx_prepare"
    timed_key = "jpx"

    def generate(self, work: Path, seed: int) -> dict:
        return {"jpx": gen.multi_security(work / "stock_prices.csv", JPX_DAYS, JPX_CODES, seed)}

    def iteration(self, work, state, ledger, index):
        return [_prepare(work / "stock_prices.csv", work / "jpx", state["jpx"], ledger,
                         "jpx", "--code", str(gen.TARGET_CODE))]


class ScoreSaved(Workload):
    """Score saved models on a long history of the same security.

    The saved models are always those compare trains on the paper_compare
    input of PINNED_SEED. With models trained on each seed's own walk, tree
    nodes visited per scored row varied 34% (CV, 8 seeds), because trees grow
    to other depths; with the models fixed and the seed picking only the
    history, 4%. The history is ten 1200-day walks back to back, so it stays
    in the price range the models were trained on.
    """

    name = "score_saved"
    timed_key = "history"
    seed_free_outputs = ("saved/",)

    def generate(self, work: Path, seed: int) -> dict:
        return {"paper": gen.single_security(work / "paper.csv", PAPER_DAYS, PINNED_SEED),
                "history": gen.single_security(work / "history.csv", PAPER_DAYS, seed,
                                               n_walks=HISTORY_WALKS)}

    def prime(self, work, state, ledger):
        saved = work / "saved"
        return [_prepare(work / "paper.csv", saved, state["paper"], ledger, "saved"),
                _compare(saved, ledger, "saved")]

    def iteration(self, work, state, ledger, index):
        history = work / "history"
        summary = history / "dataset_summary.json"
        cmds = [_prepare(work / "history.csv", history, state["history"], ledger,
                         "history", "--split", HISTORY_SPLIT)]
        for m in MODELS:
            def check(report, m=m):
                return (checks.check_eval_report(report, summary, "test", m)
                        + ledger.check(f"history/{report.name}", report))
            cmds.append(_evaluate(work / "saved" / f"model_{m}.json", history, history,
                                  "test", m, check, "--split", HISTORY_SPLIT))
        return cmds

    def verify(self, work, state, ledger):
        saved = work / "saved"
        report = json.loads((saved / "report_compare.json").read_text())
        splits = report["metadata"]["evaluation_splits"]
        cmds = []
        for m in MODELS:
            def check(path, m=m):
                return checks.check_reproduces(path, saved / "report_compare.json", m)
            cmds.append(_evaluate(saved / f"model_{m}.json", saved, work / "rescore",
                                  splits[checks.MODEL_LABELS[m]], m, check))
        return cmds

    def model_dir(self, work):
        return work / "saved"

    def rf_rows(self, work) -> int:
        summary = json.loads((work / "history" / "dataset_summary.json").read_text())
        return checks.split_length(summary, "test")


WORKLOADS = {w.name: w for w in (PaperCompare(), JpxPrepare(), ScoreSaved())}
