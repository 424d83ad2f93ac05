"""Tests of the benchmark's own code: python3 -m pytest bench/test_bench.py"""

import hashlib
import json
import signal
import sys
import time
import types
from pathlib import Path

import pytest

import checks
import gen
import hostspeed
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from candlebias import cli, dataset  # noqa: E402

# single_security(1200, 7) is the ROADMAP baseline input, byte for byte the
# test suite's write_raw_csv(synthetic_candles(1200, seed=7)).
BASELINE_SHA256 = "1e4ccd2ffe7d197ffd7ef99281469185b8af4afa29ae66d184d43a494ec250e0"
MULTI_30x40_SEED11_SHA256 = "7c46a3170a1d2af3c811db1136de52bd1a12e3366b8735194bc1c8b38335cc6d"


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_single_security_is_stable_per_seed(tmp_path):
    gen.single_security(tmp_path / "a.csv", 1200, 7)
    gen.single_security(tmp_path / "b.csv", 1200, 7)
    gen.single_security(tmp_path / "c.csv", 1200, 8)
    assert _sha(tmp_path / "a.csv") == _sha(tmp_path / "b.csv") == BASELINE_SHA256
    assert _sha(tmp_path / "c.csv") != BASELINE_SHA256


def test_history_starts_with_the_paper_walk(tmp_path):
    gen.single_security(tmp_path / "paper.csv", 300, 5)
    expected = gen.single_security(tmp_path / "history.csv", 300, 5, n_walks=3)
    paper = (tmp_path / "paper.csv").read_text().splitlines()
    history = (tmp_path / "history.csv").read_text().splitlines()
    assert history[:301] == paper and len(history) == 901
    assert expected["input_rows"] == expected["matched_rows"] == 900
    dates = [line.split(",")[1] for line in history[1:]]
    assert dates == sorted(set(dates))


def test_multi_security_is_stable_and_accounts_planted_rows(tmp_path):
    expected = gen.multi_security(tmp_path / "m.csv", 30, 40, 11)
    gen.multi_security(tmp_path / "n.csv", 30, 40, 11)
    assert _sha(tmp_path / "m.csv") == _sha(tmp_path / "n.csv") == MULTI_30x40_SEED11_SHA256
    gen.multi_security(tmp_path / "o.csv", 30, 40, 12)
    assert _sha(tmp_path / "o.csv") != MULTI_30x40_SEED11_SHA256

    header = (tmp_path / "m.csv").read_text().splitlines()[0].split(",")
    assert header == gen.KAGGLE_HEADER
    _, stats = dataset.ingest_csv(tmp_path / "m.csv", gen.TARGET_CODE)
    assert {k: getattr(stats, k.replace("input_rows", "total_rows"))
            for k in checks.ACCOUNTING_KEYS} == expected
    assert expected == {"input_rows": 1200, "matched_rows": 30,
                        "dropped_missing": 2 * gen.PLANTED_PER_KIND,
                        "dropped_malformed": gen.PLANTED_PER_KIND}


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, run_id=0)


def test_self_time_of_a_hand_built_span_tree():
    # root [0, 100] has children a [10, 30] and b [40, 90]; b has c [50, 60].
    tree = [_span("cli.root", 0, 100, -1), _span("trees.a", 10, 30, 0),
            _span("cli.b", 40, 90, 0), _span("trees.c", 50, 60, 2)]
    assert [round(s * 1e9) for s in spans.self_times(tree)] == [30, 20, 40, 10]

    summary = spans.summarize(tree)
    assert summary["names"]["cli.b"] == pytest.approx(
        {"s": 50e-9, "self_s": 40e-9, "calls": 1, "none": 0})
    # cli.b nests inside cli.root, so the cli layer counts root only.
    assert summary["layers"] == pytest.approx({"cli": 100e-9, "trees": 30e-9})
    assert spans.summarize(tree, keep=lambda s: s.name == "trees.c")["layers"] == \
        pytest.approx({"trees": 10e-9})


def test_tracer_catches_calls_made_through_module_globals():
    mod = types.ModuleType("fake")
    exec("def outer(n):\n    return [inner(i) for i in range(n)]\n"
         "def inner(i):\n    return None if i else 1\n"
         "def predict_tree(x):\n    return x\n", mod.__dict__)
    tracer = spans.Tracer()
    tracer.install(mod, "trees")
    mod.outer(3)                       # disabled: records nothing
    tracer.enabled = True
    mod.outer(3)
    mod.predict_tree(1)                # a per-row helper stays unwrapped
    tracer.uninstall()
    mod.outer(3)
    assert [(s.name, s.parent, s.returned_none) for s in tracer.spans] == [
        ("trees.outer", -1, False), ("trees.inner", 0, False),
        ("trees.inner", 0, True), ("trees.inner", 0, True)]


def test_ledger_flags_a_tampered_file(tmp_path):
    model = tmp_path / "model_rf.json"
    model.write_text('{"trees": []}\n')
    pinned = checks.Ledger({"m/model_rf.json": checks.sha256(model)})
    assert pinned.check("m/model_rf.json", model) == []
    model.write_text('{"trees": [1]}\n')
    problems = pinned.check("m/model_rf.json", model)
    assert any("pinned" in p for p in problems)
    assert any("first repeat" in p for p in problems)
    model.unlink()
    assert checks.Ledger().check("m/model_rf.json", model) == ["m/model_rf.json: missing"]


def test_sampler_scales_by_the_trimmed_mean_kernel_time():
    sampler = hostspeed.Sampler()
    assert sampler.factor() == 1.0
    # Bimodal like the host's fast and slow states, plus one outlier at each end.
    sampler.samples = [0.002] * 19 + [0.006] * 19 + [0.0, 1.0]
    assert sampler.factor() == pytest.approx((hostspeed.REFERENCE_S / 0.004)
                                             ** hostspeed.ELASTICITY)


def test_sampler_samples_during_the_work_and_leaves_its_time_out():
    def work():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        return "done"

    sampler = hostspeed.Sampler()
    seconds, result = sampler.time(work)
    assert result == "done"
    assert len(sampler.samples) >= 0.2 / hostspeed.INTERVAL_S - 2
    assert seconds == pytest.approx(0.2 - sampler.spent, abs=0.01)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_pass_times_are_averaged_over_inputs():
    passes = [{"input": 0, "wall_s": 4.0}, {"input": 1, "wall_s": 8.0},
              {"input": 0, "wall_s": 6.0}, {"input": 0, "wall_s": 5.0}]
    assert run._per_input(passes, lambda p: p["wall_s"]) == pytest.approx((5.0 + 8.0) / 2)
    assert run._per_input(passes, lambda p: None) is None


@pytest.fixture(scope="module")
def compared(tmp_path_factory):
    """A real prepare + compare on a small input, with a 5-tree forest."""
    work = tmp_path_factory.mktemp("compared")
    expected = gen.single_security(work / "paper.csv", 400, 3)
    config = work / "config.json"
    config.write_text(json.dumps({"rf": {"n_estimators": 5}}))
    ledger = checks.Ledger()
    out = work / "out"
    prepare = workloads._prepare(work / "paper.csv", out, expected, ledger, "k")
    compare = workloads._compare(out, ledger, "k")
    compare.argv += ["--config", str(config)]
    for cmd in (prepare, compare):
        assert workloads.run_command(cli.main, cmd)[1] == []
    return work, out, prepare, compare


def test_corrupted_model_file_fails_its_command(compared):
    _, out, _, compare = compared

    def main_then_corrupt(argv):
        status = cli.main(argv)
        with open(out / "model_rf.json", "a") as fh:
            fh.write(" ")
        return status

    _, problems = workloads.run_command(main_then_corrupt, compare)
    assert problems and all(p.startswith("compare: k/model_rf.json") for p in problems)
    assert workloads.run_command(cli.main, compare)[1] == []


def test_wrong_confusion_counts_and_rows_are_flagged(compared):
    work, out, prepare, _ = compared
    report_path = out / "report_compare.json"
    good = report_path.read_text()
    report = json.loads(good)
    report["models"][2]["tn"] += 1
    report_path.write_text(json.dumps(report))
    try:
        problems = checks.check_compare_report(out)
        assert len(problems) == 1 and problems[0].startswith("RF: confusion counts sum to")
        rescored = work / "rf.json"
        rescored.write_text(json.dumps({"models": [json.loads(good)["models"][2]]}))
        assert checks.check_reproduces(rescored, report_path, "rf") != []
        assert checks.check_reproduces(rescored, work / "nope.json", "rf") != []
    finally:
        report_path.write_text(good)
    assert checks.check_reproduces(rescored, report_path, "rf") == []


def test_wrong_row_accounting_is_flagged(compared):
    _, out, _, _ = compared
    planted = {"input_rows": 400, "matched_rows": 400, "dropped_missing": 1,
               "dropped_malformed": 0}
    problems = checks.check_summary(out, planted)
    assert "summary dropped_missing: 0 != expected 1" in problems


def test_failed_exit_status_fails_the_command(compared):
    _, _, prepare, _ = compared
    broken = workloads.Command("prepare", prepare.argv + ["--split", "0.9,0.2"], prepare.check)
    _, problems = workloads.run_command(cli.main, broken)
    assert len(problems) == 1 and problems[0].startswith("prepare: exit status 2")
