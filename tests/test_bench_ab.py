"""The A/B summary of tools/bench_ab.py: wins, ties, the gain rule, the no-regression verdict and the exit status."""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

import bench_ab  # noqa: E402

RTF = {"name": "rtf", "unit": "s/s", "better": "lower", "bound": 0.25}


def runs(*values):
    return [{"metrics": {"rtf": {"value": v}}} for v in values]


def cells(line: str) -> tuple[str, str]:
    """The wins and gain columns of a summary line."""
    *_, wins, gain, _ = line.split()
    return wins, gain


def verdict(line: str) -> str:
    return line.split()[-1]


def test_gain_needs_nine_tenths_of_pairs_and_medians_beyond_the_spread():
    old = runs(*[1.0 + 0.01 * i for i in range(10)])
    assert cells(bench_ab.compare(RTF, old, runs(*[0.8] * 10))) == ("10/10", "yes")
    # a tie counts for neither side, so nine wins of ten still show a gain
    assert cells(bench_ab.compare(RTF, old, runs(1.0, *[0.8] * 9))) == ("9/10", "yes")
    assert cells(bench_ab.compare(RTF, old, runs(1.0, 1.01, *[0.8] * 8))) == ("8/10", "no")
    # every pair won, but by less than the revision's quartile spread
    assert cells(bench_ab.compare(RTF, old, runs(*[v - 0.001 for v in (1.0 + 0.01 * i for i in range(10))]))) == (
        "10/10", "no")


def test_higher_is_better_and_missing_metrics():
    better_higher = dict(RTF, better="higher")
    assert cells(bench_ab.compare(better_higher, runs(1.0, 1.0), runs(2.0, 2.0))) == ("2/2", "yes")
    assert bench_ab.compare(dict(RTF, name="absent"), runs(1.0), runs(1.0)).split()[1] == "(missing)"


def test_worse_when_the_median_loses_by_more_than_the_bound():
    old = runs(*[1.0 + 0.01 * i for i in range(10)])  # median 1.045, quartile spread 0.045
    assert verdict(bench_ab.compare(RTF, old, runs(*[1.3] * 10))) == "ok"  # +24%
    assert verdict(bench_ab.compare(RTF, old, runs(*[1.31] * 10))) == "worse"  # +25.4%
    assert verdict(bench_ab.compare(dict(RTF, better="higher"), old, runs(*[0.78] * 10))) == "worse"
    assert verdict(bench_ab.compare(dict(RTF, better="higher"), old, runs(*[1.3] * 10))) == "ok"


def test_unresolved_when_the_revision_spreads_wider_than_the_bound():
    old = runs(1.0, 1.0, 1.0, 2.0, 2.0, 2.0)  # median 1.5, quartile spread 1.0 > 0.25 * 1.5
    assert verdict(bench_ab.compare(RTF, old, runs(*[1.5] * 6))) == "unresolved"
    # a median worse by more than the bound reads worse, not unresolved
    assert verdict(bench_ab.compare(RTF, old, runs(*[1.9] * 6))) == "worse"
    # every tree run beating every revision run resolves it, in either direction of better
    assert verdict(bench_ab.compare(RTF, old, runs(*[0.9] * 6))) == "ok"
    assert verdict(bench_ab.compare(dict(RTF, better="higher"), old, runs(*[2.1] * 6))) == "ok"
    assert verdict(bench_ab.compare(dict(RTF, better="higher"), old, runs(*[1.5] * 6))) == "unresolved"


BENCH = {"end_to_end": [RTF, dict(RTF, name="op_ms_p95", unit="ms")]}


def run_result(rtf, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"rtf": {"value": rtf}, "op_ms_p95": {"value": 1.0}}}


def test_summary_names_every_way_the_working_tree_fails():
    old = [run_result(1.0 + 0.01 * i) for i in range(4)]
    lines, reasons = bench_ab.summarize(BENCH, {"rev": old, "tree": [run_result(0.9)] * 4})
    assert reasons == []
    assert [line[:4] for line in lines] == ["rtf ", "op_m", "rev ", "tree"]
    # an incorrect or failing revision run is the revision's problem, not the tree's
    assert bench_ab.summarize(BENCH, {"rev": [run_result(1.0, correct=False, failed=2)] + old[1:],
                                      "tree": [run_result(0.9)] * 4})[1] == []
    tree = [run_result(1.4), run_result(1.4, correct=False), run_result(1.4, failed=3), run_result(1.4)]
    assert bench_ab.summarize(BENCH, {"rev": old, "tree": tree})[1] == [
        "rtf is worse", "1 of 4 working-tree runs not correct", "3 working-tree operations failed"]


def test_exit_status_gates_the_no_regression_rule(monkeypatch, capsys):
    """``main`` with the benchmark runs replaced: 0 when every workload
    passes, 1 when one fails, and each failure printed."""
    tree_rtf = {"stream_long": 0.9, "train_epoch": 0.9}

    def fake_run(checkout, workload, seed, seconds):
        return run_result(1.0 if checkout != bench_ab.ROOT else tree_rtf[workload])

    monkeypatch.setattr(bench_ab, "unpack", lambda rev, dest: None)
    monkeypatch.setattr(bench_ab, "run", fake_run)
    argv = ["--workload", "stream_long", "--workload", "train_epoch", "--pairs", "2"]
    assert bench_ab.main(argv) == 0
    tree_rtf["train_epoch"] = 1.5
    assert bench_ab.main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL train_epoch seed=1: rtf is worse"


def test_every_seed_runs_and_failures_name_their_seed(monkeypatch, capsys):
    """``--seed`` repeats: each workload runs its pairs once per seed given,
    and a ``FAIL`` line names the seed that failed."""
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((workload, seed, checkout == bench_ab.ROOT))
        worse = checkout == bench_ab.ROOT and seed == 2
        return run_result(1.5 if worse else 1.0)

    monkeypatch.setattr(bench_ab, "unpack", lambda rev, dest: None)
    monkeypatch.setattr(bench_ab, "run", fake_run)
    assert bench_ab.main(["--workload", "train_epoch", "--seed", "1", "--seed", "2", "--pairs", "2"]) == 1
    assert sorted(set(calls)) == [("train_epoch", s, tree) for s in (1, 2) for tree in (False, True)]
    assert len(calls) == 8  # two pairs of two runs for each seed
    out = capsys.readouterr().out
    assert "train_epoch seed=1 pairs=2" in out and "train_epoch seed=2 pairs=2" in out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == ["FAIL train_epoch seed=2: rtf is worse"]


def test_main_runs_no_git_once_unpack_is_replaced(monkeypatch, capsys):
    """Outside a git checkout every subprocess fails; ``main`` with ``unpack``
    and ``run`` replaced still prints the revision ``unpack`` names and returns
    its verdict."""
    def no_process(*args, **kwargs):
        raise OSError("no process may start")

    monkeypatch.setattr(bench_ab.subprocess, "run", no_process)
    monkeypatch.setattr(bench_ab.subprocess, "Popen", no_process)
    monkeypatch.setattr(bench_ab, "unpack", lambda rev, dest: "abc1234")
    monkeypatch.setattr(bench_ab, "run", lambda checkout, workload, seed, seconds: run_result(1.0))
    assert bench_ab.main(["--workload", "stream_long", "--pairs", "2"]) == 0
    assert "rev HEAD (abc1234) against the working tree" in capsys.readouterr().out
