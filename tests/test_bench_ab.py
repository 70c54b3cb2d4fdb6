"""The A/B summary of tools/bench_ab.py: wins, ties, the gain rule and the no-regression verdict."""
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
