"""tools/bench_snapshot.py on tiny settings: one real benchmark run of each
kind, two short oracle streams and one demo 04 sweep, checked against the
snapshot's schema."""
import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

import bench_snapshot  # noqa: E402

ROOT = pathlib.Path(bench_snapshot.ROOT)


def test_snapshot_schema_and_compare(tmp_path, capsys):
    out = tmp_path / "BENCH_test.json"
    argv = ["--workload", "stream_long", "--seed", "1", "--seconds", "0.2", "--audio-s", "2", "--audio-s", "4",
            "--beam", "1", "--beam", "2", "--repeats", "1", "--out", str(out)]
    assert bench_snapshot.main(argv) == 0
    snap = json.loads(out.read_text(encoding="utf-8"))
    assert snap["schema"] == bench_snapshot.SCHEMA
    assert {"git_sha", "dirty", "machine", "calibration", "settings", "runs", "misread", "per_token",
            "per_token_growth", "demo_sweep"} <= set(snap)
    assert {"nproc", "cpu", "python", "numpy"} <= set(snap["machine"])
    assert snap["calibration"]["reference_s"] > 0 and snap["calibration"]["factor"] > 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in bench["per_layer"]}
    assert set(snap["misread"]) <= declared
    assert [(r["workload"], r["seed"], r["trace"]) for r in snap["runs"]] == [("stream_long", 1, 0),
                                                                              ("stream_long", 1, 1)]
    untraced, traced = snap["runs"]
    for run in snap["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
        assert all(isinstance(m["value"], (int, float)) and m["unit"] for m in run["metrics"].values())
    assert {m["name"] for m in bench["end_to_end"]} <= set(untraced["metrics"])
    assert set(snap["misread"]) <= set(traced["metrics"])
    assert untraced["host_speed"] > 0

    assert [(r["beam"], r["audio_s"]) for r in snap["per_token"]] == [(1, 2.0), (2, 2.0), (1, 4.0), (2, 4.0)]
    for row in snap["per_token"]:
        assert row["tokens"] > 0 and row["ms_per_token"] > 0 and row["ms_per_token_wall"] > 0
    assert set(snap["per_token_growth"]) == {"1", "2"}

    sweep = snap["demo_sweep"]
    assert (sweep["utterances"], sweep["points"]) == (12, 4) and sweep["s"] > 0 and sweep["wall_s"] > 0
    # the sweep timed is the demo's: its CSV is the one the demo prints
    golden = (ROOT / "tests" / "golden" / "04_latency_accuracy_tradeoff.txt").read_text(encoding="utf-8")
    assert sweep["csv_sha256"] == hashlib.sha256((golden.split("\n\n")[0] + "\n").encode()).hexdigest()

    # a snapshot compared with a copy whose rtf doubled
    faster = json.loads(out.read_text(encoding="utf-8"))
    faster["runs"][0]["metrics"]["rtf"]["value"] *= 2
    (tmp_path / "new.json").write_text(json.dumps(faster), encoding="utf-8")
    capsys.readouterr()
    assert bench_snapshot.main(["--compare", str(out), str(tmp_path / "new.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(bench_snapshot.values(snap))
    rtf = [line for line in lines if line.startswith("stream_long seed1 trace0 rtf ")]
    assert len(rtf) == 1 and rtf[0].split()[-1] == "+100.0%"
    assert any(line.startswith("per_token beam2 4s ms_per_token") for line in lines)
    assert any(line.startswith("demo_sweep s ") for line in lines)
