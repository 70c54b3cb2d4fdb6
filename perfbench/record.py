"""Record the outputs the benchmark checks, per workload and seed, in expected.json.

    python3 perfbench/record.py --seeds 0-63

For each seed it runs one pass of ``stream_neural`` (token digests of every
streamed and offline decode) and of ``train_epoch`` (the epoch's final
loss). ``stream_long`` needs no record: its oracle output must equal the
reference exactly. Record only on a commit whose outputs are known good;
every later commit must then reproduce them.
"""
from __future__ import annotations

import argparse
import json

import run  # pins BLAS threads before numpy loads

RECORDED = ("stream_neural", "train_epoch")


def record(name: str, seed: int) -> dict:
    import workloads

    rec = workloads.run(workloads.setup(name, seed), 0, seed, expected={})
    if rec.failed:
        raise SystemExit(f"{name} seed {seed} failed its checks: {rec.errors}")
    if name == "train_epoch":
        return {"loss": rec.losses[0]}
    count = len(rec.outputs)
    return {kind: [rec.digests[f"{kind}[{sid}]"] for sid in range(count)] for kind in ("streamed", "offline")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-63", help="first-last, inclusive")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    run._import_library()
    import workloads

    expected = workloads.load_expected()
    for name in RECORDED:
        table = expected.setdefault(name, {})
        for seed in range(first, last + 1):
            table[str(seed)] = record(name, seed)
            print(name, seed, table[str(seed)], flush=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
