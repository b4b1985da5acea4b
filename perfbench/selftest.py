"""Self-test of the benchmark at toy sizes.

Run from the repository root: python3 perfbench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, with
its unit, in both trace modes with no failed operation, and that a
truncated partition CSV is caught by the output checks and counted in
error_rate. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys

import run


def truncate_partition(workdir) -> None:
    path = workdir / "out" / "p.partition.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")


def main() -> int:
    problem = run.prepare()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from workloads import TOY_SHAPES

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for name in run.WORKLOAD_NAMES:
        for trace in (False, True):
            doc = run.run_workload(name, seed=0, seconds=0.1, trace=trace, shapes=TOY_SHAPES)
            got = {n: m["unit"] for n, m in doc["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(expected[trace].items() - got.items())
                extra = sorted(got.items() - expected[trace].items())
                problems.append(f"{name} trace={int(trace)}: missing {missing}, unexpected {extra}")
            if not doc["correct"] or doc["failed"]:
                problems.append(f"{name} trace={int(trace)}: failures {doc['failures']}")
            print(f"{name} trace={int(trace)}: {len(got)} metrics, "
                  f"{doc['failed']} of {doc['attempted']} operations failed")

    doc = run.run_workload("pipeline_golub", seed=0, seconds=0.1, trace=False,
                           shapes=TOY_SHAPES, tamper=truncate_partition)
    caught = [f for f in doc["failures"] if "partition_covers_genes_once" in f]
    if doc["correct"] or not doc["error_rate"] > 0 or not caught:
        problems.append(f"truncated partition not caught: {doc['failures']}")
    print(f"truncated partition: error_rate {doc['error_rate']:.3g}, "
          f"{doc['failed']} of {doc['attempted']} operations failed")

    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
