"""Check that a traced run's counts repeat exactly at one seed.

    python3 perfbench/determinism.py --workload serve --seed 7 --seconds 10

Runs ``run.py --trace 1`` twice with the same arguments and compares
every count and ratio the ledger reports (failed and silent ops, cache
hit rate, consensus calls/clusters/reads, ``ecc`` codewords and failed
codewords, clusters recovered, ...). Times are not compared; the layer
shares of the first run are echoed. Exits 1 and names the differing
metrics when a count moved.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def counts(args, echo: bool = False) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "1"],
        capture_output=True, text=True, check=True,
    ).stdout
    if echo:
        print("\n".join(line for line in out.splitlines()
                        if line.startswith(("layer ", "reconciliation"))))
    result = json.loads(out.strip().splitlines()[-1])
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()
              if metric["unit"] in ("count", "ratio")
              and not name.startswith("trace.")}
    values.update(attempted=result["attempted"], failed=result["failed"])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    first, second = counts(args, echo=True), counts(args)
    moved = sorted(name for name in first if first[name] != second.get(name))
    for name in sorted(first):
        print(f"{name:28s} {first[name]!r:>14} {second.get(name)!r:>14}")
    if moved:
        print(f"counts moved between runs: {', '.join(moved)}")
        return 1
    print(f"{len(first)} counts identical across two runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
