"""Run every workload once and print its metrics as a table.

    python3 perfbench/summary.py --seed 0 --seconds 20 --trace 0

Each workload runs in its own process through run.py, so peak RSS is per
workload.  With ``--trace 0`` the table holds the end-to-end metrics plus
the report's quality figures and the failure rate; with ``--trace 1`` it
holds the per-layer metrics.  Exits 1 if any workload fails its gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True, timeout=900)
        *_, line_record, line_result = proc.stdout.strip().splitlines()
        record, result = json.loads(line_record), json.loads(line_result)
        ok &= result["correct"]
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        if not args.trace:
            rows += [(k, float("nan") if v is None else v, "%")
                     for k, v in (record["quality"] or {}).items()]
            rows.append(("fail_rate", record["fail_rate"], "ratio"))
        print(f"# {name} (seed {args.seed}; {result['attempted']} runs, "
              f"{result['failed']} failed; run_s samples {len(record['run_s'])})")
        for metric, value, unit in rows:
            print(f"{name:8s} {metric:48s} {value:14.6g} {unit}")
        for problem in record["problems"]:
            print(f"{name:8s} FAILED: {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
