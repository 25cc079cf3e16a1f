"""Print every benchmark metric for every workload and record a baseline.

Usage, from the root of a repository checkout::

    python3 perfbench/baseline.py [--seed 2019] [--output perfbench/baseline.json]

Runs ``perfbench/run.py`` for ``run_seconds`` on each workload of
``BENCHMARK.json``, untraced (end-to-end metrics) and then traced (per-layer
metrics), prints each metric by name with its unit, and writes all of it, with
the machine's CPU count, the Python version and the git commit, to
``--output``.  Exits 1 when any run reports ``correct: false``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: The seed the checked-in baseline was measured on (the bench's default).
BASELINE_SEED = 2019
#: The held-out seed: a gain claimed on BASELINE_SEED must also hold here.
HELD_OUT_SEED = 90210


def commit(root):
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--output", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    root = os.getcwd()
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    results = {}
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=root, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: run.py exited {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            results.setdefault(name, {})["trace" if trace else "end_to_end"] = result
            print(f"== {name} ({'traced' if trace else 'untraced'}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, value in result["metrics"].items():
                print(f"  {metric:34s} {value['value']:>16.6g} {value['unit']}")
    baseline = {
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "run_seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(root),
        "results": results,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
