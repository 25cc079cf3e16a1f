"""One bench run in a fresh interpreter, observed from outside the program.

Usage (from the root of a repository checkout)::

    python3 perfbench/child.py --result OUT.json [--traced] [--inject-us N] \
        -- bench --workers 1 --seed 7 --output REPORT.json ...

Everything after ``--`` is handed unchanged to ``repro.cli.main``.  The
bench's terminal output goes to ``OUT.json`` with a ``.log`` suffix.
``OUT.json`` receives the exit code, the wall time from entry (before
``repro`` is imported) to the report being written, the time inside the
replay calls (both less the recorder's bookkeeping after each replay and the
speed sampler's probes), the mean speed :mod:`speed` sampled inside and
outside the replays, the peak resident memory, the accuracy sums and, with
``--traced``, the per-layer metrics of :mod:`layers`.
"""

import time

ENTRY = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from layers import Recorder  # noqa: E402
from speed import SpeedSampler  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--inject-us", type=float, default=0.0)
    parser.add_argument("bench", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.bench[1:] if args.bench[:1] == ["--"] else args.bench

    # In traced runs the probes fall inside spans too, adding under 1 % to them.
    sampler = SpeedSampler()
    sampler.start()
    import repro.cli

    recorder = Recorder(traced=args.traced, sampler=sampler, inject_s=args.inject_us / 1e6)
    recorder.install()
    with open(args.result + ".log", "w", encoding="utf-8") as log:
        with contextlib.redirect_stdout(log):
            code = repro.cli.main(argv)
    sampler.stop()
    wall_s = time.perf_counter() - ENTRY - recorder.bookkeeping_s - sampler.overhead_s
    result = {
        "exit_code": code,
        "wall_s": wall_s,
        "replay_s": recorder.replay_s,
        "speed_replay": sampler.speed(True),
        "speed_setup": sampler.speed(False),
        "samples": sum(map(len, sampler.durations.values())),
        "packets": recorder.packets,
        "frames": recorder.frames,
        "overestimate_pct": recorder.overestimate_pct(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.traced:
        result["layers"] = recorder.layer_metrics(wall_s)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
