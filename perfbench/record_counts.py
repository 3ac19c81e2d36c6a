"""Store the per-step iteration counts that benchmark runs are checked against.

    python3 perfbench/record_counts.py --workload dwelling5_warm --seeds 0-63 42

Solves one pass of each workload and seed and writes the digests of the
per-step (Newton, Picard) counts into ``counts.json``, keeping entries for
other workloads and seeds.  Record only from a commit whose numerics are
the reference: every later run of the same seed must reproduce them.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import sys

import run
import workloads


def parse_seeds(items: list[str]) -> list[int]:
    seeds: list[int] = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return sorted(set(seeds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS, action="append")
    parser.add_argument("--seeds", required=True, nargs="+", help="seeds or ranges such as 0-63")
    args = parser.parse_args(argv)
    an = run.load_airnet()
    for name in args.workload:
        for seed in parse_seeds(args.seeds):
            bench = run.Bench(an, workloads.build(name, seed, run.SRC))

            def series(case, strategy):
                weather = case.weather[: bench.wl.steps.get(strategy)]
                return an.run_simulation(case.net, weather, strategy, bench.cfg, bench.wl.warm_start)

            bench.run_pass(series, workloads.STRATEGIES)
            wrong = sum(t.wrong for t in bench.tallies.values())
            if wrong:
                print(f"{name} seed {seed}: {wrong} steps failed the answer check", file=sys.stderr)
                return 1
            save(name, seed, bench.digests())
            print(f"{name} seed {seed}: {bench.digests()}", flush=True)
    return 0


def save(name: str, seed: int, digests: dict[str, str]) -> None:
    """Merge one entry into the store; several recorders may run at once."""
    with open(run.COUNTS_FILE, "a+") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        handle.seek(0)
        text = handle.read()
        store = json.loads(text) if text.strip() else {}
        store.setdefault(name, {})[str(seed)] = digests
        handle.seek(0)
        handle.truncate()
        handle.write(json.dumps(store, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
