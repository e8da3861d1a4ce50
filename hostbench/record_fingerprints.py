#!/usr/bin/env python3
"""Regenerate hostbench/fingerprints.json.

    python3 hostbench/record_fingerprints.py [--seeds 100]

Records, for every workload, the fingerprint of seeds 0..N-1 and of the
holdout seed.  Run it only for a change that is meant to alter simulated
outcomes (verdicts, link counters, simulated times), and say so in the
change: a fingerprint mismatch is otherwise a correctness failure.
"""

import argparse
import json
import os

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100)
    opts = parser.parse_args()
    run.build()
    table = {}
    for workload in run.WORKLOADS:
        seeds = list(range(opts.seeds)) + [run.HOLDOUT_SEED]
        table[workload] = {
            str(seed): run.harness(["--workload", workload, "--seed", seed,
                                    "--fingerprint-only"])["fingerprint"]
            for seed in seeds
        }
        run.log(f"{workload}: {len(seeds)} seeds recorded")
    with open(os.path.join(run.HERE, "fingerprints.json"), "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
