#!/usr/bin/env python3
"""Write reference.json: the checked outputs of every workload at every
phase variant, as the current sources compute them.

    python3 benchmarks/capture_reference.py

Rerun it only when a change is meant to alter the answers, and say so in
the change; the benchmark counts any other difference as a failed run.
"""

import json
import os
import shutil
import sys

import run  # pins BLAS/OpenMP threads before numpy loads
import workloads as wl


def main():
    _, modules = run.import_package()
    scenario = modules["scenario"]
    work_dir = os.path.join(run.WORK_ROOT, f"capture-{os.getpid()}")
    ref = {}
    try:
        for name, spec in wl.WORKLOADS.items():
            ref[name] = {}
            for variant in wl.variants(name):
                path, out_root = wl.write_scenario(name, variant, work_dir)
                scn = scenario.load_scenario(path)
                per_mode = {"load": wl.observe_load(scn)}
                for mode in spec["modes"]:
                    out_dir = os.path.join(out_root, mode)
                    _, status = scenario.run(scn, mode=mode, out_dir=out_dir,
                                             seed=variant)
                    if status != spec["expected"][mode]:
                        raise SystemExit(f"{name} variant {variant} {mode}: "
                                         f"status {status}")
                    obs = wl.observe(name, mode, out_dir)
                    obs.pop("coercivity", None)
                    per_mode[mode] = obs
                ref[name][str(variant)] = per_mode
                print(f"{name} variant {variant} captured", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
