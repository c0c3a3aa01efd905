"""Record the indicator columns that the correctness gate compares against.

    python3 benchmarks/make_reference.py

Sweeps seeds 0-9 of each workload through
``enclosure-kit sweep`` and writes benchmarks/reference.json: for each
scenario file, keyed by its sha256, the ``log_abs_I`` column (null where
the sample underflowed) and the ``sign`` column of indicator.csv.  Run it
only on the commit whose outputs are the reference; later commits must
reproduce them to 1e-12 (see scenes.REFERENCE_LOG_TOL).
"""

from __future__ import annotations

import json
import shutil
import tempfile

import run
import scenes


SEEDS = range(10)


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    records = {}
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT)
    try:
        for workload in scenes.WORKLOADS.values():
            for seed in SEEDS:
                for scene in workload.scenes(seed, workdir):
                    out_dir = f"{workdir}/{workload.name}-{seed}-{scene.name}"
                    run.sweep_once(scene, out_dir)
                    logs, signs = scenes.read_indicator(out_dir)
                    records[run.scenario_digest(scene.path)] = {
                        "workload": workload.name,
                        "seed": seed,
                        "scene": scene.name,
                        "log_abs_I": logs,
                        "sign": signs,
                    }
                    print(f"{workload.name} seed {seed} {scene.name}: {len(logs)} samples", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w") as f:
        f.write("{\n")
        f.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in records.items()))
        f.write("\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
