"""Self-test of the benchmark harness; it measures nothing.

    python3 bench/selftest.py

For each workload, on one seed and a slice of its jobs, it checks that:

1. an untraced and a traced pass give the same outputs and job counts,
   and every output passes its check;
2. two traced passes give exactly the same counters;
3. every hit ratio equals hits / (hits + misses) of the cache_info()
   dump taken at the end of the same pass, the only source it may have;
4. tracing left no reference to an unwrapped function in any casson4
   module.

It also checks that the generator's torus-knot matrices are the ones
``casson4.torus_knot_seifert`` builds.  Exit code 0 means every check
passed.
"""

from __future__ import annotations

import json
import os
import sys

import layers
import run
import workloads

SEED = 7
SLICES = {"cover-sweep": None, "spectra": 30, "cli-mix": None}


def counters(payload: dict) -> dict:
    return {k: v for k, v in payload["layers"].items() if not k.endswith(("_s", ".s"))}


def check_hit_ratios(payload: dict) -> list[str]:
    errors = []
    for layer, key in layers.CACHED_LAYERS.items():
        module = "casson4." + layer.split(".")[0]
        infos = [
            info for name, info in payload["cache_info"].items()
            if name.startswith(module + ".") and key in name.rsplit(".", 1)[1]
        ]
        if len(infos) != 1:
            errors.append(f"{layer}: {len(infos)} caches match")
            continue
        hits, misses = infos[0][0], infos[0][1]
        expected = hits / (hits + misses) if hits + misses else 0.0
        if payload["layers"][f"{layer}.hit_ratio"] != expected:
            errors.append(f"{layer}.hit_ratio is not the cache_info() ratio")
    return errors


def check_workload(workload: str, work) -> list[str]:
    jobs, expects = run.prepare(workload, SEED, work)
    limit = SLICES[workload]
    if limit is not None:
        jobs, expects = jobs[:limit], expects[:limit]
        spec = [{"kind": j["kind"], "args": j["args"]} for j in jobs]
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    _, plain = run.run_pass(work, traced=False)
    _, first = run.run_pass(work, traced=True)
    _, second = run.run_pass(work, traced=True)

    errors = []
    if [out for _, out in plain["jobs"]] != [out for _, out in first["jobs"]]:
        errors.append("traced and untraced outputs differ")
    if not len(plain["jobs"]) == len(first["jobs"]) == len(jobs):
        errors.append("traced and untraced job counts differ")
    failed = sum(run.check_pass(jobs, expects, p, {}) for p in (plain, first))
    if failed:
        errors.append(f"{failed} outputs failed their checks")
    if counters(first) != counters(second):
        diff = sorted(k for k in counters(first) if counters(first)[k] != counters(second).get(k))
        errors.append(f"counters differ between traced passes: {diff}")
    if set(first["layers"]) | {"trace.overhead_s"} != set(run.per_layer_names()):
        errors.append("traced pass does not report exactly the per-layer metrics")
    errors += check_hit_ratios(first)
    if first["missed_references"]:
        errors.append(f"{first['missed_references']} references were left unwrapped")
    return [f"{workload}: {e}" for e in errors]


def check_generator() -> list[str]:
    sys.path.insert(0, str(run.ROOT / "src"))
    from casson4 import torus_knot_seifert

    errors = []
    for p, q in ((2, 3), (3, 4), (3, 5), (5, 7), (9, 11)):
        if torus_knot_seifert(p, q).to_lists() != workloads.torus_seifert(p, q):
            errors.append(f"generator's T({p},{q}) differs from the library's")
    return errors


def main() -> int:
    errors = check_generator()
    with run.workdir(f"selftest-{os.getpid()}") as work:
        for workload in run.WORKLOADS:
            errors += check_workload(workload, work)
            print(f"{workload}: checked", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    print("self-test passed" if not errors else f"self-test failed: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
