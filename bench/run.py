"""casson4 benchmark: one workload, one seed, closed loop.

    python3 bench/run.py --workload cover-sweep --seed 1 --seconds 30 --trace 0

Inputs come from the seed alone (bench/workloads.py).  Each pass runs in
a fresh interpreter (bench/child.py), so no cache or field table carries
over between passes, runs or workloads.  A single process runs one job
at a time.  Passes repeat until the next one would overrun --seconds;
there is always at least one.

--trace 0 prints the end-to-end metrics, medians over passes.  Every
time is scaled to a reference machine speed (bench/calibrate.py).
--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics of the traced one, plus the tracing overhead; its spans are
written to .bench_out/.

Every output is checked after its pass, outside the timed region.  The
last line of stdout is one JSON object; the exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import calibrate
import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
GOLDEN = BENCH / "golden_fixtures.json"
SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 170

WORKLOADS = ("cover-sweep", "spectra", "cli-mix")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """A worker failed to start, crashed or timed out."""


def make_jobs(workload: str, seed: int, work: Path) -> list[dict]:
    """The workload's jobs; CLI requests are written to files under work."""
    if workload == "cover-sweep":
        return workloads.cover_sweep(seed)
    if workload == "spectra":
        return workloads.spectra(seed)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    jobs = workloads.cli_mix(seed, golden)
    for index, job in enumerate(jobs):
        args = job["args"]
        if "fixture" in args:
            args["path"] = str(ROOT / "fixtures" / f"{args['fixture']}.json")
        else:
            path = work / f"request-{index}.json"
            path.write_text(json.dumps(args["data"], indent=1), encoding="utf-8")
            args["path"] = str(path)
    return jobs


def spawn_speed() -> float:
    """The factor that turns a set-up time measured now into seconds at
    the reference speed: one timed run of ``calibrate.SPAWN_CODE``."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", calibrate.SPAWN_CODE], stdin=subprocess.DEVNULL, cwd=ROOT, check=True)
    return calibrate.REFERENCE_SPAWN_S / (perf_counter() - start)


def spawn(work: Path, *mode: str) -> tuple[float, subprocess.Popen]:
    """Start a worker and wait for ``ready``; returns (scaled set-up time,
    process)."""
    scale = spawn_speed()
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(ROOT), str(work / "ready.json"), *mode],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    setup = (perf_counter() - start) * scale
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return setup, proc


def finish(proc: subprocess.Popen) -> None:
    try:
        proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def speed(chunks: list[float]) -> float:
    """The factor that turns seconds measured next to these calibration
    chunks into seconds at the reference speed."""
    return calibrate.REFERENCE_S / statistics.fmean(chunks)


def setup_sample(work: Path) -> float:
    setup, proc = spawn(work, "setup")
    finish(proc)
    return setup


def run_pass(work: Path, traced: bool) -> tuple[float, dict]:
    """One pass in a fresh worker; returns (scaled set-up time, its result)."""
    result = work / "result.json"
    setup, proc = spawn(work, "pass", str(work / "spec.json"), str(result), "1" if traced else "0")
    finish(proc)
    payload = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    return setup, payload


def scaled_latencies(payload: dict) -> list[float]:
    """Each job's latency, scaled by the chunks just before and after it."""
    chunks = payload["chunks"]
    return [lat * speed(chunks[b : b + 2]) for (lat, _), b in zip(payload["jobs"], payload["brackets"])]


# --- output checks ---


def human_invariants(stdout: str) -> dict:
    """The ``  key: value`` lines under ``invariants:`` of a human report;
    a value that is not a Python literal stays a string."""
    values, inside = {}, False
    for line in stdout.splitlines():
        if not line.startswith("  "):
            inside = line == "invariants:"
        elif inside:
            key, _, text = line.strip().partition(": ")
            try:
                values[key] = ast.literal_eval(text)
            except (ValueError, SyntaxError):
                values[key] = text
    return values


def _check_report(expect: dict, out: dict, fmt: str) -> bool:
    code, stdout = out["code"], out["stdout"]
    if code != expect["code"]:
        return False
    if "stdout" in expect:  # a fixture: byte-identical report
        return stdout == expect["stdout"]
    if not stdout:  # refused input: a one-line error, no traceback
        return code == 1 and out["stderr"].startswith("error:") and "Traceback" not in out["stderr"]
    # a printed report fails some congruence exactly when the code is not 0
    if fmt == "human":
        failing = "FAIL" in stdout
        invariants = human_invariants(stdout)
    else:
        report = json.loads(stdout)
        failing = any(v == 0 for v in report["congruences"].values())
        invariants = report["invariants"]
    if failing != (code != 0):
        return False
    for key, value in expect.get("invariants", {}).items():
        actual = invariants.get(key)
        if key == "alexander_coeffs":
            actual = sorted(actual)
        if actual != value:
            return False
    return True


def check_job(job: dict, expect: dict, out: dict) -> bool:
    if "exception" in out:
        return False
    if job["kind"] == "cli":
        return _check_report(expect, out, job["args"]["format"])
    spectrum = out["spectrum"]
    symmetric = all(spectrum[m] == spectrum[-m] for m in range(1, len(spectrum)))
    return symmetric and out == expect


def check_pass(jobs, expects, payload, seen: dict) -> int:
    """Failed jobs of one pass, each named on stderr.  ``seen`` maps each
    CLI request to its first output, so a repeated request must repeat
    its bytes."""
    failed = 0
    for job, expect, (_, out) in zip(jobs, expects, payload["jobs"]):
        ok = check_job(job, expect, out)
        if ok and job["kind"] == "cli":
            args = job["args"]
            key = json.dumps([args.get("data", args.get("fixture")), args["command"], args["format"]], sort_keys=True)
            ok = seen.setdefault(key, (out["code"], out["stdout"])) == (out["code"], out["stdout"])
        if not ok:
            print(f"check failed: {job['label']}", file=sys.stderr)
        failed += not ok
    return failed + abs(len(jobs) - len(payload["jobs"]))


@contextmanager
def workdir(name: str):
    """A working directory under .bench_work/, removed afterwards."""
    work = ROOT / ".bench_work" / name
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "casson4").glob("*.py"))
    )


# --- metrics ---


def end_to_end(setups, passes) -> dict:
    per_pass = [scaled_latencies(p) for p in passes]
    latencies = sorted(lat for lats in per_pass for lat in lats)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(lats) for lats in per_pass),
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("max_prec"):
        return "bits"
    return "count"


def per_layer(untraced: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    values["trace.overhead_s"] = sum(scaled_latencies(traced)) - sum(scaled_latencies(untraced))
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def per_layer_names() -> list[str]:
    return layers.metric_names() + ["trace.overhead_s"]


def write_spans(workload: str, seed: int, payload: dict) -> Path:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.json"
    fields = ("name", "start", "end", "parent", "job")
    path.write_text(json.dumps([dict(zip(fields, s)) for s in payload["spans"]]), encoding="utf-8")
    return path


# --- one run ---


def prepare(workload: str, seed: int, work: Path):
    """Write the jobs and the set-up input; returns (jobs, expects)."""
    jobs = make_jobs(workload, seed, work)
    spec = [{"kind": j["kind"], "args": j["args"]} for j in jobs]
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    ready = {"schema": 1, "name": "ready", "seifert": [[-1, 1], [0, -1]]}
    (work / "ready.json").write_text(json.dumps(ready), encoding="utf-8")
    expects = json.loads(json.dumps([j["expect"] for j in jobs]))
    return jobs, expects


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    jobs, expects = prepare(workload, seed, work)
    seen: dict = {}
    setups = [setup_sample(work) for _ in range(SETUP_SAMPLES)]
    passes = []
    start = perf_counter()
    while True:
        setup, payload = run_pass(work, traced=False)
        setups.append(setup)
        passes.append(payload)
        elapsed = perf_counter() - start
        if trace or elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    traced = run_pass(work, traced=True)[1] if trace else None

    runs = passes + ([traced] if traced else [])
    failed = sum(check_pass(jobs, expects, p, seen) for p in runs)
    attempted = sum(len(p["jobs"]) for p in runs)
    lat = [lat for p in passes for lat, _ in p["jobs"]]
    print(f"workload: {workload}  seed: {seed}  passes: {len(passes)}  jobs/pass: {len(jobs)}")
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
    print(f"pass walls, as measured (s): {walls}")
    walls = ", ".join(f"{sum(scaled_latencies(p)):.3f}" for p in passes)
    print(f"pass walls, at reference speed (s): {walls}")
    speeds = ", ".join(f"{speed(p['chunks']):.3f}" for p in passes)
    print(f"time scale per pass: {speeds}")
    print(f"job latency samples: {len(lat)}")
    print(f"fail_ratio: {failed / attempted:.6f} ({failed} of {attempted})")
    print(f"src/casson4 lines (informational): {src_lines()}")
    if trace:
        metrics = per_layer(passes[0], traced)
        print(f"spans written to {write_spans(workload, seed, traced).relative_to(ROOT)}")
        if traced["missed_references"]:
            failed += 1
            print(f"tracing missed {traced['missed_references']} references", file=sys.stderr)
    else:
        metrics = end_to_end(setups, passes)
    for name, metric in metrics.items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "casson4" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no casson4 sources under {ROOT}", file=sys.stderr)
        return 2
    try:
        with workdir(str(os.getpid())) as work:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
