"""One fresh interpreter: import casson4, report ready, run one pass.

    python3 bench/child.py ROOT READY_INPUT setup
    python3 bench/child.py ROOT READY_INPUT pass SPEC RESULT TRACE

The process imports casson4 from ROOT/src, loads the knot schema through
``casson4.cli.load_input`` on READY_INPUT, and prints ``ready``; the
parent times that as set-up.  In ``pass`` mode it then runs every job of
SPEC in order, one at a time, timing each, with calibration chunks
(bench/calibrate.py) between them.  It writes outputs, timings, chunk
times and peak memory to RESULT.  With TRACE = 1 the per-layer wrappers
are installed first.
"""

from __future__ import annotations

import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import casson4  # noqa: E402
import casson4.cli  # noqa: E402

if Path(casson4.__file__).resolve().parent != ROOT / "src" / "casson4":
    sys.exit(f"casson4 was imported from {casson4.__file__}, not from {ROOT / 'src'}")
casson4.cli.load_input(sys.argv[2], "knot")
print("ready", flush=True)

# Library calls go through the casson4 namespace at call time, so that a
# traced pass reaches the wrappers installed after import.


def run_cover(args: dict) -> dict:
    knot = casson4.SeifertMatrix(args["seifert"])
    delta = casson4.alexander_polynomial(knot)
    signature = casson4.tl_signature(knot, Fraction(1, 2))
    spectrum = casson4.signature_spectrum(knot, 2)
    lam = casson4.furuta_ohta_mapping_torus(casson4.BranchedQuotientData(2, 0, spectrum))
    return {
        "alexander": sorted(delta.items()),
        "at_minus_one": delta(-1),
        "signature": signature,
        "spectrum": list(spectrum.values),
        "lambda_fo": str(lam),
        "mubar": str(casson4.mubar_double_branched(knot)),
    }


def run_spectra(args: dict) -> dict:
    knot = casson4.SeifertMatrix(args["seifert"])
    n = args["n"]
    branched = casson4.BranchedQuotientData.from_knot(n, args["casson"], knot)
    free = casson4.FreeQuotientData(n, args["q"], args["casson"], knot)
    return {
        "spectrum": list(branched.branch_spectrum.values),
        "branched": str(casson4.furuta_ohta_mapping_torus(branched)),
        "free": str(casson4.furuta_ohta_mapping_torus(free)),
        "reversal": [casson4.orientation_reversal_check(branched), casson4.orientation_reversal_check(free)],
        "mirror_spectrum": list(casson4.signature_spectrum(knot.mirror(), n).values),
    }


def run_cli(args: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    argv = [args["command"], "--input", args["path"], "--format", args["format"]]
    with redirect_stdout(out), redirect_stderr(err):
        code = casson4.cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


RUNNERS = {"cover": run_cover, "spectra": run_spectra, "cli": run_cli}


def run_pass(spec_path: str, result_path: str, traced: bool) -> None:
    with open(spec_path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    tracer = None
    if traced:
        from layers import Tracer, remaining_references

        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"trace: not found, left untraced: {missing}", file=sys.stderr)
        run_job = tracer.span("job", lambda job: RUNNERS[job["kind"]](job["args"]))
    else:
        def run_job(job):
            return RUNNERS[job["kind"]](job["args"])

    # chunks[brackets[i]] ran just before job i, the next chunk after it
    results, brackets = [], []
    chunks = [calibrate.chunk()]
    since = 0.0  # seconds of jobs since the last chunk
    for index, job in enumerate(jobs):
        if since > calibrate.EVERY_S:
            chunks.append(calibrate.chunk())
            since = 0.0
        if tracer is not None:
            tracer.job = index
        t0 = perf_counter()
        try:
            output = run_job(job)
        except Exception as exc:  # a failed job is counted, not fatal
            output = {"exception": f"{type(exc).__name__}: {exc}"}
        results.append([perf_counter() - t0, output])
        brackets.append(len(chunks) - 1)
        since += results[-1][0]
    chunks.append(calibrate.chunk())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    payload = {
        "wall_s": sum(latency for latency, _ in results),
        "peak_rss_kb": peak_kb,
        "jobs": results,
        "chunks": chunks,
        "brackets": brackets,
    }
    if tracer is not None:
        from layers import cache_infos

        payload["layers"] = tracer.metrics()
        payload["cache_info"] = cache_infos()
        payload["missed_references"] = sum(remaining_references(f) for f in tracer.originals)
        payload["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    if sys.argv[3] == "pass":
        run_pass(sys.argv[4], sys.argv[5], sys.argv[6] == "1")
