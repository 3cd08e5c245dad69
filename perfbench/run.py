"""xrsim benchmark: cold set-up, event loop and link evaluation.

    python3 perfbench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the simulator is imported from
``src/``.  Every measurement is one fresh single-threaded interpreter
(``measure.py``) in a fresh temporary directory, started one after another,
so no in-process or on-disk cache carries over.

``--trace 0`` makes as many full measurements (set-up, loop, summary) as
fit in ``--seconds`` at the workload's nominal cost, fills the rest with
set-up-only measurements, and reports the end-to-end medians, with times
normalised to a fixed host speed by the probe in ``probe.py``.  ``--trace 1``
makes one untraced and one traced full measurement and reports the
per-layer figures of the traced one.  Either way the last stdout line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import NOMINAL_PROBE_S  # noqa: E402
from workloads import DEFAULT_SEED, SIM_TIME, WORKLOADS  # noqa: E402

TMP_ROOT = ROOT / ".perfbench_tmp"
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
MIN_SETUP_SAMPLES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "loop_s": "s",
    "total_s": "s",
    "us_per_attempt": "us",
    "peak_rss_mib": "MiB",
}

ALL_STATS = ("calls", "s", "us_per_call")
# (layer as the tracer books it, stats printed, stats in the result line);
# a time that is structurally zero on some workload is printed only
LAYER_STATS = (
    ("codebook.synthesize_quasi_omni.8x8", ("calls", "s"), ("calls", "s")),
    ("codebook.synthesize_quasi_omni.64x64", ("calls", "s"), ("calls",)),
    ("codebook.generate_sector_codebook", ("s",), ("s",)),
    ("mobility.generate_rotation_trace", ("s",), ("s",)),
    ("mobility.generate_walk", ("s",), ("s",)),
    ("mobility.pose_at", ALL_STATS, ALL_STATS),
    ("geometry.ap_direction_in_hmd_frame", ALL_STATS, ALL_STATS),
    ("geometry.predict_pose", ALL_STATS, ("calls",)),
    ("antenna.AwvEvaluator.gain_db.8x8", ALL_STATS, ALL_STATS),
    ("antenna.AwvEvaluator.gain_db.64x64", ALL_STATS, ("calls",)),
    ("antenna.AwvEvaluator.init", ("calls", "s"), ("calls", "s")),
    ("channel.link_snr_db", ALL_STATS, ALL_STATS),
    ("covrage.covrage_beam", ALL_STATS, ("calls",)),
    ("macsim.best_sector", ALL_STATS, ALL_STATS),
)
STAT_UNITS = {"calls": "count", "s": "s", "us_per_call": "us"}
COUNTERS = ("mpdu_attempts", "mpdu_failures", "frames_delivered", "frames_dropped", "bf_updates", "bhi_count", "sls_runs")


def spawn(workload: str, seed: int, sim_time: float, timeout: float, setup_only=False, traced=False):
    """One measurement in a fresh interpreter; returns (result, error)."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), XRSIM_OUT=tmp)
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--sim-time", repr(sim_time)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if traced else []
    try:
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, "timed out after %.0f s" % timeout
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def _errors(result, error, reference) -> list:
    """Why a measurement counts as failed: it raised, its output check
    found problems, or its output differs from the run's first one."""
    if error:
        return [error]
    problems = list(result.get("problems", []))
    if reference is not None and "digest" in result:
        if (result["digest"], result["counters"]) != (reference["digest"], reference["counters"]):
            problems.append("output differs from the first measurement of this run (digest %s)" % result["digest"])
    return problems


def plan(workload, seconds: float) -> tuple:
    """(full, set-up-only) measurement counts for a run of ``seconds``,
    from the workload's nominal costs, so the sample counts do not depend
    on how fast the host happens to be."""
    n_full = max(1, int(seconds // workload.full_cost_s))
    n_setup = int((seconds - n_full * workload.full_cost_s) // workload.setup_cost_s)
    return n_full, max(n_setup, MIN_SETUP_SAMPLES - n_full)


def run_untraced(workload: str, seed: int, seconds: float, sim_time: float, log) -> dict:
    """The planned full measurements, then the set-up-only ones."""
    n_full, n_setup = plan(WORKLOADS[workload], seconds)
    start = time.monotonic()
    fulls, setups, failed, attempted = [], [], 0, 0
    last_cost = 0.0
    for setup_only in [False] * n_full + [True] * n_setup:
        elapsed = time.monotonic() - start
        if elapsed + last_cost > RUN_DEADLINE_S:
            log("FAILED: out of time after %d measurements" % attempted)
            failed += 1
            break
        result, error = spawn(workload, seed, sim_time, RUN_DEADLINE_S - elapsed, setup_only=setup_only)
        last_cost = time.monotonic() - start - elapsed
        attempted += 1
        problems = _errors(result, error, fulls[0] if fulls else None)
        if problems:
            failed += 1
            for p in problems:
                log("FAILED measurement %d: %s" % (attempted, p))
        if result is not None:
            (setups if setup_only else fulls).append(result)
    return {"fulls": fulls, "setups": setups, "attempted": attempted, "failed": failed}


def end_to_end_metrics(fulls: list, setups: list, key: str = "lengths", scale: float = NOMINAL_PROBE_S) -> dict:
    """name -> (median, sample count).  The default gives the host-speed
    normalised figures; ``key="s", scale=1.0`` the wall times without the
    probes."""
    samples = {
        "setup_s": [r["setup_" + key] * scale for r in fulls + setups],
        "loop_s": [r["loop_" + key] * scale for r in fulls],
        "total_s": [r["total_" + key] * scale for r in fulls],
        "us_per_attempt": [r["loop_" + key] * scale * 1e6 / r["counters"]["mpdu_attempts"] for r in fulls],
        "peak_rss_mib": [r["peak_rss_mib"] for r in fulls],
    }
    return {name: (statistics.median(v), len(v)) for name, v in samples.items()}


def layer_metrics(traced: dict, untraced: dict) -> list:
    """(name, value, unit, in_result_line) for every per-layer figure."""
    totals = traced["trace"]["totals"]
    phases = traced["trace"]["phases"]
    rows = []

    def add(name, value, unit, reported=True):
        rows.append((name, value, unit, reported))

    for layer, printed, reported in LAYER_STATS:
        calls, self_s = totals.get(layer, (0, 0.0))
        stats = {"calls": calls, "s": self_s, "us_per_call": self_s * 1e6 / calls if calls else 0.0}
        for stat in printed:
            add("%s.%s" % (layer, stat), stats[stat], STAT_UNITS[stat], stat in reported)
    add("codebook.qo_cache.hits", traced["qo_cache"]["hits"], "count")
    add("codebook.qo_cache.misses", traced["qo_cache"]["misses"], "count")
    add("macsim.setup.self_s", phases["macsim.setup"][1], "s")
    add("macsim.loop.self_s", phases["macsim.loop"][1], "s")
    counters = traced["counters"]
    for name in COUNTERS:
        add("macsim." + name, counters[name], "count")
    ok = counters["mpdu_attempts"] - counters["mpdu_failures"]
    add("macsim.attempt_ok_ratio", ok / counters["mpdu_attempts"], "ratio")
    add("metrics.summarize.s", phases["metrics.summarize"][0], "s")
    add("config.load_config.s", phases["config.load_config"][0], "s")
    add("proc.import_s", untraced["import_s"], "s")
    add("proc.cpu_s", untraced["cpu_s"], "s")
    add("trace.overhead_s", traced["total_s"] - untraced["total_s"], "s")
    return rows


def run_traced(workload: str, seed: int, sim_time: float, log) -> dict:
    """One untraced and one traced full measurement; the traced output must
    match the untraced one, and each phase's self times must add up."""
    start = time.monotonic()
    untraced, error = spawn(workload, seed, sim_time, RUN_DEADLINE_S)
    failures = _errors(untraced, error, None)
    traced, error = spawn(workload, seed, sim_time, RUN_DEADLINE_S - (time.monotonic() - start), traced=True)
    traced_problems = _errors(traced, error, untraced)
    if traced is not None:
        for phase in ("macsim.setup", "macsim.loop"):
            duration = traced["trace"]["phases"][phase][0]
            residual = traced["trace"]["residuals"][phase]
            log("%s: phase %.6f s, self times sum to %.6f s" % (phase, duration, duration - residual))
            if abs(residual) > 1e-6 * max(1.0, duration):
                traced_problems.append("%s self times miss the phase time by %.3g s" % (phase, residual))
    for p in failures + traced_problems:
        log("FAILED: %s" % p)
    return {
        "untraced": untraced,
        "traced": traced,
        "attempted": 2,
        "failed": int(bool(failures)) + int(bool(traced_problems)),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, sim_time: float = SIM_TIME, log=print):
    """Run the benchmark for one workload, print the human-readable lines
    through ``log`` and return the result-line dict (None if nothing ran)."""
    loadavg = os.getloadavg()
    log("# workload %s  seed %d  sim_time %g s  seconds %g  trace %d" % (workload, seed, sim_time, seconds, trace))
    if trace:
        run = run_traced(workload, seed, sim_time, log)
        first = run["untraced"]
        if first is None or run["traced"] is None:
            return None
    else:
        run = run_untraced(workload, seed, seconds, sim_time, log)
        if not run["fulls"]:
            return None
        first = run["fulls"][0]

    env = first["env"]
    log(
        "# env: python %s, numpy %s, blas %s, blas threads %s, nproc %d, loadavg at start %.2f %.2f %.2f"
        % (env["python"], env["numpy"], env["blas"], env["blas_threads"], os.cpu_count() or 0, *loadavg)
    )
    log(
        "# output: reliability %.4f, digest %s (%s), counters %s"
        % (
            first["reliability"],
            first["digest"],
            "checked against the pinned one" if first["pinned"] else "unpinned seed or length, recorded",
            json.dumps(first["counters"]),
        )
    )

    metrics = {}
    if trace:
        for name, value, unit, reported in layer_metrics(run["traced"], run["untraced"]):
            log("%-48s %14.6f %-5s%s" % (name, value, unit, "" if reported else "  (printed only)"))
            if reported:
                metrics[name] = {"value": value, "unit": unit}
    else:
        measurements = run["fulls"] + run["setups"]
        log(
            "# speed probe: %d probes, fastest %.4f ms, nominal %.4f ms"
            % (
                sum(r["probe_count"] for r in measurements),
                min(r["probe_min_s"] for r in measurements) * 1e3,
                NOMINAL_PROBE_S * 1e3,
            )
        )
        wall = end_to_end_metrics(run["fulls"], run["setups"], key="s", scale=1.0)
        for name, (value, n) in end_to_end_metrics(run["fulls"], run["setups"]).items():
            unit = END_TO_END_UNITS[name]
            raw = "" if wall[name][0] == value else " (wall time without probes %.4f)" % wall[name][0]
            log("%-16s %12.4f %-4s median of %d measurements%s" % (name, value, unit, n, raw))
            metrics[name] = {"value": value, "unit": unit}
    log("# %d measurements attempted, %d failed" % (run["attempted"], run["failed"]))
    return {"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload in turn")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (ROOT / "src" / "xrsim" / "__init__.py").is_file():
        print("no xrsim sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        report = run_workload(workload, args.seed, args.seconds, args.trace, log=print)
        if report is None:
            print("%s: no measurement produced a result" % workload, file=sys.stderr)
            status = 1
        else:
            print(json.dumps(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
