"""One cold measurement of one workload, meant to run in a fresh interpreter.

    python3 perfbench/measure.py --workload NAME --seed N --sim-time T
        [--setup-only] [--trace] [--spawned-at MONOTONIC_S]

Prints one JSON object on stdout.  ``run.py`` starts this script once per
measurement with the repository's ``src`` on ``PYTHONPATH`` and a fresh
temporary directory as cwd and ``XRSIM_OUT``.
"""

import os
import sys
import time
from contextlib import nullcontext

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

from xrsim import load_config, summarize  # noqa: E402
from xrsim.codebook import cached_quasi_omni  # noqa: E402
from xrsim.macsim import Simulator  # noqa: E402

from probe import SpeedProbe  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402
from workloads import DEFAULT_SEED, SIM_TIME, WORKLOADS, check_output, frames_digest, overrides_for  # noqa: E402

_IMPORTED_AT = time.monotonic()


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure(workload_name: str, seed: int, sim_time: float, setup_only: bool, traced: bool) -> dict:
    """Time load_config, Simulator set-up, the event loop and summarize, and
    check the simulated output; returns a JSON-able dict.

    An untraced measurement runs under the host-speed probe: each phase is
    reported as its wall time without the probes (``*_s``) and in
    probe-lengths (``*_lengths``), with the fastest probe (``probe_min_s``).
    A traced one reports plain wall times."""
    workload = WORKLOADS[workload_name]
    clock = time.perf_counter
    tracer = Tracer() if traced else None
    probe = None if traced else SpeedProbe()
    out = {}
    with instrument(tracer) if traced else probe:
        t0 = clock()
        with _phase(tracer, "config.load_config"):
            cfg = load_config(overrides=overrides_for(workload, seed, sim_time))
        t1 = clock()
        with _phase(tracer, "macsim.setup"):
            sim = Simulator(cfg)
        t2 = clock()
        qo = cached_quasi_omni.cache_info()
        out["qo_cache"] = {"hits": qo.hits, "misses": qo.misses}
        if not setup_only:
            with _phase(tracer, "macsim.loop"):
                result = sim.run()
            t3 = clock()
            with _phase(tracer, "metrics.summarize"):
                summary = summarize(result.frames, cfg.deadline)
            t4 = clock()
            out["counters"] = result.counters
            out["reliability"] = summary.reliability
            out["digest"] = frames_digest(result.frames)
            pinned = None
            if seed == DEFAULT_SEED and sim_time == SIM_TIME:
                pinned = (workload.pinned_counters, workload.pinned_digest)
            out["pinned"] = pinned is not None
            out["problems"] = check_output(
                result.frames, result.counters, summary.reliability, cfg.sim_time, cfg.burst_interval, pinned
            )
    phases = {"setup": (t1, t2)}
    if not setup_only:
        phases.update(loop=(t2, t3), total=(t0, t4))
    for name, (start, end) in phases.items():
        if probe is None:
            out[name + "_s"] = end - start
        else:
            out[name + "_s"], out[name + "_lengths"] = probe.interval(start, end)
    if probe is not None:
        out["probe_min_s"] = probe.fastest()
        out["probe_count"] = len(probe.probes)
    out["cpu_s"] = time.process_time()
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        out["trace"] = {
            "phases": {name: list(v) for name, v in tracer.phases.items()},
            "totals": tracer.totals(),
            "residuals": {name: tracer.phase_residual(name) for name in tracer.phases},
        }
    return out


def _phase(tracer, name):
    return tracer.phase(name) if tracer is not None else nullcontext()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--sim-time", type=float, default=SIM_TIME)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spawned-at", type=float, default=None, help="time.monotonic() when the parent started this process")
    args = p.parse_args(argv)
    out = measure(args.workload, args.seed, args.sim_time, args.setup_only, args.trace)
    if args.spawned_at is not None:
        out["import_s"] = _IMPORTED_AT - args.spawned_at
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
