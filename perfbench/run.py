"""EEVFS benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hdd_read [--seed 1] [--seconds 10] [--trace 0|1]

Each measured pass runs in a fresh process (:mod:`worker`), so set-up
time includes imports and peak memory is the pass's own.  ``--trace 0``
repeats untraced passes for ``--seconds`` and reports the end-to-end
metrics as medians; ``--trace 1`` runs the same work untraced, under an
engine event hook and under ``cProfile``, and reports the per-layer
metrics.  Every pass's simulated output is checked; the simulated
digest and every host-independent counter must repeat exactly across
passes.  The last line of standard output is one JSON object; the exit
code is nonzero when a check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import signal
from statistics import median
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# The names below repeat those in workloads.py and layers.py (a test
# keeps them equal) so that this process never imports the simulator.
WORKLOADS = ("hdd_read", "ssd_writemix", "online_traced", "table2_sweep")
TABLE2 = "table2_sweep"
DEFAULT_SEED = 1
#: Whole-run budget; the contract allows 180 s.
BUDGET_S = 170.0
#: Untraced passes per run never drop below this many, however short
#: ``--seconds`` is, so every median has a middle.
MIN_TIMED_PASSES = 3
#: ``table2_sweep`` adds a set-up-only pass after each batch pass, and
#: tops up with more until ``setup_s`` has this many samples.
MIN_SETUP_SAMPLES = 9
#: Request count of the untimed warm-up pass (compiles bytecode, fills
#: the page cache) that precedes every run.
WARMUP_REQUESTS = 50

END_TO_END = {
    "sim_req_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("sim", "net", "core", "disk", "backend", "obs", "online", "parallel", "traces")

PER_LAYER = {
    **{f"{layer}.self_us_per_req": "us/req" for layer in LAYERS},
    "other.self_us_per_req": "us/req",
    "sim.events_per_req": "events/req",
    "sim.process_resumes_per_req": "resumes/req",
    "sim.continuations_per_req": "events/req",
    "sim.timeouts_per_req": "events/req",
    "sim.resource_requests_per_req": "events/req",
    "net.messages_per_req": "msgs/req",
    "net.bytes_per_req": "B/req",
    "net.messages_dropped": "count",
    "core.buffer_hit_ratio": "ratio",
    "core.writes_buffered_frac": "ratio",
    "core.writes_destaged_per_req": "writes/req",
    "core.prefetch_files_copied": "count",
    "disk.ops_per_req": "ops/req",
    "disk.spinups_per_kreq": "spinups/kreq",
    "disk.transitions_per_kreq": "count/kreq",
    "ftl.nand_pages_per_req": "pages/req",
    "ftl.relocations_per_req": "pages/req",
    "ftl.erases_per_kreq": "erases/kreq",
    "ftl.gc_runs_per_kreq": "runs/kreq",
    "ftl.write_amplification": "ratio",
    "ssd.cache_hit_ratio": "ratio",
    "obs.spans_per_req": "spans/req",
    "obs.series_samples": "count",
    "online.samples_recorded_per_req": "samples/req",
    "online.replans": "count",
    "parallel.pool_start_s": "s",
    "parallel.speedup": "x",
    "parallel.job_inflation": "x",
    "traces.gen_s_per_job": "s",
    "model.energy_j": "J",
    "model.transitions": "count",
    "model.mean_response_s": "s",
    "model.pf_savings_pct": "%",
    "bench.trace_overhead": "x",
}


class Runner:
    """Starts worker passes, each in its own process group, within budget."""

    def __init__(self, workload: str, seed: int, budget_s: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + budget_s
        self.passes: List[Dict[str, Any]] = []

    def run(self, kind: str, jobs: int = 1, requests: int | None = None) -> Dict[str, Any]:
        cmd = [
            sys.executable, str(WORKER),
            "--workload", self.workload, "--seed", str(self.seed),
            "--pass", kind, "--jobs", str(jobs),
        ]
        if requests is not None:
            cmd += ["--requests", str(requests)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark ran out of its time budget")
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except BaseException as exc:
            # Take the pass's pool workers down with it, and reap them.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise TimeoutError(f"{kind} pass exceeded the time budget") from None
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"{kind} pass failed:\n{stderr}")
        out = json.loads(stdout.strip().splitlines()[-1])
        out["kind"] = kind
        out["full"] = requests is None and kind != "setup"
        self.passes.append(out)
        return out


def pool_jobs() -> int:
    """Workers for ``table2_sweep``: one per CPU, at most two."""
    return max(1, min(2, os.cpu_count() or 1))


def end_to_end(runner: Runner, seconds: float) -> Dict[str, float]:
    """Untraced passes for *seconds*; medians of the end-to-end metrics.

    ``table2_sweep`` times its batch through ``run_jobs(jobs=1)``.  On a
    shared 2-core host the pooled batch's throughput swings with the
    load on the second core far beyond the bound (see README), so the
    pool runs once per run to check its results and is timed per layer.
    """
    table2 = runner.workload == TABLE2
    start = time.monotonic()
    timed = []
    setups = []
    while len(timed) < MIN_TIMED_PASSES or time.monotonic() - start < seconds:
        timed.append(runner.run("plain"))
        setups.append(timed[-1]["setup_s"])
        if table2:
            # Spread the extra set-up samples over the run, so they
            # see the same host conditions as the batches.
            setups.append(runner.run("setup")["setup_s"])
    if table2:
        # The pooled execution must agree with the serial one exactly.
        runner.run("plain", jobs=pool_jobs())
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(runner.run("setup")["setup_s"])
    wall = "batch_s" if table2 else "replay_s"
    return {
        "sim_req_per_s": median([p["requests"] / p[wall] for p in timed]),
        "setup_s": median(setups),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in timed]),
    }


def _self_time(profiles: List[Dict[str, Any]], wall_s: float, requests: int) -> Dict[str, float]:
    """Per-layer µs/request: profiled share of self time × untraced wall."""
    out = {}
    for layer in LAYERS + ("other",):
        shares = [p["layer_s"][layer] / sum(p["layer_s"].values()) for p in profiles]
        out[f"{layer}.self_us_per_req"] = median(shares) * wall_s / requests * 1e6
    return out


def per_layer(runner: Runner, seconds: float) -> Dict[str, float]:
    """Untraced, hooked and profiled passes; the per-layer metrics."""
    metrics = {name: 0.0 for name in PER_LAYER}
    start = time.monotonic()
    if runner.workload == TABLE2:
        jobs = pool_jobs()
        serial = runner.run("plain", jobs=1)
        pooled = runner.run("plain", jobs=jobs)
        in_pool = runner.run("jobtimes", jobs=jobs)
        hooked = runner.run("hook")
        profiled = runner.run("profile")
        wall_s = serial["batch_s"]
        metrics.update(
            {
                "parallel.pool_start_s": pooled.get("pool_start_s", 0.0),
                "parallel.speedup": serial["batch_s"] / pooled["batch_s"],
                "parallel.job_inflation": median(in_pool["job_s"])
                / median(serial["job_s"]),
                "traces.gen_s_per_job": serial["gen_s_per_job"],
            }
        )
        profiles = [profiled]
        model = serial["model"]
    else:
        plain = [runner.run("plain"), runner.run("plain")]
        hooked = runner.run("hook")
        runner.run("hook")
        profiles = [runner.run("profile")]
        while time.monotonic() - start < seconds:
            profiles.append(runner.run("profile"))
            plain.append(runner.run("plain"))
        wall_s = median([p["run_s"] for p in plain])
        metrics["traces.gen_s_per_job"] = median([p["gen_s_per_job"] for p in plain])
        model = plain[0]["model"]
    requests = hooked["requests"]
    metrics.update(_self_time(profiles, wall_s, requests))
    metrics.update(hooked["counters"])
    metrics.update(model)
    metrics["bench.trace_overhead"] = median([p["run_s"] for p in profiles]) / wall_s
    return metrics


def cross_check(passes: List[Dict[str, Any]]) -> None:
    """Digest and counters must repeat exactly across full-size passes.

    Each counter is compared with the first full-size pass that
    reported it; a pass that disagrees gets the disagreement added to
    its own ``errors``.
    """
    full = [p for p in passes if p["full"]]
    digest = full[0]["digest"]
    first: Dict[str, float] = {}
    for p in full:
        if p["digest"] != digest:
            p["errors"].append(
                f"model digest {p['digest'][:12]} differs from "
                f"{digest[:12]} at the same seed"
            )
        for name, value in p.get("counters", {}).items():
            ref = first.setdefault(name, value)
            if ref != value:
                p["errors"].append(f"counter {name} = {value!r}, first pass had {ref!r}")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, BUDGET_S)
    runner.run("plain", requests=WARMUP_REQUESTS)
    if args.trace:
        values, units = per_layer(runner, args.seconds), PER_LAYER
    else:
        values, units = end_to_end(runner, args.seconds), END_TO_END
    cross_check(runner.passes)

    failed = 0
    for p in runner.passes:
        if p["kind"] == "setup":
            continue
        wall = p.get("batch_s", p.get("replay_s", p.get("run_s")))
        print(
            f"pass {p['kind']:<8} jobs={p.get('jobs', 1)} requests={p['requests']} "
            + ("" if wall is None else f"wall_s={wall:.4f} ")
            + f"digest={p['digest'][:16]} errors={len(p['errors'])}"
        )
        for error in p["errors"]:
            print(f"  CHECK FAILED: {error}")
        if p["errors"]:
            failed += p["requests"]
    full_digest = next(p["digest"] for p in runner.passes if p["full"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"model digest {full_digest}")
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(p["requests"] for p in runner.passes),
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
