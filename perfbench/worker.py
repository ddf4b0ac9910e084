"""One measured pass of one workload, in a fresh process.

Usage (from the repository root)::

    python3 perfbench/worker.py --workload hdd_read --seed 1 --pass plain

Prints one JSON object on its last line of standard output.  The host
clock starts at the first line of this file, before ``repro`` or NumPy
is imported, so ``setup_s`` includes import time.

Passes:

* ``plain``   -- untraced run (single-run workloads) or untraced batch
  through ``run_jobs`` (``table2_sweep``; ``--jobs`` workers);
* ``hook``    -- the same work with an engine event hook counting events;
* ``profile`` -- the same work under ``cProfile``, self time by layer;
* ``jobtimes`` -- ``table2_sweep`` only: the batch on a pool whose jobs
  time themselves inside the worker;
* ``setup``   -- ``table2_sweep`` only: imports and specs, then exit:
  more ``setup_s`` samples without another batch.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def single_pass(args: argparse.Namespace) -> dict:
    import workloads
    from layers import EventCounter, profile_call, self_time_by_layer

    from repro.core.filesystem import EEVFSCluster

    spec = workloads.SINGLE_RUNS[args.workload]
    marks: dict = {}
    counter = EventCounter() if args.pass_ == "hook" else None

    def run() -> tuple:
        marks["start"] = time.perf_counter()
        trace = spec.trace(args.seed, args.requests)
        marks["traced"] = time.perf_counter()
        cluster = EEVFSCluster(config=spec.make_config(), seed=args.seed)
        if counter is not None:
            cluster.sim.add_event_hook(counter)
        replay = cluster.client.replay

        def timed_replay(*a, **kw):
            marks["replay"] = time.perf_counter()
            return replay(*a, **kw)

        cluster.client.replay = timed_replay
        result = cluster.run(trace)
        marks["end"] = time.perf_counter()
        return trace, cluster, result

    if args.pass_ == "profile":
        (trace, cluster, result), stats = profile_call(run)
        out = {"layer_s": self_time_by_layer(stats)}
    else:
        trace, cluster, result = run()
        out = {}
    issued = len(trace.requests)
    counters = workloads.result_counters([result], issued)
    counters.update(workloads.cluster_counters([cluster], issued))
    if counter is not None:
        counters.update(counter.per_request(issued))
        if counter.events != cluster.sim.events_processed:
            out.setdefault("errors", []).append(
                f"hook saw {counter.events} events, engine dispatched "
                f"{cluster.sim.events_processed}"
            )
    out.update(
        requests=issued,
        setup_s=marks["replay"] - T0,
        replay_s=marks["end"] - marks["replay"],
        run_s=marks["end"] - marks["start"],
        gen_s_per_job=marks["traced"] - marks["start"],
        counters=counters,
        model=workloads.model_metrics([result]),
        digest=workloads.digest([result]),
        errors=out.get("errors", []) + workloads.check_result(issued, result),
    )
    return out


def table2_pass(args: argparse.Namespace) -> dict:
    from concurrent.futures import ProcessPoolExecutor

    import workloads
    from layers import EventCounter, profile_call, self_time_by_layer

    from repro.parallel import run_jobs

    kwargs = {} if args.requests is None else {"n_requests": args.requests}
    specs = workloads.table2_specs(args.seed, **kwargs)
    issued = sum(2 * s.trace.workload.n_requests for s in specs)
    out: dict = {"requests": issued, "jobs": args.jobs}

    if args.pass_ == "plain" and args.jobs > 1:
        start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            list(pool.map(workloads.probe_worker, range(args.jobs)))
        out["pool_start_s"] = time.perf_counter() - start
    if args.pass_ == "setup":
        out.update(setup_s=time.perf_counter() - T0, requests=0, digest=None, errors=[])
        return out
    if args.pass_ == "plain":
        job_ends = []
        start = time.perf_counter()
        out["setup_s"] = start - T0
        comparisons = run_jobs(
            specs,
            jobs=args.jobs,
            progress=lambda *_: job_ends.append(time.perf_counter()),
        )
        out["batch_s"] = time.perf_counter() - start
        if args.jobs == 1:
            out["job_s"] = [b - a for a, b in zip([start] + job_ends, job_ends)]
            out["gen_s_per_job"] = _trace_gen_s_per_job(specs)
    elif args.pass_ == "jobtimes":
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            timed = list(pool.map(workloads.timed_job, specs))
        out["job_s"] = [t for t, _ in timed]
        comparisons = [c for _, c in timed]
    else:
        counter = EventCounter() if args.pass_ == "hook" else None

        def run() -> list:
            return [workloads.run_pair_inline(s, counter) for s in specs]

        if args.pass_ == "profile":
            start = time.perf_counter()
            pairs, stats = profile_call(run)
            out["run_s"] = time.perf_counter() - start
            out["layer_s"] = self_time_by_layer(stats)
        else:
            pairs = run()
        comparisons = [c for c, _ in pairs]
        clusters = [cl for _, pair in pairs for cl in pair]
        out["counters"] = workloads.cluster_counters(clusters, issued)
        if counter is not None:
            out["counters"].update(counter.per_request(issued))

    results = workloads.pair_results(comparisons)
    out["counters"] = {
        **out.get("counters", {}),
        **workloads.result_counters(results, issued),
    }
    out["model"] = workloads.model_metrics(results, comparisons)
    out["digest"] = workloads.digest(results)
    out["errors"] = [
        f"{spec.label}: {error}"
        for spec, comparison in zip(specs, comparisons)
        for result in (comparison.pf, comparison.npf)
        for error in workloads.check_result(spec.trace.workload.n_requests, result)
    ]
    return out


def _trace_gen_s_per_job(specs: list) -> float:
    """Host seconds to generate one job's trace from scratch."""
    import numpy as np

    from repro.traces.synthetic import generate_synthetic_trace

    start = time.perf_counter()
    for spec in specs:
        generate_synthetic_trace(
            spec.trace.workload, rng=np.random.default_rng(spec.trace.seed)
        )
    return (time.perf_counter() - start) / len(specs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--pass", dest="pass_", default="plain",
        choices=("plain", "hook", "profile", "jobtimes", "setup"),
    )
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--requests", type=int, default=None)
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        sys.exit(f"no simulator sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "table2_sweep":
        out = table2_pass(args)
    else:
        out = single_pass(args)
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
