"""Workload definitions, exact counters and output checks for the benchmark.

Every workload is built from the benchmark's ``--seed``: the seed picks
the synthetic trace (and the cluster's spin-up jitter stream), so one
seed always gives one input.  Three workloads are a single EEVFS run
driven through :class:`repro.core.filesystem.EEVFSCluster`; the fourth,
``table2_sweep``, is all four Table-II sweeps as PF/NPF pairs fanned out
through :func:`repro.parallel.run_jobs`.

Nothing here times anything; :mod:`worker` does the timing and
:mod:`run` the aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import hashlib
import json
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.backend.ssd import SSDBackend
from repro.core.config import EEVFSConfig
from repro.core.filesystem import EEVFSCluster, RunResult
from repro.experiments.sweeps import sweep_specs, SWEEPS
from repro.metrics.comparison import compare, PairedComparison
from repro.parallel import JobSpec
from repro.traces.model import Trace
from repro.traces.synthetic import generate_synthetic_trace, SyntheticWorkload


@dataclass(frozen=True)
class SingleRun:
    """One EEVFS run: Table-II defaults plus the overrides given here."""

    n_requests: int
    write_fraction: float = 0.0
    config: Dict[str, Any] = field(default_factory=dict)

    def trace(self, seed: int, n_requests: Optional[int] = None) -> Trace:
        workload = SyntheticWorkload(
            n_requests=self.n_requests if n_requests is None else n_requests,
            write_fraction=self.write_fraction,
        )
        return generate_synthetic_trace(workload, rng=np.random.default_rng(seed))

    def make_config(self) -> EEVFSConfig:
        return EEVFSConfig(**self.config)


#: The single-run workloads.  Request counts are chosen so one replay
#: takes about a second of host time.
SINGLE_RUNS: Dict[str, SingleRun] = {
    # The paper's own workload: 10 MB files, MU 1000, 700 ms apart,
    # K=70, 5 s idle threshold, read-only, HDD buffer disks.
    "hdd_read": SingleRun(n_requests=4000),
    # 40% writes onto a 32 MB SSD buffer tier: the working set
    # overflows the device, so the write cache, destager and FTL
    # garbage collector all run.
    "ssd_writemix": SingleRun(
        n_requests=2000,
        write_fraction=0.4,
        config={
            "buffer_backend": "ssd",
            "ssd_capacity_mb": 32,
            "ssd_buffer_idle_s": 2.0,
        },
    ),
    # Online popularity estimation and adaptive control, with span
    # tracing and telemetry attached.
    "online_traced": SingleRun(
        n_requests=3000, config={"online_mode": True, "obs": True}
    ),
}

TABLE2 = "table2_sweep"
#: Requests per Table-II run: the paper's own trace length.
TABLE2_REQUESTS = 1000

WORKLOADS = tuple(SINGLE_RUNS) + (TABLE2,)


def table2_specs(seed: int, n_requests: int = TABLE2_REQUESTS) -> List[JobSpec]:
    """All four Table-II sweeps as one batch of PF/NPF pair jobs."""
    return [
        spec
        for sweep in sorted(SWEEPS)
        for spec in sweep_specs(
            sweep, n_requests=n_requests, seed=seed, trace_seed=seed
        )[2]
    ]


def run_pair_inline(
    spec: JobSpec, hook: Optional[Callable[[float, Any], None]] = None
) -> tuple[PairedComparison, List[EEVFSCluster]]:
    """One pair job run in this process, keeping both clusters.

    Mirrors :func:`repro.parallel.execute_job` for a paced ``"pair"``
    job (the only kind :func:`table2_specs` makes), but returns the
    clusters too so their engine and fabric counters can be read.
    """
    trace = spec.trace.generate()
    config = spec.config or EEVFSConfig()
    clusters = []
    results = []
    for variant in (config.as_pf(), config.as_npf()):
        cluster = EEVFSCluster(cluster=spec.cluster, config=variant, seed=spec.seed)
        if hook is not None:
            cluster.sim.add_event_hook(hook)
        results.append(cluster.run(trace))
        clusters.append(cluster)
    return compare(results[0], results[1]), clusters


# -- output checks ------------------------------------------------------------


def check_result(issued: int, result: RunResult) -> List[str]:
    """Errors in one run's output; empty when it is correct.

    Every issued request must be accounted for exactly once, and these
    fault-free workloads must fail none.
    """
    errors = []
    served = result.requests_total
    failed = result.requests_failed
    if served + failed != issued:
        errors.append(
            f"issued {issued} requests but {served} served + {failed} failed"
        )
    if failed:
        errors.append(f"{failed} requests failed on a fault-free workload")
    if not served or not result.energy_j > 0:
        errors.append("run produced no served requests or no energy")
    return errors


def model_fields(result: RunResult) -> List[Any]:
    """The simulated outcome of one run, exactly (floats as repr)."""
    return [
        repr(result.epoch_s),
        repr(result.end_s),
        repr(result.energy_j),
        repr(result.energy_with_setup_j),
        result.transitions,
        result.response_times.count,
        repr(result.response_times.mean),
        result.requests_failed,
        result.buffer_hits,
        result.data_disk_hits,
        result.writes_buffered,
        result.writes_direct,
        result.writes_destaged,
        result.prefetch_files_copied,
        result.ssd_nand_pages_written,
        result.ssd_erases,
    ]


def digest(results: Sequence[RunResult]) -> str:
    """SHA-256 over the simulated outcome of a list of runs."""
    payload = json.dumps([model_fields(r) for r in results])
    return hashlib.sha256(payload.encode()).hexdigest()


def pair_results(comparisons: Sequence[PairedComparison]) -> List[RunResult]:
    """PF then NPF result of every pair, in batch order."""
    return [r for c in comparisons for r in (c.pf, c.npf)]


# -- exact, host-independent counters -----------------------------------------


def _per(value: float, requests: int, scale: float = 1.0) -> float:
    return scale * value / requests


def result_counters(results: Sequence[RunResult], requests: int) -> Dict[str, float]:
    """Counters readable from ``RunResult`` alone (so also from a pool)."""
    disks = [d for r in results for n in r.nodes for d in n.disks]
    writes_buffered = sum(r.writes_buffered for r in results)
    writes = writes_buffered + sum(r.writes_direct for r in results)
    buffer_hits = sum(r.buffer_hits for r in results)
    served = buffer_hits + sum(r.data_disk_hits for r in results)
    host_pages = sum(r.ssd_host_pages_written for r in results)
    nand_written = sum(r.ssd_nand_pages_written for r in results)
    return {
        "core.buffer_hit_ratio": buffer_hits / served if served else 0.0,
        "core.writes_buffered_frac": writes_buffered / writes if writes else 0.0,
        "core.writes_destaged_per_req": _per(
            sum(r.writes_destaged for r in results), requests
        ),
        "core.prefetch_files_copied": float(
            sum(r.prefetch_files_copied for r in results)
        ),
        "disk.ops_per_req": _per(sum(d.requests_served for d in disks), requests),
        "disk.spinups_per_kreq": _per(sum(d.spinups for d in disks), requests, 1e3),
        "disk.transitions_per_kreq": _per(
            sum(r.transitions for r in results), requests, 1e3
        ),
        "ftl.relocations_per_req": _per(
            sum(r.ssd_pages_relocated for r in results), requests
        ),
        "ftl.erases_per_kreq": _per(sum(r.ssd_erases for r in results), requests, 1e3),
        "ftl.write_amplification": nand_written / host_pages if host_pages else 0.0,
        "obs.spans_per_req": _per(
            sum(len(r.trace.spans) for r in results if r.trace is not None), requests
        ),
        "obs.series_samples": float(
            sum(
                len(s)
                for r in results
                if r.trace is not None
                for s in r.trace.series.values()
            )
        ),
        "online.samples_recorded_per_req": _per(
            sum(r.online.samples_recorded for r in results if r.online is not None),
            requests,
        ),
        "online.replans": float(
            sum(r.online.replans_triggered for r in results if r.online is not None)
        ),
    }


def cluster_counters(
    clusters: Sequence[EEVFSCluster], requests: int
) -> Dict[str, float]:
    """Counters that need the live cluster: engine, fabric and FTL."""
    ssds = [
        d
        for c in clusters
        for node in c.nodes
        for d in node.all_disks
        if isinstance(d, SSDBackend)
    ]
    ssd_served = sum(d.requests_served for d in ssds)
    return {
        "sim.events_per_req": _per(
            sum(c.sim.events_processed for c in clusters), requests
        ),
        "net.messages_per_req": _per(
            sum(c.fabric.messages_sent for c in clusters), requests
        ),
        "net.bytes_per_req": _per(sum(c.fabric.bytes_sent for c in clusters), requests),
        "net.messages_dropped": float(sum(c.fabric.messages_dropped for c in clusters)),
        "ftl.nand_pages_per_req": _per(
            sum(
                d.ftl.counters.nand_pages_programmed + d.ftl.counters.nand_pages_read
                for d in ssds
            ),
            requests,
        ),
        "ftl.gc_runs_per_kreq": _per(
            sum(d.ftl.counters.gc_runs for d in ssds), requests, 1e3
        ),
        "ssd.cache_hit_ratio": (
            sum(d.cache_hits for d in ssds) / ssd_served if ssd_served else 0.0
        ),
    }


def model_metrics(
    results: Sequence[RunResult],
    comparisons: Sequence[PairedComparison] = (),
) -> Dict[str, float]:
    """Simulated outcome as metrics: energy, transitions, response time."""
    savings = [c.energy_savings_pct for c in comparisons]
    return {
        "model.energy_j": sum(r.energy_j for r in results),
        "model.transitions": float(sum(r.transitions for r in results)),
        "model.mean_response_s": sum(r.mean_response_s for r in results)
        / len(results),
        "model.pf_savings_pct": sum(savings) / len(savings) if savings else 0.0,
    }


# -- pool helpers (module level so worker processes can unpickle them) --------


def probe_worker(_index: int) -> int:
    """Trivial job: returns once a pool worker is up and importing."""
    import repro.parallel.jobs  # noqa: F401  (what a real job needs first)

    return 1


def timed_job(spec: JobSpec) -> tuple[float, PairedComparison]:
    """Run one job the way a pool worker does and time it there."""
    import time

    from repro.parallel import execute_job

    start = time.perf_counter()
    comparison = execute_job(spec)
    return time.perf_counter() - start, comparison
