"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

from dataclasses import replace
import json
from pathlib import Path
import re
import sys

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from repro.core.filesystem import EEVFSCluster  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMALL = 300


def small_run(name, seed=5, hook=None):
    spec = workloads.SINGLE_RUNS[name]
    trace = spec.trace(seed, SMALL)
    cluster = EEVFSCluster(config=spec.make_config(), seed=seed)
    if hook is not None:
        cluster.sim.add_event_hook(hook)
    return trace, cluster, cluster.run(trace)


def counters_of(name, seed=5):
    counter = layers.EventCounter()
    trace, cluster, result = small_run(name, seed, counter)
    issued = len(trace.requests)
    out = workloads.result_counters([result], issued)
    out.update(workloads.cluster_counters([cluster], issued))
    out.update(counter.per_request(issued))
    return out, workloads.digest([result])


# -- names --------------------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert run.LAYERS == layers.LAYERS


def test_names_and_units_are_well_formed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in doc[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    for entry in doc["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert any(
        e["name"] == "setup_s" and e["unit"] == "s" and e["better"] == "lower"
        for e in doc["end_to_end"]
    )


# -- output checks ------------------------------------------------------------


def test_a_correct_run_passes_the_check():
    trace, _, result = small_run("hdd_read")
    assert workloads.check_result(len(trace.requests), result) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: replace(r, requests_failed=2),
        lambda r: replace(r, energy_j=0.0),
    ],
    ids=["failed-requests", "no-energy"],
)
def test_a_corrupted_result_trips_the_check(corrupt):
    trace, _, result = small_run("hdd_read")
    assert workloads.check_result(len(trace.requests), corrupt(result))


def test_a_lost_request_trips_the_check():
    trace, _, result = small_run("hdd_read")
    assert workloads.check_result(len(trace.requests) + 1, result)


def test_a_corrupted_result_changes_the_digest():
    _, _, result = small_run("hdd_read")
    bumped = replace(result, energy_j=result.energy_j * (1 + 1e-15))
    assert workloads.digest([bumped]) != workloads.digest([result])


def test_cross_check_flags_a_disagreeing_pass():
    base = {"full": True, "digest": "a", "counters": {"x": 1.0}}
    passes = [
        dict(base, errors=[]),
        dict(base, errors=[]),
        dict(base, digest="b", errors=[]),
        dict(base, counters={"x": 2.0}, errors=[]),
        dict(base, full=False, digest="c", errors=[]),
    ]
    run.cross_check(passes)
    assert [len(p["errors"]) for p in passes] == [0, 0, 1, 1, 0]


# -- exact counters -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.SINGLE_RUNS))
def test_counters_repeat_exactly(name):
    first, digest_a = counters_of(name)
    second, digest_b = counters_of(name)
    assert first == second
    assert digest_a == digest_b
    assert first["sim.events_per_req"] > 0


def test_table2_counters_repeat_exactly_and_match_the_pool_path():
    from repro.parallel import run_jobs

    specs = workloads.table2_specs(seed=5, n_requests=60)[::4]
    runs = []
    for _ in range(2):
        pairs = [workloads.run_pair_inline(s) for s in specs]
        comparisons = [c for c, _ in pairs]
        results = workloads.pair_results(comparisons)
        counters = workloads.cluster_counters(
            [cl for _, pair in pairs for cl in pair], 1
        )
        counters.update(workloads.result_counters(results, 1))
        runs.append((counters, workloads.digest(results)))
    assert runs[0] == runs[1]
    pooled = workloads.pair_results(run_jobs(specs, jobs=1))
    assert workloads.digest(pooled) == runs[0][1]


def test_event_counter_sees_every_dispatched_event():
    counter = layers.EventCounter()
    _, cluster, _ = small_run("hdd_read", hook=counter)
    assert counter.events == cluster.sim.events_processed
    assert counter.process_resumes > 0 and counter.continuations > 0


# -- self-time attribution ------------------------------------------------------


def _fn(path, name):
    return (path, 1, name)


def test_builtin_time_is_charged_to_the_calling_layer():
    sim_fn = _fn("/x/src/repro/sim/engine.py", "run")
    core_fn = _fn("/x/src/repro/core/node.py", "serve")
    lib_fn = _fn("/usr/lib/python3/heapq.py", "merge")
    builtin = _fn("~", "<built-in method len>")
    stats = {
        sim_fn: (1, 1, 1.0, 4.0, {}),
        core_fn: (1, 1, 0.5, 2.5, {sim_fn: (1, 1, 0.5, 2.5)}),
        # A library function called from core, calling a builtin.
        lib_fn: (1, 1, 0.25, 1.0, {core_fn: (1, 1, 0.25, 1.0)}),
        builtin: (
            3, 3, 1.5, 1.5,
            {sim_fn: (1, 1, 0.5, 0.5), lib_fn: (2, 2, 1.0, 1.0)},
        ),
    }
    by_layer = layers.self_time_by_layer(stats)
    assert by_layer["sim"] == pytest.approx(1.5)
    assert by_layer["core"] == pytest.approx(1.75)
    assert by_layer["other"] == pytest.approx(0.0)
    assert sum(by_layer.values()) == pytest.approx(3.25)


def test_package_of_needs_the_source_tree():
    assert layers.package_of("/a/src/repro/backend/ftl.py") == "backend"
    assert layers.package_of("/a/src/repro/cli.py") == "cli"
    assert layers.package_of("/a/repro/perfbench/run.py") is None
    assert layers.package_of("~") is None


def _shares(name):
    _, stats = layers.profile_call(lambda: small_run(name))
    by_layer = layers.self_time_by_layer(stats)
    total = sum(by_layer.values())
    return {layer: t / total for layer, t in by_layer.items()}


def test_ssd_writemix_lands_in_the_backend():
    shares = _shares("ssd_writemix")
    assert shares["backend"] > shares["sim"]
    assert max(shares, key=shares.get) == "backend"


def test_hdd_read_lands_in_the_kernel_not_the_backend():
    shares = _shares("hdd_read")
    assert shares["backend"] < 0.01
    assert max(shares, key=shares.get) == "sim"


def test_online_traced_exercises_obs_and_online():
    shares = _shares("online_traced")
    assert shares["obs"] > 0.02
    assert shares["online"] > 0.0
