"""Exact work counts per run, pinned across commits.

The golden fingerprints pin *what* a run computes; this module pins how
much engine and device work it takes to compute it.  Four 200-request
runs at seed 1 -- the benchmark's ``hdd_read``, ``ssd_writemix`` and
``online_traced`` workloads plus an HDD write-mix twin -- are counted
with the benchmark's own engine event hook
(``perfbench/layers.py:EventCounter``) and compared with
``work_counts.json``:

* engine work: events dispatched, generator resumes, continuations,
  timeouts and ``Resource`` requests;
* fabric messages, disk operations, and FTL NAND pages (programmed +
  read) and relocations.

These are host-independent integers, so any change to them is a real
change in the work the simulator does.  A change that is *meant* to
move them regenerates the file and says why in CHANGES.md::

    PYTHONPATH=src python tests/core/test_work_counts.py
"""

import json
from pathlib import Path
import sys

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from layers import EventCounter  # noqa: E402
from workloads import SINGLE_RUNS, SingleRun  # noqa: E402

from repro.backend.ssd import SSDBackend  # noqa: E402
from repro.core.filesystem import EEVFSCluster  # noqa: E402

COUNTS_PATH = Path(__file__).with_name("work_counts.json")
N_REQUESTS = 200
SEED = 1

RUNS = {
    "hdd_read": SINGLE_RUNS["hdd_read"],
    "hdd_writemix": SingleRun(n_requests=N_REQUESTS, write_fraction=0.4),
    "ssd_writemix": SINGLE_RUNS["ssd_writemix"],
    "online_traced": SINGLE_RUNS["online_traced"],
}


def work_counts(run):
    """Total work of one ``N_REQUESTS``-request run at ``SEED``."""
    trace = run.trace(SEED, N_REQUESTS)
    cluster = EEVFSCluster(config=run.make_config(), seed=SEED)
    counter = EventCounter()
    cluster.sim.add_event_hook(counter)
    cluster.run(trace)
    disks = [disk for node in cluster.nodes for disk in node.all_disks]
    ftls = [disk.ftl.counters for disk in disks if isinstance(disk, SSDBackend)]
    return {
        "events": counter.events,
        "process_resumes": counter.process_resumes,
        "continuations": counter.continuations,
        "timeouts": counter.timeouts,
        "resource_requests": counter.resource_requests,
        "fabric_messages": cluster.fabric.messages_sent,
        "disk_ops": sum(disk.requests_served for disk in disks),
        "ftl_nand_pages": sum(
            c.nand_pages_programmed + c.nand_pages_read for c in ftls
        ),
        "ftl_relocations": sum(c.pages_relocated for c in ftls),
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(COUNTS_PATH.read_text())


@pytest.mark.parametrize("name", list(RUNS))
def test_work_counts_match(pinned, name):
    expected = pinned["runs"][name]
    actual = work_counts(RUNS[name])
    moved = {
        key: (expected.get(key), actual.get(key))
        for key in sorted(expected.keys() | actual.keys())
        if expected.get(key) != actual.get(key)
    }
    assert not moved, f"{name}: work counts moved (pinned, now): {moved}"


def test_file_covers_every_run(pinned):
    assert list(pinned["runs"]) == list(RUNS)
    assert pinned["n_requests"] == N_REQUESTS
    assert pinned["seed"] == SEED


def write_counts(path=COUNTS_PATH):
    runs = {name: work_counts(run) for name, run in RUNS.items()}
    payload = {"n_requests": N_REQUESTS, "seed": SEED, "runs": runs}
    path.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    write_counts()
    print(f"wrote {COUNTS_PATH} ({len(RUNS)} runs)")
