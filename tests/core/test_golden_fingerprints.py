"""Golden fingerprints: the simulated outcome, pinned across commits.

A determinism check that runs one commit twice and compares cannot see
a change that shifts a number but stays deterministic.  This module
runs eleven scenarios and compares each run's
:func:`~repro.core.fingerprint.fingerprint` -- every field of the
``RunResult`` except the obs snapshot, floats to the bit -- with
``golden_fingerprints.json``, the fingerprints as last accepted:

* the nine race-suite scenarios: one point from each Table-II sweep,
  the metadata-plane leader-crash drill, online mode, an SSD-buffer
  write-mix point whose 32 MB tier overflows (so the write cache
  destages and garbage collection erases blocks), healthy and with two
  buffer SSDs failing mid-run, and striped (width 2) HDD reads across
  a whole-node crash and repair;
* an NPF point;
* a replication fault drill (``replication_factor=2``): a node crash
  that background repair re-replicates around, then a data-disk failure
  that a read fails over from.

The file is rewritten by running this module as a script::

    PYTHONPATH=src python tests/core/test_golden_fingerprints.py

Every rewrite needs a CHANGES.md line saying why the numbers moved.
The file's header records the Python and NumPy versions it was written
under; a mismatch is named in the failure message.
"""

import json
from pathlib import Path
import platform

import numpy as np
import pytest

from repro.core import EEVFSConfig, run_eevfs
from repro.core.fingerprint import fingerprint
from repro.devtools.racesuite import default_scenarios, RaceScenario
from repro.faults import FaultSchedule
from repro.traces.synthetic import SyntheticWorkload, generate_synthetic_trace

GOLDEN_PATH = Path(__file__).with_name("golden_fingerprints.json")
N_REQUESTS = 150


def golden_scenarios():
    """The race suite's nine scenarios plus NPF and replication."""
    trace = generate_synthetic_trace(
        SyntheticWorkload(n_requests=N_REQUESTS, write_fraction=0.2)
    )
    return default_scenarios(N_REQUESTS) + [
        RaceScenario("npf", trace, EEVFSConfig(prefetch_enabled=False)),
        RaceScenario(
            "replication:node-crash",
            trace,
            EEVFSConfig(replication_factor=2),
            faults=FaultSchedule()
            .node_fail("node2", at=20.0)
            .node_repair("node2", at=40.0)
            .disk_fail("node5/data1", at=50.0),
        ),
    ]


SCENARIOS = golden_scenarios()


def _run(scenario):
    return run_eevfs(scenario.trace, scenario.config, seed=7, faults=scenario.faults)


def _header():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "n_requests": N_REQUESTS,
    }


def _diff(expected, actual, path="$"):
    """Leaf paths where two canonical JSON values differ."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        return [
            p
            for key in sorted(expected.keys() | actual.keys())
            for p in _diff(expected.get(key), actual.get(key), f"{path}.{key}")
        ]
    if (
        isinstance(expected, list)
        and isinstance(actual, list)
        and len(expected) == len(actual)
    ):
        return [
            p
            for i, (e, a) in enumerate(zip(expected, actual))
            for p in _diff(e, a, f"{path}[{i}]")
        ]
    return [] if expected == actual else [f"{path}: {expected!r} -> {actual!r}"]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.name for s in SCENARIOS])
def test_run_matches_golden(golden, scenario):
    expected = golden["scenarios"][scenario.name]
    actual = json.loads(fingerprint(_run(scenario)))
    if actual != expected:
        diffs = _diff(expected, actual)
        note = ""
        if golden["header"] != _header():
            note = f"\n(golden written under {golden['header']}, running under {_header()})"
        pytest.fail(
            f"{scenario.name}: {len(diffs)} field(s) moved from the golden file:\n"
            + "\n".join(diffs[:20])
            + note
        )


def test_golden_file_covers_every_scenario(golden):
    assert list(golden["scenarios"]) == [s.name for s in SCENARIOS]
    assert golden["header"]["n_requests"] == N_REQUESTS
    ssd = golden["scenarios"]["ssd:writemix"]
    assert ssd["ssd_erases"] > 0
    ssd_fail = golden["scenarios"]["ssd:buffer-fail"]
    assert ssd_fail["requests_failed"] > 0
    assert ssd_fail["ssd_erases"] > 0
    replication = golden["scenarios"]["replication:node-crash"]
    assert replication["requests_failed_over"] > 0
    assert replication["repairs_completed"] > 0


def write_golden(path=GOLDEN_PATH):
    """Rewrite the golden file: one compact line per scenario."""
    entries = ",\n".join(f"  {json.dumps(s.name)}: {fingerprint(_run(s))}" for s in SCENARIOS)
    path.write_text(
        "{\n"
        f' "header": {json.dumps(_header(), sort_keys=True)},\n'
        ' "scenarios": {\n'
        f"{entries}\n"
        " }\n"
        "}\n"
    )


if __name__ == "__main__":
    write_golden()
    print(f"wrote {GOLDEN_PATH} ({len(SCENARIOS)} scenarios)")
