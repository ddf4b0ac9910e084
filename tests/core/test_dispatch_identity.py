"""The event stream of a same-seed run is reproducible.

The golden fingerprints (``test_golden_fingerprints``) pin what a run
*measures*; this pins what it *does*: every event the kernel dispatches,
in order, hashed by :class:`~repro.devtools.sanitizer.EventStreamHasher`.
Two same-seed runs of the whole stack must give the same digest.
"""

import pytest

from repro.core import EEVFSConfig
from repro.core.filesystem import EEVFSCluster
from repro.devtools.sanitizer import EventStreamHasher
from repro.traces.synthetic import SyntheticWorkload, generate_synthetic_trace


def _digest(config, seed=7):
    """EventStreamHasher digest of a whole cluster run."""
    workload = SyntheticWorkload(n_requests=150, write_fraction=0.2)
    trace = generate_synthetic_trace(workload)
    cluster = EEVFSCluster(config=config, seed=seed)
    hasher = EventStreamHasher().attach(cluster.sim)
    cluster.run(trace)
    return hasher.hexdigest(), hasher.events_hashed


@pytest.mark.parametrize(
    "config",
    [
        EEVFSConfig(),
        EEVFSConfig(prefetch_enabled=False),
        EEVFSConfig(online_mode=True),
    ],
    ids=["prefetch", "no-prefetch", "online"],
)
def test_event_stream_digest_is_reproducible(config):
    assert _digest(config) == _digest(config)
