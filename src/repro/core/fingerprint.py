"""The canonical run fingerprint: one string per simulated outcome.

:func:`fingerprint` renders any nesting of dataclasses, dicts and
sequences -- one :class:`~repro.core.filesystem.RunResult`, a dict of
them keyed by label, a list of sweep points or paired comparisons -- as
sorted, compact JSON in which every float is written with ``repr``.
``repr`` round-trips a double exactly, so two fingerprints are equal
only if every number behind them is equal to the bit.

Dataclasses are walked field by field; a field whose metadata carries
``fingerprint=False`` (see :data:`NOT_FINGERPRINTED`) is left out, which
is how ``RunResult.trace`` -- the observability snapshot, an observation
of the run rather than part of it -- stays out.  The two non-dataclass
types a ``RunResult`` holds, :class:`TallyStat` and :class:`FaultLog`,
get one explicit case each.  Anything else the walker does not know
raises ``TypeError``: a new result type must be given a canonical form,
never silently skipped.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict

from repro.faults.log import FaultLog
from repro.sim.monitor import TallyStat

#: ``field(metadata=NOT_FINGERPRINTED)`` keeps a dataclass field out of
#: the fingerprint.
NOT_FINGERPRINTED: Dict[str, bool] = {"fingerprint": False}


def fingerprint(obj: Any) -> str:
    """Canonical JSON of *obj*, floats bit-exact via ``repr``."""
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def _canonical(obj: Any) -> Any:
    """*obj* as plain JSON data: floats become their ``repr`` strings,
    dataclasses become dicts of their fingerprinted fields."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, TallyStat):
        return {
            "count": obj.count,
            "mean": repr(obj.mean),
            "variance": repr(obj.variance),
            "min": repr(obj.minimum),
            "max": repr(obj.maximum),
            "samples": [repr(value) for value in obj.samples],
        }
    if isinstance(obj, FaultLog):
        return [_canonical(record) for record in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.metadata.get("fingerprint", True)
        }
    if isinstance(obj, dict):
        return {key: _canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    raise TypeError(f"no canonical fingerprint form for {type(obj).__name__}")
