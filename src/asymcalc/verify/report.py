"""Check reports with reproducible serialization.

A report is fully determined by (check name, seed, config): rerunning
with the same inputs yields byte-identical canonical JSON.  Wall time is
recorded for operators but excluded from the canonical bytes.
"""

import json
import math
from dataclasses import dataclass, field

__all__ = ["CheckReport", "serialize_witness"]


def serialize_witness(obj):
    """Best-effort serialization of a witness; non-finite floats as strings."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, str, float)):
        return obj
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if isinstance(obj, (list, tuple)):
        return [serialize_witness(o) for o in obj]
    if isinstance(obj, dict):
        return {str(k): serialize_witness(v) for k, v in obj.items()}
    return repr(obj)


@dataclass
class CheckReport:
    name: str
    anchor: str
    seed: int
    instances: int = 0
    failures: list = field(default_factory=list)
    inconclusive: int = 0
    wall_time: float = 0.0

    def record_failure(self, **witness):
        self.failures.append(serialize_witness(witness))

    @property
    def passed(self) -> bool:
        return not self.failures

    def canonical(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "seed": self.seed,
            "instances": self.instances,
            "inconclusive": self.inconclusive,
            "failures": self.failures,
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":")).encode()

    def to_dict(self) -> dict:
        d = self.canonical()
        d["wall_time"] = self.wall_time
        return d
