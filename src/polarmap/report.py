"""The run report: one JSON document per analysis, byte-stable given a seed.

Keys are fixed; "p" and "seed" are null when not applicable, and the
"millis" field is the only value expected to vary between identical runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields


@dataclass
class ReportDocument:
    input: str
    n: int
    field: str                      # "Q" or "Fp"
    p: int | None
    seed: int | None
    mode: str                       # "exhaustive" or "sample"
    fiber_histogram: dict           # fiber size -> count of image points
    image_size: int
    dominant: bool
    degree: int
    homaloidal: bool
    certificate: list = field(default_factory=list)
    millis: int = 0

    def to_json(self):
        # shallow: the certificate's entries are already plain dicts and
        # lists, which asdict would only deep-copy
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["fiber_histogram"] = {str(k): self.fiber_histogram[k]
                                      for k in sorted(self.fiber_histogram)}
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        payload["fiber_histogram"] = {int(k): v
                                      for k, v in payload["fiber_histogram"].items()}
        return cls(**payload)
