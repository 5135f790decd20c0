"""How each operation ended, and the seed-0 outcomes the Baseline recorded.

Exit classes follow the CLI's documented codes: ``0`` a certified answer,
``2`` malformed input, ``3`` hypothesis failure, ``4`` no convergence,
``5`` a failed certification audit, and ``crash`` for anything else (a
Python traceback).  Known defects stay in the data: a refusal or crash is
an outcome to count, not an error of the benchmark.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from origeo.errors import (
    CertificationError,
    HypothesisError,
    InputError,
    NoConvergenceError,
)

EXIT_CLASSES = ("0", "2", "3", "4", "5", "crash")

_DOCUMENTED = ((InputError, "2"), (HypothesisError, "3"),
               (NoConvergenceError, "4"), (CertificationError, "5"))

# Outcomes per pass at seed 0, as measured before this benchmark existed:
# per-class counts, and the exit class, exception and iteration count of the
# operations the Baseline names.
BASELINE = {
    "random-full": {"counts": {"0": 121, "4": 29}, "ops": {}},
    "staircase": {  # plus n = 10, which the Baseline did not run; it certifies
        "counts": {"0": 2, "5": 3},
        "ops": {"staircase-20": ["0", None, 326],
                "staircase-40": ["5", "CertificationError", None],
                "staircase-80": ["5", "CertificationError", None],
                "staircase-160": ["5", "CertificationError", None]},
    },
    "flow-cli": {
        "counts": {"0": 12, "crash": 1},
        "ops": {"golden/long-horizon": ["crash", "OverflowError", None]},
    },
    "selfcheck": {"counts": {"0": 7}, "ops": {}},
}


def classify(exc: Optional[BaseException]) -> str:
    """Exit class of an API call that returned (None) or raised ``exc``."""
    if exc is None:
        return "0"
    for cls, code in _DOCUMENTED:
        if isinstance(exc, cls):
            return code
    return "crash"


def classify_exit_code(code: int) -> str:
    return str(code) if str(code) in EXIT_CLASSES else "crash"


@dataclass(frozen=True)
class Outcome:
    op: str
    exit: str
    error: Optional[str]  # exception type name, or None
    iterations: Optional[int]
    certified: bool


class Ledger:
    """Outcomes of every operation in one run, grouped by pass."""

    def __init__(self) -> None:
        self.passes: List[List[Outcome]] = []

    def start_pass(self) -> None:
        self.passes.append([])

    def record(self, outcome: Outcome) -> None:
        self.passes[-1].append(outcome)

    @property
    def outcomes(self) -> List[Outcome]:
        return [o for p in self.passes for o in p]

    def counts(self) -> Dict[str, int]:
        """Exit classes of the first pass."""
        return dict(sorted(Counter(o.exit for o in self.passes[0]).items()))

    def failed(self) -> int:
        """Operations of the workload that did not end certified on every pass.

        Counted once per operation, not once per repetition, so that the
        count depends on the inputs alone and not on how many passes fitted
        into the run.
        """
        return sum(not all(p[i].certified for p in self.passes)
                   for i in range(len(self.passes[0])))

    def stable(self) -> bool:
        """Every pass ended every operation the same way."""
        return all(p == self.passes[0] for p in self.passes[1:])

    def matches_baseline(self, workload: str) -> bool:
        want = BASELINE[workload]
        first = {o.op: [o.exit, o.error, o.iterations] for o in self.passes[0]}
        return self.counts() == want["counts"] and all(
            first.get(op) == record for op, record in want["ops"].items())

    def summary(self, workload: str, seed: int) -> dict:
        out = {
            "per_pass": self.counts(),
            "passes": len(self.passes),
            "stable": self.stable(),
            "ops": [[o.op, o.exit, o.error, o.iterations] for o in self.passes[0]],
        }
        if seed == 0:
            out["matches_baseline"] = self.matches_baseline(workload)
        return out
