"""Output checks. Every check is one attempted operation; a check that does
not hold is one failed operation, and ``failed / attempted`` is the
benchmark's ``failed_frac``."""

from __future__ import annotations

import csv

import numpy as np

# per-text compose vs. the represent_corpus row for the same text
SAME_POINT_TOL = 1e-9


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def point(self, point, what: str) -> bool:
        """A composed point must be finite and strictly inside the unit ball."""
        p = np.asarray(point, dtype=np.float64)
        ok = bool(np.all(np.isfinite(p))) and float(np.linalg.norm(p)) < 1.0
        return self.check(ok, f"{what}: point not finite or not inside the unit ball")

    def same_point(self, a, b, what: str) -> bool:
        diff = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
        return self.check(diff <= SAME_POINT_TOL, f"{what}: differs by {diff:.3g}")

    def exit_code(self, code: int, what: str) -> bool:
        return self.check(code == 0, f"{what}: exit code {code}")

    def cells(self, rows, floor: float, what: str) -> list:
        """One check per grid cell: it completed, and its accuracy is at
        least ``floor``. Returns the accuracies of the completed cells."""
        accs = []
        for r in rows:
            cell = f"{what}: {r['composition']}/{r['classifier']}[{r['params']}]"
            if r["accuracy"] == "NA":
                self.check(False, f"{cell} is NA")
                continue
            acc = float(r["accuracy"])
            accs.append(acc)
            self.check(acc >= floor, f"{cell} accuracy {acc:.4f} below floor {floor}")
        return accs

    def same_table(self, a, b, what: str) -> bool:
        """Two results tables agree on every column except runtime_s."""
        strip = [[{k: v for k, v in r.items() if k != "runtime_s"} for r in t] for t in (a, b)]
        return self.check(strip[0] == strip[1], f"{what}: results tables differ")


def read_table(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
