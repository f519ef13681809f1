"""Output checks for one ``quadpend run`` job.

Every scenario run is checked for the invariants that hold at any seed:

* the series has the expected number of rows (fewer only after an abort);
* every logged state, command and reference value is finite;
* the pendulum stays inside its valid region ``a**2 + b**2 < L**2``;
* the clamped rotor commands stay within ``[u_min, u_max]``;
* ``metrics.json`` is consistent with the series and holds finite numbers.

At the canonical seed the metrics are also compared with the stored
reference values, and the series SHA-256 is compared with the stored one.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

# Relative tolerance for reference metric values; lets a change that only
# reorders float operations pass while any behaviour change fails.
REFERENCE_RTOL = 1e-6
BOUND_TOL = 1e-9


@dataclass
class RunOutcome:
    """Result of checking one scenario run of a job."""

    name: str
    aborted: bool = False
    abort_time: float = None
    abort_reason: str = ""
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    @property
    def failed(self):
        return self.aborted or bool(self.problems)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_series(path, fmt):
    """Numeric columns, pendulum columns (None without a pendulum) and
    rotor commands of a CSV or JSON series, as arrays with one row a step."""
    if fmt == "json":
        doc = json.loads(path.read_text())
        arrays = [np.asarray(doc[k], dtype=float).reshape(len(doc["t"]), -1)
                  for k in ("t", "quad", "u", "wrench", "q_d", "ref_pos")]
        pend = None if doc["pend"] is None else np.asarray(doc["pend"], float)
        if doc["ref_pend"] is not None:
            arrays.append(np.asarray(doc["ref_pend"], dtype=float))
        return np.hstack(arrays), pend, np.asarray(doc["u"], dtype=float)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cols = rows[0]
    body = rows[1:]
    pend_cols = [cols.index(c) for c in ("a", "b", "a_dot", "b_dot")]
    num_cols = [i for i, c in enumerate(cols)
                if i not in pend_cols and c not in ("clamped", "qp_relaxed",
                                                    "qp_fault")]
    values = np.asarray([[float(r[i]) for i in num_cols] for r in body])
    values = values.reshape(len(body), len(num_cols))
    pend = None
    if body and body[0][pend_cols[0]] != "":
        pend = np.asarray([[float(r[i]) for i in pend_cols] for r in body])
    u_idx = [num_cols.index(cols.index(f"u{k}")) for k in range(1, 5)]
    return values, pend, values[:, u_idx]


def check_run(sc, fmt, out_dir):
    """Check the series and metrics files of one scenario run."""
    out = RunOutcome(name=sc.name)
    series = out_dir / f"{sc.name}.{fmt}"
    metrics_path = out_dir / f"{sc.name}.metrics.json"
    if not series.exists() or not metrics_path.exists():
        out.problems.append("series or metrics file missing")
        return out
    out.digests = {series.name: sha256(series),
                   metrics_path.name: sha256(metrics_path)}
    metrics = json.loads(metrics_path.read_text())
    out.metrics = metrics
    out.aborted = bool(metrics.get("aborted"))
    out.abort_time = metrics.get("abort_time")
    out.abort_reason = metrics.get("abort_reason", "")

    values, pend, u = _read_series(series, fmt)
    n_rows = values.shape[0]
    expected = int(round(sc.duration / sc.dt)) + 1
    if n_rows == 0 or n_rows > expected or (n_rows < expected and not out.aborted):
        out.problems.append(f"{n_rows} rows, expected {expected}")
    if not np.all(np.isfinite(values)):
        out.problems.append("non-finite value in series")
    if sc.has_pendulum:
        if pend is None or not np.all(np.isfinite(pend)):
            out.problems.append("pendulum columns missing or non-finite")
        elif np.any(pend[:, 0] ** 2 + pend[:, 1] ** 2 >= sc.pendulum.L ** 2):
            out.problems.append("pendulum left a^2 + b^2 < L^2")
    lo = np.asarray(sc.vehicle.u_min, dtype=float)
    hi = np.asarray(sc.vehicle.u_max, dtype=float)
    tol = BOUND_TOL * np.maximum(1.0, np.abs(hi))
    if np.any(u < lo - tol) or np.any(u > hi + tol):
        out.problems.append("rotor command outside [u_min, u_max]")
    for key, value in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            out.problems.append(f"metrics.json {key} is not finite")
    return out


def _close(a, b):
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=1e-12)
    return a == b


def compare_reference(outcome, ref):
    """Add problems for metrics that differ from ``ref``; True if SHA matches."""
    want = ref["metrics"]
    got = outcome.metrics
    if sorted(want) != sorted(got):
        outcome.problems.append("metrics.json keys differ from the reference")
    else:
        diff = [k for k in want if not _close(want[k], got[k])]
        if diff:
            outcome.problems.append(
                f"metrics differ from the reference: {', '.join(sorted(diff))}")
    return ref["series_sha256"] in outcome.digests.values()
