"""Independent references and artifact checks, run outside the timed region.

Artifacts are read back from disk and parsed here by column and key name,
without the package's own parsers, so the checks survive refactors of the
code under test; any ``pointer-cell-sim report v<k>`` header is accepted.
The references use exact integer arithmetic (``math.comb``, Python ints)
rather than the library's log-space machinery.

``check_artifacts`` returns the number of failed operations and a message
for each failure.  An operation is one CSV row or one verdict file; a
missing or malformed artifact fails every operation it should carry.
"""

from __future__ import annotations

import csv
import io
import math
import re
from fractions import Fraction
from pathlib import Path

from workloads import AMPLITUDES, M0, Workload

HEADER = re.compile(r"^pointer-cell-sim report v\d+$")
LOG_EPS_RTOL = 1e-12  # full-traversal log pointer error vs the binomial tail
C_FIT_RTOL = 1e-3  # fitted decay constant vs the boundary relative entropy
HALF_RTOL = 1e-11  # half-traversal rows vs the exact Poisson-binomial reference
HALF_EXACT_MAX_N = 800
DENSE_ORACLE_TOL = 1e-9


class ArtifactError(Exception):
    pass


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def parse_report(text: str) -> dict[str, dict[str, str]]:
    lines = text.splitlines()
    if not lines or not HEADER.match(lines[0].strip()):
        raise ArtifactError("missing 'pointer-cell-sim report v<k>' header")
    sections: dict[str, dict[str, str]] = {}
    current = None
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif "=" in line and current is not None:
            key, value = line.split("=", 1)
            current[key.strip()] = value.strip()
    return sections


def _field(sections, section: str, key: str) -> str:
    try:
        return sections[section][key]
    except KeyError:
        raise ArtifactError(f"[{section}] {key} missing") from None


def _close(value: float, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


# -- references -----------------------------------------------------------

def up_probability() -> float:
    return (1.0 + M0) / 2.0


def log_binomial_cdf(N: int, p: float, t: int) -> float:
    """log P(Bin(N, p) <= t) for t at or below the mean.

    The largest term, at k = t, is built from the exact ``math.comb``; the
    tail below it is a float sum of term ratios, which decay geometrically.
    """
    q = 1.0 - p
    log_top = math.log(math.comb(N, t)) + t * math.log(p) + (N - t) * math.log(q)
    total = term = 1.0
    for k in range(t, 0, -1):
        term *= k / (N - k + 1) * (q / p)
        total += term
        if term < 1e-18 * total:
            break
    return log_top + math.log(total)


def full_traversal_log_eps(N: int) -> float:
    """Largest log pointer error after the full traversal at theta = pi.

    The flipped sector has up-probability 1 - p and must stay in the "-"
    cell, which it leaves with probability P(Bin(N, p) <= N/2) (the m = 0
    boundary belongs to "+"); that tail dominates the other sector's.
    """
    return log_binomial_cdf(N, up_probability(), N // 2)


def boundary_rate() -> float:
    """Relative entropy D(1/2 || p): the analytic decay constant."""
    p = up_probability()
    return 0.5 * math.log(0.5 / p) + 0.5 * math.log(0.5 / (1.0 - p))


def half_traversal_row(N: int) -> dict[str, float]:
    """Exact eps_max, log_eps_max, w_plus and w_minus at half traversal.

    Sector "+" is Bin(N, 4/5) in up spins; sector "-" has its first
    floor(N/2) sites flipped: Bin(floor(N/2), 1/5) + Bin(N - floor(N/2), 4/5).
    Integer weights over 5**N keep the whole computation exact.
    """
    rotated = N // 2

    def weights(n: int, up_weight: int, down_weight: int) -> list[int]:
        return [math.comb(n, k) * up_weight ** k * down_weight ** (n - k) for k in range(n + 1)]

    plus_sector = weights(N, 4, 1)
    flipped, kept = weights(rotated, 1, 4), weights(N - rotated, 4, 1)
    minus_sector = [0] * (N + 1)
    for i, x in enumerate(flipped):
        for j, y in enumerate(kept):
            minus_sector[i + j] += x * y
    total = 5 ** N
    boundary = (N + 1) // 2  # first up count with m >= 0
    p0_minus = Fraction(sum(plus_sector[:boundary]), total)
    p1_minus = Fraction(sum(minus_sector[:boundary]), total)
    w0 = Fraction(AMPLITUDES[0]).limit_denominator(1000) ** 2
    w1 = Fraction(AMPLITUDES[1]).limit_denominator(1000) ** 2
    # the pointer map sends sector "+" to cell "+" and sector "-" to cell "-"
    eps = max(p0_minus, 1 - p1_minus)
    return {
        "eps_max": float(eps),
        "log_eps_max": math.log(eps.numerator) - math.log(eps.denominator),
        "w_plus": float(w0 * (1 - p0_minus) + w1 * (1 - p1_minus)),
        "w_minus": float(w0 * p0_minus + w1 * p1_minus),
    }


# -- artifact checks ------------------------------------------------------

def _check_sweep_csv(text: str, Ns, reference, label: str) -> tuple[int, list[str]]:
    """Rows must cover ``Ns`` with status ok/underflow and match ``reference``."""
    rows = {int(row["N"]): row for row in parse_csv(text)}
    failed, messages = 0, []
    for N in Ns:
        row = rows.get(N)
        if row is None:
            failed += 1
            messages.append(f"{label}: no row for N = {N}")
            continue
        status = row["status"]
        if status not in ("ok", "underflow"):
            failed += 1
            messages.append(f"{label}: N = {N} status {status}")
            continue
        problems = reference(N, row) if reference else []
        if problems:
            failed += 1
            messages += [f"{label}: N = {N} {p}" for p in problems]
    return failed, messages


def _full_row(N: int, row) -> list[str]:
    ref = full_traversal_log_eps(N)
    value = float(row["log_eps_max"])
    if not _close(value, ref, LOG_EPS_RTOL):
        return [f"log_eps_max {value!r} vs reference {ref!r}"]
    return []


def _half_row(N: int, row) -> list[str]:
    if N > HALF_EXACT_MAX_N:
        return [] if math.isfinite(float(row["log_eps_max"])) else ["log_eps_max not finite"]
    ref = half_traversal_row(N)
    return [f"{key} {row[key]} vs reference {ref[key]!r}" for key in ref
            if not _close(float(row[key]), ref[key], HALF_RTOL)]


def _check_full_fit(text: str) -> list[str]:
    sections = parse_report(text)
    status = _field(sections, "decay_fit", "status")
    if status != "ok":
        return [f"fit status {status}"]
    c_fit = float(_field(sections, "decay_fit", "c_fit"))
    c_ref = float(_field(sections, "decay_fit", "c_analytic_boundary"))
    problems = []
    if not _close(c_ref, boundary_rate(), 1e-12):
        problems.append(f"c_analytic_boundary {c_ref!r} vs reference {boundary_rate()!r}")
    if not _close(c_fit, c_ref, C_FIT_RTOL):
        problems.append(f"c_fit {c_fit!r} not within {C_FIT_RTOL} of {c_ref!r}")
    return problems


def _check_half_fit(text: str) -> list[str]:
    # half traversal does not decay: a fit may be refused, but one that is
    # reported must not claim a decay constant
    sections = parse_report(text)
    status = _field(sections, "decay_fit", "status")
    if status.startswith("failed"):
        return [f"fit status {status}"]
    if status == "ok":
        c_fit = float(_field(sections, "decay_fit", "c_fit"))
        if not abs(c_fit) < 1e-3:
            return [f"c_fit {c_fit!r} claims decay at half traversal"]
    return []


def _check_passed(section: str):
    def check(text: str) -> list[str]:
        value = _field(parse_report(text), section, "passed")
        return [] if value == "true" else [f"[{section}] passed = {value}"]
    return check


def _check_ldp_csv(text: str, expected: int) -> tuple[int, list[str]]:
    rows = parse_csv(text)
    bad = [row for row in rows if not (row["status"] == "ok" or row["status"].startswith("dropped"))]
    missing = max(0, expected - len(rows))
    messages = [f"ldp.csv: m = {row['m']} N = {row['N']} status {row['status']}" for row in bad]
    if missing:
        messages.append(f"ldp.csv: {missing} rows missing")
    return len(bad) + missing, messages


def _check_dense_report(text: str) -> list[str]:
    sections = parse_report(text)
    problems = []
    disc = float(_field(sections, "oracle", "dense_max_discrepancy"))
    if not disc <= DENSE_ORACLE_TOL:
        problems.append(f"dense_max_discrepancy {disc!r} above {DENSE_ORACLE_TOL}")
    passed = _field(sections, "properties", "passed")
    if passed != "true":
        problems.append(f"[properties] passed = {passed}")
    return problems


def _checks(workload: Workload) -> dict:
    """Artifact name -> check returning (failed ops, messages) for its text."""
    Ns = workload.sweep

    def rows(reference, label):
        return lambda text: _check_sweep_csv(text, Ns, reference, label)

    def verdict(check, label):
        def run(text):
            problems = [f"{label}: {p}" for p in check(text)]
            return int(bool(problems)), problems
        return run

    if workload.name in ("sweep_full", "sweep_large"):
        return {"sweep.csv": rows(_full_row, "sweep.csv"),
                "sweep_fit.txt": verdict(_check_full_fit, "sweep_fit.txt")}
    if workload.name == "sweep_half":
        return {"sweep.csv": rows(_half_row, "sweep.csv"),
                "sweep_fit.txt": verdict(_check_half_fit, "sweep_fit.txt")}
    if workload.name == "perturb_ldp":
        expected_ldp = len(Ns) * len(workload.ldp_grid)
        return {"perturb_base.csv": rows(_full_row, "perturb_base.csv"),
                "perturb_perturbed.csv": rows(None, "perturb_perturbed.csv"),
                "stability.txt": verdict(_check_passed("stability"), "stability.txt"),
                "ldp.csv": lambda text: _check_ldp_csv(text, expected_ldp),
                "ldp_conditions.txt": verdict(_check_passed("ldp_conditions"),
                                              "ldp_conditions.txt")}
    if workload.name == "dense_oracle":
        return {"report.txt": verdict(_check_dense_report, "report.txt")}
    raise KeyError(workload.name)


def check_artifacts(workload: Workload, out_dir: Path,
                    exit_codes: dict[str, int]) -> tuple[int, list[str]]:
    """Failed operations of one iteration's artifacts, with messages."""
    failed, messages = 0, []
    checks = _checks(workload)
    for name, (command, ops) in workload.artifact_ops().items():
        code = exit_codes.get(command, 0)
        path = out_dir / name
        if code != 0:
            failed += ops
            messages.append(f"{command} exited with code {code}")
            continue
        try:
            n, msgs = checks[name](path.read_text(encoding="utf-8"))
        except (OSError, ArtifactError, KeyError, ValueError) as exc:
            n, msgs = ops, [f"{name}: unreadable ({type(exc).__name__}: {exc})"]
        failed += min(n, ops)
        messages += msgs
    return failed, messages
