"""Rendering and re-parsing of run artifacts: structured reports and CSV.

Reports are UTF-8 text with a versioned header line followed by key = value
sections (the same line grammar the config parser uses, so every artifact is
machine-recoverable).  All floats carry 17 significant digits and round-trip
exactly; CSV series use fixed headers with a trailing status column so that
an underflowed value is never printed as a bare zero.
"""

from __future__ import annotations

import numpy as np

from .config import fmt_complex, fmt_float, tokenize_kv
from .core import PROPERTY_TOL, FPropertyReport, FTensor
from .errors import StructuralError

REPORT_HEADER = "pointer-cell-sim report v3"
SWEEP_COLUMNS = ("N", "eps_max", "log_eps_max", "w_plus", "w_minus", "offdiag_max", "status")
LDP_COLUMNS = ("m", "N", "empirical_rate", "analytic_rate", "residual", "status")


def render_kv_section(name: str, items: list[tuple[str, str]]) -> list[str]:
    lines = [f"[{name}]"]
    lines += [f"{key} = {value}" for key, value in items]
    lines.append("")
    return lines


def f_tensor_items(f: FTensor) -> list[tuple[str, str]]:
    items = [("n", str(f.n)), ("t", fmt_float(f.t))]
    for r in range(f.n):
        for s in range(f.n):
            for a in range(f.n):
                items.append((f"F[{r},{s},{a}]", fmt_complex(complex(f.values[r, s, a]))))
    underflowed = list(zip(*np.nonzero(f.underflow)))
    if underflowed:
        items.append(("underflow_entries", " ".join(f"({r},{s},{a})" for r, s, a in underflowed)))
        items += [(f"log_mag[{r},{s},{a}]", fmt_float(float(f.log_magnitude[r, s, a])))
                  for r, s, a in underflowed]
    return items


def parse_f_tensor_text(text: str) -> FTensor:
    """Rebuild a tensor from its report section (used by verify --f_file)."""
    lines = text.splitlines()
    if lines and lines[0].strip() == REPORT_HEADER:
        text = "\n".join(lines[1:])
    sections, errors = tokenize_kv(text)
    if errors:
        raise StructuralError("malformed tensor dump: " + "; ".join(errors))
    body = sections.get("f_tensor")
    if body is None and len(sections) == 1:
        body = next(iter(sections.values()))
    if body is None:
        raise StructuralError("tensor dump must contain an [f_tensor] section")
    try:
        n = int(body["n"])
        t = float(body["t"])
    except (KeyError, ValueError) as exc:
        raise StructuralError(f"tensor dump missing n/t: {exc}") from exc
    if n < 1:
        raise StructuralError(f"tensor dump needs n >= 1, got {n}")
    # the entry count is settled before anything of size n**3 is built
    count = sum(key.startswith("F[") for key in body)
    if count != n ** 3:
        raise StructuralError(f"tensor dump with n = {n} needs {n ** 3} entries F[r,s,a], "
                              f"got {count}")
    entries = []
    for r in range(n):
        for s in range(n):
            for a in range(n):
                key = f"F[{r},{s},{a}]"
                if key not in body:
                    raise StructuralError(f"tensor dump missing entry {key}")
                try:
                    entries.append(complex(body[key].replace(" ", "")))
                except ValueError:
                    raise StructuralError(f"tensor dump entry {key} is not a complex number: "
                                          f"{body[key]!r}") from None
    return FTensor(values=np.array(entries, dtype=complex).reshape(n, n, n), t=t)


def property_items(report: FPropertyReport) -> list[tuple[str, str]]:
    items = [(name, fmt_float(value)) for name, value in report.as_dict().items()]
    items.append(("tolerance", fmt_float(PROPERTY_TOL)))
    items.append(("passed", "true" if report.passed else "false"))
    return items


def render_report(sections: list[tuple[str, list[tuple[str, str]]]]) -> str:
    lines = [REPORT_HEADER, ""]
    for name, items in sections:
        lines += render_kv_section(name, items)
    return "\n".join(lines).rstrip("\n") + "\n"


def render_csv(columns: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    out = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise StructuralError("CSV row width does not match the header")
        out.append(",".join(row))
    return "\n".join(out) + "\n"
