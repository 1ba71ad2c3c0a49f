"""Experiment orchestration: build models from configs and produce artifacts.

Each CLI command is one function here, ``run``, ``sweep``, ``ldp``,
``perturb`` and ``verify_suite``, called as ``(cfg, base_dir, oracle)``; it
computes and renders its own files and returns ``(artifacts, exit code)``
with ``artifacts`` mapping file names to their text.

Every entry point is deterministic for a fixed config: the only random draws,
the verify suite's instances, come from the config seed, sweep rows keep the
increasing order the config requires, and artifacts contain no timestamps or
machine state beyond library versions.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from . import __version__ as _package_version
from . import coarse_ldp, coleman_hepp, core, instances, verify
from .config import ExperimentConfig, fmt_float
from .errors import AmbiguousPointerError, CapacityError, ConfigError, SimulationError, StructuralError
from .logspace import bernoulli_relative_entropy, lc_values
from .report import (LDP_COLUMNS, SWEEP_COLUMNS, f_tensor_items, parse_f_tensor_text,
                     property_items, render_csv, render_report)


def load_matrix_text(path: Path) -> np.ndarray:
    """Whitespace-separated complex matrix, one row per line, '#' comments."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read matrix file {path}: {exc}"]) from exc
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([complex(tok) for tok in line.split()])
        except ValueError as exc:
            raise ConfigError([f"matrix file {path}: {exc}"]) from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ConfigError([f"matrix file {path}: empty or ragged rows"])
    return np.array(rows, dtype=complex)


def chain_spec_from_config(cfg: ExperimentConfig, N: int | None = None,
                           overrides=None) -> coleman_hepp.ChainSpec:
    """The config's chain, at ``N`` sites if given; ``ChainSpec`` supplies what the config omits."""
    params = cfg.params
    if N is not None:
        params["N"] = N
    return coleman_hepp.ChainSpec(**params, site_overrides=overrides)


def _command_spec(cfg: ExperimentConfig, overrides=None) -> coleman_hepp.ChainSpec:
    """The command's chain spec, built at the least size holding every override site."""
    return chain_spec_from_config(cfg, N=1 + max(overrides or {}, default=0), overrides=overrides)


def perturbation_states(cfg: ExperimentConfig) -> dict[int, np.ndarray]:
    """Translate named site edits into explicit single-site states."""
    if cfg.perturbation is None:
        return {}
    m0 = float(cfg.params["m0"])
    table = {
        "flip": coleman_hepp.polarized_site(-m0),
        "depolarize": np.eye(2, dtype=complex) / 2.0,
        "up": np.diag([1.0, 0.0]).astype(complex),
        "down": np.diag([0.0, 1.0]).astype(complex),
    }
    return {site: table[edit] for site, edit in cfg.perturbation}


def _build_generic_dense(cfg: ExperimentConfig, base_dir: Path):
    """Microsystem and apparatus of a ``generic_dense`` config; its defects make one config error."""
    params = cfg.params
    problems = []
    matrices = []
    for name in (str(params["k_file"]), *params["v_files"], str(params["omega_file"])):
        try:
            matrices.append(load_matrix_text(base_dir / name))
        except ConfigError as exc:
            problems += exc.errors
            matrices.append(None)
    groups = [grp.split() for grp in str(params["cells"]).split("|")]
    try:
        groups = [[int(tok) for tok in grp] for grp in groups]
    except ValueError as exc:
        problems.append(f"generic_dense: cells must be groups of basis indices such as "
                        f"'0 1 | 2 3': {exc}")
    else:
        if matrices[0] is not None:  # the cells resolve K's space
            try:
                cell_of = core.PhaseCellPartition.from_groups(groups, matrices[0].shape[0]).cell_of
            except StructuralError as exc:
                problems.append(f"generic_dense: {exc}")
    labels = tuple(tok.strip() for tok in str(params["labels"]).split(",")) if "labels" in params else None
    energies = tuple(params["energies"])
    n = len(energies)
    n_v = len(params["v_files"])
    if n_v != n or len(groups) != n or len(cfg.amplitudes) != n:
        problems.append(
            "generic_dense: energies, v_files, cells groups and amplitudes must "
            f"agree in length (got {n}, {n_v}, {len(groups)}, {len(cfg.amplitudes)})")
    if labels is not None and len(labels) != n:
        problems.append(f"generic_dense: labels and energies must agree in length (got {len(labels)}, {n})")
    if labels is not None and len(set(labels)) != len(labels):
        problems.append(f"generic_dense: labels must be distinct (got {', '.join(labels)})")
    if problems:
        raise ConfigError(problems)
    K, *Vs, Omega = matrices
    micro = core.MicroSystem(energies=energies,
                             labels=labels or tuple(f"u{r}" for r in range(n)))
    cells = core.PhaseCellPartition(cell_of, n, labels=labels)
    apparatus = core.Apparatus(K=K, V=tuple(Vs), Omega=Omega, cells=cells)
    return micro, apparatus


#: composite dimension cap for the in-process full-tensor-product cross-check
COMPOSITE_ORACLE_CAP = 512


def composite_cross_check(micro, apparatus, t, tensor, c, observable=None) -> float:
    """Cross-check tensor-derived functionals against the full composite.

    Builds the composite Hamiltonian once, evolves the initial product state
    on the full space (a code path independent of the per-sector evolution),
    and compares the macrostate weights and, when an observable is supplied,
    the joint expectations cell by cell.  Returns the largest discrepancy.
    """
    n, dK = micro.n, apparatus.dim_K
    if n * dK > COMPOSITE_ORACLE_CAP:
        raise CapacityError(
            f"composite oracle capped at dimension {COMPOSITE_ORACLE_CAP} "
            f"(requested {n * dK})")
    Hc = np.zeros((n * dK, n * dK), dtype=complex)
    for r, Kr in enumerate(core.sector_hamiltonians(micro, apparatus)):
        Hc[r * dK:(r + 1) * dK, r * dK:(r + 1) * dK] = core._as_matrix(Kr)
    evals, vecs = np.linalg.eigh(Hc)
    Uc = (vecs * np.exp(1j * evals * t)) @ vecs.conj().T
    Phi0 = np.kron(np.outer(c, c.conj()), core._as_matrix(apparatus.Omega))
    Phi_t = Uc.conj().T @ Phi0 @ Uc
    eye_n = np.eye(n)
    worst = 0.0
    weights = core.pointer_weights(tensor, c)
    pair = core.sector_pair_expectations(tensor, c, observable) if observable else None
    for alpha in range(n):
        P = apparatus.cells.as_matrix(alpha)
        ref_w = np.trace(Phi_t @ np.kron(eye_n, P))
        worst = max(worst, abs(weights[alpha] - ref_w.real))
        if observable is not None:
            ref_g = np.trace(Phi_t @ np.kron(observable.matrix, P))
            worst = max(worst, abs(pair[alpha] - ref_g))
    return float(worst)


def dense_chain_tensor(spec: coleman_hepp.ChainSpec, fraction: float = 1.0) -> core.FTensor:
    """The chain tensor through the dense backend: the oracle for small N.

    ``fraction`` is the traversal fraction of ``coleman_hepp.factorized_f_tensor``.
    """
    micro, apparatus = coleman_hepp.build_dense(spec, coleman_hepp.passed_sites(spec.N, fraction))
    return core.f_tensor(core.evolve_sectors(micro, apparatus, spec.t), apparatus.cells)


def _dense_chain_discrepancy(spec: coleman_hepp.ChainSpec, values, fraction: float = 1.0) -> float:
    return float(np.abs(dense_chain_tensor(spec, fraction).values - values).max())


def _dense_sizes(Ns) -> list[int]:
    """The chain sizes the dense oracle can check; a capacity error if none."""
    fits = [N for N in Ns if N <= coleman_hepp.DENSE_SITE_CAP]
    if not fits:
        raise CapacityError(
            f"oracle cross-check needs the dense backend, capped at "
            f"{coleman_hepp.DENSE_SITE_CAP} sites (got N = {', '.join(str(N) for N in Ns)})")
    return fits


def analytic_boundary_rate(cfg: ExperimentConfig) -> float | None:
    """Relative-entropy decay rate at the cell boundary for the chain model."""
    if cfg.model != "coleman_hepp":
        return None
    p = (1.0 + float(cfg.params["m0"])) / 2.0
    if p >= 1.0:
        return None
    return bernoulli_relative_entropy(0.5, p)


def _flag(value: bool) -> str:
    return "true" if value else "false"


@functools.cache
def _scipy_version() -> str:
    """The installed scipy's version, read once per process from the header block of
    its metadata (the text before the first blank line), so neither scipy is imported
    nor its long description parsed; ``importlib.metadata.version`` if the block has none."""
    # the reader is loaded here because only ``run`` records versions
    from importlib.metadata import distribution, version
    header = (distribution("scipy").read_text("METADATA") or "").split("\n\n", 1)[0]
    for line in header.splitlines():
        key, _, value = line.partition(":")
        if key == "Version":
            return value.strip()
    return version("scipy")


def run(cfg: ExperimentConfig, base_dir: Path | None = None,
        oracle: bool = False) -> tuple[dict[str, str], int]:
    """``report.txt`` of one experiment: tensor, weights, verdicts, properties."""
    base_dir = Path(base_dir) if base_dir is not None else Path(".")
    c = np.array(cfg.amplitudes, dtype=complex)
    A = (core.ObservableS(matrix=load_matrix_text(base_dir / cfg.observable_file))
         if cfg.observable_file is not None else None)
    oracle_disc, log_trace = None, None
    if cfg.model == "coleman_hepp":
        spec = chain_spec_from_config(cfg)
        lm, ph, log_traces, failed = coleman_hepp.traversal_family(spec, cfg.measurement_time, [spec.N])
        if failed:
            raise failed[0]
        tensor = core.FTensor(values=lc_values(lm[0], ph[0]), t=spec.t, log_magnitude=lm[0])
        log_trace = log_traces[0]
        cell_labels = coleman_hepp.CELL_LABELS
        backend = "factorized"
        if oracle:
            _dense_sizes([spec.N])
            oracle_disc = _dense_chain_discrepancy(spec, tensor.values, cfg.measurement_time)
            backend = "factorized+dense-oracle"
    else:
        micro, apparatus = _build_generic_dense(cfg, base_dir)
        t = float(cfg.params.get("t", 1.0))
        states = core.evolve_sectors(micro, apparatus, t)
        tensor = core.f_tensor(states, apparatus.cells)
        cell_labels = apparatus.cells.labels
        backend = "dense"
        if oracle:
            oracle_disc = composite_cross_check(micro, apparatus, t, tensor, c, A)
            backend = "dense+composite-oracle"

    weights = core.pointer_weights(tensor, c)
    properties = core.check_f_properties(tensor)
    pointer_items = _pointer_items(cfg, tensor, c, log_trace)
    sections = [
        ("provenance", [
            ("config_sha256", cfg.sha256()),
            ("backend", backend),
            ("package_version", _package_version),
            ("numpy_version", np.__version__),
            ("scipy_version", _scipy_version()),
        ]),
        ("f_tensor", f_tensor_items(tensor)),
        ("weights", [(f"w[{label}]", fmt_float(float(w)))
                     for label, w in zip(cell_labels, weights)]),
    ]
    if A is not None:
        items = [("E", fmt_float(core.expectation_s(tensor, c, A)))]
        for alpha, label in enumerate(cell_labels):
            items.append((f"E_given[{label}]",
                          fmt_float(core.conditional_expectation(tensor, c, A, alpha))
                          if weights[alpha] > core.WEIGHT_FLOOR
                          else "undefined (null macrostate)"))
        sections.append(("expectation", items))
    sections.append(("pointer", pointer_items))
    sections.append(("properties", property_items(properties)))
    if oracle_disc is not None:
        sections.append(("oracle", [("dense_max_discrepancy", fmt_float(oracle_disc))]))
    return {"report.txt": render_report(sections)}, 0


def _pointer_items(cfg: ExperimentConfig, tensor, c, log_trace) -> list[tuple[str, str]]:
    """The pointer map with the exact and, for the chain, the weakened verdict; both
    read one evaluation of the reconstruction residuals at the amplitudes ``c``, on
    the chain's own trace products ``log_trace`` (``None``: from the tensor)."""
    try:
        pointer = verify.find_pointer_map(tensor)
    except AmbiguousPointerError as exc:
        return [("error", str(exc))]
    items = [("phi", ", ".join(str(r) for r in pointer.phi)),
             ("confidence", ", ".join(fmt_float(v) for v in pointer.confidence))]
    if pointer.uninformative:
        items.append(("uninformative_microstates",
                      ", ".join(str(r) for r in pointer.uninformative)))
    log_expect, log_cond = verify.reconstruction_residuals(tensor, pointer, c, log_trace)
    exact = verify.check_exact_condition(tensor, pointer)
    items += [
        ("exact_satisfied", _flag(exact.satisfied)),
        ("exact_residual", fmt_float(exact.residual)),
        ("ideal_form_residual", fmt_float(exact.ideal_residual)),
        ("reconstruction_residual_expectation", fmt_float(math.exp(log_expect))),
        ("reconstruction_residual_conditional", fmt_float(math.exp(log_cond))),
        ("log_reconstruction_residual_expectation", fmt_float(log_expect)),
        ("log_reconstruction_residual_conditional", fmt_float(log_cond)),
    ]
    c_ref = analytic_boundary_rate(cfg)
    if c_ref is not None:
        weakened = verify.check_weakened_condition(
            tensor, pointer, N=int(cfg.params["N"]), c=c_ref, log_residuals=(log_expect, log_cond))
        items += [
            ("weakened_c_reference", fmt_float(c_ref)),
            ("weakened_satisfied", _flag(weakened.satisfied)),
            ("pointer_errors", ", ".join(fmt_float(e) for e in weakened.errors)),
            ("log_pointer_errors", ", ".join(fmt_float(e) for e in weakened.log_errors)),
            ("correction_constant", fmt_float(weakened.correction_constant)),
            ("log_correction_constant", fmt_float(weakened.log_correction_constant)),
        ]
    return items


def _sweep(cfg: ExperimentConfig, overrides=None, oracle: bool = False):
    """Evaluate the sweep list, every size in one stack; returns (``sweep.csv``, the
    ``(N, max log error)`` of each size judged, fit or None, fit status, oracle (worst
    discrepancy, points checked) or None).  The rows keep the order of the list,
    which the config requires to be increasing."""
    if cfg.sweep is None:
        raise ConfigError(["sweep requested but the config has no [sweep] section"])
    spec = _command_spec(cfg, overrides)
    log_magnitude, phase, _, failed = coleman_hepp.traversal_family(spec, cfg.measurement_time, cfg.sweep)
    values = lc_values(log_magnitude, phase)
    eps, log_eps, weights, offdiag_max, unjudged = verify.judge_stack(values, log_magnitude, cfg.amplitudes)
    failed = {**unjudged, **failed}
    columns = np.stack([eps.max(axis=1), log_eps.max(axis=1), weights[:, coleman_hepp.CELL_PLUS],
                        weights[:, coleman_hepp.CELL_MINUS], offdiag_max], axis=1)
    columns[list(failed)] = np.nan
    judged = [i for i in range(len(cfg.sweep)) if i not in failed]
    points = [(cfg.sweep[i], float(columns[i, 1])) for i in judged]
    # a row reads underflow where its errors are carried in log space only
    csv = render_csv(SWEEP_COLUMNS, [
        (str(N), *map(fmt_float, row), f"failed: {failed[i]}" if i in failed
         else "underflow" if row[0] == 0.0 and row[1] > -np.inf else "ok")
        for i, (N, row) in enumerate(zip(cfg.sweep, columns.tolist()))])
    fit, fit_status = None, "ok"
    try:
        fit = verify.fit_decay_rate(points)
    except SimulationError as exc:
        fit_status = f"refused: {exc}"
    oracle_info = None
    if oracle:
        fits = _dense_sizes([N for N, _ in points])
        worst = max(_dense_chain_discrepancy(spec.at_size(cfg.sweep[i]), values[i], cfg.measurement_time)
                    for i in judged if cfg.sweep[i] in fits)
        oracle_info = (worst, len(fits))
    return csv, points, fit, fit_status, oracle_info


def _oracle_items(oracle_info) -> list[tuple[str, str]]:
    """Report lines for a sweep oracle result ``(worst, points_checked)``."""
    if oracle_info is None:
        return []
    worst, checked = oracle_info
    return [("oracle_max_discrepancy", fmt_float(worst)),
            ("oracle_points_checked", str(checked))]


def sweep(cfg: ExperimentConfig, base_dir: Path | None = None,
          oracle: bool = False) -> tuple[dict[str, str], int]:
    """``sweep.csv`` and the decay fit ``sweep_fit.txt``."""
    csv, _, fit, fit_status, oracle_info = _sweep(cfg, oracle=oracle)
    items = [("status", fit_status)]
    if fit is not None:
        items += [
            ("points_used", str(len(fit.used))),
            ("excluded_N", ", ".join(str(n) for n in fit.excluded) or "none"),
            ("slope", fmt_float(fit.slope)),
            ("intercept", fmt_float(fit.intercept)),
            ("c_fit", fmt_float(fit.c)),
            ("r_squared", fmt_float(fit.r_squared)),
            ("is_exponential", _flag(fit.is_exponential())),
        ]
        c_ref = analytic_boundary_rate(cfg)
        if c_ref is not None:
            items.append(("c_analytic_boundary", fmt_float(c_ref)))
    items += _oracle_items(oracle_info)
    return {"sweep.csv": csv,
            "sweep_fit.txt": render_report([("decay_fit", items)])}, 0


def ldp(cfg: ExperimentConfig, base_dir: Path | None = None,
        oracle: bool = False) -> tuple[dict[str, str], int]:
    """``ldp.csv``, the rate-function series of the spin-up sector, and
    ``ldp_conditions.txt``, the structural conditions on both sectors."""
    if cfg.ldp_grid is None:
        raise ConfigError(["ldp requested but the config has no [ldp] section"])
    if cfg.sweep is None:
        raise ConfigError(["ldp estimation needs a [sweep] section for the chain sizes"])
    if cfg.measurement_time != 1.0:
        raise ConfigError([
            "ldp requires measurement_time = 1: the rate-function conditions are stated "
            f"for the completed traversal (got {cfg.measurement_time!r})"])
    grid = list(cfg.ldp_grid)
    Ns = list(cfg.sweep)
    base = _command_spec(cfg)

    oracle_section = None
    if oracle:
        N0 = max(_dense_sizes(Ns))
        sized = base.at_size(N0)
        dense, cell_lm = dense_chain_tensor(sized), coleman_hepp.factorized_f_tensor(sized).log_magnitude
        worst = 0.0
        for r in range(2):
            worst = max(worst, float(np.abs(dense.values[r, r].real - np.exp(cell_lm[r, r])).max()))
        oracle_section = ("oracle", [("identification_max_discrepancy", fmt_float(worst)),
                                     ("dense_chain_size", str(N0))])

    overrides = perturbation_states(cfg)
    specs = [base, _command_spec(cfg, overrides)] if overrides else [base]
    for spec in specs:
        for N in Ns:
            spec.at_size(N)  # a size fails as the chain of that size would
    # per spec and evolved diagonal sector: its factors a and b, and its site up-probabilities
    sectors = [sector for spec in specs for sector in coleman_hepp.diagonal_sectors(spec, max(Ns))]
    estimates = [coarse_ldp.estimate_rate(a, b, grid, Ns) for a, b, _ in sectors]
    estimates, perturbed = estimates[:2], estimates[2:] or None
    up = estimates[0]
    rows = []
    for i, N in enumerate(up.N_values):
        for k, m in enumerate(up.grid):
            ana = float(up.analytic[k])
            if up.dropped[i, k]:
                rows.append((fmt_float(m), str(N), "nan", fmt_float(ana), "nan",
                             "dropped: zero window probability"))
            else:
                emp = float(up.samples[i, k])
                rows.append((fmt_float(m), str(N), fmt_float(emp), fmt_float(ana),
                             fmt_float(emp - ana), "ok"))

    tensor = coleman_hepp.factorized_f_tensor(base.at_size(min(Ns)))
    pointer = verify.find_pointer_map(tensor)
    bounds = None
    if overrides:  # condition (d), judged per sector at the least size
        N0 = min(Ns)
        bounds = [coarse_ldp.perturbation_residual_bound(N0, base_up, pert_up) / N0
                  for (*_, base_up), (*_, pert_up) in zip(sectors, sectors[2:])]
    report = coarse_ldp.check_ldp_conditions(estimates, pointer.phi, perturbed=perturbed, stability_bound=bounds)
    items = [
        ("maximizers", ", ".join(fmt_float(m) for m in report.maximizers)),
        ("unique_max", _flag(report.unique_max)),
        ("interior", _flag(report.interior)),
        ("distinct_cells", _flag(report.distinct_cells)),
        ("gap", fmt_float(report.gap)),
        ("gap_positive", _flag(report.gap_positive)),
    ]
    if report.stability_residual is not None:
        items += [
            ("stability_residual", fmt_float(report.stability_residual)),
            ("stability_bound", fmt_float(report.stability_bound)),
            ("stability_ok", _flag(report.stability_ok)),
        ]
    items.append(("passed", _flag(report.passed)))
    sections = [("ldp_conditions", items)]
    if oracle_section is not None:
        sections.append(oracle_section)
    return {"ldp.csv": render_csv(LDP_COLUMNS, rows),
            "ldp_conditions.txt": render_report(sections)}, 0


def perturb(cfg: ExperimentConfig, base_dir: Path | None = None,
            oracle: bool = False) -> tuple[dict[str, str], int]:
    """Stability run: ``perturb_base.csv``, ``perturb_perturbed.csv`` and the
    band comparison ``stability.txt``.

    With ``oracle``, both sweeps are cross-checked against the dense backend
    and ``stability.txt`` reports the worst discrepancy and the points checked
    over both.
    """
    if cfg.sweep is None:
        raise ConfigError(["perturb requires a [sweep] section"])
    if not cfg.perturbation:
        raise ConfigError(["perturb requires a [perturbation] section"])
    overrides = perturbation_states(cfg)
    base_csv, _, base_fit, base_status, base_oracle = _sweep(cfg, oracle=oracle)
    pert_csv, pert_points, pert_fit, pert_status, pert_oracle = _sweep(
        cfg, overrides=overrides, oracle=oracle)
    items = [("base_status", base_status), ("perturbed_status", pert_status)]
    if base_fit is not None and pert_fit is not None:
        result = verify.stability_verdict(base_fit, pert_fit, pert_points)
        items += [
            ("c_base", fmt_float(base_fit.c)),
            ("c_perturbed", fmt_float(pert_fit.c)),
            ("relative_change", fmt_float(result.relative_change)),
            ("tolerance_band", fmt_float(verify.STABILITY_BAND)),
            ("within_band", _flag(result.within_band)),
            ("exponential_bound_satisfied", _flag(result.bound_satisfied)),
            ("passed", _flag(result.passed)),
        ]
    sites = ", ".join(f"site_{site}={edit}" for site, edit in cfg.perturbation)
    items.append(("perturbation", sites))
    if oracle:
        items += _oracle_items((max(base_oracle[0], pert_oracle[0]),
                                base_oracle[1] + pert_oracle[1]))
    return {"perturb_base.csv": base_csv,
            "perturb_perturbed.csv": pert_csv,
            "stability.txt": render_report([("stability", items)])}, 0


def verify_suite(cfg: ExperimentConfig, base_dir: Path | None = None,
                 oracle: bool = False) -> tuple[dict[str, str], int]:
    """``verify.txt`` of the seeded random-instance property suite; exit code 4
    on any failure.  The chain backends are always cross-checked, so
    ``oracle`` adds nothing."""
    base_dir = Path(base_dir) if base_dir is not None else Path(".")
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    weight_worst = 0.0
    failures: list[str] = []
    count = cfg.verify_instances
    for i in range(count):
        micro, apparatus, t = instances.random_dense_instance(rng, rotated_cells=bool(i % 2))
        states = core.evolve_sectors(micro, apparatus, t)
        tensor = core.f_tensor(states, apparatus.cells)
        rep = core.check_f_properties(tensor)
        worst = max(worst, rep.worst)
        if not rep.passed:
            failures.append(f"instance {i}: property violation {rep.worst:.3e}")
        w = core.pointer_weights(tensor, instances.random_amplitudes(rng, micro.n))
        weight_worst = max(weight_worst, abs(float(w.sum()) - 1.0))

    backend_disc = 0.0
    for N in (3, 5, 6):
        spec = coleman_hepp.ChainSpec(N=N, m0=float(rng.uniform(0.2, 1.0)),
                                      theta=float(rng.uniform(0.3, 5.9)),
                                      energies=(float(rng.normal()), float(rng.normal())))
        fact = coleman_hepp.factorized_f_tensor(spec)
        backend_disc = max(backend_disc, _dense_chain_discrepancy(spec, fact.values))
    if backend_disc > 1e-9:
        failures.append(f"backend discrepancy {backend_disc:.3e} above 1e-9")

    file_items: list[tuple[str, str]] = []
    if cfg.verify_f_file is not None:
        try:
            text = (base_dir / cfg.verify_f_file).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError([f"cannot read tensor file {cfg.verify_f_file}: {exc}"]) from exc
        try:
            tensor = parse_f_tensor_text(text)
        except StructuralError as exc:
            raise ConfigError([f"tensor file {cfg.verify_f_file}: {exc}"]) from exc
        rep = core.check_f_properties(tensor)
        file_items = property_items(rep)
        if not rep.passed:
            failures.append(f"tensor file {cfg.verify_f_file}: property violation {rep.worst:.3e}")

    passed = not failures
    items = [
        ("instances", str(count)),
        ("worst_property_violation", fmt_float(worst)),
        ("worst_weight_sum_error", fmt_float(weight_worst)),
        ("backend_max_discrepancy", fmt_float(backend_disc)),
    ]
    for j, msg in enumerate(failures):
        items.append((f"failure_{j}", msg))
    items.append(("passed", _flag(passed)))
    sections = [("verify", items)]
    if file_items:
        sections.append(("tensor_file_properties", file_items))
    return {"verify.txt": render_report(sections)}, 0 if passed else 4
