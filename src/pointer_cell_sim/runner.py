"""Experiment orchestration: build models from configs and produce artifacts.

Every entry point is deterministic for a fixed config: random draws come from
the config seed, sweep points are evaluated one after the other and assembled
in sorted order, and artifacts contain no timestamps or machine state beyond
library versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__ as _package_version
from . import coarse_ldp, coleman_hepp, core, verify
from .config import ExperimentConfig, fmt_float
from .errors import AmbiguousPointerError, CapacityError, ConfigError, SimulationError
from .logspace import bernoulli_relative_entropy
from .report import f_tensor_items, parse_f_tensor_text, property_items, render_report

CELL_MINUS, CELL_PLUS = 0, 1


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
    params = cfg.params
    return coleman_hepp.ChainSpec(
        N=int(N if N is not None else params["N"]),
        m0=float(params["m0"]),
        theta=float(params.get("theta", math.pi)),
        energies=tuple(params.get("energies", (0.0, 0.0))),
        t=float(params.get("t", 1.0)),
        site_overrides=overrides,
    )


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
    params = cfg.params
    problems = []
    try:
        K = load_matrix_text(base_dir / str(params["k_file"]))
    except ConfigError as exc:
        problems += exc.errors
        K = None
    Vs = []
    for vf in params["v_files"]:
        try:
            Vs.append(load_matrix_text(base_dir / vf))
        except ConfigError as exc:
            problems += exc.errors
    try:
        Omega = load_matrix_text(base_dir / str(params["omega_file"]))
    except ConfigError as exc:
        problems += exc.errors
        Omega = None
    if problems:
        raise ConfigError(problems)
    groups = [[int(tok) for tok in grp.split()] for grp in str(params["cells"]).split("|")]
    labels = None
    if "labels" in params:
        labels = tuple(tok.strip() for tok in str(params["labels"]).split(","))
    energies = tuple(params["energies"])
    n = len(energies)
    if len(Vs) != n or len(groups) != n or len(cfg.amplitudes) != n:
        raise ConfigError([
            "generic_dense: energies, v_files, cells groups and amplitudes must "
            f"agree in length (got {n}, {len(Vs)}, {len(groups)}, {len(cfg.amplitudes)})"])
    micro = core.MicroSystem(energies=energies,
                             labels=labels or tuple(f"u{r}" for r in range(n)))
    cells = core.PhaseCellPartition(
        cells=[frozenset(g) for g in groups], dim=K.shape[0],
        labels=labels or tuple(str(a) for a in range(n)))
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
    hams = core.sector_hamiltonians(micro, apparatus)
    Hc = np.zeros((n * dK, n * dK), dtype=complex)
    for r, Kr in enumerate(hams):
        proj = np.zeros((n, n))
        proj[r, r] = 1.0
        Hc += np.kron(proj, Kr)
    evals, vecs = np.linalg.eigh(Hc)
    Uc = (vecs * np.exp(1j * evals * t)) @ vecs.conj().T
    Phi0 = np.kron(np.outer(c, c.conj()), apparatus.Omega)
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


def dense_chain_tensor(spec: coleman_hepp.ChainSpec) -> core.FTensor:
    """The chain tensor through the dense backend: the oracle for small N."""
    micro, apparatus = coleman_hepp.build_dense(spec)
    return core.f_tensor(core.evolve_sectors(micro, apparatus, spec.t), apparatus.cells)


def _dense_chain_discrepancy(spec: coleman_hepp.ChainSpec, tensor) -> float:
    return float(np.abs(dense_chain_tensor(spec).values - tensor.values).max())


def _sector_family(cfg: ExperimentConfig, r: int, overrides=None):
    """Chain size -> product state of the evolved diagonal sector r."""
    def family(N: int) -> coarse_ldp.BernoulliProduct:
        spec = chain_spec_from_config(cfg, N=N, overrides=overrides)
        return coarse_ldp.BernoulliProduct(coleman_hepp.diagonal_sector_product(spec, r))
    return family


@dataclass
class RunResult:
    """Everything a single run produces, ready to render."""

    backend: str
    tensor: core.FTensor
    weights: np.ndarray
    cell_labels: tuple[str, ...]
    properties: core.FPropertyReport
    pointer: verify.PointerMap | None
    pointer_error: str | None
    exact: verify.ExactConditionResult | None
    weakened: verify.MeasurementVerdict | None
    c_reference: float | None
    expectation: float | None
    conditional: list[tuple[str, float | None]]
    oracle_discrepancy: float | None
    config_sha: str


def analytic_boundary_rate(cfg: ExperimentConfig) -> float | None:
    """Relative-entropy decay rate at the cell boundary for the chain model."""
    if cfg.model != "coleman_hepp":
        return None
    p = (1.0 + float(cfg.params["m0"])) / 2.0
    if p >= 1.0:
        return None
    return bernoulli_relative_entropy(0.5, p)


def run(cfg: ExperimentConfig, base_dir: Path | None = None, oracle: bool = False) -> RunResult:
    """Execute one experiment: tensor, weights, verdicts, property report."""
    base_dir = Path(base_dir) if base_dir is not None else Path(".")
    c = np.array(cfg.amplitudes, dtype=complex)
    oracle_disc = None
    if cfg.model == "coleman_hepp":
        spec = chain_spec_from_config(cfg)
        tensor = coleman_hepp.traversal_schedule(spec, cfg.measurement_time)
        cells_spec, _ = coleman_hepp.chain_cells(spec.N)
        cell_labels = cells_spec.labels
        backend = "factorized"
        if oracle:
            if cfg.measurement_time != 1.0:
                raise ConfigError(["oracle mode requires measurement_time = 1"])
            if spec.N > coleman_hepp.DENSE_SITE_CAP:
                raise CapacityError(
                    f"oracle cross-check needs the dense backend, capped at "
                    f"{coleman_hepp.DENSE_SITE_CAP} sites (got {spec.N})")
            oracle_disc = _dense_chain_discrepancy(spec, tensor)
            backend = "factorized+dense-oracle"
    else:
        micro, apparatus = _build_generic_dense(cfg, base_dir)
        t = float(cfg.params.get("t", 1.0))
        states = core.evolve_sectors(micro, apparatus, t)
        tensor = core.f_tensor(states, apparatus.cells)
        cell_labels = apparatus.cells.labels
        backend = "dense"
        if oracle:
            observable = None
            if cfg.observable_file is not None:
                observable = core.ObservableS(
                    matrix=load_matrix_text(base_dir / cfg.observable_file))
            oracle_disc = composite_cross_check(micro, apparatus, t, tensor, c, observable)
            backend = "dense+composite-oracle"

    weights = core.pointer_weights(tensor, c)
    properties = core.check_f_properties(tensor)

    pointer = None
    pointer_error = None
    exact = None
    weakened = None
    c_ref = analytic_boundary_rate(cfg)
    try:
        pointer = verify.find_pointer_map(tensor)
    except AmbiguousPointerError as exc:
        pointer_error = str(exc)
    if pointer is not None:
        exact = verify.check_exact_condition(tensor, pointer, seed=cfg.seed + 11)
        if c_ref is not None and cfg.model == "coleman_hepp":
            weakened = verify.check_weakened_condition(
                tensor, pointer, N=int(cfg.params["N"]), c=c_ref, seed=cfg.seed + 13)

    expectation = None
    conditional: list[tuple[str, float | None]] = []
    if cfg.observable_file is not None:
        A = core.ObservableS(matrix=load_matrix_text(base_dir / cfg.observable_file))
        expectation = core.expectation_s(tensor, c, A)
        for alpha, label in enumerate(cell_labels):
            if weights[alpha] > core.WEIGHT_FLOOR:
                conditional.append((label, core.conditional_expectation(tensor, c, A, alpha)))
            else:
                conditional.append((label, None))

    return RunResult(
        backend=backend,
        tensor=tensor,
        weights=weights,
        cell_labels=cell_labels,
        properties=properties,
        pointer=pointer,
        pointer_error=pointer_error,
        exact=exact,
        weakened=weakened,
        c_reference=c_ref,
        expectation=expectation,
        conditional=conditional,
        oracle_discrepancy=oracle_disc,
        config_sha=cfg.sha256(),
    )


def render_run_report(result: RunResult) -> str:
    sections = [("provenance", [
        ("config_sha256", result.config_sha),
        ("backend", result.backend),
        ("package_version", _package_version),
        ("numpy_version", np.__version__),
        ("scipy_version", scipy.__version__),
    ])]
    sections.append(("f_tensor", f_tensor_items(result.tensor)))
    sections.append(("weights", [
        (f"w[{label}]", fmt_float(float(w)))
        for label, w in zip(result.cell_labels, result.weights)
    ]))
    if result.expectation is not None:
        items = [("E", fmt_float(result.expectation))]
        for label, value in result.conditional:
            items.append((f"E_given[{label}]",
                          fmt_float(value) if value is not None else "undefined (null macrostate)"))
        sections.append(("expectation", items))
    pointer_items: list[tuple[str, str]] = []
    if result.pointer is not None:
        pointer_items.append(("phi", ", ".join(str(r) for r in result.pointer.phi)))
        pointer_items.append(("confidence", ", ".join(fmt_float(v) for v in result.pointer.confidence)))
        if result.pointer.uninformative:
            pointer_items.append(("uninformative_microstates",
                                  ", ".join(str(r) for r in result.pointer.uninformative)))
        if result.exact is not None:
            pointer_items += [
                ("exact_satisfied", "true" if result.exact.satisfied else "false"),
                ("exact_residual", fmt_float(result.exact.residual)),
                ("ideal_form_residual", fmt_float(result.exact.ideal_residual)),
                ("reconstruction_residual_expectation", fmt_float(result.exact.von_neumann_residuals[0])),
                ("reconstruction_residual_conditional", fmt_float(result.exact.von_neumann_residuals[1])),
            ]
        if result.weakened is not None:
            pointer_items += [
                ("weakened_c_reference", fmt_float(result.weakened.bound_constant)),
                ("weakened_satisfied", "true" if result.weakened.satisfied else "false"),
                ("pointer_errors", ", ".join(fmt_float(e) for e in result.weakened.errors)),
                ("correction_constant", fmt_float(result.weakened.correction_constant)),
            ]
    else:
        pointer_items.append(("error", result.pointer_error or "unavailable"))
    sections.append(("pointer", pointer_items))
    sections.append(("properties", property_items(result.properties)))
    if result.oracle_discrepancy is not None:
        sections.append(("oracle", [
            ("dense_max_discrepancy", fmt_float(result.oracle_discrepancy)),
        ]))
    return render_report(sections)


@dataclass
class SweepPoint:
    N: int
    tensor: core.FTensor | None
    pointer: verify.PointerMap | None
    eps_max: float
    log_eps_max: float
    w_plus: float
    w_minus: float
    offdiag_max: float
    status: str


def _sweep_point(cfg: ExperimentConfig, N: int, overrides=None) -> SweepPoint:
    try:
        spec = chain_spec_from_config(cfg, N=N, overrides=overrides)
        tensor = coleman_hepp.traversal_schedule(spec, cfg.measurement_time)
        pointer = verify.find_pointer_map(tensor)
        eps = verify.pointer_errors(tensor, pointer)
        log_eps = verify.log_pointer_errors(tensor, pointer)
        weights = core.pointer_weights(tensor, np.array(cfg.amplitudes))
        off = tensor.values.copy()
        for r in range(tensor.n):
            off[r, r, :] = 0.0
        offdiag_max = float(np.abs(off).max())
        eps_max = float(eps.max())
        log_eps_max = float(log_eps.max())
        status = "ok"
        if eps_max == 0.0 and log_eps_max > -np.inf:
            status = "underflow"  # carried in log space only
        return SweepPoint(N=N, tensor=tensor, pointer=pointer, eps_max=eps_max,
                          log_eps_max=log_eps_max, w_plus=float(weights[CELL_PLUS]),
                          w_minus=float(weights[CELL_MINUS]), offdiag_max=offdiag_max,
                          status=status)
    except SimulationError as exc:
        return SweepPoint(N=N, tensor=None, pointer=None, eps_max=math.nan,
                          log_eps_max=math.nan, w_plus=math.nan, w_minus=math.nan,
                          offdiag_max=math.nan, status=f"failed: {exc}")


def sweep(cfg: ExperimentConfig, overrides=None, oracle: bool = False):
    """Evaluate the sweep list; returns (points, fit or None, fit_status, oracle_info)."""
    if cfg.sweep is None:
        raise ConfigError(["sweep requested but the config has no [sweep] section"])
    points = [_sweep_point(cfg, N, overrides=overrides) for N in cfg.sweep]
    points.sort(key=lambda pt: pt.N)
    usable = [(pt.N, pt.tensor, pt.pointer) for pt in points if pt.tensor is not None]
    fit = None
    fit_status = "ok"
    try:
        fit = verify.fit_decay_rate(usable)
    except SimulationError as exc:
        fit_status = f"refused: {exc}"
    oracle_info = None
    if oracle:
        if cfg.measurement_time != 1.0:
            raise ConfigError(["oracle mode requires measurement_time = 1"])
        checkable = [pt for pt in points
                     if pt.tensor is not None and pt.N <= coleman_hepp.DENSE_SITE_CAP]
        if not checkable:
            raise CapacityError(
                "no sweep point fits the dense backend "
                f"(cap {coleman_hepp.DENSE_SITE_CAP} sites); oracle cross-check impossible")
        worst = max(_dense_chain_discrepancy(
            chain_spec_from_config(cfg, N=pt.N, overrides=overrides), pt.tensor)
            for pt in checkable)
        oracle_info = (worst, len(checkable))
    return points, fit, fit_status, oracle_info


def sweep_rows(points) -> list[tuple[str, ...]]:
    rows = []
    for pt in points:
        rows.append((str(pt.N), fmt_float(pt.eps_max), fmt_float(pt.log_eps_max),
                     fmt_float(pt.w_plus), fmt_float(pt.w_minus),
                     fmt_float(pt.offdiag_max), pt.status))
    return rows


def render_fit_summary(cfg: ExperimentConfig, fit, fit_status: str,
                       extra: list[tuple[str, str]] | None = None) -> str:
    items = [("status", fit_status)]
    if fit is not None:
        items += [
            ("points_used", str(len(fit.sweep))),
            ("excluded_N", ", ".join(str(n) for n in fit.excluded) or "none"),
            ("slope", fmt_float(fit.slope)),
            ("intercept", fmt_float(fit.intercept)),
            ("c_fit", fmt_float(fit.c)),
            ("r_squared", fmt_float(fit.r_squared)),
            ("is_exponential", "true" if fit.is_exponential() else "false"),
        ]
        c_ref = analytic_boundary_rate(cfg)
        if c_ref is not None:
            items.append(("c_analytic_boundary", fmt_float(c_ref)))
    if extra:
        items += extra
    return render_report([("decay_fit", items)])


def oracle_items(oracle_info) -> list[tuple[str, str]]:
    """Report lines for a sweep oracle result ``(worst, points_checked)``."""
    if oracle_info is None:
        return []
    worst, checked = oracle_info
    return [("oracle_max_discrepancy", fmt_float(worst)),
            ("oracle_points_checked", str(checked))]


def ldp_rows(cfg: ExperimentConfig, oracle: bool = False):
    """Rate-function series for the spin-up sector family, plus estimates."""
    if cfg.ldp_grid is None:
        raise ConfigError(["ldp requested but the config has no [ldp] section"])
    if cfg.sweep is None:
        raise ConfigError(["ldp estimation needs a [sweep] section for the chain sizes"])
    grid = list(cfg.ldp_grid)
    Ns = list(cfg.sweep)

    oracle_info = None
    if oracle:
        checkable = [N for N in Ns if N <= coleman_hepp.DENSE_SITE_CAP]
        if not checkable:
            raise CapacityError(
                "no chain size fits the dense backend "
                f"(cap {coleman_hepp.DENSE_SITE_CAP} sites); oracle cross-check impossible")
        N0 = max(checkable)
        dense = dense_chain_tensor(chain_spec_from_config(cfg, N=N0))
        cells_spec, _ = coleman_hepp.chain_cells(N0)
        worst = 0.0
        for r in range(2):
            probs = coarse_ldp.cell_probability(_sector_family(cfg, r)(N0), cells_spec)
            worst = max(worst, float(np.abs(dense.values[r, r].real - probs).max()))
        oracle_info = (worst, N0)

    estimates = [coarse_ldp.estimate_rate(_sector_family(cfg, r), grid, Ns) for r in range(2)]
    up = estimates[0]
    rows = []
    for i, N in enumerate(up.N_values):
        for k, m in enumerate(up.grid):
            if up.dropped[i, k]:
                rows.append((fmt_float(m), str(N), "nan",
                             fmt_float(float(up.analytic[k])) if up.analytic is not None else "nan",
                             "nan", "dropped: zero window probability"))
            else:
                emp = float(up.samples[i, k])
                ana = float(up.analytic[k]) if up.analytic is not None else math.nan
                rows.append((fmt_float(m), str(N), fmt_float(emp), fmt_float(ana),
                             fmt_float(emp - ana), "ok"))
    return rows, estimates, oracle_info


def ldp_conditions_text(cfg: ExperimentConfig, estimates) -> str:
    spec = chain_spec_from_config(cfg, N=max(cfg.sweep))
    cells, _ = coleman_hepp.chain_cells(spec.N)
    tensor = coleman_hepp.factorized_f_tensor(chain_spec_from_config(cfg, N=min(cfg.sweep)))
    pointer = verify.find_pointer_map(tensor)
    perturbed = None
    bound = None
    if cfg.perturbation:
        overrides = perturbation_states(cfg)
        grid = list(cfg.ldp_grid)
        Ns = list(cfg.sweep)
        perturbed = [coarse_ldp.estimate_rate(_sector_family(cfg, r, overrides), grid, Ns)
                     for r in range(2)]
        N0 = min(Ns)
        bound = coarse_ldp.perturbation_residual_bound(
            _sector_family(cfg, 0)(N0), _sector_family(cfg, 0, overrides)(N0)) / N0
    report = coarse_ldp.check_ldp_conditions(estimates, cells, pointer,
                                             perturbed=perturbed, stability_bound=bound)
    items = [
        ("maximizers", ", ".join(fmt_float(m) for m in report.maximizers)),
        ("unique_max", "true" if report.unique_max else "false"),
        ("interior", "true" if report.interior else "false"),
        ("distinct_cells", "true" if report.distinct_cells else "false"),
        ("gap", fmt_float(report.gap)),
        ("gap_positive", "true" if report.gap_positive else "false"),
    ]
    if report.stability_residual is not None:
        items += [
            ("stability_residual", fmt_float(report.stability_residual)),
            ("stability_bound", fmt_float(report.stability_bound)),
            ("stability_ok", "true" if report.stability_ok else "false"),
        ]
    items.append(("passed", "true" if report.passed else "false"))
    return render_report([("ldp_conditions", items)])


def perturb(cfg: ExperimentConfig, oracle: bool = False):
    """Stability run: base sweep, perturbed sweep, band comparison.

    With ``oracle``, both sweeps are cross-checked against the dense backend;
    the last element of the result is then ``(worst discrepancy over both
    sweeps, points checked over both sweeps)``, otherwise ``None``.
    """
    if cfg.sweep is None:
        raise ConfigError(["perturb requires a [sweep] section"])
    if not cfg.perturbation:
        raise ConfigError(["perturb requires a [perturbation] section"])
    overrides = perturbation_states(cfg)
    base_points, base_fit, base_status, base_oracle = sweep(cfg, oracle=oracle)
    pert_points, pert_fit, pert_status, pert_oracle = sweep(
        cfg, overrides=overrides, oracle=oracle)
    oracle_info = None
    if oracle:
        oracle_info = (max(base_oracle[0], pert_oracle[0]), base_oracle[1] + pert_oracle[1])
    result = None
    if base_fit is not None and pert_fit is not None:
        rel = (abs(pert_fit.c - base_fit.c) / abs(base_fit.c)
               if base_fit.c != 0 else math.inf)
        bound_ok = all(
            verify.exponential_bound_holds(pt.tensor, pt.pointer, pt.N, pert_fit.c)
            for pt in pert_points if pt.tensor is not None)
        result = verify.StabilityResult(
            base_fit=base_fit, perturbed_fit=pert_fit, relative_change=rel,
            tolerance_band=verify.STABILITY_BAND, bound_satisfied=bound_ok)
    return (base_points, pert_points, base_fit, pert_fit, base_status, pert_status, result,
            oracle_info)


def render_stability(cfg, base_fit, pert_fit, base_status, pert_status, result,
                     oracle_info=None) -> str:
    items = [("base_status", base_status), ("perturbed_status", pert_status)]
    if result is not None:
        items += [
            ("c_base", fmt_float(result.base_fit.c)),
            ("c_perturbed", fmt_float(result.perturbed_fit.c)),
            ("relative_change", fmt_float(result.relative_change)),
            ("tolerance_band", fmt_float(result.tolerance_band)),
            ("within_band", "true" if result.within_band else "false"),
            ("exponential_bound_satisfied", "true" if result.bound_satisfied else "false"),
            ("passed", "true" if result.passed else "false"),
        ]
    sites = ", ".join(f"site_{site}={edit}" for site, edit in (cfg.perturbation or ()))
    items.append(("perturbation", sites or "none"))
    items += oracle_items(oracle_info)
    return render_report([("stability", items)])


# random-instance generation for the verify suite (and reusable in tests)

def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2.0


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_index_partition(rng: np.random.Generator, dim: int, n: int) -> list[frozenset]:
    perm = rng.permutation(dim)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n - 1, replace=False))
    return [frozenset(int(i) for i in grp) for grp in np.split(perm, cuts)]

def random_rotated_partition(rng: np.random.Generator, dim: int, n: int) -> list[np.ndarray]:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(raw)
    groups = random_index_partition(rng, dim, n)
    return [q[:, sorted(g)] @ q[:, sorted(g)].conj().T for g in groups]


def random_dense_instance(rng: np.random.Generator, n: int | None = None,
                          dim: int | None = None, rotated_cells: bool = False):
    """One random microsystem/apparatus pair with a random evaluation time."""
    n = int(n if n is not None else rng.choice([2, 3, 4]))
    dim = int(dim if dim is not None else rng.choice([4, 8, 16]))
    micro = core.MicroSystem(
        energies=tuple(rng.normal(size=n)),
        labels=tuple(f"u{r}" for r in range(n)),
    )
    cells = (random_rotated_partition(rng, dim, n) if rotated_cells
             else random_index_partition(rng, dim, n))
    apparatus = core.Apparatus(
        K=random_hermitian(rng, dim),
        V=tuple(random_hermitian(rng, dim) for _ in range(n)),
        Omega=random_density(rng, dim),
        cells=core.PhaseCellPartition(cells=cells, dim=dim),
    )
    t = float(rng.uniform(0.2, 2.0))
    return micro, apparatus, t


def random_amplitudes(rng: np.random.Generator, n: int, floor: float = 0.0) -> np.ndarray:
    while True:
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        c /= np.linalg.norm(c)
        if floor == 0.0 or np.abs(c).min() >= floor:
            return c


def verify_suite(cfg: ExperimentConfig, base_dir: Path | None = None) -> tuple[bool, str]:
    """Seeded random-instance property suite; returns (passed, report text)."""
    base_dir = Path(base_dir) if base_dir is not None else Path(".")
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    weight_worst = 0.0
    failures: list[str] = []
    count = cfg.verify_instances
    for i in range(count):
        micro, apparatus, t = random_dense_instance(rng, rotated_cells=bool(i % 2))
        states = core.evolve_sectors(micro, apparatus, t)
        tensor = core.f_tensor(states, apparatus.cells)
        rep = core.check_f_properties(tensor)
        worst = max(worst, rep.worst)
        if not rep.passed:
            failures.append(f"instance {i}: property violation {rep.worst:.3e}")
        w = core.pointer_weights(tensor, random_amplitudes(rng, micro.n))
        weight_worst = max(weight_worst, abs(float(w.sum()) - 1.0))

    backend_disc = 0.0
    for N in (3, 5, 6):
        spec = coleman_hepp.ChainSpec(N=N, m0=float(rng.uniform(0.2, 1.0)),
                                      theta=float(rng.uniform(0.3, 5.9)),
                                      energies=(float(rng.normal()), float(rng.normal())))
        fact = coleman_hepp.factorized_f_tensor(spec)
        backend_disc = max(backend_disc, _dense_chain_discrepancy(spec, fact))
    if backend_disc > 1e-9:
        failures.append(f"backend discrepancy {backend_disc:.3e} above 1e-9")

    file_items: list[tuple[str, str]] = []
    if cfg.verify_f_file is not None:
        text = (base_dir / cfg.verify_f_file).read_text(encoding="utf-8")
        tensor = parse_f_tensor_text(text)
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
    items.append(("passed", "true" if passed else "false"))
    sections = [("verify", items)]
    if file_items:
        sections.append(("tensor_file_properties", file_items))
    return passed, render_report(sections)
