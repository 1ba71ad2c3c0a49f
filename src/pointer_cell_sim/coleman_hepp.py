"""Finite spin-chain measurement model with dense and factorized backends.

An electron spin is read out by a chain of N two-level sites: the spin-down
sector rotates every site it has passed by a fixed angle (a full reversal at
the default angle pi), the spin-up sector leaves the chain untouched, and the
pointer cells are the two signs of the mean magnetisation ``(2j - N) / N``
over the up counts ``j``: "-" holds ``j < sign_boundary(N)`` and "+" the
rest, the boundary value 0 included.  ``build_dense`` materialises the full
``2**N``-dimensional apparatus for the generic dense machinery;
``factorized_f_tensor`` exploits the product structure to evaluate the same
tensor exactly for chains far beyond dense reach, carrying magnitudes in log
space.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    Apparatus,
    FTensor,
    MicroSystem,
    PhaseCellPartition,
    _check_hermitian,
    _check_positive_semidefinite,
    _diagonal_of,
)
from .errors import CapacityError, SimulationError, StructuralError
from .logspace import (BinomialBlock, _binomial_block, binomial_log_tails, binomial_pair_log_tails,
                       lc_convolve, lc_sum_rows, lc_values)

#: largest chain the dense backend will materialise (2**N * 2 state dimension)
DENSE_SITE_CAP = 12

MICRO_LABELS = ("+", "-")  # index 0: spin-up sector, index 1: spin-down
#: the pointer cells by index: the negative, then the nonnegative magnetisation
CELL_LABELS = ("-", "+")
CELL_MINUS, CELL_PLUS = 0, 1

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


def site_rotation(theta: float) -> np.ndarray:
    """Single-site rotation ``exp(i theta sigma_x / 2)`` applied by passage.

    At exactly pi the rotation is the exact flip ``1j * sigma_x``: its zero
    diagonal kills every cross-sector accumulator path structurally, which
    the generic cosine would miss by one rounding ulp.
    """
    if theta == math.pi:
        return 1j * _SIGMA_X.copy()
    return math.cos(theta / 2.0) * _EYE2 + 1j * math.sin(theta / 2.0) * _SIGMA_X


def polarized_site(m0: float) -> np.ndarray:
    """Single-site state ``(I + m0 sigma_z) / 2`` of a chain polarised to m0."""
    return (_EYE2 + m0 * _SIGMA_Z) / 2.0


def _check_site_state(rho, site) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise StructuralError(f"override for site {site} must be a 2x2 matrix")
    _check_hermitian(rho, f"site {site} override")
    if not abs(np.trace(rho).real - 1.0) <= 1e-12:
        raise StructuralError(f"site {site} override must have unit trace")
    _check_positive_semidefinite(rho, f"site {site} override")
    return rho


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of one chain experiment.

    ``t`` is the effective traversal time: the tensor is evaluated after the
    full passage, with the sector energies contributing phases ``exp(i e t)``.
    ``site_overrides`` replaces the initial state of selected sites, which is
    how localized perturbations are expressed.
    """

    N: int
    m0: float
    theta: float = math.pi
    energies: tuple[float, float] = (0.0, 0.0)
    t: float = 1.0
    site_overrides: Mapping[int, np.ndarray] | None = None

    def __post_init__(self):
        if self.N < 1:
            raise StructuralError("chain must have at least one site")
        if not (0.0 < self.m0 <= 1.0):
            raise StructuralError(f"initial polarisation must lie in (0, 1], got {self.m0!r}")
        if not (0.0 < self.theta < 2.0 * math.pi):
            raise StructuralError(f"rotation angle must lie in (0, 2*pi), got {self.theta!r}")
        if len(self.energies) != 2:
            raise StructuralError("two sector energies required")
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise StructuralError(f"traversal time must be positive and finite, got {self.t!r}")
        overrides = {}
        if self.site_overrides:
            for site, rho in self.site_overrides.items():
                site = int(site)
                if not (0 <= site < self.N):
                    raise StructuralError(f"override site {site} outside the chain")
                overrides[site] = _check_site_state(rho, site)
        object.__setattr__(self, "site_overrides", overrides)
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))

    def at_size(self, N: int) -> "ChainSpec":
        """This chain with N sites.  No check runs again unless N fails one that
        depends on it; the spec is then built at N, to raise as it would."""
        if N < 1 or any(site >= N for site in self.site_overrides):
            replace(self, N=N)
        sized = object.__new__(ChainSpec)  # a copy, bypassing __init__ and its checks
        sized.__dict__.update(vars(self), N=N)
        return sized

    def site_states(self) -> list[np.ndarray]:
        base = polarized_site(self.m0)
        return [self.site_overrides.get(k, base) for k in range(self.N)]


def sign_boundary(N: int) -> int:
    """The least up count of the "+" cell: ``(2j - N) / N`` is negative exactly for ``j`` below it."""
    return (N + 1) // 2


def chain_cells(N: int) -> PhaseCellPartition | None:
    """The sign cells as phase cells for ``build_dense``, up to ``DENSE_SITE_CAP``:
    basis index ``i`` has ``N - popcount(i)`` up spins (a set bit is a down spin)
    and lies in "+" iff that count is at least ``sign_boundary(N)``."""
    if N > DENSE_SITE_CAP:
        return None
    index = np.arange(2 ** N)
    ups = np.full(2 ** N, N)
    for bit in range(N):
        ups -= (index >> bit) & 1
    return PhaseCellPartition((ups >= sign_boundary(N)).astype(int), 2, labels=CELL_LABELS)


def build_dense(spec: ChainSpec, rotated_count: int | None = None) -> tuple[MicroSystem, Apparatus]:
    """Materialise the chain as a generic dense microsystem/apparatus pair.

    The spin-down coupling is the commuting sum of single-site rotation
    generators over the sites the particle has passed, those with index
    below ``rotated_count`` (all of them by default), scaled so that
    evolving to time ``spec.t`` performs exactly one rotation by
    ``spec.theta`` per passed site.  ``K`` and the spin-up coupling are one
    zero vector; ``Omega`` is the Kronecker product of the site diagonals
    when every site state is diagonal, else of the site states.  The phase
    cells are ``chain_cells(spec.N)``, in the apparatus' own basis."""
    if spec.N > DENSE_SITE_CAP:
        raise CapacityError(
            f"dense chain capped at {DENSE_SITE_CAP} sites (got {spec.N}); "
            "use the factorized backend")
    if rotated_count is None:
        rotated_count = spec.N
    if not (0 <= rotated_count <= spec.N):
        raise StructuralError("rotated site count outside the chain")
    micro = MicroSystem(energies=spec.energies, labels=MICRO_LABELS)
    dim = 2 ** spec.N
    zero = np.zeros(dim)  # both K and the spin-up coupling
    zero.setflags(write=False)
    v_minus = np.zeros((dim, dim))
    coeff = spec.theta / (2.0 * spec.t)
    # sigma_x on site k flips bit N-1-k of the basis index (site 0 is the
    # most significant factor of the Kronecker order)
    index = np.arange(dim)
    for k in range(rotated_count):
        v_minus[index, index ^ (1 << (spec.N - 1 - k))] = coeff
    diagonals = [_diagonal_of(rho) for rho in spec.site_states()]
    omega = reduce(np.kron, spec.site_states() if any(d is None for d in diagonals) else diagonals)
    apparatus = Apparatus(K=zero, V=(zero, v_minus), Omega=omega, cells=chain_cells(spec.N))
    return micro, apparatus


@dataclass(frozen=True)
class FactorizedSectorOverlap:
    """The factors of one sector pair: its operator's coefficient on the up-count-j
    subspace is the j-th coefficient of ``a * bulk * b``, times the pair's energy phase.

    ``b`` is the longest bulk block and ``bulk`` the shorter one of a partial
    traversal, else None, each a :class:`BinomialBlock`, and ``a = (lm, ph)`` the
    override sites as one log-coded polynomial, ``[1]`` for a plain chain.  ``ldp``
    reads its rate functions from a diagonal sector at full traversal
    (``coarse_ldp.estimate_rate``); the cells and trace products of every sector pair
    come from ``traversal_family``.
    """

    a: tuple[np.ndarray, np.ndarray]
    b: BinomialBlock
    bulk: BinomialBlock | None = None


def _block_tails(blocks: list, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
    """Per ``(bulk, b, h)`` (``bulk`` None for one block): ``log P(X < h - i)``, ``log P(X >= h - i)``, i < k,
    for the up-count X of ``bulk * b`` as ``(len(blocks), 2, k)`` rows, each row's shifts, phase and log total,
    and by row the errors; one ``binomial_log_tails`` and one ``binomial_pair_log_tails`` batch, zero blocks none."""
    one = [n for n, (bulk, _, _) in enumerate(blocks) if bulk is None]
    two = [n for n, (bulk, b, _) in enumerate(blocks) if bulk and min(bulk.log_scale, b.log_scale) > -math.inf]
    tails, shifts, bad = np.full((len(blocks), 2, k), -np.inf), np.zeros((len(blocks), 2)), {}
    if one:
        tails[one], shifts[one], bad = binomial_log_tails([(b.size, h, b.p, b.q) for _, b, h in
                                                           map(blocks.__getitem__, one)], k)
    if two:
        tails[two] = binomial_pair_log_tails([(u.size, u.p, u.q, b.size, b.p, b.q, h) for u, b, h in
                                              map(blocks.__getitem__, two)], k)
    phase_total = np.array([(b.phase, b.log_total()) if u is None else (u.phase + b.phase, u.log_total()
                            + b.log_total()) for u, b, _ in blocks]).reshape(-1, 2)
    return tails, shifts, phase_total[:, 0], phase_total[:, 1], {one[row]: exc for row, exc in bad.items()}


def _site_polynomials(diagonals: dict) -> dict:
    """``(site, a, b)`` -> the log-coded ``d1 + d0 z`` of ``diagonals[site][a][b]``, per
    override site: log magnitudes ``(log|d1|, log|d0|)``, ``-inf`` for a zero entry, and
    phases ``(arg d1, arg d0)``."""
    keys = [(k, a, b) for k in diagonals if k is not None for a in range(2) for b in range(2)]
    entries = [d for k, a, b in keys for d in reversed(diagonals[k][a][b])]
    lm = np.array([math.log(abs(d)) if d else -math.inf for d in entries]).reshape(-1, 2)
    ph = np.array([cmath.phase(d) for d in entries]).reshape(-1, 2)
    return dict(zip(keys, zip(lm, ph)))


def _bulk_block(d0: complex, d1: complex, scale: float | None) -> Callable[[int], BinomialBlock]:
    """Size -> the block ``(d1 + d0 z)**size`` with the one phase its coefficients share.

    The coefficient phases ``j arg d0 + (size - j) arg d1`` are one phase,
    as ``arg d0 = arg d1`` mod 2 pi: the base site state is diagonal, so the
    diagonal of ``A_r^dag rho A_s`` is real and nonnegative in a diagonal
    sector and ``cos(theta / 2)`` times ``rho``'s diagonal in a cross sector.
    A diagonal sector passes ``scale``, the site trace, which the rotation
    leaves unchanged.  A negative diagonal gives the block the sign
    ``(-1)**size``, kept as the phase 0 or pi: ``size * pi`` in floating
    point would be off by up to ``size`` ulps of pi.  The phase check and the
    binomial parameters do not depend on the size, and are found once.
    """
    arg0, arg1 = cmath.phase(d0), cmath.phase(d1)
    if d0 and d1 and math.remainder(arg0 - arg1, 2.0 * math.pi) != 0.0:
        raise StructuralError(f"bulk site diagonal ({d0!r}, {d1!r}) does not share one phase")
    arg = arg1 if d1 else arg0
    unit = _binomial_block(d0, d1, scale)

    def block(size: int) -> BinomialBlock:
        phase = math.pi * (size % 2) if abs(arg) == math.pi else size * arg
        return BinomialBlock(size, unit.p, unit.q, unit.log_scale, phase)
    return block


def _site_diagonals(spec: ChainSpec) -> dict:
    """``[a][b]``: the diagonal of ``(A^dag rho) B``, A = R if a else 1, B = R if b
    else 1, per site state: the base (key None), then the overrides in site order.
    Shared by the four sectors of a spec, in the product order each used alone."""
    R = site_rotation(spec.theta)
    states = {None: polarized_site(spec.m0), **dict(sorted(spec.site_overrides.items()))}
    return {site: [[(complex(x[0, 0]), complex(x[1, 1])) for x in (t @ _EYE2, t @ R)]
                   for t in (_EYE2.conj().T @ rho, R.conj().T @ rho)]
            for site, rho in states.items()}


def diagonal_sectors(spec: ChainSpec, N: int) -> list[tuple[FactorizedSectorOverlap, dict]]:
    """Per evolved diagonal sector r at full traversal: ``sector_overlap(spec.at_size(N),
    r, r)``, and the up-probability ``|d0| / (|d0| + |d1|)`` of each of its site states,
    key None the bulk, then the override sites in site order."""
    diagonals, sized, memo = _site_diagonals(spec), spec.at_size(N), {}
    return [(sector_overlap(sized, r, r, diagonals=diagonals, memo=memo),
             {site: _binomial_block(*d[r][r]).p for site, d in diagonals.items()}) for r in range(2)]


def _site_groups(N: int, rotated_count: int, diagonals: dict) -> tuple[tuple[int, ...], int, int]:
    """The override sites below ``rotated_count``, and the bulk sites below and above it."""
    override_sites = [k for k in diagonals if k is not None]
    rotated = tuple(k for k in override_sites if k < rotated_count)
    return rotated, rotated_count - len(rotated), (N - rotated_count) - (len(override_sites) - len(rotated))


def _pair_factors(spec: ChainSpec, r: int, s: int, rotated: tuple[int, ...], n_rot: int, n_plain: int,
                  diagonals: dict, memo: dict):
    """Pair (r, s)'s shorter bulk block (None unless both groups are nonempty and differ) and
    longest of ``n_rot`` rotated and ``n_plain`` plain sites, its energy phase, and the ``rotated``
    override sites' product polynomials and log trace sum, all but the blocks kept in ``memo``."""
    if (r, s) not in memo:
        # a pair the traversal does not touch has no plain maker: one closed form for the bulk
        rot_key, plain_key = diagonals[None][r == 1][s == 1], diagonals[None][0][0]
        scale = float(np.trace(polarized_site(spec.m0)).real) if r == s else None
        memo[r, s] = (_bulk_block(*rot_key, scale),
                      None if rot_key == plain_key else _bulk_block(*plain_key, scale),
                      float((spec.energies[s] - spec.energies[r]) * spec.t))
    if (r, s, rotated) not in memo:
        keys = [(k, r == 1 and k in rotated, s == 1 and k in rotated) for k in diagonals if k is not None]
        # a site's factor sums to its trace, in a diagonal sector Tr rho_k, which the rotation keeps
        traces = [sum(diagonals[k][0][0] if r == s else diagonals[k][a][b]) for k, a, b in keys]
        if keys and "sites" not in memo:
            memo["sites"] = _site_polynomials(diagonals)
        polys = [reduce(lc_convolve, [memo["sites"][key] for key in keys])] if keys else []
        memo[r, s, rotated] = (polys, sum(math.log(abs(z)) if z else -math.inf for z in traces))
    (rot, plain, delta_e), factors = memo[r, s], memo[r, s, rotated]
    if not (plain and n_rot and n_plain):
        size, make = (n_plain, plain) if plain and not n_rot else (n_rot + n_plain, rot)
        return None, make(size) if size else _binomial_block(0.0, 1.0), delta_e, factors
    return (*((rot(n_rot), plain(n_plain)) if n_rot <= n_plain else (plain(n_plain), rot(n_rot))), delta_e, factors)


def sector_overlap(spec: ChainSpec, r: int, s: int, rotated_count: int | None = None,
                   diagonals: dict | None = None,
                   memo: dict | None = None) -> FactorizedSectorOverlap:
    """Build the factorized accumulator for sector pair (r, s).

    Sites with index below ``rotated_count`` have been passed by the
    traversing particle and carry the conditional rotation in the spin-down
    sector; the remainder are untouched.  Identical sites collapse into at
    most two binomial bulk blocks, held by their parameters, the longest
    ``b`` and the other ``bulk``; the override sites, in site order, are
    convolved into ``a`` in log space.  ``diagonals`` is
    ``_site_diagonals(spec)``, and ``memo`` is ``_pair_factors``'.
    """
    if rotated_count is None:
        rotated_count = spec.N
    if not (0 <= rotated_count <= spec.N):
        raise StructuralError("rotated site count outside the chain")
    diagonals, memo = diagonals or _site_diagonals(spec), {} if memo is None else memo
    rotated, n_rot, n_plain = _site_groups(spec.N, rotated_count, diagonals)
    bulk, b, _, (polys, _) = _pair_factors(spec, r, s, rotated, n_rot, n_plain, diagonals, memo)
    return FactorizedSectorOverlap(a=polys[0] if polys else (np.zeros(1), np.zeros(1)), b=b, bulk=bulk)


def factorized_f_tensor(spec: ChainSpec) -> FTensor:
    """Pointer-statistics tensor after the full traversal, any chain size."""
    return traversal_schedule(spec, 1.0)


def passed_sites(N: int, fraction: float) -> int:
    """Number of sites, ``floor(fraction * N)``, a traversal fraction has passed."""
    if not (0.0 <= fraction <= 1.0):
        raise StructuralError(f"traversal fraction must lie in [0, 1], got {fraction!r}")
    return int(math.floor(fraction * N + 1e-12))


def traversal_schedule(spec: ChainSpec, fraction: float) -> FTensor:
    """Tensor after the particle has passed the first ``floor(fraction * N)`` sites."""
    lm, ph, _, failed = traversal_family(spec, fraction, [spec.N])
    if failed:
        raise failed[0]
    return FTensor(values=lc_values(lm[0], ph[0]), t=spec.t, log_magnitude=lm[0])


def traversal_family(spec: ChainSpec, fraction: float, Ns: Sequence[int]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, SimulationError]]:
    """The tensors ``traversal_schedule(spec.at_size(N), fraction)`` for the N of ``Ns``:
    their log magnitudes and phases as ``(len(Ns), 2, 2, 2)`` stacks (``lc_values`` gives
    the values), their log trace products ``log |sum_alpha F[r, s, alpha]|`` as a
    ``(len(Ns), 2, 2)`` stack, and by index the ``SimulationError`` of each size that
    raised one: it fails that size alone.  A trace product is the pair's product of
    per-site traces, finite where the cells underflow and ``-inf`` where a site trace
    is an exact zero.

    Each pair's factors are found once (``_pair_factors``).  Every (size, pair) is one
    row: its bulk blocks and split ``h``, whose tails one ``_block_tails`` call takes for
    all rows, and its phases and log totals, all of which one ``lc_sum_rows`` sums."""
    diagonals, memo = _site_diagonals(spec), {}
    lm, ph = np.full((len(Ns), 2, 2, 2), -np.inf), np.zeros((len(Ns), 2, 2, 2))
    log_trace, failed, rows, plain_a = np.full((len(Ns), 2, 2), -np.inf), {}, [], (np.zeros(1), np.zeros(1))
    for i, N in enumerate(Ns):  # rows: (size index, r, s, a, global phase, (bulk, b, h)), h the first "+" count
        try:
            spec.at_size(N)
            rotated, n_rot, n_plain = _site_groups(N, passed_sites(N, fraction), diagonals)
            for r, s in ((0, 0), (0, 1), (1, 0), (1, 1)):
                bulk, b, delta_e, (polys, a_lm) = _pair_factors(spec, r, s, rotated, n_rot, n_plain, diagonals, memo)
                log_trace[i, r, s] = (a_lm + bulk.log_total() if bulk else a_lm) + b.log_total()
                rows.append((i, r, s, polys[0] if polys else plain_a, delta_e, (bulk, b, sign_boundary(N))))
        except SimulationError as exc:
            failed[i] = exc
    if rows:  # a failed size's rows are summed too
        *columns, blocks = zip(*rows)
        i, r, s, a, phases = (np.array(v) for v in columns)
        tails, shifts, b_phase, totals, bad = _block_tails(list(blocks), a.shape[-1])
        sums_lm, sums_ph = lc_sum_rows(a[:, 0, None] + tails, (a[:, 1] + b_phase[:, None])[:, None])
        lm[i, r, s], ph[i, r, s] = sums_lm + shifts + totals[:, None], sums_ph + phases[:, None]
        for row, exc in bad.items():
            failed.setdefault(int(i[row]), exc)
    return lm, ph, log_trace, failed
