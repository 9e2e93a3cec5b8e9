"""Convergence-study orchestration.

Studies solve the control problem along one refinement axis against a
reference solve on the same axis (self-convergence, which cancels the error
contributed by the frozen axis), tabulate space-time errors for state,
co-state and control, and report observed orders between consecutive rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .control import ControlField, _cut_abscissae, _interp_clip, fixed_point_solves
from .fem import assemble_mass, assemble_stiffness, load_descriptor
from .fracops import assemble_coupling, source_moments
from .mesh import build_graded, build_uniform_spatial, grading_exponents, merge_breakpoints
from .mittag import SpectralSolution, _mode_sum, _time_factors
from .problem import ProblemSpec, SineCombo, default_experiment_spec
from .solver import PANEL, SourceTerm, apply_forward

__all__ = [
    "ExperimentConfig",
    "ConvergenceTable",
    "error_l2l2",
    "estimate_order",
    "run_spatial_study",
    "run_temporal_study",
    "emit_table",
    "render_table",
    "read_table_csv",
    "forward_single_mode_error",
    "clear_solve_cache",
]

# desk-scale defaults; the paper-scale reference (m=14, n=512) is available
# through the --paper-scale flag of the CLI
SPATIAL_DEFAULTS = dict(fixed=9, points=(10, 20, 30, 40, 50), reference=256)
TEMPORAL_DEFAULTS = dict(fixed=128, points=(6, 7, 8, 9, 10), reference=12)
PAPER_SPATIAL = dict(fixed=14, points=(10, 20, 30, 40, 50), reference=512)
PAPER_TEMPORAL = dict(fixed=512, points=(8, 9, 10, 11, 12), reference=14)

_GAUSS4_X = np.array([-0.8611363115940526, -0.3399810435848563,
                      0.3399810435848563, 0.8611363115940526])
_GAUSS4_W = np.array([0.3478548451374538, 0.6521451548625461,
                      0.6521451548625461, 0.3478548451374538])


@dataclass(frozen=True)
class ExperimentConfig:
    """One study: which axis is refined, at which parameters."""

    kind: str                      # spatial-study | temporal-study
    alpha: float
    r: float
    grading: str = "graded"        # graded | uniform (rows only; references stay graded)
    points: tuple = ()             # run points on the study axis (m or n values)
    reference: int = 0             # reference parameter on the study axis
    fixed: int = 0                 # frozen parameter on the other axis
    sigma1: float | None = None    # overrides; None = defaults from (alpha, r)
    sigma2: float | None = None

    def __post_init__(self):
        if self.kind not in ("spatial-study", "temporal-study"):
            raise ValueError(f"unknown study kind {self.kind!r}")
        if self.grading not in ("graded", "uniform"):
            raise ValueError(f"unknown grading mode {self.grading!r}")
        if not self.points:
            raise ValueError("points: a study needs at least one run point")
        for name in ("fixed", "reference"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if list(self.points) != sorted(set(self.points)):
            raise ValueError("points must be strictly increasing")
        if self.reference <= max(self.points):
            raise ValueError("reference must be finer than every run point")


@dataclass
class ConvergenceTable:
    rows: list            # (param, errY, ordY, errP, ordP, errU, ordU)
    metadata: dict = dataclass_field(default_factory=dict)


def estimate_order(e1: float, e2: float, p1: float, p2: float) -> float:
    """Observed order log(e1/e2) / log(p2/p1); NaN when undefined."""
    if p1 == p2:
        raise ValueError("parameters must be distinct")
    if not (e1 > 0.0 and e2 > 0.0):
        return math.nan
    return math.log(e1 / e2) / math.log(p2 / p1)


# -- exact space-time error --------------------------------------------------


def _slab_rows(F, ks) -> tuple:
    """_interp_clip's (nodes, v, lo, hi) for slabs ks of a field: a state's
    rows take their zero Dirichlet ends and no box."""
    if isinstance(F, ControlField):
        return F.xgrid.nodes, F.w[ks], F.u_lo, F.u_hi
    v = np.zeros((ks.size, F.xgrid.n + 1))
    v[:, 1:-1] = F.values[ks]
    return F.xgrid.nodes, v, -math.inf, math.inf


def _cut_pieces(fields, X: np.ndarray) -> tuple:
    """Merged slabs i (sorted) and lattice pieces j of the pieces that hold a
    kink cut of a control among the (field, merged slab -> its slab) pairs,
    and a row of breakpoints for each: its ends, its cuts in x order, and
    the right end again as padding."""
    rows, x = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for F, kf in fields:
        if isinstance(F, ControlField):  # each cut on every merged slab reading its slab
            k, e, s, _ = F._kinks
            first = np.searchsorted(kf, k, side="left")
            count = np.searchsorted(kf, k, side="right") - first
            rows.append(np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum()))
            x.append(np.repeat(_cut_abscissae(F.xgrid.nodes, e, s), count))
    rows, x = np.concatenate(rows), np.concatenate(x)
    key = rows * (X.size - 1) + np.searchsorted(X[1:-1], x, side="right")
    order = np.lexsort((x, key))
    key, x = key[order], x[order]
    new = np.diff(key, prepend=-1) != 0
    piece = np.cumsum(new) - 1
    col = np.arange(key.size) - np.flatnonzero(new)[piece] + 1
    i, j = np.divmod(key[new], X.size - 1)
    pts = np.repeat(X[j + 1, None], np.max(col, initial=0) + 2, axis=1)
    pts[:, 0] = X[j]
    pts[piece, col] = x
    return i, j, pts


def _piece_terms(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """dx (dl^2 + dl dr + dr^2), three times the integral of d^2, on each
    piece of a d linear between the breakpoints x along the last axis."""
    dl, dr = d[..., :-1], d[..., 1:]
    return np.diff(x) * (dl * dl + dl * dr + dr * dr)


def error_l2l2(A, B) -> float:
    """Exact L2(0,T; L2(0,1)) distance between two piecewise-constant-in-time
    fields, states or controls, each on its own temporal and spatial grid.

    Both temporal grids merge once, and both spatial node sets once into the
    lattice X.  Both fields are evaluated at X on PANEL merged slabs at a
    time (a control as the clamp of its interpolated w), and their
    difference d, linear between lattice points, integrates exactly as
    dx (dl^2 + dl dr + dr^2)/3 per piece.  A piece that holds kink cuts (at
    most two of each control) is integrated on its ends and cuts instead.
    """
    ta, tb = A.tgrid.nodes, B.tgrid.nodes
    if ta[0] != tb[0] or ta[-1] != tb[-1]:
        raise ValueError("fields live on different time intervals")
    ts = merge_breakpoints(ta, tb)
    mids = 0.5 * (ts[:-1] + ts[1:])
    ka = np.clip(np.searchsorted(ta, mids, side="right") - 1, 0, A.tgrid.num_slabs - 1)
    kb = np.clip(np.searchsorted(tb, mids, side="right") - 1, 0, B.tgrid.num_slabs - 1)
    widths = np.diff(ts)
    X = merge_breakpoints(A.xgrid.nodes, B.xgrid.nodes)
    i, j, pts = _cut_pieces(((A, ka), (B, kb)), X)
    total = 0.0
    for k0 in range(0, widths.size, PANEL):
        ks = slice(k0, k0 + PANEL)
        ra, rb = _slab_rows(A, ka[ks]), _slab_rows(B, kb[ks])
        d = _interp_clip(*ra, slice(None), X) - _interp_clip(*rb, slice(None), X)
        terms = _piece_terms(X, d)
        g = slice(*np.searchsorted(i, (k0, k0 + PANEL)))
        if g.start < g.stop:  # never for two states, which hold no cut
            rows, x = i[g] - k0, pts[g]
            d = _interp_clip(*ra, rows[:, None], x) - _interp_clip(*rb, rows[:, None], x)
            terms[rows, j[g]] = _piece_terms(x, d).sum(axis=1)
        total += float(widths[ks] @ terms.sum(axis=1))
    return math.sqrt(max(0.0, total / 3.0))


# -- study machinery ---------------------------------------------------------

_solve_cache: dict = {}
# bytes of the cached (U, Y, P) arrays: a paper-scale triple (m=14, n=512)
# takes 0.40 GB, so its reference stays cached beside a study's row solves
_SOLVE_CACHE_BYTES = 2 ** 30


def _triple_bytes(triple) -> int:
    U, Y, P = triple
    return U.w.nbytes + Y.values.nbytes + P.values.nbytes


def clear_solve_cache() -> None:
    _solve_cache.clear()


def _sigmas(cfg: ExperimentConfig, reference: bool = False) -> tuple[float, float]:
    # the reference stands in for the true solution, so it stays graded
    # even when the rows run on uniform grids
    if cfg.grading == "uniform" and not reference:
        return 1.0, 1.0
    return grading_exponents(cfg.alpha, cfg.r, cfg.sigma1, cfg.sigma2)


def _solve_points(spec: ProblemSpec, cfg: ExperimentConfig, points) -> list:
    """(U, Y, P) on the grids that each (m, n, reference) of points and the
    grading of cfg build, through a least-recently-used cache keyed on
    those grids and the problem's parameters, so that a spatial and a
    temporal reference on the same grids share one solve.  The points the
    cache misses that share a temporal grid solve together in one
    `fixed_point_solves` call.  The cache holds at most _SOLVE_CACHE_BYTES
    of arrays; each new triple evicts the least recently used ones until it
    fits, and is kept even when it alone is larger."""
    keys, found, groups = [], {}, {}  # groups: temporal grid -> (its grid, {key: xgrid})
    for m, n, reference in points:
        tgrid, xgrid = build_graded(2 ** m, *_sigmas(cfg, reference), 1.0), build_uniform_spatial(n)
        key = (cfg.alpha, cfg.r, tgrid.M, tgrid.sigma1, tgrid.sigma2, xgrid.n)
        keys.append(key)
        if key in _solve_cache:  # a hit moves to the most recently used end
            found[key] = _solve_cache[key] = _solve_cache.pop(key)
        else:
            groups.setdefault(key[2:5], (tgrid, {}))[1][key] = xgrid
    for tgrid, xgrids in groups.values():
        solves = fixed_point_solves(spec, tgrid, list(xgrids.values()))
        for key, (U, Y, P, _) in zip(xgrids, solves):
            held = sum(map(_triple_bytes, _solve_cache.values()))
            while _solve_cache and held + _triple_bytes((U, Y, P)) > _SOLVE_CACHE_BYTES:
                held -= _triple_bytes(_solve_cache.pop(next(iter(_solve_cache))))
            found[key] = _solve_cache[key] = (U, Y, P)
    return [found[key] for key in keys]


def _study_rows(cfg: ExperimentConfig) -> ConvergenceTable:
    """Errors of each run point against the reference, and the orders
    between consecutive rows.  A point p solves at (m, n) = (fixed, p) on
    a spatial study, labelled n, and at (p, fixed) on a temporal one,
    labelled 2^m.  The reference and the rows are solved first, so that a
    spatial study, whose grids share one temporal grid, solves them all as
    one group."""
    spec = default_experiment_spec(cfg.alpha, cfg.r)
    spatial = cfg.kind == "spatial-study"

    def grids(p: int, reference: bool = False) -> tuple[int, int, bool]:
        return (cfg.fixed, p, reference) if spatial else (p, cfg.fixed, reference)

    (Ur, Yr, Pr), *solves = _solve_points(
        spec, cfg, [grids(cfg.reference, reference=True)] + [grids(p) for p in cfg.points])
    rows = []
    for p, (U, Y, P) in zip(cfg.points, solves):
        param = p if spatial else 2 ** p
        eY, eP, eU = error_l2l2(Y, Yr), error_l2l2(P, Pr), error_l2l2(U, Ur)
        oY = oP = oU = math.nan
        if rows:
            p0, eY0, _, eP0, _, eU0, _ = rows[-1]
            oY, oP, oU = (estimate_order(e0, e, p0, param)
                          for e0, e in ((eY0, eY), (eP0, eP), (eU0, eU)))
        rows.append((param, eY, oY, eP, oP, eU, oU))
    (s1, s2), (ref1, ref2) = _sigmas(cfg), _sigmas(cfg, reference=True)
    meta = dict(alpha=cfg.alpha, r=cfg.r, grading=cfg.grading, sigma1=s1, sigma2=s2,
                ref_sigma1=ref1, ref_sigma2=ref2, axis=cfg.kind.split("-")[0],
                fixed=cfg.fixed, reference=cfg.reference, norm="L2(0,T;L2(0,1))")
    return ConvergenceTable(rows=rows, metadata=meta)


def run_spatial_study(cfg: ExperimentConfig) -> ConvergenceTable:
    """Refine the spatial grid at a frozen temporal grid: rows n = points at
    m = fixed, errors against n = reference, orders per consecutive cell
    counts."""
    if cfg.kind != "spatial-study":
        raise ValueError(f"config kind {cfg.kind!r} is not a spatial study")
    if cfg.grading != "graded":
        raise ValueError("spatial studies run on graded temporal grids")
    return _study_rows(cfg)


def run_temporal_study(cfg: ExperimentConfig) -> ConvergenceTable:
    """Refine the temporal grid at a frozen spatial grid: rows m = points at
    n = fixed, errors against m = reference, orders per doubling of M."""
    if cfg.kind != "temporal-study":
        raise ValueError(f"config kind {cfg.kind!r} is not a temporal study")
    return _study_rows(cfg)


# -- table output ------------------------------------------------------------


def _fmt_ord(o: float) -> str:
    return "  -- " if math.isnan(o) else f"{o:5.2f}"


def render_table(table: ConvergenceTable, fmt: str = "text") -> str:
    if fmt == "csv":
        lines = ["param,errY,ordY,errP,ordP,errU,ordU"]
        for (p, eY, oY, eP, oP, eU, oU) in table.rows:
            cells = [str(p)]
            for val in (eY, oY, eP, oP, eU, oU):
                cells.append("" if isinstance(val, float) and math.isnan(val) else repr(float(val)))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown table format {fmt!r}")
    md = table.metadata
    sigmas = " ".join(f"{key}={md[key]:.4g}" for key in
                      ("sigma1", "sigma2", "ref_sigma1", "ref_sigma2") if key in md)
    head = (f"# alpha={md.get('alpha')} r={md.get('r')} grading={md.get('grading')} "
            f"{sigmas} norm={md.get('norm')}\n")
    lines = [head,
             f"{'param':>8} | {'errY':>11} {'ordY':>5} | {'errP':>11} {'ordP':>5} "
             f"| {'errU':>11} {'ordU':>5}"]
    for (p, eY, oY, eP, oP, eU, oU) in table.rows:
        lines.append(f"{p:>8} | {eY:11.5e} {_fmt_ord(oY)} | {eP:11.5e} {_fmt_ord(oP)} "
                     f"| {eU:11.5e} {_fmt_ord(oU)}")
    return "\n".join(lines) + "\n"


def emit_table(table: ConvergenceTable, fmt: str = "text", path=None) -> str:
    """Render and optionally write the table; returns the rendered text."""
    text = render_table(table, fmt)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def read_table_csv(text: str) -> ConvergenceTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "param,errY,ordY,errP,ordP,errU,ordU":
        raise ValueError("missing or malformed CSV header")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        param = int(cells[0])
        vals = [math.nan if c == "" else float(c) for c in cells[1:]]
        rows.append((param, *vals))
    return ConvergenceTable(rows=rows)


# -- forward-solver validation ------------------------------------------------


def forward_single_mode_error(alpha: float, m: int, n: int, r: float = 0.0,
                              flavor: str = "homogeneous",
                              sigma1: float | None = None,
                              sigma2: float | None = None) -> float:
    """L2(L2) error of the forward solve for single-mode data against the
    exact eigen-expansion, via 4-point Gauss in time per slab.

    flavor "homogeneous": datum v = phi_1, forcing through the kernel
    moments; "constant_source": source g = phi_1 frozen in time.
    """
    tgrid = build_graded(2 ** m, *grading_exponents(alpha, r, sigma1, sigma2), 1.0)
    xgrid = build_uniform_spatial(n)
    mass = assemble_mass(xgrid)
    stiffness = assemble_stiffness(xgrid)
    B = assemble_coupling(tgrid, alpha)
    combo = SineCombo(terms=((1, math.sqrt(2.0)),))
    loadv = load_descriptor(xgrid, combo)
    if flavor == "homogeneous":
        mom = source_moments(tgrid, alpha)
        src = SourceTerm(tgrid, xgrid, mom.values[:, None] * loadv)
    elif flavor == "constant_source":
        src = SourceTerm(tgrid, xgrid, tgrid.widths[:, None] * loadv)
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    Y = apply_forward(B, mass, stiffness, src)
    sol = SpectralSolution.from_sine_combo(combo.terms, alpha, flavor)
    a_, b_ = tgrid.nodes[:-1, None], tgrid.nodes[1:, None]
    pts = 0.5 * (a_ + b_) + 0.5 * (b_ - a_) * _GAUSS4_X
    wts = 0.5 * (b_ - a_) * _GAUSS4_W
    # the time factors of every Gauss time at once, then the exact values
    # of a panel of slabs at a time; d M d from the mass stencil without
    # forming M d, so the temporaries stay at 4 PANEL n
    modes, amps = _time_factors(sol, pts)
    total = 0.0
    for k0 in range(0, tgrid.num_slabs, PANEL):
        ks = slice(k0, k0 + PANEL)
        d = _mode_sum(modes, amps[:, ks], xgrid.interior)
        d = np.subtract(Y.values[ks, None, :], d, out=d).reshape(-1, n - 1)
        w = wts[ks].ravel()
        total += float(mass.diag * np.einsum("k,ki,ki->", w, d, d)
                       + 2.0 * mass.off * np.einsum("k,ki,ki->", w, d[:, 1:], d[:, :-1]))
    return math.sqrt(max(0.0, total))
