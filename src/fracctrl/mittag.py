"""Two-parameter Mittag-Leffler function on the negative real axis, and the
exact spectral solutions built from it.

`ml` has two evaluators.

Double-precision quadrature, for 0 < b < 1 and g in {1, 1 + b} (the orders
the spectral solutions use), with b in [0.0013, 0.9993] for g = 1 and in
[0.0007, 0.9944] for g = 1 + b; the node count grows like 1/b and 1/(1 - b).
E_b(-t^b) is completely monotone in t, so it is the Laplace transform of a
positive density K_b (Gorenflo, Loutchko & Luchko, FCAA 5(4), 2002):

    E_b(-x)       = int_0^inf exp(-r s) K_b(r) dr,             s = x^(1/b),
    E_{b,1+b}(-x) = int_0^inf -expm1(-r s) K_b(r) dr / x,
    r K_b(r)      = sin(pi b)/pi r^b / (r^2b + 2 r^b cos(pi b) + 1).

Every term is positive, so nothing cancels.  `_ml_quadrature` sums the
trapezoid rule in log r over a window that follows s, normalised by the same
lattice sum of K_b; the nodes' abscissae and densities are tabulated once
per call, so each (z, node) pair costs two exponentials; see there.
Measured against 30-digit references its error stays below 1e-14 relative
for |z| from 5e-324 to 1e307; z = 0 gives 1/Gamma(g) exactly.  Arrays of z
run in blocks with no Python loop over z.

The certified oracle, for every other order (b >= 1, b outside the ranges
above, or g outside {1, 1 + b}) and for the tests.  E_{b,g}(z) =
sum_k z^k / Gamma(k b + g) converges everywhere but cancels
catastrophically on the negative axis: the largest term exceeds the sum by
roughly exp(b |z|^(1/b)), which outruns double precision already at
moderate |z|.  Past a crossover Z0(b) the divergent
asymptotic expansion

    E_{b,g}(-t) = sum_{k>=1} (-1)^(k+1) t^(-k) / Gamma(g - k b) + ...

truncated at its smallest term is accurate far beyond double precision, so:

  * |z| <= Z0: power series; in double precision while its running error
    bound (which counts the double-rounded gamma arguments) certifies 1e-13,
    otherwise in extended precision at peak + 30 digits.  For rational
    beta = p/q the extended sum runs in q lanes whose terms advance by an
    exact integer ratio, held as scaled fixed-point Python integers (one
    big-int multiply and floor-divide per term; mpmath only for the q
    starting terms); other orders sum with mpmath.  The sum is redone wider
    only when the result lies so far below 1 that the digits left after
    cancellation no longer certify 1e-13 plus a guard for rounding growth
    over the term count;
  * |z| >  Z0: asymptotic expansion, accepted when its error estimate
    certifies 1e-13.  The sum is truncated on an envelope of its terms that
    does not dip near the poles of Gamma (see `_asymptotic`); where the
    estimate cannot certify, the extended-precision series takes over.

Z0(b) is calibrated empirically (table below) so that the raw asymptotic
value already agrees with the certified series to ~1e-11 at Z0/2; a flat
crossover cannot do this for all b since the asymptotic error floor
behaves like exp(-b t^(1/b)).

A spectral solution is sum_k a_k(t) phi_k(x).  `spectral_state` forms the
time factors a_k with one `ml` call per mode for all its times
(`_time_factors`), then the sum over the modes (`_mode_sum`); the forward
check in `harness` forms the factors of a whole level once and the sum a
panel of slabs at a time, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "MlAccuracyError",
    "crossover_z0",
    "ml",
    "SpectralSolution",
    "spectral_state",
]

LN10 = math.log(10.0)

# (beta, Z0) knots; linear interpolation, clamped outside.  Calibrated so
# the asymptotic side reaches ~1e-11 relative error at Z0/2 for
# gamma in {1, 1+beta}; see the crossover-band tests.
_Z0_KNOTS = (
    (0.05, 3.5), (0.10, 4.2), (0.15, 5.0), (0.20, 6.0), (0.25, 8.0),
    (0.30, 12.5), (0.35, 12.5), (0.40, 10.5), (0.50, 12.5), (0.60, 20.0),
    (0.70, 32.5), (0.80, 39.0), (0.90, 57.0), (0.95, 69.0), (1.00, 72.0),
)

_FLOAT_PEAK_LOG10 = 15.0   # beyond this the double series is not attempted
_ULP = 2.0 ** -53
_GAMMA_ULPS = 10.0         # math.gamma error bound in ulps (7 seen over (0.2, 170))
_TARGET_RTOL = 1e-13
_MAX_DPS = 20000
_MAX_TERMS = 2_000_000
# digits that must survive cancellation: the target plus rounding growth
# over up to _MAX_TERMS summed terms
_CERT_DIGITS = -math.log10(_TARGET_RTOL) + math.log10(_MAX_TERMS)


class MlAccuracyError(RuntimeError):
    """Requested accuracy could not be certified."""


def crossover_z0(beta: float) -> float:
    """Series/asymptotic crossover |z| for the given order."""
    knots_b = [b for b, _ in _Z0_KNOTS]
    knots_z = [z for _, z in _Z0_KNOTS]
    if beta <= knots_b[0]:
        return knots_z[0]
    if beta >= knots_b[-1]:
        # above 1 the asymptotic degenerates; push the crossover out
        return knots_z[-1] * max(1.0, beta)
    return float(np.interp(beta, knots_b, knots_z))


def _sinpi(x: float) -> float:
    """sin(pi x) with exact argument reduction at the integers."""
    n = round(x)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


def _asymptotic(beta: float, gamma_: float, z: float) -> tuple[float, float]:
    """Truncated asymptotic value and its relative error estimate.

    The sum runs on the envelope t^-k Gamma(1 - a) / pi of the k-th term,
    a = g - k b, when a < 1/2 (the reflection bound on |1/Gamma(a)|) and
    t^-k / Gamma(a) above.  A term that is small only because a sits near a
    pole of Gamma therefore does not stop the sum.  It stops once the
    envelope falls below 1e-17 |sum|, or before the envelope grows; the
    estimate is the last envelope over |sum|."""
    t = -z
    lt = math.log(t)
    s = 0.0
    env = math.inf
    for k in range(1, 10000):
        a = gamma_ - k * beta
        if a > 0.5:
            lenv = -k * lt - math.lgamma(a)
            scale = 1.0
        else:
            lenv = -k * lt + math.lgamma(1.0 - a) - math.log(math.pi)
            scale = _sinpi(a)  # 1/Gamma(a) = sin(pi a) Gamma(1 - a) / pi
        if lenv > 690.0 or math.exp(lenv) >= env:
            break
        env = math.exp(lenv)
        s += (-1.0) ** (k + 1) * scale * env
        if env < 1e-17 * abs(s):
            break
    if s == 0.0:
        return 0.0, math.inf
    return s, env / abs(s)


def _past_peak_arg(beta: float, z: float) -> float:
    """Terms grow while |z| / (k b + g)^b > 1, i.e. until the gamma
    argument passes |z|^(1/b).  Refuses when that takes more than
    _MAX_TERMS terms, which no sum here would reach."""
    if z != 0.0 and math.log(abs(z)) > beta * math.log(_MAX_TERMS * beta):
        raise MlAccuracyError(f"the series of E_beta at beta={beta}, z={z} peaks beyond "
                              f"{_MAX_TERMS} terms")
    return abs(z) ** (1.0 / beta) + 2.0


def _series_peak_log10(beta: float, gamma_: float, z: float) -> float:
    """log10 of the largest series term magnitude."""
    la = math.log(abs(z))
    thr = _past_peak_arg(beta, z)
    best = -math.lgamma(gamma_) / LN10
    k = 1
    while k < _MAX_TERMS:
        lt = (k * la - math.lgamma(k * beta + gamma_)) / LN10
        if lt > best:
            best = lt
        elif k * beta + gamma_ > thr:
            break
        k += 1
    return best


def _series_float(beta: float, gamma_: float, z: float) -> tuple[float, float]:
    """Double-precision series with compensated summation.

    Returns (sum, bound on its absolute error); the caller checks the bound
    against |sum|.  Each term counts |term| times its relative error:
    _GAMMA_ULPS for math.gamma plus one ulp each for the power and the
    division, and the effect of the gamma argument k*beta + gamma_, which is
    rounded twice in double: it moves by up to 2u a, which moves Gamma(a)
    by |psi(a)| 2u a, with |psi(a)| <= |log a| + 1/a.
    """
    s = 0.0
    c = 0.0
    err = 0.0
    peak = 0.0
    arg = gamma_
    term = 1.0 / math.gamma(gamma_)
    thr = _past_peak_arg(beta, z)
    k = 0
    while k < 200000:
        y = term - c
        tt = s + y
        c = (tt - s) - y
        s = tt
        a = abs(term)
        err += a * _ULP * (_GAMMA_ULPS + 2.0 + 2.0 * (arg * abs(math.log(arg)) + 1.0))
        if a > peak:
            peak = a
        k += 1
        arg = k * beta + gamma_
        if arg > 170.0:
            # gamma overflow region: remaining terms must already be noise
            la = k * math.log(abs(z)) - math.lgamma(arg)
            if la < math.log(max(abs(s), peak) * 1e-18 + 5e-324):
                break
            raise OverflowError("series tail not negligible in double precision")
        term = z ** k / math.gamma(arg)
        if abs(term) < 1e-17 * max(abs(s), 5e-324) and arg > thr:
            s += term
            break
    return s, err


def _series_mp(beta: float, gamma_: float, z: float, dps: int) -> float:
    """Extended-precision series at ``dps`` digits.  Rational beta = p/q
    (small q) takes the exact-integer lane recurrence; other orders sum
    with mpmath, one gamma call per term."""
    if dps > _MAX_DPS:
        raise MlAccuracyError(f"needed working precision {dps} digits exceeds cap")
    frac = Fraction(beta).limit_denominator(64)
    if float(frac) == float(beta) and frac.numerator >= 1:
        return _series_lanes(frac.numerator, frac.denominator, beta, gamma_, z, dps)
    import mpmath  # here, so that only the extended-precision sums load it
    thr = _past_peak_arg(beta, z)
    with mpmath.workdps(dps):
        zz = mpmath.mpf(z)
        b = mpmath.mpf(beta)
        tol = mpmath.mpf(10) ** (-dps - 5)
        floor_ = mpmath.mpf(10) ** (-dps - 30)
        s = mpmath.mpf(0)
        term = 1 / mpmath.gamma(gamma_)
        power = mpmath.mpf(1)
        k = 0
        while k < _MAX_TERMS:
            s += term
            k += 1
            power *= zz
            # in working precision: a k*beta rounded to double shifts every
            # term by ~1e-16, which the cancellation amplifies
            arg = k * b + gamma_
            term = power / mpmath.gamma(arg)
            if arg > thr and abs(term) < tol * max(abs(s), floor_):
                return float(s + term)
        raise MlAccuracyError("extended-precision series did not converge")


def _series_lanes(p: int, q: int, beta: float, gamma_: float, z: float, dps: int) -> float:
    """Series for beta = p/q summed in q lanes k = l, l+q, l+2q, ...

    Advancing a lane by q indices raises the gamma argument a by exactly p,
    so the term is multiplied by z^q / [a (a+1) ... (a+p-1)], an exact ratio
    of integers since z and gamma_ are binary fractions.  Term magnitudes are
    held as integers m ~ |term| 2^bits, so each step is one big-int multiply
    and one floor-divide; only the q starting terms come from mpmath.

    Each step adds at most one unit of 2^-bits.  Terms grow from the first,
    1/Gamma(gamma_), up to the peak, so with bits the mpmath precision at
    ``dps`` digits plus log2 Gamma(gamma_) (when positive) every term keeps
    the accuracy a ``dps``-digit sum would give it relative to the peak.
    Stops past the peak once every lane term is below 10^-(dps+5) of the sum
    (a zero sum waits for every term to be zero)."""
    import mpmath
    thr = _past_peak_arg(beta, z)
    g, zf = Fraction(gamma_), Fraction(z)
    den_a = q * g.denominator                         # a_l = A_l / den_a
    A = [l * p * g.denominator + q * g.numerator for l in range(q)]
    num = abs(zf.numerator) ** q * den_a ** p
    den_z = zf.denominator ** q
    with mpmath.workdps(dps):
        bits = mpmath.mp.prec + max(0, math.ceil(math.lgamma(gamma_) / math.log(2.0)))
        az = abs(mpmath.mpf(z))
        mags = [int(mpmath.ldexp(az ** l / mpmath.gamma(mpmath.mpf(A[l]) / den_a), bits))
                for l in range(q)]
    neg = z < 0.0
    tol = 10 ** (dps + 5)
    s = 0
    k = 0
    while k < _MAX_TERMS:
        for l in range(q):
            m = mags[l]
            s += -m if neg and (k + l) & 1 else m
            a = A[l]
            den = den_z
            for i in range(p):
                den *= a + i * den_a
            mags[l] = m * num // den
            A[l] = a + p * den_a
        k += q
        if k * beta + gamma_ > thr and max(mags) * tol < max(abs(s), 1):
            for l in range(q):
                s += -mags[l] if neg and (k + l) & 1 else mags[l]
            return s / (1 << bits)
    raise MlAccuracyError("extended-precision series did not converge")


def _series_certified(beta: float, gamma_: float, z: float) -> float:
    """Series value accurate to ~1e-13 relative: double precision when the
    peak term allows, extended precision otherwise.

    The extended-precision sum carries peak/|result| in digits of
    cancellation, plus _CERT_DIGITS for the target and the rounding growth
    over up to _MAX_TERMS terms.  |result| is only known afterwards, so the
    first pass runs at peak + 30 digits and is re-widened only when the
    computed value turns out small enough to have eaten into that margin
    (e.g. E_{1,1}(-t) decays exponentially while the peak grows)."""
    plog = _series_peak_log10(beta, gamma_, z)
    if plog < _FLOAT_PEAK_LOG10:
        try:
            s, err = _series_float(beta, gamma_, z)
        except OverflowError:
            pass
        else:
            if err <= _TARGET_RTOL * abs(s):
                return s
    dps = int(max(plog, 0.0)) + 30
    for _ in range(4):
        val = _series_mp(beta, gamma_, z, dps)
        deficit = -math.log10(abs(val)) if 0.0 < abs(val) < 1.0 else 0.0
        lost = max(plog, 0.0) + deficit
        if abs(val) > 0.0 and dps - lost >= _CERT_DIGITS:
            return val
        dps = max(int(lost) + 30, dps + 50) + 10
    raise MlAccuracyError(
        f"series precision did not stabilize for beta={beta}, gamma={gamma_}, z={z}")


def _ml_certified(beta: float, gamma_: float, z: float) -> float:
    """The certified oracle: asymptotic expansion past Z0, series below."""
    if z == 0.0:
        return 1.0 / math.gamma(gamma_)
    if -z > crossover_z0(beta):
        val, est = _asymptotic(beta, gamma_, z)
        if est <= _TARGET_RTOL:
            return val
        # accuracy unreachable on the asymptotic side (narrow band above Z0,
        # or degenerate expansion near beta = 1): widen-precision series
    return _series_certified(beta, gamma_, z)


# -- double-precision quadrature (0 < beta < 1, gamma in {1, 1 + beta}) -------

_ENVELOPE_DROP = 40.0   # nodes whose integrand envelope is e^-40 below its peak are dropped
_CUTOFF = 4.0           # E_b: exp(-r s) < 2e-24 past r s = e^4
_STEP_DIVISOR = 42.0    # step 2 pi d / 42 in log r for an analyticity strip of half-width d
_ROW_QUANTUM = 32       # windows are padded to a multiple of this many nodes
_BLOCK = 1 << 13        # elements in one (z x node) temporary, 64 KB
_MAX_NODES = 1 << 18    # widest window the quadrature accepts for an order
_X_FLOOR = 1e-270       # E(-x) = E(-_X_FLOOR) in double precision for x below it
_LN2_HI = 6.93147180369123816490e-01   # 32 significant bits: e * _LN2_HI is exact
_LN2_LO = 1.90821492927058770002e-10


def _density(y: np.ndarray, sigma: float) -> np.ndarray:
    """K_b(r) dr / dy at y = b log r, up to the factor sin(pi b) / (pi b):
    with w = e^-|y| (the density is even in y),
    w / (w^2 + 2 w cos(pi b) + 1) = w / ((1 - w)^2 + 4 w sigma),
    where 1 - w = -expm1(-|y|) keeps its digits near y = 0 and w underflows
    gracefully in the far tails."""
    a = -np.abs(y)
    w = np.exp(a)
    d = np.expm1(a, out=a)
    d *= d
    d += 4.0 * sigma * w
    return np.divide(w, d, out=w)


def _windows(beta: float, one: bool, lx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node window [lo, hi] in y = b log r for each lx = log x.

    With log(r s) = (y + lx) / b, the log of the integrand is bounded by a
    concave piecewise-linear envelope: -|y| from the density, plus 0 below
    y = -lx (E_b, cut off at r s = e^_CUTOFF) or min((y + lx) / b, 0)
    (E_{b,1+b}).  The window is where the envelope lies within
    _ENVELOPE_DROP of its peak; for a minimum of lines that is an
    intersection of half-lines."""
    if one:
        t = np.minimum(0.0, -lx) - _ENVELOPE_DROP
        return t, np.minimum(-t, beta * _CUTOFF - lx)
    t = np.minimum(0.0, lx) - _ENVELOPE_DROP
    a = beta * t - lx
    return np.maximum(np.maximum(a / (1.0 - beta), a / (1.0 + beta)), t), -t


def _quadrature(beta: float, gamma_: float):
    """(step, sigma, normalising sum) of the rule for these orders, or None
    outside its domain: 0 < b < 1, gamma in {1, 1 + b}, and no window wider
    than _MAX_NODES nodes, which leaves out b within ~1e-3 of 0 and 1 (see
    the module docstring).

    The step follows the strip where the integrand is analytic in log r:
    the density has poles at Im log r = pi (1 - b) / b, and exp(-r s) grows
    past Im log r = pi / 2."""
    if not 0.0 < beta < 1.0 or gamma_ not in (1.0, 1.0 + beta):
        return None
    eta = 2.0 * math.pi * min(0.5 * math.pi * beta, math.pi * (1.0 - beta)) / _STEP_DIVISOR
    lo, hi = _windows(beta, gamma_ == 1.0, np.array([math.log(_X_FLOOR), 0.0]))
    if np.max(hi - lo) / eta > _MAX_NODES:
        return None
    # 1 + cos(pi b) = 2 sigma, formed from 1 - b so that it keeps its digits
    # as b -> 1
    sigma = math.sin(0.5 * math.pi * (1.0 - beta)) ** 2
    J = math.ceil(_ENVELOPE_DROP / eta)
    return eta, sigma, float(np.sum(_density(np.arange(-J, J + 1) * eta, sigma)))


def _lattice(j0: np.ndarray, width: np.ndarray, eta: float, sigma: float):
    """Tables of y = j eta and _density(y, sigma) over every lattice index j
    that some window [j0, j0 + width) covers, and each window's offset into
    them.  The covered indices form disjoint runs of consecutive j, stored
    one after another, so a window reads `width` consecutive entries and the
    tables never outgrow the windows' total width."""
    order = np.argsort(j0, kind="stable")
    lo = j0[order]
    reach = np.maximum.accumulate(lo + width[order])
    first = np.flatnonzero(np.r_[True, lo[1:] > reach[:-1]])
    run_len = reach[np.r_[first[1:], lo.size] - 1] - lo[first]
    # lattice index j of a run sits at table position j + shift
    shift = np.cumsum(run_len) - run_len - lo[first]
    off = np.empty_like(j0)
    off[order] = lo + np.repeat(shift, np.diff(np.r_[first, lo.size]))
    y = (np.arange(run_len.sum()) - np.repeat(shift, run_len)) * eta
    return y, _density(y, sigma), off


def _ml_quadrature(beta: float, gamma_: float, rule, x: np.ndarray) -> np.ndarray:
    """E_{b,gamma}(-x) for x > 0 (x not empty): the integrals of the module
    docstring by the trapezoid rule in y = b log r.  Nodes sit on the lattice
    y = j eta; each x keeps its own window of it (`_windows`), and the sum is
    divided by the lattice sum of K over its whole window, which is 1 in
    exact arithmetic, so the constant factors cancel.

    A node's y and its density depend only on j, so they are tabulated once
    per call over the indices the windows cover (`_lattice`), and each row
    reads its window from the tables.  What is left per (x, node) pair is
    r s = exp((y + log x) / b), with log x carried in two parts so that it
    keeps its digits at any |log x|, then exp(-r s) (or -expm1(-r s) for
    gamma = 1 + b), the product with the density and the row sum.  Windows
    of equal width run together in blocks of _BLOCK elements; a value
    depends only on its own x, so an array gives the same bits as scalar
    calls."""
    eta, sigma, norm = rule
    one = gamma_ == 1.0
    x = np.maximum(x, _X_FLOOR)
    m, e = np.frexp(x)
    lx_hi = e * _LN2_HI
    lx_lo = e * _LN2_LO + np.log(m)
    lo, hi = _windows(beta, one, lx_hi + lx_lo)
    j0 = np.floor(lo / eta)
    # node counts, padded to a multiple of _ROW_QUANTUM
    width = (np.ceil(hi / eta) - j0 + _ROW_QUANTUM).astype(np.int64) // _ROW_QUANTUM
    width *= _ROW_QUANTUM
    y, dens, off = _lattice(j0.astype(np.int64), width, eta, sigma)
    out = np.empty_like(x)
    for w in sorted(set(width.tolist())):
        idx = np.flatnonzero(width == w)
        ys = sliding_window_view(y, w)
        ds = sliding_window_view(dens, w)
        step = max(1, _BLOCK // w)
        for i in range(0, idx.size, step):
            sel = idx[i:i + step]
            rows = off[sel]
            k = ys[rows]
            k += lx_hi[sel, None]
            k += lx_lo[sel, None]
            k /= beta
            with np.errstate(over="ignore"):
                np.exp(k, out=k)
            if one:
                np.exp(np.negative(k, out=k), out=k)
            else:
                np.negative(np.expm1(np.negative(k, out=k), out=k), out=k)
            k *= ds[rows]
            out[sel] = k.sum(axis=1)
    out /= norm
    return out if one else out / x


def ml(beta: float, gamma_: float, z):
    """E_{beta,gamma}(z) for z <= 0, accurate to ~1e-13 relative.

    z may be a float (a float is returned) or an array (an array of the same
    shape).  Inside the quadrature's domain (`_quadrature`) this runs in
    double precision; other orders go point by point to the certified
    series/asymptotic oracle."""
    if beta <= 0.0 or gamma_ <= 0.0:
        raise ValueError(f"orders must be positive, got beta={beta}, gamma={gamma_}")
    beta, gamma_ = float(beta), float(gamma_)
    za = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(za) & (za <= 0.0)):
        raise ValueError(f"only the finite closed negative axis is supported, got z={z}")
    x = -za.ravel()
    rule = _quadrature(beta, gamma_)
    if rule is None:
        out = np.array([_ml_certified(beta, gamma_, -xi) for xi in x.tolist()])
    else:
        out = np.full_like(x, 1.0 / math.gamma(gamma_))
        nz = np.flatnonzero(x)
        if nz.size:
            out[nz] = _ml_quadrature(beta, gamma_, rule, x[nz])
    return float(out[0]) if za.ndim == 0 else out.reshape(za.shape)


# -- spectral solutions ------------------------------------------------------


@dataclass(frozen=True)
class SpectralSolution:
    """Eigen-expansion of an exact solution on (0,1): modes are
    (k, lambda_k=(k pi)^2, <v, phi_k>) with phi_k = sqrt(2) sin(k pi x).

    flavor "homogeneous": the response to the initial datum v,
        sum_k E_{a,1}(-lambda_k t^a) <v,phi_k> phi_k;
    flavor "constant_source": the response to the time-frozen source v,
        t^a sum_k E_{a,1+a}(-lambda_k t^a) <v,phi_k> phi_k.
    """

    alpha: float
    flavor: str
    modes: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        if self.flavor not in ("homogeneous", "constant_source"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        ks = [k for k, _, _ in self.modes]
        lams = [lam for _, lam, _ in self.modes]
        if any(k < 1 for k in ks) or len(set(ks)) != len(ks):
            raise ValueError("mode indices must be distinct and >= 1")
        if any(l <= 0 for l in lams) or list(lams) != sorted(lams):
            raise ValueError("eigenvalues must be positive increasing")

    @classmethod
    def from_sine_combo(cls, terms, alpha: float, flavor: str) -> "SpectralSolution":
        """Build from sum_j c_j sin(k_j pi x); <c sin(k pi x), phi_k> = c/sqrt(2)."""
        modes = tuple((int(k), (k * math.pi) ** 2, c / math.sqrt(2.0)) for k, c in sorted(terms))
        return cls(alpha=float(alpha), flavor=flavor, modes=modes)


def spectral_state(sol: SpectralSolution, t, x: np.ndarray) -> np.ndarray:
    """Evaluate the exact solution at the time(s) t on the given abscissae;
    the result has shape t.shape + x.shape."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError(f"times must be nonnegative, got {t}")
    return _mode_sum(*_time_factors(sol, t), np.asarray(x, dtype=float))


def _time_factors(sol: SpectralSolution, t: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The modes k with a nonzero coefficient and their time factors a_k(t),
    stacked on a leading axis, where the solution is sum_k a_k(t) phi_k;
    one `ml` call per mode for all the times t >= 0.  A factor depends only
    on its own t, so a slice of the factors has the bits of the factors of
    the sliced times."""
    ta = t ** sol.alpha
    modes, amps = [], []
    for k, lam, coef in sol.modes:
        if coef == 0.0:
            continue
        if sol.flavor == "homogeneous":
            amp = ml(sol.alpha, 1.0, -lam * ta) * coef
        else:
            amp = ta * ml(sol.alpha, 1.0 + sol.alpha, -lam * ta) * coef
        modes.append(k)
        amps.append(amp)
    return modes, np.array(amps).reshape(len(modes), *t.shape)


def _mode_sum(modes: list[int], amps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k a_k phi_k(x) over the modes and factors of `_time_factors`; the
    result has shape amps.shape[1:] + x.shape."""
    out = np.zeros(amps.shape[1:] + x.shape)
    for k, amp in zip(modes, amps):
        out += np.multiply.outer(amp, math.sqrt(2.0) * np.sin(k * math.pi * x))
    return out
