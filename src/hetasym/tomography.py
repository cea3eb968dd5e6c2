"""Maximum-likelihood state reconstruction from phase-tagged quadrature
samples, Wigner-function evaluation, and fidelity against coherent states.

Everything here uses the internal convention: vacuum quadrature variance
1/2, so the vacuum Wigner function peaks at 1/pi.  Traces are in SNU
(vacuum variance 1); samples_from_trace divides them by SNU_TO_INTERNAL =
sqrt(2) on ingestion, the only place the two conventions meet.

The reconstruction solves the fixed point rho = N[R rho R] with
R = (1/n) sum_i Pi_i / Tr(rho Pi_i), where Pi_i is the rank-1 projector
onto the quadrature eigenstate |x_i, theta_i>.  Anderson extrapolation
accelerates the iteration, every accepted step strictly raises the
per-sample log-likelihood, and lambda_max(R) - 1, an upper bound on the
log-likelihood still to gain, certifies the result.

As in hetasym.traces, the types that hold arrays compare and hash by
identity.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import NumericalDomainError, ValidationError, integer_at_least, positive
from .traces import QuadratureTrace, _circular_gaps, _distinct, readonly_float_array

#: Divisor taking SNU quadratures (vacuum variance 1) to the internal
#: convention (vacuum variance 1/2).
SNU_TO_INTERNAL = math.sqrt(2.0)

#: Largest |x| whose square is finite in float64; quadrature_projector
#: rejects larger quadratures, which would read as floored probabilities.
MAX_QUADRATURE = math.sqrt(sys.float_info.max)

#: Largest |x| that PhaseTaggedSamples accepts.  The grouped MLE engine
#: squares sqrt(2) x, so this one bound serves both engines.
_MAX_SAMPLE = MAX_QUADRATURE / math.sqrt(2.0)

#: Largest |tag| (radians) that PhaseTaggedSamples accepts: from 2**53 on,
#: neighbouring float64 values are 2 rad or more apart, so a tag names no
#: phase, and k tag (k < dim) stays finite in the MLE engines below it.
_MAX_TAG = 2.0 ** 53

#: Probabilities are floored here before the likelihood ratio to avoid
#: division underflow; floored samples are counted as a diagnostic.
PROBABILITY_FLOOR = 1e-300

_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIGENVALUE_TOL = 1e-10
_WIGNER_BOUND_TOL = 1e-6
#: Most Wigner grid points: `hetasym tomography` at 1,000 x 1,000 and dim 25 takes 3 s, 380 MiB.
_MAX_WIGNER_POINTS = 10**6
#: Tags closer than this modulo pi (radians) count as one quadrature.
_SAME_QUADRATURE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Fock-truncated density matrix: Hermitian, unit trace, PSD (all up to
    small numerical tolerances checked at construction).  The stored matrix
    is the Hermitian part of the input."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValidationError(f"density matrix must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise ValidationError("density matrix contains non-finite entries")
        # every entry of a state is at most its largest eigenvalue, 1, in modulus,
        # so a part beyond 2 fails the checks below; rejecting it first keeps
        # their differences and sums from overflowing
        if np.abs(mat.view(np.float64)).max() > 2.0:
            raise ValidationError("density matrix has an entry beyond 2 in real or imaginary "
                                  "part; a state's entries are at most 1 in modulus")
        if np.max(np.abs(mat - mat.conj().T)) > _HERMITICITY_TOL:
            raise ValidationError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(mat).real - 1.0) > _TRACE_TOL or abs(np.trace(mat).imag) > _TRACE_TOL:
            raise ValidationError("density matrix trace differs from 1 beyond tolerance")
        if np.linalg.eigvalsh(mat).min() < -_EIGENVALUE_TOL:
            raise ValidationError("density matrix has a negative eigenvalue beyond tolerance")
        # entries that already equal their conjugate partner keep their bits
        mat = np.where(mat == mat.conj().T, mat, 0.5 * (mat + mat.conj().T))
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class PhaseTaggedSamples:
    """Quadrature samples x (internal convention) tagged with the LO phase."""

    theta: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        theta = readonly_float_array(self.theta, "theta")
        x = readonly_float_array(self.x, "x")
        if theta.size != x.size:
            raise ValidationError(f"theta and x differ in length ({theta.size} vs {x.size})")
        if theta.size == 0:
            raise ValidationError("samples are empty")
        for value in (float(theta.min()), float(theta.max())):
            if abs(value) > _MAX_TAG:
                raise ValidationError(f"phase tag {value!r} rad is beyond 2**53 in magnitude, "
                                      "where float64 cannot resolve a phase")
        _check_quadratures(x, _MAX_SAMPLE, " as sqrt(2) x by the grouped MLE engine")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.theta.size


def _check_quadratures(x: np.ndarray, limit: float, how: str = "") -> None:
    """Raise ValidationError unless every |x| is at most limit."""
    # the extremes need no temporary array; initial=0.0 admits an empty x
    for value in (float(x.min(initial=0.0)), float(x.max(initial=0.0))):
        if abs(value) > limit:
            raise ValidationError(f"quadrature {value!r} overflows float64 when squared{how} "
                                  f"(|x| must be <= {limit!r})")


def _hermite_gauss_table(x: np.ndarray, dim: int) -> np.ndarray:
    """psi_n(x) for n < dim, vacuum variance 1/2, order first: shape
    (dim,) + x.shape, so every step of the recurrence writes contiguously.

    Upward recurrence psi_{n} = sqrt(2/n) x psi_{n-1} - sqrt((n-1)/n) psi_{n-2}
    starting from the Gaussian ground state keeps every value bounded, so no
    renormalization is needed at any order.  x * x must be finite, which
    the callers check where their input enters.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((dim,) + x.shape)
    out[0] = math.pi ** -0.25 * np.exp(-x * x / 2.0)
    if dim > 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(2, dim):
        out[n] = math.sqrt(2.0 / n) * x * out[n - 1] - math.sqrt((n - 1) / n) * out[n - 2]
    return out


def quadrature_projector(theta, x, dim: int) -> np.ndarray:
    """Fock components of the quadrature eigenstate |x, theta>:
    component n is psi_n(x) exp(-i n theta).

    Scalars give a (dim,) vector; equal-length arrays give (len, dim).
    """
    dim = integer_at_least("dim", dim, 1)
    theta_arr = np.asarray(theta, dtype=np.float64)
    x_arr = np.asarray(x, dtype=np.float64)
    for arr, name in ((theta_arr, "theta"), (x_arr, "x")):
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} contains non-finite values")
    _check_quadratures(x_arr, MAX_QUADRATURE)
    table = _hermite_gauss_table(x_arr, dim).astype(np.complex128)
    # e^{-i n theta} as powers of e^{-i theta}: one complex exp per sample
    # instead of dim, at a rounding error that grows only like n * eps
    step = np.exp(-1j * theta_arr)
    phase = step.copy()
    for n in range(1, dim):
        table[n] *= phase
        phase *= step
    return np.ascontiguousarray(np.moveaxis(table, 0, -1))


@dataclass(frozen=True, eq=False)
class MLEResult:
    """Reconstruction output plus convergence diagnostics."""

    rho: DensityMatrix
    converged: bool             # gap <= tol was certified at rho
    iterations: int
    log_likelihood: np.ndarray  # per-sample log-likelihood after each accepted iterate
    floored: int                # samples whose probability at rho hit the floor
    grouped: bool               # whether the grouped fast path was used
    gap: float                  # lambda_max(R) - 1 at rho (inf if any sample is floored)
    rank_one_steps: int         # accepted steps toward the top eigenvector of R


class _DenseEngine:
    """Per-sample complex projectors; works for arbitrary tag sets.

    The reductions over samples run on the real view of the projector table
    (real and imaginary parts interleaved), where numpy's kernels are several
    times faster than its complex ones.
    """

    def __init__(self, samples: PhaseTaggedSamples, dim: int):
        self.psi = quadrature_projector(samples.theta, samples.x, dim)
        self.dim = dim
        self.n = samples.n

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        # Re sum_j conj(psi_ij) v_ij is the real dot product of the real views
        v = self.psi @ rho.T
        return np.einsum("ij,ij->i", self.psi.view(np.float64), v.view(np.float64))

    def r_operator(self, probs: np.ndarray) -> np.ndarray:
        """R = (1/n) sum_i Pi_i / p_i."""
        # m[j, a, k, b] = sum_i part_a(psi_ij) part_b(psi_ik) / p_i, part 0 = Re, 1 = Im
        real = self.psi.view(np.float64)
        m = ((real / probs[:, None]).T @ real).reshape(self.dim, 2, self.dim, 2)
        r = (m[:, 0, :, 0] + m[:, 1, :, 1]) + 1j * (m[:, 1, :, 0] - m[:, 0, :, 1])
        return r / self.n

    def rank_one(self, vec: np.ndarray) -> np.ndarray:
        """Born probabilities of the pure state vec vec^dagger."""
        amp = self.psi @ vec.conj()
        return amp.real * amp.real + amp.imag * amp.imag


def _product_coefficients(dim: int) -> np.ndarray:
    """a[m, n, j] with psi_m(x) psi_n(x) = sum_j a[m, n, j] chi_j(x) exactly,
    for m, n < dim and j < 2 dim - 1, where chi_j(x) = 2^{1/4} psi_j(sqrt(2) x)
    are orthonormal.  Each product is e^{-x^2} times a polynomial of degree
    <= 2 dim - 2, which the chi_j span.

    a[m, n, j] is the overlap integral of psi_m psi_n chi_j, e^{-2 x^2} times
    a polynomial of degree <= 4 dim - 4, so the (2 dim - 1)-node Gauss-Hermite
    rule in u = sqrt(2) x gives it exactly.  The nodes are the eigenvalues of
    the Jacobi matrix of the Hermite recurrence (Golub & Welsch, Math. Comp.
    23, 221 (1969)); each weight times e^{u^2} is 1 / sum_j psi_j(u)^2, which
    the bounded Hermite-Gauss table gives without overflow.
    """
    nodes = 2 * dim - 1
    off = np.sqrt(np.arange(1, nodes) / 2.0)
    u = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    chi = _hermite_gauss_table(u, nodes)
    weights = 1.0 / np.einsum("jk,jk->k", chi, chi)
    psi = _hermite_gauss_table(u / math.sqrt(2.0), dim)
    pairs = (psi[:, None, :] * psi[None, :, :]).reshape(dim * dim, nodes)
    return 2.0 ** -0.25 * (pairs @ (weights * chi).T).reshape(dim, dim, nodes)


class _GroupedEngine:
    """Product-basis path for samples sharing repeated phase tags.

    For a tag t the Born probability of a sample x is
    sum_mn psi_m(x) psi_n(x) Re(rho_mn e^{i t (m - n)}).  Writing each
    product psi_m psi_n in the 2 dim - 1 functions chi_j (see
    _product_coefficients) turns it into p = sum_j chi_j(x) c_t[j], and the
    per-tag sums of R into mu_t[j] = sum_i chi_j(x_i) / p_i, so the work per
    sample is O(dim), not O(dim^2).  Both c_t and R come from the diagonals
    k = m - n of rho, rotated by the tables cos(k t) and sin(k t).  Groups
    are bucketed by size so each bucket runs as one batched matmul;
    probabilities come back in engine-internal (bucket-major) order, which
    the iteration treats as a bag, so no scatter-back is needed.  tags and
    counts are np.unique(samples.theta, return_counts=True).
    """

    def __init__(self, samples: PhaseTaggedSamples, dim: int, tags, counts):
        xs_sorted = samples.x[np.argsort(samples.theta, kind="stable")]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        self.buckets = []
        for size in _distinct(counts):
            group_ids = np.flatnonzero(counts == size)
            xs = np.stack([xs_sorted[offsets[g]:offsets[g] + size] for g in group_ids])
            chi = _hermite_gauss_table(math.sqrt(2.0) * xs, 2 * dim - 1)
            chi *= 2.0 ** 0.25  # chi_j(x) = 2^{1/4} psi_j(sqrt(2) x)
            # a (groups, 2 dim - 1, size) view, one BLAS-ready matrix per group
            self.buckets.append((group_ids, chi.transpose(1, 0, 2)))
        angle = np.multiply.outer(tags, np.arange(dim))
        self.rotation = np.hstack([np.cos(angle), -np.sin(angle)])  # Re and Im weights
        # element [k, n] of diagonal k is (n + k, n); entries past the corner
        # are masked out
        rows = np.arange(dim)[None, :] + np.arange(dim)[:, None]
        self.valid = rows < dim
        cols = np.broadcast_to(np.arange(dim), (dim, dim))[self.valid]
        self.lower = rows[self.valid] * dim + cols
        self.upper = cols * dim + rows[self.valid]
        coef = np.zeros((dim, dim, 2 * dim - 1))
        coef[self.valid] = _product_coefficients(dim)[rows[self.valid], cols]
        self.coef = coef
        self.dim = dim
        self.n = samples.n

    def _tag_coefficients(self, rho: np.ndarray) -> np.ndarray:
        """c_t[j] for every tag, from the Hermitian part of rho."""
        # diagonal k of rho plus the conjugate of diagonal -k, the main
        # diagonal counted once
        flat = rho.ravel()
        diags = np.zeros((self.dim, self.dim), dtype=np.complex128)
        diags[self.valid] = flat[self.lower] + flat[self.upper].conj()
        diags[0] *= 0.5
        parts = np.matmul(np.stack([diags.real, diags.imag], axis=1), self.coef)
        return self.rotation @ parts.transpose(1, 0, 2).reshape(2 * self.dim, -1)

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        coefs = self._tag_coefficients(rho)
        return np.concatenate([np.matmul(coefs[ids, None, :], chi).ravel()
                               for ids, chi in self.buckets])

    def r_operator(self, probs: np.ndarray) -> np.ndarray:
        """R = (1/n) sum_i Pi_i / p_i, probs in engine-internal order."""
        mu = np.empty((self.rotation.shape[0], 2 * self.dim - 1))
        inverse = 1.0 / probs
        start = 0
        for ids, chi in self.buckets:
            stop = start + chi.shape[0] * chi.shape[2]
            weights = inverse[start:stop].reshape(chi.shape[0], chi.shape[2], 1)
            mu[ids] = np.matmul(chi, weights)[:, :, 0]
            start = stop
        # diagonal k of R is sum_t e^{-i k t} mu_t through coef
        nu = (self.rotation.T @ mu).reshape(2, self.dim, -1).transpose(1, 2, 0)
        diags = np.matmul(self.coef, nu)[self.valid] / self.n
        r = np.empty(self.dim * self.dim, dtype=np.complex128)
        r[self.lower] = diags[:, 0] + 1j * diags[:, 1]
        r[self.upper] = diags[:, 0] - 1j * diags[:, 1]
        return r.reshape(self.dim, self.dim)

    def rank_one(self, vec: np.ndarray) -> np.ndarray:
        """Born probabilities of the pure state vec vec^dagger, engine order;
        clipped at 0, which rounding in the product basis can undercut."""
        return np.maximum(self.probabilities(np.outer(vec, vec.conj())), 0.0)


def _make_engine(samples: PhaseTaggedSamples, dim: int):
    """The MLE engine for samples at dim.  Warns when the tags name fewer than dim
    quadratures modulo pi (x at theta + pi is -x at theta; one starts at each circular
    gap above _SAME_QUADRATURE_TOL): only from dim on do the quadrature distributions
    fix a state of dim Fock levels (Leonhardt & Munroe, Phys. Rev. A 54, 3682 (1996))."""
    tags, counts = np.unique(samples.theta, return_counts=True)
    quadratures = int(np.count_nonzero(_circular_gaps(tags, math.pi) > _SAME_QUADRATURE_TOL))
    if quadratures < dim:
        warnings.warn(f"phase tags measure {quadratures} distinct quadratures modulo pi, fewer "
                      f"than dim = {dim}: the reconstruction is not informationally complete",
                      stacklevel=3)
    # Grouping pays once tags repeat a few times.  Grouped / dense time of
    # the whole reconstruction (engine build included, tol 1e-10, both
    # engines taking the same 5-267 iterations), range over two passes on a
    # 2-core host, tags repeated uniformly:
    #   repeats per tag           2          3          4          8         32
    #   n = 2e4, dim 15       0.34-3.06  0.72-0.91  0.62-0.72  0.53-0.55  0.35-0.43
    #            dim 20       1.10-1.18  0.68-0.77  0.36-0.60  0.40-0.46  0.27-0.30
    #            dim 25       0.88-1.04  0.70-0.78  0.58-0.61  0.39-0.45  0.32-0.33
    #   n = 1e5, dim 15       1.26-1.45  0.70-0.79  0.68-0.71  0.32-0.43  0.28-0.29
    #            dim 20       1.01-1.03  0.71-0.80  0.57-0.68  0.29-0.39  0.21-0.23
    #            dim 25       0.92-0.98  0.55-0.72  0.49-0.51  0.34-0.35  0.17-0.17
    # The grouped engine wins from 3 repeats at every dim, up to the 33,333
    # tags of n = 1e5, so the tag count needs no cap: its tables grow like
    # tags x dim, below the samples x (2 dim - 1) table.
    if tags.size * 3 <= samples.n:
        return _GroupedEngine(samples, dim, tags, counts)
    return _DenseEngine(samples, dim)


class _Anderson:
    """Anderson extrapolation of a fixed point x = g(x) over the last `depth`
    differences of iterates and images (Walker & Ni, SIAM J. Numer. Anal.
    49, 1715 (2011)), on the real view of complex matrices."""

    def __init__(self, depth: int):
        self.depth = depth
        self.xs: list[np.ndarray] = []
        self.gs: list[np.ndarray] = []

    def restart(self):
        """Drop every pair but the latest."""
        del self.xs[:-1], self.gs[:-1]

    def propose(self, x: np.ndarray, image: np.ndarray):
        """Record the pair (x, g(x)); the extrapolated matrix, or None while
        the history holds a single pair."""
        self.xs.append(x.view(np.float64).ravel())
        self.gs.append(image.view(np.float64).ravel())
        if len(self.xs) > self.depth + 1:
            del self.xs[0], self.gs[0]
        if len(self.xs) < 2:
            return None
        xs, gs = np.array(self.xs), np.array(self.gs)
        fs = gs - xs
        gamma = np.linalg.lstsq(np.diff(fs, axis=0).T, fs[-1], rcond=None)[0]
        return (gs[-1] - gamma @ np.diff(gs, axis=0)).view(np.complex128).reshape(x.shape)


#: Differences of iterates and images kept by the Anderson extrapolation.
_ANDERSON_DEPTH = 10


def _log_ratio_mean(probs: np.ndarray, new_probs: np.ndarray, change: np.ndarray,
                    growth: float) -> float:
    """mean_i log(q_i / p_i) for q = (p + change) / (1 + growth), computed
    from the change itself so that gains far below the rounding of the
    log-likelihood stay resolved.  Floored samples compare floored values."""
    with np.errstate(divide="ignore", invalid="ignore"):  # low terms are replaced below
        terms = np.log1p(change / np.maximum(probs, PROBABILITY_FLOOR)) - math.log1p(growth)
    low = (probs < PROBABILITY_FLOOR) | (new_probs < PROBABILITY_FLOOR)
    if low.any():
        terms[low] = (np.log(np.maximum(new_probs[low], PROBABILITY_FLOOR))
                      - np.log(np.maximum(probs[low], PROBABILITY_FLOOR)))
    return float(terms.mean())


#: Likelihood ratios q / p above this are capped in the rank-one search,
#: so that no power of them overflows.
_RATIO_CAP = 1e100

#: Newton passes allowed to the rank-one line search; it needs a handful.
_SEARCH_PASSES = 40


def _rank_one_search(d: np.ndarray) -> float:
    """argmax over [0, 1] of the concave f(t) = mean log1p(t d), d >= -1.

    When every d > -1 and f'(1) = mean d / (1 + d) >= 0, f peaks at t = 1.
    Otherwise Newton steps on f' from t = 0, kept inside the bracket
    [lo, hi] of its sign change, converge in a few O(n) passes; a step that
    leaves the bracket or is longer than the move before it is replaced by
    bisection, and the search stops once a move is at most 1e-10 t.
    """
    if d.min() > -1.0 and float((d / (1.0 + d)).sum()) >= 0.0:
        return 1.0
    n = d.size
    lo, hi, t = 0.0, 1.0, 0.0
    # f'(t) and -f''(t); einsum rather than a BLAS dot, whose threads cost
    # far more than these O(n) sums on a busy host
    slope, curv = float(d.sum()) / n, float(np.einsum("i,i->", d, d)) / n
    last_move = math.inf
    for _ in range(_SEARCH_PASSES):
        if slope == 0.0:
            return t
        if slope > 0.0:
            lo = t
        else:
            hi = t
        # curv >= slope^2 > 0 unless it underflows
        step = slope / curv if curv else math.copysign(math.inf, slope)
        new = t + step
        if not (lo < new < hi and abs(step) <= last_move):
            new = 0.5 * (lo + hi)
        if abs(new - t) <= 1e-10 * t:
            return new
        last_move = abs(new - t)
        t = new
        w = d / (1.0 + t * d)
        slope, curv = float(w.sum()) / n, float(np.einsum("i,i->", w, w)) / n
    return t


def _mle_reconstruct(samples: PhaseTaggedSamples, dim: int, max_iter: int = RunConfig.max_iter,
                     tol: float = RunConfig.tol) -> MLEResult:
    """Certified maximum-likelihood reconstruction.

    Starts from the maximally mixed state I/dim.  Every iterate rho is
    certified by R = (1/n) sum_i Pi_i / p_i: no state has a per-sample
    log-likelihood more than log lambda_max(R) <= lambda_max(R) - 1 above
    rho's (Glancy, Knill & Girard, NJP 14, 095017 (2012)), so the loop stops
    with converged=True once lambda_max(R) - 1 <= tol.  Otherwise it steps to
    the candidate that raises the likelihood most, of:

    1. the Anderson extrapolation of the R rho R fixed point, or, when that
       does not strictly raise the likelihood, the R rho R image itself
       (history restarted);
    2. the rank-one (Frank-Wolfe) step (1 - t) rho + t v v^dagger toward the
       top eigenvector v of R, with t from an exact line search (Frank &
       Wolfe, Naval Res. Logist. Q. 3, 95 (1956)).  Its slope at t = 0 is
       lambda_max(R) - 1, so it raises the likelihood whenever rho is not
       yet certified.  It is offered whenever candidate 1 fails, and
       otherwise at every iteration while it wins; after its j-th loss in a
       row it waits j iterations.

    The iterate is kept as a factor A with rho = A A^dagger / |A|^2, so
    R rho R is A -> R A, every candidate is a density matrix, and rounding
    in A moves the likelihood only at second order; likelihood gains are
    computed from the change of the Born probabilities, so they stay
    resolved near the optimum.  The recorded log-likelihood trajectory
    therefore rises strictly.  After a rank-one step A is a square root of
    the mixture turned toward the old A, so the Anderson history stays
    usable; a step with t >= 1/2 replaces most of the state and clears it.

    The result has converged=False after max_iter accepted steps, or when
    no candidate raised the likelihood.
    A sample whose probability hits PROBABILITY_FLOOR leaves the bound
    invalid, so such a state is never certified and reports gap = inf.
    """
    dim = integer_at_least("dim", dim, 1)
    max_iter = integer_at_least("max_iter", max_iter, 0)
    positive("tol", tol)

    engine = _make_engine(samples, dim)

    def certificate(probs):
        """(R, lambda_max(R), gap, top eigenvector of R) at the state with
        these Born probabilities."""
        r = engine.r_operator(np.maximum(probs, PROBABILITY_FLOOR))
        r = 0.5 * (r + r.conj().T)
        lams, vecs = np.linalg.eigh(r)
        lam_max = float(lams[-1])
        floored = bool((probs < PROBABILITY_FLOOR).any())
        return r, lam_max, math.inf if floored else lam_max - 1.0, vecs[:, -1]

    def rises(step):
        """(factor, probs, gain) of A + step, normalized, if it strictly
        raises the likelihood, else None."""
        new = factor + step
        # new new^+ - A A^+; the engines read only its Hermitian part
        change_op = step @ new.conj().T + factor @ step.conj().T
        growth = float(np.trace(change_op).real)
        change = engine.probabilities(change_op)
        new_probs = (probs + change) / (1.0 + growth)
        gain = _log_ratio_mean(probs, new_probs, change, growth)
        if gain > 0.0:
            return new / math.sqrt(1.0 + growth), new_probs, gain
        return None

    def rank_one(vec, bar):
        """(factor, probs, gain, t) of (1 - t) rho + t vec vec^+ at the best
        t, if it raises the likelihood by more than bar, else None."""
        q = engine.rank_one(vec)
        # where the cap bites (a sample the state all but excludes) the
        # search maximizes a lower bound of f; the gain below is exact
        d = np.minimum(q / np.maximum(probs, PROBABILITY_FLOOR), _RATIO_CAP) - 1.0
        t = _rank_one_search(d)
        change = t * (q - probs)
        new_probs = probs + change
        gain = _log_ratio_mean(probs, new_probs, change, 0.0)
        if not gain > bar:
            return None
        # the QR of B^+ = [sqrt(1 - t) A, sqrt(t) vec]^+ gives R^+ R = B B^+,
        # the mixture; the unitary nearest to R^+ A then turns R^+ toward A
        # (orthogonal Procrustes)
        stacked = np.hstack([math.sqrt(1.0 - t) * factor, math.sqrt(t) * vec[:, None]])
        new = np.linalg.qr(stacked.conj().T, mode="r").conj().T
        u, _, vh = np.linalg.svd(new.conj().T @ factor)
        return new @ (u @ vh), new_probs, gain, t

    factor = np.eye(dim, dtype=np.complex128) / math.sqrt(dim)  # unit Frobenius norm
    probs = engine.probabilities(factor @ factor.conj().T)
    history = [float(np.log(np.maximum(probs, PROBABILITY_FLOOR)).mean())]
    anderson = _Anderson(_ANDERSON_DEPTH)
    certified = False
    rank_one_steps = 0
    losses = 0  # rank-one candidates in a row that did not win
    next_offer = 0
    while True:
        r, lam_max, gap, top = certificate(probs)
        if gap <= tol:
            certified = True
            break
        iteration = len(history) - 1
        if iteration >= max_iter or lam_max == 0.0:  # R = 0: every sample underflowed
            break

        image = r @ factor  # R rho R in factor form
        unit = image / np.linalg.norm(image)
        proposal = anderson.propose(factor, unit)
        step = None
        if proposal is not None:
            step = rises(proposal / np.linalg.norm(proposal) - factor)
        if step is None:
            anderson.restart()
            step = rises(unit - factor)
        if step is None or iteration >= next_offer:
            mixed = rank_one(top, 0.0 if step is None else step[2])
            losses = 0 if mixed is not None else losses + 1
            next_offer = iteration + losses
            if mixed is not None:
                step, t = mixed[:3], mixed[3]
                rank_one_steps += 1
                if t >= 0.5:
                    anderson = _Anderson(_ANDERSON_DEPTH)
        if step is None:
            break
        factor, probs, gain = step
        history.append(history[-1] + gain)

    # certify the matrix actually returned, not just its factor
    rho = factor @ factor.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    probs = engine.probabilities(rho)
    gap = certificate(probs)[2]
    return MLEResult(
        rho=DensityMatrix(rho),
        converged=certified and gap <= tol,
        iterations=len(history) - 1,
        log_likelihood=np.asarray(history),
        floored=int((probs < PROBABILITY_FLOOR).sum()),
        grouped=isinstance(engine, _GroupedEngine),
        gap=gap,
        rank_one_steps=rank_one_steps,
    )


def _ideal_coherent_state(alpha: complex, dim: int) -> DensityMatrix:
    """Pure coherent state |alpha><alpha| truncated to dim >= 1 Fock levels and
    renormalized.  Rejects cutoffs that drop more than 1e-8 of the norm, naming
    the smallest dim that keeps enough."""
    alpha = complex(alpha)
    mag = abs(alpha)
    # <k|alpha> up to where the Poisson tail, |alpha|^2 + 10 |alpha| + 20 on,
    # is far below 1e-8; each entry is the same whatever the length
    amps = np.empty(max(dim, math.ceil(mag * mag + 10.0 * mag + 20.0)), dtype=np.complex128)
    amps[0] = 1.0
    for k in range(1, amps.size):
        amps[k] = amps[k - 1] * alpha / math.sqrt(k)
    amps *= math.exp(-mag ** 2 / 2.0)
    norm_sq = float(np.vdot(amps[:dim], amps[:dim]).real)
    if norm_sq < 1.0 - 1e-8:
        need = next(d for d in range(dim + 1, amps.size + 1)
                    if np.vdot(amps[:d], amps[:d]).real >= 1.0 - 1e-8)
        raise ValidationError(
            f"dim = {dim} truncates |alpha|={mag:.3f} too hard (kept norm^2 = {norm_sq:.9f}); "
            f"use dim >= {need}"
        )
    amps = amps[:dim] / math.sqrt(norm_sq)
    return DensityMatrix(np.outer(amps, amps.conj()))


def _fit_coherent(rho: DensityMatrix) -> complex:
    """Amplitude of the mean-matched coherent state: Tr(rho a)."""
    mat = rho.matrix
    k = np.arange(1, rho.dim)
    return complex((np.sqrt(k) * np.diag(mat, -1)).sum())


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix from eigh; eigenvalues at or below
    dim eps lambda_max, rounding noise or negative, count as 0."""
    w, v = np.linalg.eigh(mat)
    w = np.where(w > w.size * np.finfo(np.float64).eps * w[-1], w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Root fidelity: the trace norm of sqrt(rho) sqrt(sigma), the sum of its
    singular values (Jozsa, J. Mod. Opt. 41, 2315 (1994)), clamped at 1;
    its square is the Uhlmann form.

    Dropping rounding-level eigenvalues from each square root keeps them
    from adding their square roots (about 3e-9 each at 1e-17) to the sum,
    so against a pure sigma = |psi><psi| the value is sqrt(<psi|rho|psi>)
    to rounding.
    """
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    product = _psd_sqrt(rho.matrix) @ _psd_sqrt(sigma.matrix)
    value = float(np.linalg.svd(product, compute_uv=False).sum())
    if value > 1.0 + 1e-6:
        raise NumericalDomainError(f"fidelity {value} exceeds 1 beyond numerical tolerance")
    return min(value, 1.0)


def _check_axis(axis: np.ndarray, what: str) -> None:
    """Raise ValidationError naming what unless axis has at least 2 points, strictly
    increasing: the rule for the axis of a WignerGrid."""
    if axis.size < 2 or not np.all(np.diff(axis) > 0):
        raise ValidationError(f"{what} must have at least 2 points, strictly increasing")


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """W(x, p) sampled on a square grid, one axis for both x and p;
    values[i, j] = W(axis[i], axis[j]).  Convention: hbar = 1, vacuum
    variance 1/2, so the vacuum peaks at 1/pi and |W| <= 1/pi for every state."""

    axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        axis = readonly_float_array(self.axis, "axis")
        values = np.array(self.values, dtype=np.float64, copy=True)
        _check_axis(axis, "axis")
        if values.shape != (axis.size, axis.size):
            raise ValidationError(
                f"values shape {values.shape} does not match the axis ({axis.size}, {axis.size})")
        if not np.all(np.isfinite(values)):
            raise ValidationError("Wigner values contain non-finite entries")
        if np.abs(values).max() > 1.0 / math.pi + _WIGNER_BOUND_TOL:
            raise ValidationError("Wigner values exceed the 1/pi bound beyond tolerance")
        values.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "values", values)

    def normalization(self) -> float:
        """Riemann sum of W over the grid; ~1 when the grid covers the state."""
        step = float(np.mean(np.diff(self.axis)))
        return float(self.values.sum() * step * step)


def _wigner(rho: DensityMatrix, axis) -> WignerGrid:
    """Wigner function of a Fock-basis density matrix.

    Evaluates the Fock expansion

        W_{m n}(x, p) = (1/pi) e^{-r^2} (-1)^n (x - i p)^{m-n}
                        sqrt(2^{m-n} n! / m!) L_n^{m-n}(2 r^2),   m >= n

    (W_{n m} is its conjugate) as W = Re sum_k s_k(r^2) z^k, z = x - i p,
    where s_k gathers diagonal k = m - n of rho, doubled for k > 0 to count
    its conjugate (rho is Hermitian).  The s_k depend on r^2 alone, so the
    generalized-Laguerre three-term recurrence (carried upward in n for
    every k at once, stable for desk-scale cutoffs) runs once per distinct
    r^2, and Horner's rule in z combines the diagonals over the grid.  W is
    0 without a sum wherever e^{-r^2} rounds to 0, so far grids stay finite.
    """
    axis = np.asarray(axis, dtype=np.float64)
    dim = rho.dim
    grid_x, grid_p = np.meshgrid(axis, axis, indexing="ij")
    with np.errstate(over="ignore"):  # an r^2 that overflows is inf, and far out
        r_sq = grid_x * grid_x + grid_p * grid_p
    # e^{-r^2} < 2^-1075 rounds to 0 from r^2 = 1075 ln 2 on, and so does W
    near = r_sq < 1075.0 * math.log(2.0)
    r_sq, inverse = np.unique(r_sq[near], return_inverse=True)
    z = grid_x[near] - 1j * grid_p[near]

    # weights[k, n] = (-1)^n sqrt(2^k n! / (n + k)!) times diagonal k of rho
    # (rho[n + k, n], n + k < dim), doubled for k > 0
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, 2 * dim)))])
    offset, level = np.arange(dim)[:, None], np.arange(dim)[None, :]
    inside = offset + level < dim
    rows = np.where(inside, offset + level, 0)
    coef = np.where(inside, np.exp(0.5 * (offset * math.log(2.0) + log_fact[level]
                                          - log_fact[rows])), 0.0)
    coef[:, 1::2] *= -1.0
    coef[1:] *= 2.0
    diagonals = coef * rho.matrix[rows, level]
    weights = np.stack([diagonals.real, diagonals.imag])

    # sums[c, k] = sum_n weights[c, k, n] L_n^k(2 r^2) over the distinct r^2;
    # L_n^k is needed for k < dim - n only
    k_minus_y = offset - 2.0 * r_sq
    sums = np.zeros(weights.shape[:2] + r_sq.shape)
    lag_prev = np.zeros((dim, r_sq.size))
    lag = np.ones((dim, r_sq.size))
    for n in range(dim):
        top = dim - n
        if n:
            lag, lag_prev = ((2.0 * n - 1.0 + k_minus_y[:top]) * lag[:top]
                             - (n - 1.0 + offset[:top]) * lag_prev[:top]) / n, lag[:top]
        sums[:, :top] += weights[:, :top, n, None] * lag
    sums *= np.exp(-r_sq) / math.pi

    coefs = sums[0] + 1j * sums[1]
    total = coefs[dim - 1, inverse]
    for k in range(dim - 2, -1, -1):
        total = total * z + coefs[k, inverse]
    values = np.zeros(grid_x.shape)
    values[near] = total.real
    return WignerGrid(axis, values)


def samples_from_trace(trace: QuadratureTrace, use_true_phase: bool = RunConfig.use_true_phase,
                       block: int = RunConfig.block,
                       amplitude_scale: float = RunConfig.amplitude_scale) -> PhaseTaggedSamples:
    """Turn a heterodyne trace into phase-tagged quadrature samples.

    Each shot contributes its X value at the tag theta and its P value at
    theta - pi/2.  Tags come from phase_true, or from the block-averaged
    phase estimator when use_true_phase is False.  Quadratures are divided
    by SNU_TO_INTERNAL (sqrt(2)); amplitude_scale is an extra divisor for
    normalizing bright references into a workable Fock cutoff (1.0 = off).
    """
    positive("amplitude_scale", amplitude_scale)
    block = integer_at_least("block", block, 1)
    if use_true_phase:
        if trace.phase_true is None:
            raise ValidationError("trace carries no phase_true column; estimate phases instead")
        tags = trace.phase_true
    else:
        # only estimated tags load the phase module
        from .phase import _estimate_phase
        tags = np.repeat(_estimate_phase(trace, block=block), block)

    scale = amplitude_scale * SNU_TO_INTERNAL
    with np.errstate(over="ignore"):  # a sample that overflows is inf, and named below
        x_int = trace.x / scale
        p_int = trace.p / scale
    # name an out-of-range sample as the trace holds it; argmin and argmax
    # need no temporary array
    for name, snu, internal in (("x", trace.x, x_int), ("p", trace.p, p_int)):
        for row in (int(internal.argmin()), int(internal.argmax())):
            if abs(internal[row]) > _MAX_SAMPLE:
                raise ValidationError(
                    f"{name} = {float(snu[row])!r} SNU at index {row} overflows float64 when "
                    f"squared by the MLE (|{name}| / amplitude_scale must be at most "
                    f"{MAX_QUADRATURE:.3g})")

    keep = np.isfinite(tags)
    dropped = int(tags.size - keep.sum())
    if dropped:
        warnings.warn(f"dropping {dropped} shots ({2 * dropped} quadrature samples) "
                      "with undefined phase", stacklevel=2)
        tags, x_int, p_int = tags[keep], x_int[keep], p_int[keep]
    theta_all = np.concatenate([tags, tags - math.pi / 2.0])
    x_all = np.concatenate([x_int, p_int])
    # read-only, so the samples keep these arrays instead of copying them
    theta_all.setflags(write=False)
    x_all.setflags(write=False)
    return PhaseTaggedSamples(theta_all, x_all)


@dataclass(frozen=True, eq=False)
class TomographyAnalysis:
    """A trace's tomography: the reconstruction, its Wigner grid, the mean-matched
    coherent amplitude, the root fidelity to that state and the samples dropped."""

    result: MLEResult
    grid: WignerGrid
    alpha_fit: complex
    fidelity_sqrt: float
    samples_dropped: int

    def report(self) -> list[tuple[str, object]]:
        """(key, value) of each tomography report line, in order."""
        result = self.result
        return [
            ("alpha_fit_re", self.alpha_fit.real),
            ("alpha_fit_im", self.alpha_fit.imag),
            ("fidelity_sqrt", self.fidelity_sqrt),
            ("fidelity_squared", self.fidelity_sqrt * self.fidelity_sqrt),
            ("converged", result.converged),
            ("iterations", result.iterations),
            ("final_log_likelihood", result.log_likelihood[-1]),
            ("floored_probabilities", result.floored),
            ("samples_dropped", self.samples_dropped),
            ("engine", "grouped" if result.grouped else "dense"),
            ("rank_one_steps", result.rank_one_steps),
            ("optimality_gap", result.gap),
            ("wigner_normalization", self.grid.normalization()),
        ]


def analyze_tomography(trace: QuadratureTrace, dim: int = RunConfig.dim,
                       use_true_phase: bool = RunConfig.use_true_phase,
                       block: int = RunConfig.block,
                       amplitude_scale: float = RunConfig.amplitude_scale,
                       max_iter: int = RunConfig.max_iter, tol: float = RunConfig.tol,
                       wigner_extent: float = RunConfig.wigner_extent,
                       wigner_points: int = RunConfig.wigner_points) -> TomographyAnalysis:
    """The analysis behind ``hetasym tomography``: check the Wigner grid, reconstruct the
    trace's state, fit a coherent state to it and evaluate W on one axis for both x and p."""
    wigner_points = integer_at_least("wigner_points", wigner_points, 2)
    cell = 2.0 * positive("wigner_extent", wigner_extent) / (wigner_points - 1)
    if wigner_points * wigner_points > _MAX_WIGNER_POINTS:
        raise ValidationError(f"wigner_points = {wigner_points} is too large: the Wigner "
                              f"grid would have more than {_MAX_WIGNER_POINTS} points")
    if not cell * cell < math.inf:  # the normalization sums W times this cell area
        raise ValidationError(f"wigner_extent = {wigner_extent} is too large: a cell of the "
                              f"{wigner_points}-point grid has an area beyond float64")
    # an extent too small to separate the points rounds some of them together
    axis = np.linspace(-wigner_extent, wigner_extent, wigner_points)
    _check_axis(axis, f"the Wigner axis of wigner_points = {wigner_points} over "
                      f"+-wigner_extent = {wigner_extent}")
    samples = samples_from_trace(trace, use_true_phase, block, amplitude_scale)
    result = _mle_reconstruct(samples, dim, max_iter=max_iter, tol=tol)
    alpha_fit = _fit_coherent(result.rho)
    fid_sqrt = fidelity(result.rho, _ideal_coherent_state(alpha_fit, result.rho.dim))
    return TomographyAnalysis(result, _wigner(result.rho, axis), alpha_fit, fid_sqrt,
                              2 * trace.n - samples.n)  # samples_from_trace: two per shot
