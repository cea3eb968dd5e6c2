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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalDomainError, ValidationError, integer_at_least, positive
from .phase import estimate_phase
from .traces import QuadratureTrace, readonly_float_array

#: Divisor taking SNU quadratures (vacuum variance 1) to the internal
#: convention (vacuum variance 1/2).
SNU_TO_INTERNAL = math.sqrt(2.0)

#: Probabilities are floored here before the likelihood ratio to avoid
#: division underflow; floored samples are counted as a diagnostic.
PROBABILITY_FLOOR = 1e-300

_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIGENVALUE_TOL = 1e-10
_WIGNER_BOUND_TOL = 1e-6
#: Tags closer than this modulo pi (radians) count as one quadrature.
_SAME_QUADRATURE_TOL = 1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """Fock-truncated density matrix: Hermitian, unit trace, PSD (all up to
    small numerical tolerances checked at construction)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValidationError(f"density matrix must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise ValidationError("density matrix contains non-finite entries")
        if np.max(np.abs(mat - mat.conj().T)) > _HERMITICITY_TOL:
            raise ValidationError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(mat).real - 1.0) > _TRACE_TOL or abs(np.trace(mat).imag) > _TRACE_TOL:
            raise ValidationError("density matrix trace differs from 1 beyond tolerance")
        if np.linalg.eigvalsh(mat).min() < -_EIGENVALUE_TOL:
            raise ValidationError("density matrix has a negative eigenvalue beyond tolerance")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True)
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
        distinct = np.unique(theta)
        # x at theta + pi is -x at theta, so tags that agree modulo pi all
        # measure one quadrature
        folded = np.mod(distinct - distinct[0], math.pi)
        if distinct.max() - distinct.min() < math.pi:
            warnings.warn(
                "phase tags span less than pi: reconstruction is not informationally complete",
                stacklevel=2,
            )
        elif np.all(np.minimum(folded, math.pi - folded) <= _SAME_QUADRATURE_TOL):
            warnings.warn(
                "phase tags are all equal modulo pi, so they measure a single quadrature: "
                "reconstruction is not informationally complete",
                stacklevel=2,
            )
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.theta.size


def _hermite_gauss_table(x: np.ndarray, dim: int) -> np.ndarray:
    """psi_n(x) for n < dim, vacuum variance 1/2.

    Upward recurrence psi_{n} = sqrt(2/n) x psi_{n-1} - sqrt((n-1)/n) psi_{n-2}
    starting from the Gaussian ground state keeps every value bounded, so no
    renormalization is needed at any order.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape + (dim,))
    out[..., 0] = math.pi ** -0.25 * np.exp(-x * x / 2.0)
    if dim > 1:
        out[..., 1] = math.sqrt(2.0) * x * out[..., 0]
    for n in range(2, dim):
        out[..., n] = (math.sqrt(2.0 / n) * x * out[..., n - 1]
                       - math.sqrt((n - 1) / n) * out[..., n - 2])
    return out


def quadrature_projector(theta, x, dim: int) -> np.ndarray:
    """Fock components of the quadrature eigenstate |x, theta>:
    component n is psi_n(x) exp(-i n theta).

    Scalars give a (dim,) vector; equal-length arrays give (len, dim).
    """
    dim = integer_at_least("dim", dim, 1)
    theta_arr = np.asarray(theta, dtype=np.float64)
    x_arr = np.asarray(x, dtype=np.float64)
    table = _hermite_gauss_table(x_arr, dim).astype(np.complex128)
    # e^{-i n theta} as powers of e^{-i theta}: one complex exp per sample
    # instead of dim, at a rounding error that grows only like n * eps
    step = np.exp(-1j * theta_arr)
    phase = step.copy()
    for n in range(1, dim):
        table[..., n] *= phase
        phase *= step
    return table


@dataclass(frozen=True)
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


class _GroupedEngine:
    """Real-arithmetic path for samples sharing repeated phase tags.

    For a tag t the projector factorizes as diag(e^{-i n t}) psi(x), so the
    quadratic forms reduce to real batched products against the rotated
    density matrix Re(rho e^{i t (m - n)}) = Re(rho) cos - Im(rho) sin.
    Groups are bucketed by size so each bucket runs as one batched matmul;
    probabilities come back in engine-internal (bucket-major) order, which
    the iteration treats as a bag, so no scatter-back is needed.
    """

    def __init__(self, samples: PhaseTaggedSamples, dim: int):
        tags, inverse, counts = np.unique(samples.theta, return_inverse=True,
                                          return_counts=True)
        order = np.argsort(inverse, kind="stable")
        xs_sorted = samples.x[order]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        diff = np.arange(dim)[:, None] - np.arange(dim)[None, :]
        self.buckets = []
        for size in np.unique(counts):
            group_ids = np.flatnonzero(counts == size)
            xs = np.stack([xs_sorted[offsets[g]:offsets[g] + size] for g in group_ids])
            angle = tags[group_ids][:, None, None] * diff[None, :, :]
            self.buckets.append((_hermite_gauss_table(xs, dim), np.cos(angle), np.sin(angle)))
        self.dim = dim
        self.n = samples.n

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        parts = []
        for h, cos, sin in self.buckets:
            rotated = rho.real * cos - rho.imag * sin
            v = h @ rotated
            parts.append(np.einsum("tmd,tmd->tm", h, v).ravel())
        return np.concatenate(parts)

    def r_operator(self, probs: np.ndarray) -> np.ndarray:
        """R = (1/n) sum_i Pi_i / p_i, probs in engine-internal order."""
        r = np.zeros((self.dim, self.dim), dtype=np.complex128)
        inverse = 1.0 / probs
        start = 0
        for h, cos, sin in self.buckets:
            stop = start + h.shape[0] * h.shape[1]
            weights = h * inverse[start:stop].reshape(h.shape[:2])[:, :, None]
            s = np.matmul(h.transpose(0, 2, 1), weights)
            r.real += np.einsum("tmn,tmn->mn", s, cos)
            r.imag -= np.einsum("tmn,tmn->mn", s, sin)
            start = stop
        r /= self.n
        return r

    def rank_one(self, vec: np.ndarray) -> np.ndarray:
        """Born probabilities of the pure state vec vec^dagger, engine order."""
        parts = []
        for h, cos, sin in self.buckets:
            # <x, t|vec> = sum_n psi_n(x) e^{i n t} vec_n; column 0 of the
            # tables holds cos(n t) and sin(n t)
            cos0, sin0 = cos[:, :, 0], sin[:, :, 0]
            rotated = np.stack([cos0 * vec.real - sin0 * vec.imag,
                                cos0 * vec.imag + sin0 * vec.real], axis=2)
            amp = np.square(h @ rotated)
            parts.append((amp[:, :, 0] + amp[:, :, 1]).ravel())
        return np.concatenate(parts)


def _make_engine(samples: PhaseTaggedSamples, dim: int):
    # Grouping pays once tags repeat enough.  Grouped / dense time per MLE
    # iteration, range over two passes of 5 and 7 runs on a 2-core host:
    #   n = 2e4, repeats per tag    8          12         16         32
    #   dim 15                  1.17-1.18  0.95-1.04  0.69-0.80     0.62
    #   dim 20                  1.24-1.31  0.90-0.98  0.77-0.87  0.57-0.63
    #   dim 25                  1.59-2.30  1.29-1.50  0.97-1.09  0.63-0.68
    # and 0.58-0.75 at n = 1e5, 32 repeats, dims 15-25.  The two tie near 12
    # repeats at dims 15-20 (near 16 at dim 25).  The cap keeps the per-group
    # phase tables (groups x dim x dim cosines and sines) at tens of megabytes.
    distinct = np.unique(samples.theta).size
    if distinct * 12 <= samples.n and distinct <= 4096:
        return _GroupedEngine(samples, dim), True
    return _DenseEngine(samples, dim), False


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


def _rank_one_search(d: np.ndarray, bar: float):
    """argmax over [0, 1] of the concave f(t) = mean log1p(t d), d >= -1,
    or None when f cannot exceed `bar`.

    Newton steps on f', kept inside the bracket [lo, hi] of its sign change,
    converge in a few O(n) passes; a step that leaves the bracket or grows
    is replaced by bisection.  Newton from t = 0 tends to undershoot the
    maximizer of such an f, so the first pass probes t0 = twice that step,
    which usually lands past the maximizer.  There the concavity bound
    f(t0) + max(f'(t0) (1 - t0), -f'(t0) t0) is within a small factor of
    max f, and the search stops when it is <= bar.  t = 1 is tried once,
    and only when every d > -1, where f(1) is finite.
    """
    n = d.size
    lo, hi, t = 0.0, 1.0, 0.0
    # f'(t) and -f''(t); einsum rather than a BLAS dot, whose threads cost
    # far more than these O(n) sums on a busy host
    slope, curv = float(d.sum()) / n, float(np.einsum("i,i->", d, d)) / n
    last_step = math.inf
    tried_end = False
    for k in range(_SEARCH_PASSES):
        if slope == 0.0:
            return t
        if slope > 0.0:
            lo = t
        else:
            hi = t
        if curv:  # curv >= slope^2 > 0 unless it underflows
            step = (2.0 if k == 0 else 1.0) * slope / curv
        else:
            step = math.copysign(math.inf, slope)
        new = t + step
        if not lo < new < hi or abs(step) > last_step:
            if new >= hi == 1.0 and not tried_end:
                tried_end = True
                new = 1.0 if d.min() > -1.0 else 0.5 * (lo + hi)
            else:
                new = 0.5 * (lo + hi)
        if abs(new - t) <= 1e-10 * t:
            return new
        last_step = abs(new - t)
        t = new
        td = t * d
        w = d / (1.0 + td)
        slope, curv = float(w.sum()) / n, float(np.einsum("i,i->", w, w)) / n
        if k == 0 and np.log1p(td).sum() / n + max(slope * (1.0 - t), -slope * t) <= bar:
            return None
    return t


def mle_reconstruct(samples: PhaseTaggedSamples, dim: int, max_iter: int = 2000,
                    tol: float = 1e-10) -> MLEResult:
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

    engine, grouped = _make_engine(samples, dim)

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
        t = _rank_one_search(d, bar)
        if t is None:
            return None
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
        grouped=grouped,
        gap=gap,
        rank_one_steps=rank_one_steps,
    )


def required_coherent_dim(alpha: complex) -> int:
    """Fock cutoff guidance for coherent amplitudes: |a|^2 + 5|a| + 10."""
    mag = abs(alpha)
    return int(math.ceil(mag * mag + 5.0 * mag + 10.0))


def ideal_coherent_state(alpha: complex, dim: int) -> DensityMatrix:
    """Pure coherent state |alpha><alpha| truncated to dim Fock levels and
    renormalized.  Rejects cutoffs that drop more than 1e-8 of the norm."""
    dim = integer_at_least("dim", dim, 1)
    alpha = complex(alpha)
    amps = np.empty(dim, dtype=np.complex128)
    amps[0] = 1.0
    for k in range(1, dim):
        amps[k] = amps[k - 1] * alpha / math.sqrt(k)
    amps *= math.exp(-abs(alpha) ** 2 / 2.0)
    norm_sq = float(np.vdot(amps, amps).real)
    if norm_sq < 1.0 - 1e-8:
        raise ValidationError(
            f"dim = {dim} truncates |alpha|={abs(alpha):.3f} too hard "
            f"(kept norm^2 = {norm_sq:.9f}); use dim >= {required_coherent_dim(alpha)}"
        )
    amps /= math.sqrt(norm_sq)
    return DensityMatrix(np.outer(amps, amps.conj()))


def fit_coherent(rho: DensityMatrix) -> complex:
    """Amplitude of the mean-matched coherent state: Tr(rho a)."""
    mat = rho.matrix
    k = np.arange(1, rho.dim)
    return complex((np.sqrt(k) * np.diag(mat, -1)).sum())


def fidelity(rho: DensityMatrix, sigma: DensityMatrix, convention: str = "sqrt") -> float:
    """State fidelity from the eigenvalues lam_i of sqrt(rho) sigma sqrt(rho).

    Small negative eigenvalues are truncated to zero before the square
    roots.  convention="sqrt" returns sum_i sqrt(lam_i) (the default,
    matching common library output); convention="squared" returns its
    square (the Uhlmann form).
    """
    if convention not in ("sqrt", "squared"):
        raise ValidationError(f"unknown fidelity convention {convention!r}")
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    w, v = np.linalg.eigh(rho.matrix)
    w = np.clip(w, 0.0, None)
    sqrt_rho = (v * np.sqrt(w)) @ v.conj().T
    mid = sqrt_rho @ sigma.matrix @ sqrt_rho
    lams = np.linalg.eigvalsh(0.5 * (mid + mid.conj().T))
    value = float(np.sqrt(np.clip(lams, 0.0, None)).sum())
    if value > 1.0 + 1e-6:
        raise NumericalDomainError(f"fidelity {value} exceeds 1 beyond numerical tolerance")
    value = min(value, 1.0)
    return value * value if convention == "squared" else value


@dataclass(frozen=True)
class WignerGrid:
    """W(x, p) sampled on a rectangular grid; values[i, j] = W(x_axis[i],
    p_axis[j]).  Convention: hbar = 1, vacuum variance 1/2, so the vacuum
    peaks at 1/pi and |W| <= 1/pi for every state."""

    x_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x_axis = readonly_float_array(self.x_axis, "x_axis")
        p_axis = readonly_float_array(self.p_axis, "p_axis")
        values = np.array(self.values, dtype=np.float64, copy=True)
        for axis, name in ((x_axis, "x_axis"), (p_axis, "p_axis")):
            if axis.size < 2 or not np.all(np.diff(axis) > 0):
                raise ValidationError(f"{name} must have at least 2 points, strictly increasing")
        if values.shape != (x_axis.size, p_axis.size):
            raise ValidationError(
                f"values shape {values.shape} does not match axes "
                f"({x_axis.size}, {p_axis.size})"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("Wigner values contain non-finite entries")
        if np.abs(values).max() > 1.0 / math.pi + _WIGNER_BOUND_TOL:
            raise ValidationError("Wigner values exceed the 1/pi bound beyond tolerance")
        values.setflags(write=False)
        object.__setattr__(self, "x_axis", x_axis)
        object.__setattr__(self, "p_axis", p_axis)
        object.__setattr__(self, "values", values)

    def normalization(self) -> float:
        """Riemann sum of W over the grid; ~1 when the grid covers the state."""
        dx = float(np.mean(np.diff(self.x_axis)))
        dp = float(np.mean(np.diff(self.p_axis)))
        return float(self.values.sum() * dx * dp)


def wigner(rho: DensityMatrix, x_axis, p_axis) -> WignerGrid:
    """Wigner function of a Fock-basis density matrix.

    Evaluates the Fock expansion

        W_{m n}(x, p) = (1/pi) e^{-r^2} (-1)^n (x - i p)^{m-n}
                        sqrt(2^{m-n} n! / m!) L_n^{m-n}(2 r^2),   m >= n

    with the generalized-Laguerre three-term recurrence carried over the
    grid for every diagonal, which stays stable for desk-scale cutoffs.
    The complex accumulation cancels to a real result; any imaginary
    residue above 1e-10 is a hard error.
    """
    x_axis = np.asarray(x_axis, dtype=np.float64)
    p_axis = np.asarray(p_axis, dtype=np.float64)
    mat = rho.matrix
    dim = rho.dim
    grid_x, grid_p = np.meshgrid(x_axis, p_axis, indexing="ij")
    r_sq = grid_x * grid_x + grid_p * grid_p
    envelope = np.exp(-r_sq) / math.pi
    z = grid_x - 1j * grid_p
    y = 2.0 * r_sq

    total = np.zeros_like(z)
    z_pow = np.ones_like(z)
    for k in range(dim):  # k = m - n, the diagonal offset
        lag_prev2 = None
        lag_prev = None
        for j in range(dim - k):
            if j == 0:
                lag = np.ones_like(y)
            elif j == 1:
                lag = 1.0 + k - y
            else:
                lag = ((2.0 * j - 1.0 + k - y) * lag_prev - (j - 1.0 + k) * lag_prev2) / j
            lag_prev2, lag_prev = lag_prev, lag
            sign = -1.0 if j % 2 else 1.0
            coef = sign * math.exp(0.5 * (k * math.log(2.0)
                                          + math.lgamma(j + 1) - math.lgamma(j + k + 1)))
            term = (coef * z_pow) * lag
            if k == 0:
                total += mat[j, j].real * term
            else:
                contrib = mat[j + k, j] * term
                total += contrib + (mat[j, j + k] * term.conj())
        z_pow = z_pow * z

    values = envelope * total
    residue = np.abs(values.imag).max() if values.size else 0.0
    if residue > 1e-10:
        raise NumericalDomainError(f"Wigner imaginary residue {residue} exceeds 1e-10")
    return WignerGrid(x_axis, p_axis, values.real)


def samples_from_trace(trace: QuadratureTrace, use_true_phase: bool = True,
                       block: int = 1, amplitude_scale: float = 1.0) -> PhaseTaggedSamples:
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
        tags = np.repeat(estimate_phase(trace, block=block), block)

    scale = amplitude_scale * SNU_TO_INTERNAL
    x_int = trace.x / scale
    p_int = trace.p / scale

    keep = np.isfinite(tags)
    dropped = int(tags.size - keep.sum())
    if dropped:
        warnings.warn(f"dropping {dropped} shots ({2 * dropped} quadrature samples) "
                      "with undefined phase", stacklevel=2)
        tags, x_int, p_int = tags[keep], x_int[keep], p_int[keep]
    theta_all = np.concatenate([tags, tags - math.pi / 2.0])
    x_all = np.concatenate([x_int, p_int])
    return PhaseTaggedSamples(theta_all, x_all)
