import importlib.util
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import eval_genlaguerre, eval_hermite, factorial

from hetasym import (
    DensityMatrix,
    HeterodyneModel,
    QuadratureTrace,
    ValidationError,
    analyze_tomography,
    fidelity,
    make_phase_ramp,
    quadrature_projector,
    samples_from_trace,
    simulate_heterodyne,
)
from hetasym import tomography
from hetasym.cli import main
from hetasym.config import RunConfig, parse_config_text, render
from hetasym.csvio import read_density_csv, read_trace_csv, write_trace_csv
from hetasym.tomography import (
    MAX_QUADRATURE,
    PhaseTaggedSamples,
    WignerGrid,
    _DenseEngine,
    _GroupedEngine,
    _fit_coherent,
    _ideal_coherent_state,
    _make_engine,
    _mle_reconstruct,
    _product_coefficients,
    _rank_one_search,
    _wigner,
)

TWO_PI = 2.0 * math.pi


def hermite_gauss_oracle(x: float, n: int) -> float:
    """Independent route: scipy Hermite polynomial with explicit norm."""
    norm = math.sqrt(2.0 ** n * factorial(n, exact=True) * math.sqrt(math.pi))
    return eval_hermite(n, x) * math.exp(-x * x / 2.0) / norm


def coherent_samples(rng, alpha: complex, n: int) -> PhaseTaggedSamples:
    """Ground-truth sampler: quadrature of |alpha> at phase theta is Gaussian
    with mean sqrt(2) Re(alpha e^{i theta}) and variance 1/2."""
    theta = rng.uniform(0.0, TWO_PI, n)
    mean = math.sqrt(2.0) * (alpha * np.exp(1j * theta)).real
    return PhaseTaggedSamples(theta, rng.normal(mean, math.sqrt(0.5)))


def independent_gap(samples: PhaseTaggedSamples, rho: np.ndarray) -> float:
    """lambda_max(R) - 1 at rho, with R built from per-sample projectors
    rather than from the reconstruction's engines."""
    psi = quadrature_projector(samples.theta, samples.x, rho.shape[0])
    probs = np.einsum("ij,ij->i", psi.conj(), psi @ rho.T).real
    r = (psi / probs[:, None]).T @ psi.conj() / samples.n
    return float(np.linalg.eigvalsh(0.5 * (r + r.conj().T)).max() - 1.0)


class TestQuadratureProjector:
    def test_parity_at_origin(self):
        vec = quadrature_projector(0.0, 0.0, 4)
        assert vec[1] == 0.0
        assert vec[3] == 0.0

    def test_ground_state_at_origin(self):
        vec = quadrature_projector(0.0, 0.0, 1)
        assert vec[0].real == pytest.approx(math.pi ** -0.25, abs=1e-12)
        assert vec[0].real == pytest.approx(0.7511, abs=1e-4)

    def test_matches_scipy_hermite(self):
        for x in (-2.7, 0.4, 1.3, 3.0):
            vec = quadrature_projector(0.0, x, 40)
            for n in (0, 1, 7, 20, 39):
                assert vec[n].real == pytest.approx(hermite_gauss_oracle(x, n), rel=1e-10)

    def test_phase_factor(self):
        theta = 0.7
        vec = quadrature_projector(theta, 1.1, 6)
        bare = quadrature_projector(0.0, 1.1, 6)
        np.testing.assert_allclose(vec, bare * np.exp(-1j * theta * np.arange(6)), atol=1e-14)

    def test_phase_factors_match_direct_exponential(self):
        # the phase factors are built as powers of e^{-i theta}; their
        # rounding must stay far below any tolerance the MLE relies on
        rng = np.random.default_rng(3)
        thetas = rng.uniform(-TWO_PI, TWO_PI, 2_000)
        xs = rng.normal(0.0, 1.5, thetas.size)
        bare = quadrature_projector(np.zeros_like(xs), xs, 40)
        direct = bare * np.exp(-1j * np.multiply.outer(thetas, np.arange(40)))
        assert np.abs(quadrature_projector(thetas, xs, 40) - direct).max() <= 1e-13

    def test_array_broadcast(self):
        thetas = np.array([0.0, 0.5, 1.0])
        xs = np.array([0.1, 0.2, 0.3])
        table = quadrature_projector(thetas, xs, 8)
        assert table.shape == (3, 8)
        np.testing.assert_allclose(table[1], quadrature_projector(0.5, 0.2, 8), atol=1e-14)

    def test_state_overlap_truncation_convergence(self):
        # truncation oracle: the Born probability density of a bounded-energy
        # state converges in the cutoff (the raw projector norm itself
        # diverges; position eigenstates are not normalizable)
        rho30 = _ideal_coherent_state(2.0, 30).matrix
        rho60 = np.zeros((60, 60), dtype=complex)
        rho60[:30, :30] = rho30
        for x in (-3.0, 0.0, 1.5, 3.0):
            for theta in (0.0, 1.1):
                psi30 = quadrature_projector(theta, x, 30)
                psi60 = quadrature_projector(theta, x, 60)
                p30 = (psi30.conj() @ rho30 @ psi30).real
                p60 = (psi60.conj() @ rho60 @ psi60).real
                assert p60 == pytest.approx(p30, rel=1e-6)

    def test_rejects_zero_dim(self):
        with pytest.raises(ValidationError):
            quadrature_projector(0.0, 0.0, 0)

    @pytest.mark.parametrize("dim", [2.5, math.nan, math.inf])
    def test_rejects_non_integer_dim(self, dim):
        with pytest.raises(ValidationError, match="^dim must"):
            quadrature_projector(0.0, 0.0, dim)

    @pytest.mark.parametrize("theta, x, name", [
        (math.nan, 0.0, "theta"), (0.0, math.inf, "x"),
        (np.array([0.0, -math.inf]), np.array([0.1, 0.2]), "theta"),
        (np.array([0.0, 0.5]), np.array([0.1, math.nan]), "x"),
    ])
    def test_rejects_non_finite_samples(self, theta, x, name):
        with pytest.raises(ValidationError, match=f"^{name} contains non-finite"):
            quadrature_projector(theta, x, 3)

    def test_rejects_a_quadrature_whose_square_overflows(self):
        # MAX_QUADRATURE squared is the float64 maximum; the next float up
        # squares to inf
        assert np.all(quadrature_projector(0.0, -MAX_QUADRATURE, 3) == 0.0)
        too_large = math.nextafter(MAX_QUADRATURE, math.inf)
        message = re.escape(f"quadrature {too_large!r} overflows")
        with pytest.raises(ValidationError, match=f"^{message}"):
            quadrature_projector(np.zeros(2), np.array([0.5, too_large]), 3)


class TestIdealCoherentState:
    def test_vacuum(self):
        rho = _ideal_coherent_state(0.0, 5)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_mean_photon_number(self):
        rho = _ideal_coherent_state(1.0, 20)
        nbar = float(np.sum(np.arange(20) * np.diag(rho.matrix).real))
        assert nbar == pytest.approx(1.0, abs=1e-8)

    def test_purity(self):
        for alpha in (0.5, 1.5 + 0.5j, 2.0):
            matrix = _ideal_coherent_state(alpha, 30).matrix
            assert np.trace(matrix @ matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_insufficient_dim_rejected_with_hint(self):
        # dims 1..43 keep less than 1 - 1e-8 of the Poisson(16) norm at a = 4
        with pytest.raises(ValidationError, match="use dim >= 44$"):
            _ideal_coherent_state(4.0, 8)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.floats(0.0, 10.0), st.floats(0.0, TWO_PI), st.integers(1, 40))
    def test_hinted_dim_is_the_smallest_accepted(self, magnitude, angle, dim):
        alpha = magnitude * complex(math.cos(angle), math.sin(angle))
        try:
            _ideal_coherent_state(alpha, dim)
            return
        except ValidationError as exc:
            hint = int(re.search(r"use dim >= (\d+)$", str(exc)).group(1))
        assert hint > dim
        _ideal_coherent_state(alpha, hint)
        with pytest.raises(ValidationError, match=f"use dim >= {hint}$"):
            _ideal_coherent_state(alpha, hint - 1)


class TestFitCoherent:
    def test_vacuum(self):
        assert _fit_coherent(_ideal_coherent_state(0.0, 5)) == 0.0

    def test_complex_amplitude(self):
        alpha = 2.0 + 1.0j
        fitted = _fit_coherent(_ideal_coherent_state(alpha, 45))
        assert abs(fitted - alpha) < 1e-6

    def test_phase_covariance(self):
        alpha, phi = 1.2, 0.8
        base = _fit_coherent(_ideal_coherent_state(alpha, 25))
        rotated = _fit_coherent(_ideal_coherent_state(alpha * np.exp(1j * phi), 25))
        assert rotated == pytest.approx(base * np.exp(1j * phi), abs=1e-8)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            DensityMatrix(mat)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValidationError):
            DensityMatrix(mat)

    @pytest.mark.parametrize("mat, message", [
        (np.full((2, 3), 1.0 / 3.0), r"must be square, got shape \(2, 3\)"),
        (np.array([[0.5, math.nan], [math.nan, 0.5]]), "non-finite entries"),
        # the Hermiticity check's difference used to overflow with a RuntimeWarning
        (np.array([[0.5 + 1.7e308j, 0.0], [0.0, 0.5]]), "entry beyond 2"),
    ])
    def test_rejects_malformed(self, mat, message):
        with pytest.raises(ValidationError, match=message):
            DensityMatrix(mat.astype(complex))

    def test_tolerates_numerical_noise(self):
        mat = np.diag([0.7, 0.3]).astype(complex)
        mat[0, 1] = 1e-12
        mat[1, 0] = 1e-12
        DensityMatrix(mat)

    def test_stores_hermitian_part(self):
        mat = np.diag([0.7 + 1e-12j, 0.3]).astype(complex)
        mat[0, 1] = 1e-12 + 2e-12j
        mat[1, 0] = 3e-12
        stored = DensityMatrix(mat).matrix
        assert np.array_equal(stored, stored.conj().T)
        assert stored[0, 1] == 2e-12 + 1e-12j and stored[0, 0] == 0.7

    def test_hermitian_input_keeps_its_bits(self):
        # -0.0 equals its partner's 0.0, so it is not averaged into 0.0
        mat = np.array([[0.5, complex(-0.0, -0.1)], [0.1j, 0.5]])
        stored = DensityMatrix(mat).matrix
        assert np.array_equal(stored.view(np.int64), mat.view(np.int64))


class TestMLEReconstruct:
    def test_zero_iterations_returns_maximally_mixed(self):
        rng = np.random.default_rng(0)
        samples = coherent_samples(rng, 1.0, 500)
        result = _mle_reconstruct(samples, 8, max_iter=0)
        np.testing.assert_allclose(result.rho.matrix, np.eye(8) / 8.0, atol=1e-12)
        assert not result.converged
        assert result.iterations == 0

    @pytest.mark.parametrize("kwargs", [
        {"dim": 0}, {"dim": math.nan}, {"max_iter": -1}, {"max_iter": 2.5},
        {"tol": 0.0}, {"tol": math.nan}, {"tol": math.inf},
    ])
    def test_rejects_bad_arguments(self, kwargs):
        samples = coherent_samples(np.random.default_rng(0), 1.0, 50)
        with pytest.raises(ValidationError, match=f"^{next(iter(kwargs))} must"):
            _mle_reconstruct(samples, **{"dim": 4, **kwargs})

    def test_vacuum_reconstruction(self):
        rng = np.random.default_rng(101)
        theta = rng.uniform(0.0, TWO_PI, 100_000)
        xs = rng.normal(0.0, math.sqrt(0.5), theta.size)
        result = _mle_reconstruct(PhaseTaggedSamples(theta, xs), 10, max_iter=200, tol=1e-8)
        fid = fidelity(result.rho, _ideal_coherent_state(0.0, 10))
        assert fid > 0.99

    def test_coherent_reconstruction_improves_with_samples(self):
        # repeated ramp tags keep all three runs on the grouped fast path so
        # the largest can be driven to convergence
        rng = np.random.default_rng(77)
        target = _ideal_coherent_state(1.0, 15)
        fids = []
        for n in (1_000, 10_000, 100_000):
            tags = np.repeat(make_phase_ramp(50), n // 50)
            xs = rng.normal(math.sqrt(2.0) * np.cos(tags), math.sqrt(0.5))
            result = _mle_reconstruct(PhaseTaggedSamples(tags, xs), 15,
                                     max_iter=700, tol=1e-10)
            assert result.converged
            fids.append(fidelity(result.rho, target))
        assert fids[0] < fids[1] < fids[2]
        assert fids[2] > 0.99

    def test_coherent_alpha_two_reconstruction(self):
        # 1e5 vacuum-noise samples of |alpha = 2> at dim 25 recover the true
        # state well past 0.99 within a modest iteration budget
        rng = np.random.default_rng(88)
        tags = np.repeat(make_phase_ramp(100), 1000)
        xs = rng.normal(2.0 * math.sqrt(2.0) * np.cos(tags), math.sqrt(0.5))
        result = _mle_reconstruct(PhaseTaggedSamples(tags, xs), 25,
                                 max_iter=60, tol=1e-12)
        assert fidelity(result.rho, _ideal_coherent_state(2.0, 25)) > 0.99

    def test_log_likelihood_non_decreasing(self):
        rng = np.random.default_rng(5)
        result = _mle_reconstruct(coherent_samples(rng, 1.5, 5_000), 18,
                                 max_iter=150, tol=1e-12)
        assert np.all(np.diff(result.log_likelihood) >= 0.0)

    def test_non_convergence_flagged(self):
        rng = np.random.default_rng(6)
        result = _mle_reconstruct(coherent_samples(rng, 1.0, 2_000), 12,
                                 max_iter=3, tol=1e-15)
        assert not result.converged
        assert result.iterations == 3

    @pytest.mark.parametrize("uniform", [True, False])
    def test_grouped_and_dense_paths_agree(self, uniform):
        # 25 ramp phases measure 25 quadratures modulo pi, enough for dim 25
        rng = np.random.default_rng(9)
        if uniform:
            tags = np.repeat(make_phase_ramp(25), 64)
        else:
            ramp = make_phase_ramp(25)
            tags = np.concatenate([np.repeat(ramp, 48), np.repeat(ramp[::2], 64)])
        xs = rng.normal(np.sqrt(2.0) * np.cos(tags), math.sqrt(0.5))
        samples = PhaseTaggedSamples(tags, xs)
        for dim in (10, 25):
            engine = _make_engine(samples, dim)
            assert isinstance(engine, _GroupedEngine)
            dense = _DenseEngine(samples, dim)
            rho = np.eye(dim, dtype=complex) / dim
            for _ in range(3):
                probs_g = engine.probabilities(rho)
                probs_d = dense.probabilities(rho)
                np.testing.assert_allclose(np.sort(probs_g), np.sort(probs_d), rtol=1e-10)
                r_g = engine.r_operator(probs_g)
                r_d = dense.r_operator(probs_d)
                np.testing.assert_allclose(r_g, r_d, atol=1e-12)
                rho = r_d @ rho @ r_d
                rho /= np.trace(rho).real

    def test_distinct_tags_use_dense_path(self):
        rng = np.random.default_rng(10)
        samples = coherent_samples(rng, 0.5, 400)
        assert isinstance(_make_engine(samples, 6), _DenseEngine)

    def test_two_repeats_per_tag_use_dense_path(self):
        # below the measured crossover of 3 repeats the dense engine is faster
        tags = np.repeat(make_phase_ramp(16), 2)
        samples = PhaseTaggedSamples(tags, np.zeros(tags.size))
        assert isinstance(_make_engine(samples, 6), _DenseEngine)
        samples = PhaseTaggedSamples(np.repeat(tags[::2], 3), np.zeros(48))
        assert isinstance(_make_engine(samples, 6), _GroupedEngine)

    def test_probability_floor_diagnostic(self):
        # samples far outside the Fock window underflow and hit the floor
        samples = PhaseTaggedSamples(np.array([0.0, 0.0]), np.array([30.0, -30.0]))
        with pytest.warns(UserWarning, match="1 distinct quadratures"):  # one tag
            result = _mle_reconstruct(samples, 2, max_iter=2, tol=1e-12)
        assert result.floored > 0

    # a sample whose square overflows is an input error, not a floored
    # probability; the grouped engine squares sqrt(2) x, and both engines
    # take its limit, so both reject MAX_QUADRATURE itself
    @pytest.mark.parametrize("repeats, x_max, grouped", [
        (1, 1e200, False), (4, 1e200, True), (1, MAX_QUADRATURE, False),
        (4, MAX_QUADRATURE, True),
    ])
    def test_overflowing_quadrature_rejected(self, repeats, x_max, grouped):
        tags = np.repeat(make_phase_ramp(40), repeats)
        xs = np.zeros(tags.size)
        xs[7] = x_max
        engine = _make_engine(PhaseTaggedSamples(tags, np.zeros(tags.size)), 3)
        assert isinstance(engine, _GroupedEngine) == grouped
        with pytest.raises(ValidationError, match="overflows float64 when squared"):
            _mle_reconstruct(PhaseTaggedSamples(tags, xs), 3, max_iter=5)

    @pytest.mark.parametrize("repeats", [1, 4])
    def test_quadrature_bound_is_exact(self, repeats):
        # MAX_QUADRATURE / sqrt(2) is the largest sample either engine takes:
        # it is floored, with no overflow warning, and the next float up is
        # rejected
        tags = np.repeat(make_phase_ramp(40), repeats)
        xs = np.zeros(tags.size)
        bound = MAX_QUADRATURE / math.sqrt(2.0)
        xs[7] = -bound
        result = _mle_reconstruct(PhaseTaggedSamples(tags, xs), 3, max_iter=5)
        assert result.grouped == (repeats > 1)
        assert result.floored == 1 and result.gap == math.inf
        too_large = math.nextafter(bound, math.inf)
        xs[7] = too_large
        with pytest.raises(ValidationError, match=re.escape(f"quadrature {too_large!r} overflows")):
            PhaseTaggedSamples(tags, xs)

    def test_underflowing_quadrature_is_floored(self):
        # a finite square whose Gaussian underflows still reads as floored
        tags = make_phase_ramp(40)
        xs = np.zeros(tags.size)
        xs[7] = 1e100
        result = _mle_reconstruct(PhaseTaggedSamples(tags, xs), 3, max_iter=5)
        assert result.floored == 1
        assert result.gap == math.inf
        assert not result.converged

    def test_result_satisfies_density_contract(self):
        rng = np.random.default_rng(12)
        result = _mle_reconstruct(coherent_samples(rng, 1.0, 3_000), 12,
                                 max_iter=60, tol=1e-9)
        mat = result.rho.matrix
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
        assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(mat).min() >= -1e-12


@settings(max_examples=40, deadline=None)
@given(
    grouped=st.booleans(),
    dim=st.one_of(st.integers(1, 12), st.just(25)),
    seed=st.integers(0, 2**32 - 1),
)
@example(grouped=True, dim=25, seed=0)
@example(grouped=False, dim=25, seed=0)
def test_rank_one_kernel_matches_probabilities(grouped, dim, seed):
    rng = np.random.default_rng(seed)
    if grouped:
        ramp = make_phase_ramp(7) + rng.uniform(-math.pi, math.pi)
        tags = np.repeat(ramp, rng.integers(20, 40, 7))  # several bucket sizes
        engine = _GroupedEngine(PhaseTaggedSamples(tags, rng.normal(0.0, 1.5, tags.size)), dim)
    else:
        tags = rng.uniform(-math.pi, TWO_PI, 200)
        engine = _DenseEngine(PhaseTaggedSamples(tags, rng.normal(0.0, 1.5, tags.size)), dim)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    expected = engine.probabilities(np.outer(vec, vec.conj()))
    q = engine.rank_one(vec)
    # q / p - 1 >= -1 in the rank-one search needs q >= 0
    assert q.min() >= 0.0
    assert np.abs(q - expected).max() <= 1e-12 * np.abs(expected).max()


def test_product_basis_reproduces_hermite_products():
    # psi_m psi_n = sum_j a[m, n, j] chi_j, chi_j(x) = 2^{1/4} psi_j(sqrt(2) x),
    # with both tables from scipy's Hermite polynomials
    x = np.linspace(-8.0, 8.0, 801)

    def table(u, count):
        norms = [math.sqrt(2.0 ** n * factorial(n, exact=True) * math.sqrt(math.pi))
                 for n in range(count)]
        return np.stack([eval_hermite(n, u) * np.exp(-u * u / 2.0) / norms[n]
                         for n in range(count)], axis=1)

    for dim in range(1, 31):
        psi = table(x, dim)
        chi = 2.0 ** 0.25 * table(math.sqrt(2.0) * x, 2 * dim - 1)
        products = np.einsum("im,in->imn", psi, psi)
        rebuilt = np.einsum("mnj,ij->imn", _product_coefficients(dim), chi)
        assert np.abs(rebuilt - products).max() <= 1e-13, dim


def _mean_log1p(t, d):
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at t = 1
        return np.log1p(np.multiply.outer(t, d)).mean(axis=-1)


@settings(max_examples=80, deadline=None)
@given(d=arrays(np.float64, st.integers(1, 60),
                elements=st.one_of(st.floats(-1.0, 40.0), st.sampled_from([-1.0, 1e6, 1e100]))))
# a d just above -1 puts a pole of f' at t = 1, where a move far from the
# maximizer is tiny; the maximum is 0.1308 at t = 0.5
@example(d=np.array([np.nextafter(-1.0, 0.0), 1.0, 1.0, 1.0]))
@example(d=np.array([-1.0 + 1e-12, 1.0, 1.0, 1.0]))
# Newton steps from t = 0 grow from 1e-100; taken unchecked they crawl to
# t ~ 1e-88, where f = 13.86 against a maximum of 114.4 at t = 0.5
@example(d=np.array([-1.0, 1e100]))
def test_rank_one_search_matches_grid_argmax(d):
    grid = np.linspace(0.0, 1.0, 20_001)
    best = _mean_log1p(grid, d).max()
    t = _rank_one_search(d)
    assert 0.0 <= t <= 1.0
    assert _mean_log1p(t, d) >= best - 1e-12 * (1.0 + abs(best))


def test_rank_one_search_underflowing_curvature():
    # f rises on all of [0, 1], so the endpoint test returns t = 1 before a
    # Newton step divides by the curvature d * d, which underflows to 0
    assert _rank_one_search(np.full(8, 1e-170)) == 1.0


def test_near_pure_dense_case_takes_rank_one_steps():
    # the ML state of these samples is pure to four digits; the
    # reconstruction without the rank-one candidate needed 68 iterations
    rng = np.random.default_rng(41)
    samples = coherent_samples(rng, 1.0, 4_000)
    result = _mle_reconstruct(samples, 12, max_iter=500, tol=1e-10)
    assert not result.grouped and result.converged
    assert result.iterations == 7
    assert result.iterations <= 68 // 2
    assert result.rank_one_steps == 1
    assert independent_gap(samples, result.rho.matrix) <= 1e-10


def test_grouped_case_takes_rank_one_steps():
    # 25 ramp phases x 40 pulses of |alpha = 1> repeat every tag, so the
    # grouped engine runs, and the rank-one candidate wins 5 of 35 steps
    trace = simulate_heterodyne(4.0, make_phase_ramp(25, 40), HeterodyneModel(), 2)
    samples = samples_from_trace(trace)
    result = _mle_reconstruct(samples, 12)
    assert result.grouped and result.converged
    assert result.iterations == 35
    assert result.rank_one_steps == 5
    assert independent_gap(samples, result.rho.matrix) <= 1e-10


def coefficient_rank(tags, dim: int) -> int:
    """Rank of the linear map from a Hermitian rho to the grouped engine's
    per-tag coefficients c_t: dim^2 exactly when the quadrature
    distributions at these tags fix rho."""
    engine = _GroupedEngine(PhaseTaggedSamples(tags, np.zeros(len(tags))), dim)
    basis = []
    for a in range(dim):
        for b in range(a, dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[a, b] = 1.0
            basis.append(unit + unit.T)
            if a != b:
                basis.append(1j * (unit - unit.T))
    return int(np.linalg.matrix_rank(
        np.stack([engine._tag_coefficients(m).ravel() for m in basis])))


def completeness_warnings(tags, dim: int) -> list[str]:
    """The UserWarnings of building samples at tags and reconstructing at dim."""
    rng = np.random.default_rng(len(tags))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        samples = PhaseTaggedSamples(tags, rng.normal(0.0, math.sqrt(0.5), len(tags)))
        _mle_reconstruct(samples, dim, max_iter=0)
    return [str(w.message) for w in caught if issubclass(w.category, UserWarning)]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = Path(__file__).resolve().parents[1] / "README.md"


def complete_runs() -> dict:
    """Config of each benchmark tomography, at full and smoke size, and of the
    README quick start: each names at least dim quadratures."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclass looks its module up
    spec.loader.exec_module(workloads)
    runs = {}
    for size, table in (("full", workloads.FULL), ("smoke", workloads.TINY)):
        for name, workload in table.items():
            if "tomography" in workload.commands:
                entries = {**workload.simulate, **workload.analysis}
                runs[f"{size}-{name}"] = parse_config_text(
                    "".join(f"{key} = {value}\n" for key, value in entries.items()))
    configs = re.findall(r"^cat > (?:run|tomo)\.cfg <<EOF\n(.*?)^EOF$",
                         README.read_text(encoding="utf-8"), re.S | re.M)
    runs["readme"] = parse_config_text("".join(configs))
    return runs


COMPLETE_RUNS = complete_runs()


class TestInformationalCompleteness:
    @pytest.mark.parametrize("dim", [3, 5, 8])
    def test_rank_oracle(self, dim):
        # rho is fixed by its quadrature distributions exactly when the tags
        # name at least dim quadratures modulo pi, and the MLE warns exactly
        # when it is not
        for m in range(1, dim + 2):
            k = np.arange(m)
            # m evenly spaced quadratures; every other tag moved on by pi,
            # which measures the same quadrature, so the tags span 2 pi
            tags = np.repeat(math.pi * k / m + math.pi * (k % 2), 3)
            complete = coefficient_rank(tags, dim) == dim * dim
            assert complete == (m >= dim), m
            caught = completeness_warnings(tags, dim)
            assert caught == ([] if complete else [
                f"phase tags measure {m} distinct quadratures modulo pi, fewer than "
                f"dim = {dim}: the reconstruction is not informationally complete"]), m

    @pytest.mark.parametrize("dim, rank", [(3, 8), (5, 16)])
    def test_two_quadratures_of_three_tags_warn(self, dim, rank):
        # 0 and pi measure one quadrature: the tags span pi, and used to pass
        tags = np.repeat([0.0, math.pi / 2.0, math.pi], 200)
        assert coefficient_rank(tags, dim) == rank
        caught = completeness_warnings(tags, dim)
        assert len(caught) == 1 and f"2 distinct quadratures modulo pi, fewer than dim = {dim}" \
            in caught[0]

    def test_partial_sweep_of_60_quadratures_does_not_warn(self):
        # theta in [0, 1.5] rad and theta - pi/2 span less than pi, yet name 60
        # quadratures; this used to warn "span less than pi"
        theta = np.linspace(0.0, 1.5, 30)
        tags = np.repeat(np.concatenate([theta, theta - math.pi / 2.0]), 4)
        assert coefficient_rank(tags, 12) == 144
        assert completeness_warnings(tags, 12) == []

    @pytest.mark.parametrize("tags, count", [
        ([0.0, 1e-10, math.pi / 3.0, 2.0 * math.pi / 3.0], 3),
        ([0.0, math.pi - 1e-10, math.pi / 3.0, 2.0 * math.pi / 3.0 + 2.0 * math.pi], 3),
        ([0.0, 1e-8, math.pi / 3.0, 2.0 * math.pi / 3.0], 4),
    ])
    def test_tags_within_tolerance_modulo_pi_are_one_quadrature(self, tags, count):
        caught = completeness_warnings(np.array(tags), 5)
        assert len(caught) == 1 and f"measure {count} distinct quadratures" in caught[0]

    @pytest.mark.parametrize("name", sorted(COMPLETE_RUNS))
    def test_benchmark_and_quick_start_do_not_warn(self, name):
        config = COMPLETE_RUNS[name]
        phases = make_phase_ramp(config.n_phases, config.pulses_per_phase)
        trace = simulate_heterodyne(config.amplitude_sq, phases,
                                    HeterodyneModel(config.asymmetry_percent), config.seed)
        samples = samples_from_trace(trace, config.use_true_phase, config.block,
                                     config.amplitude_scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            _make_engine(samples, config.dim)


class TestMLECertificate:
    @pytest.mark.parametrize("grouped", [True, False])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_converged_means_certified_gap(self, grouped, tol):
        rng = np.random.default_rng(31)
        if grouped:
            # 20 ramp phases measure 10 quadratures modulo pi, fewer than dim:
            # the likelihood is certified, though it does not fix the state
            tags = np.repeat(make_phase_ramp(20), 150)
            samples = PhaseTaggedSamples(
                tags, rng.normal(math.sqrt(2.0) * np.cos(tags), math.sqrt(0.5)))
            with pytest.warns(UserWarning, match="10 distinct quadratures .* dim = 12"):
                result = _mle_reconstruct(samples, 12, max_iter=500, tol=tol)
        else:
            samples = coherent_samples(rng, 1.0, 3_000)
            result = _mle_reconstruct(samples, 12, max_iter=500, tol=tol)
        assert result.grouped == grouped
        assert result.converged
        gap = independent_gap(samples, result.rho.matrix)
        assert gap <= tol
        assert result.gap == pytest.approx(gap, abs=1e-12)

    def test_unconverged_gap_reported(self):
        rng = np.random.default_rng(6)
        samples = coherent_samples(rng, 1.0, 2_000)
        result = _mle_reconstruct(samples, 12, max_iter=3, tol=1e-10)
        assert not result.converged
        assert result.gap > 1e-10
        assert result.gap == pytest.approx(independent_gap(samples, result.rho.matrix),
                                           abs=1e-12)

    def test_flat_likelihood_is_not_converged(self):
        # every probability underflows, so no step can raise the likelihood
        # and the optimality bound does not hold: a stalled iteration must
        # not be reported as convergence
        samples = PhaseTaggedSamples(np.array([0.0, 0.0, math.pi, math.pi]),
                                     np.array([30.0, -30.0, 31.0, -29.0]))
        with pytest.warns(UserWarning, match="1 distinct quadratures"):  # 0 and pi: one quadrature
            result = _mle_reconstruct(samples, 3, max_iter=500, tol=1e-10)
        assert not result.converged
        assert result.gap == math.inf
        assert result.iterations == 0
        assert result.floored == samples.n


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(3, 8),
    grouped=st.booleans(),
    xs=arrays(np.float64, st.integers(200, 400), elements=st.floats(-4.0, 4.0)),
)
def test_mle_result_invariants(dim, grouped, xs):
    n = xs.size
    if grouped:
        tags = make_phase_ramp(16)[np.arange(n) % 16]
    else:  # golden-angle tags never repeat
        tags = np.mod(np.arange(n) * math.pi * (3.0 - math.sqrt(5.0)), TWO_PI)
    samples = PhaseTaggedSamples(tags, xs)
    tol = 1e-9
    result = _mle_reconstruct(samples, dim, max_iter=300, tol=tol)
    assert result.grouped == grouped
    mat = result.rho.matrix
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
    assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(mat).min() >= -1e-12
    assert np.all(np.diff(result.log_likelihood) >= 0.0)
    if result.converged:
        assert independent_gap(samples, mat) <= tol


class TestWigner:
    def test_vacuum_centre(self):
        axis = np.linspace(-6.0, 6.0, 121)
        grid = _wigner(_ideal_coherent_state(0.0, 8), axis)
        assert grid.values[60, 60] == pytest.approx(1.0 / math.pi, abs=1e-6)

    def test_single_photon_negativity(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = 1.0
        axis = np.linspace(-6.0, 6.0, 121)
        grid = _wigner(DensityMatrix(mat), axis)
        assert grid.values[60, 60] == pytest.approx(-1.0 / math.pi, abs=1e-6)

    def test_coherent_matches_analytic_gaussian(self):
        alpha = 1.0 + 0.5j
        axis = np.linspace(-5.0, 5.0, 81)
        grid = _wigner(_ideal_coherent_state(alpha, 25), axis)
        gx, gp = np.meshgrid(axis, axis, indexing="ij")
        analytic = np.exp(-(gx - math.sqrt(2.0) * alpha.real) ** 2
                          - (gp - math.sqrt(2.0) * alpha.imag) ** 2) / math.pi
        np.testing.assert_allclose(grid.values, analytic, atol=1e-7)

    def test_matches_scipy_laguerre_oracle(self):
        # independent route: W_mn via scipy generalized Laguerre polynomials
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        mat = raw @ raw.conj().T
        mat /= np.trace(mat).real
        rho = DensityMatrix(mat)
        axis = np.linspace(-3.0, 3.0, 21)
        grid = _wigner(rho, axis)
        gx, gp = np.meshgrid(axis, axis, indexing="ij")
        r_sq = gx ** 2 + gp ** 2
        oracle = np.zeros_like(gx, dtype=complex)
        for m in range(6):
            for n in range(6):
                lo, hi = min(m, n), max(m, n)
                base = ((-1.0) ** lo * (gx - 1j * gp) ** (hi - lo)
                        * math.sqrt(2.0 ** (hi - lo) * factorial(lo, exact=True)
                                    / factorial(hi, exact=True))
                        * eval_genlaguerre(lo, hi - lo, 2.0 * r_sq))
                term = base if m >= n else np.conj(base)
                oracle += mat[m, n] * term * np.exp(-r_sq) / math.pi
        np.testing.assert_allclose(grid.values, oracle.real, atol=1e-10)

    def test_normalization_on_wide_grid(self):
        axis = np.linspace(-6.0, 6.0, 121)
        for alpha in (0.0, 1.0, 2.0):
            grid = _wigner(_ideal_coherent_state(alpha, 25), axis)
            assert 0.98 <= grid.normalization() <= 1.001

    def test_bound_respected(self):
        axis = np.linspace(-6.0, 6.0, 121)
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        mat = raw @ raw.conj().T
        mat /= np.trace(mat).real
        grid = _wigner(DensityMatrix(mat), axis)
        assert np.abs(grid.values).max() <= 1.0 / math.pi + 1e-6

    @pytest.mark.parametrize("extent", [1e8, 1e200])
    def test_far_grid_is_finite(self, extent):
        # at dim 25 the Laguerre sums overflowed from about 1e8 on, and r^2
        # from 1.3e154 on; W is 0 wherever e^{-r^2} rounds to 0
        rho = _ideal_coherent_state(0.5, 25)
        far = _wigner(rho, [-extent, -1.0, 0.0, 0.5, 1.0, extent])
        near = _wigner(rho, [-1.0, 0.0, 0.5, 1.0])
        np.testing.assert_allclose(far.values[1:5, 1:5], near.values, rtol=1e-12, atol=0.0)
        outside = far.values.copy()
        outside[1:5, 1:5] = 0.0
        assert not np.any(outside)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            WignerGrid(np.array([1.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            WignerGrid(np.array([0.0, 1.0]), np.zeros((3, 2)))

    @pytest.mark.parametrize("value, message", [
        (math.nan, "non-finite entries"), (1.0 / math.pi + 2e-6, "1/pi bound"),
    ])
    def test_rejects_bad_values(self, value, message):
        axis = np.array([0.0, 1.0])
        with pytest.raises(ValidationError, match=message):
            WignerGrid(axis, np.full((2, 2), value))


class TestFidelity:
    def random_density(self, rng, dim):
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = raw @ raw.conj().T
        mat /= np.trace(mat).real
        return DensityMatrix(mat)

    def test_self_fidelity(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            rho = self.random_density(rng, int(rng.integers(2, 16)))
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        zero = np.zeros((4, 4), dtype=complex)
        one = zero.copy()
        zero[0, 0] = 1.0
        one[1, 1] = 1.0
        assert fidelity(DensityMatrix(zero), DensityMatrix(one)) == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_versus_unit_coherent(self):
        f = fidelity(_ideal_coherent_state(0.0, 20), _ideal_coherent_state(1.0, 20))
        assert f == pytest.approx(math.exp(-0.5), abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            rho = self.random_density(rng, 10)
            sigma = self.random_density(rng, 10)
            assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-8

    def test_pure_state_overlap(self):
        # for pure states the root fidelity is |<a|b>|
        a, b = 0.8, 1.3 + 0.4j
        overlap = math.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2
                           + (np.conj(a) * b).real)
        f = fidelity(_ideal_coherent_state(a, 30), _ideal_coherent_state(b, 30))
        assert f == pytest.approx(overlap, abs=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            fidelity(_ideal_coherent_state(0.0, 4), _ideal_coherent_state(0.0, 5))

    @pytest.fixture(scope="class")
    def reconstruction(self):
        # a grouped-engine ML state, near pure, with eigenvalues down to rounding
        trace = simulate_heterodyne(4.0, make_phase_ramp(25, 40), HeterodyneModel(), 2)
        return _mle_reconstruct(samples_from_trace(trace), 12).rho

    def test_pure_reference_gives_overlap(self, reconstruction):
        # against |a><a| the root fidelity is sqrt(<a|rho|a>); summing the
        # square roots of rounding-level eigenvalues overstated it by 1.5e-8
        reference = _ideal_coherent_state(_fit_coherent(reconstruction), 12)
        overlap = math.sqrt(np.trace(reconstruction.matrix @ reference.matrix).real)
        assert abs(fidelity(reconstruction, reference) - overlap) <= 1e-13
        assert abs(fidelity(reference, reconstruction) - overlap) <= 1e-13

    def test_reconstruction_self_fidelity(self, reconstruction):
        assert abs(fidelity(reconstruction, reconstruction) - 1.0) <= 1e-13


class TestSamplesFromTrace:
    def trace(self, amp=4.0, n=64):
        theta = make_phase_ramp(n)
        return QuadratureTrace(amp * np.cos(theta), amp * np.sin(theta), theta)

    def test_both_quadratures_tagged(self):
        tr = self.trace()
        samples = samples_from_trace(tr)
        assert samples.n == 2 * tr.n
        np.testing.assert_allclose(samples.theta[:tr.n], tr.phase_true)
        np.testing.assert_allclose(samples.theta[tr.n:], tr.phase_true - math.pi / 2)
        np.testing.assert_allclose(samples.x[:tr.n], tr.x / math.sqrt(2.0))
        np.testing.assert_allclose(samples.x[tr.n:], tr.p / math.sqrt(2.0))

    def test_amplitude_scale(self):
        tr = self.trace()
        samples = samples_from_trace(tr, amplitude_scale=2.0)
        np.testing.assert_allclose(samples.x[:tr.n], tr.x / (2.0 * math.sqrt(2.0)))

    def test_estimated_phases(self):
        tr = self.trace()
        samples = samples_from_trace(tr, use_true_phase=False)
        np.testing.assert_allclose(samples.theta[:tr.n], np.arctan2(tr.p, tr.x), atol=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"amplitude_scale": 0.0}, {"amplitude_scale": -1.0}, {"amplitude_scale": math.nan},
        {"amplitude_scale": math.inf}, {"block": 0}, {"block": math.nan},
    ])
    def test_rejects_bad_arguments(self, kwargs):
        # block is checked even when the true phases make it unused
        with pytest.raises(ValidationError, match=f"^{next(iter(kwargs))} must"):
            samples_from_trace(self.trace(), **kwargs)

    @pytest.mark.parametrize("column, value, amplitude_scale", [
        ("x", 2e154, 1.0), ("p", -2e154, 1.0), ("p", 1e154, 0.5),
    ])
    def test_names_an_overflowing_sample_in_snu(self, column, value, amplitude_scale):
        # the message used to name the internal value, SNU / (sqrt(2) amplitude_scale)
        tr = self.trace()
        x, p = tr.x.copy(), tr.p.copy()
        (x if column == "x" else p)[5] = value
        message = f"{column} = {value!r} SNU at index 5 overflows float64 when squared"
        with pytest.raises(ValidationError, match=re.escape(message)):
            samples_from_trace(QuadratureTrace(x, p, tr.phase_true),
                               amplitude_scale=amplitude_scale)

    def test_requires_phase_column(self):
        tr = QuadratureTrace([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValidationError):
            samples_from_trace(tr)

    @pytest.mark.parametrize("theta, x, message", [
        ([0.0, 1.0], [0.5], r"differ in length \(2 vs 1\)"), ([], [], "samples are empty"),
    ])
    def test_rejects_malformed_samples(self, theta, x, message):
        with pytest.raises(ValidationError, match=message):
            PhaseTaggedSamples(np.array(theta), np.array(x))

    @pytest.mark.parametrize("tag", [2.0**53 + 2.0, -1.7e308])
    def test_rejects_tag_beyond_2_to_the_53(self, tag):
        # k tag overflowed the grouped engine's angle table from about 1e307 on
        with pytest.raises(ValidationError, match=re.escape(f"phase tag {tag!r} rad is beyond")):
            PhaseTaggedSamples(np.array([0.0, 1.0, 2.0, tag]), np.zeros(4))
        PhaseTaggedSamples(np.array([0.0, 1.0, 2.0, math.copysign(2.0**53, tag)]), np.zeros(4))

    def test_narrow_span_warns(self):
        samples = PhaseTaggedSamples(np.array([0.0, 0.1]), np.array([0.5, 0.5]))
        # two tags 0.1 rad apart name two quadratures, fewer than dim
        with pytest.warns(UserWarning, match="2 distinct quadratures .* fewer than dim = 3"):
            _mle_reconstruct(samples, 3, max_iter=2)

    def test_coherent_identity_end_to_end(self):
        # a noiseless trace of amplitude A maps onto the coherent state A/2
        tr = self.trace(amp=4.0, n=128)
        samples = samples_from_trace(tr)
        result = _mle_reconstruct(samples, 25, max_iter=400, tol=1e-10)
        alpha = _fit_coherent(result.rho)
        assert abs(alpha - 2.0) < 0.05


def no_mle(*args, **kwargs):
    raise AssertionError("mle_reconstruct ran")


class TestAnalyzeTomography:
    def trace(self, n=64):
        theta = make_phase_ramp(n)
        return QuadratureTrace(4.0 * np.cos(theta), 4.0 * np.sin(theta), theta)

    def test_report_is_the_cli_report(self, tmp_path):
        phases = make_phase_ramp(25, pulses_per_phase=40)
        raw = tmp_path / "raw.csv"
        write_trace_csv(raw, simulate_heterodyne(4.0, phases, HeterodyneModel(), seed=1),
                        "simulate", RunConfig())
        cfg = tmp_path / "tomo.cfg"
        cfg.write_text("dim = 12\nwigner_points = 31\n", encoding="utf-8")
        assert main(["tomography", str(raw), "--config", str(cfg),
                     "--out", str(tmp_path / "tomo")]) == 0
        report = [line.split(" = ", 1) for line in
                  (tmp_path / "tomo.report.txt").read_text().splitlines()
                  if not line.startswith("#")]
        analysis = analyze_tomography(read_trace_csv(raw), dim=12, wigner_points=31)
        entries = analysis.report()
        assert [key for key, _ in report] == [key for key, _ in entries]
        assert [value for _, value in report] == [render(value) for _, value in entries]
        written = read_density_csv(tmp_path / "tomo.rho.csv").matrix
        assert written.tobytes() == analysis.result.rho.matrix.tobytes()

    @pytest.mark.parametrize("points", [1001, 10_000_000])
    def test_huge_grid_raises_before_the_mle(self, monkeypatch, points):
        # a 10^7 x 10^7 grid used to run the whole MLE, then fail to allocate
        monkeypatch.setattr(tomography, "_mle_reconstruct", no_mle)
        with pytest.raises(ValidationError, match=f"^wigner_points = {points} is too large"):
            analyze_tomography(self.trace(), wigner_points=points)

    @pytest.mark.parametrize("extent, points", [(1e200, 31), (1.7e308, 2), (1e155, 2)])
    def test_cell_area_overflow_raises_before_the_mle(self, monkeypatch, extent, points):
        # the normalization sums W times the cell area, which overflows here
        monkeypatch.setattr(tomography, "_mle_reconstruct", no_mle)
        with pytest.raises(ValidationError,
                           match=re.escape(f"wigner_extent = {extent!r} is too large")):
            analyze_tomography(self.trace(), wigner_extent=extent, wigner_points=points)

    @pytest.mark.parametrize("extent, points", [(5e-324, 31), (1e-321, 1000)])
    def test_unresolved_axis_raises_before_the_mle(self, monkeypatch, extent, points):
        # np.linspace rounds some of the points together
        monkeypatch.setattr(tomography, "_mle_reconstruct", no_mle)
        with pytest.raises(ValidationError, match=re.escape(
                f"wigner_points = {points} over +-wigner_extent = {extent!r} must have")):
            analyze_tomography(self.trace(), wigner_extent=extent, wigner_points=points)

    def test_largest_grid_reaches_the_mle(self, monkeypatch):
        monkeypatch.setattr(tomography, "_mle_reconstruct", no_mle)
        with pytest.raises(AssertionError, match="mle_reconstruct ran"):
            analyze_tomography(self.trace(), wigner_points=1000)
