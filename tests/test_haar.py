"""The rotation/reflection Haar sampler and its QR oracle."""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest, ortho_group

from zonalpoly.haar import (
    BLOCK,
    _realize,
    oracle_sample_batch,
    orthogonality_check,
    sample_orthogonal_batch,
)


def rounded_ks(xs, ys):
    """Two-sample KS on a common grid.

    Mixed distributions here carry atoms (the trace of a 2x2 reflection is
    exactly zero); rounding aligns the atoms across samplers and leaves the
    tie-heavy test conservative.
    """
    return ks_2samp(np.round(xs, 12), np.round(ys, 12)).pvalue


def strided_reference_draw(n, count, rng):
    """Angles by key and (count, n) bits, drawn as sample_orthogonal_batch draws them.

    A Beta(1, 1) angle, exponent one, takes its c from ``rng.random``; every
    other Beta angle goes through ``rng.beta`` and every uniform one through
    ``rng.uniform``, and all bits come in one draw after all angles.
    """
    thetas = {}
    for i in range(1, n):
        for j in range(i, n):
            k = n - j - 1
            if k > 0:
                half = (k + 1) / 2.0
                c = rng.random(count) if k == 1 else rng.beta(half, half, size=count)
                thetas[(i, j)] = np.arccos(2.0 * c - 1.0)
            else:
                thetas[(i, j)] = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return thetas, rng.integers(0, 2, size=(count, n))


def strided_reference_rotate(n, thetas, bits):
    """Matrices from angles by key and (count, n) bits on a C-ordered stack.

    Rotates two strided columns out of place per factor.  The package's
    column-major sweep must reproduce it bit for bit.
    """
    q = np.broadcast_to(np.eye(n), (len(bits), n, n)).copy()
    for i in range(1, n):
        for j in range(n - 1, i - 1, -1):
            c = np.cos(thetas[(i, j)])[:, None]
            s = np.sin(thetas[(i, j)])[:, None]
            left = q[..., j - 1].copy()
            right = q[..., j]
            q[..., j - 1] = c * left - s * right
            q[..., j] = s * left + c * right
    return (1.0 - 2.0 * bits)[:, :, None] * q


def strided_reference_batch(n, count, rng):
    """Reference sampler on a C-ordered (count, n, n) stack."""
    return strided_reference_rotate(n, *strided_reference_draw(n, count, rng))


def realize_with_twin(n, thetas, seed):
    """``_realize`` of (n(n-1)/2, count) angles in one block, with the bits it drew.

    The bits come from a twin of the generator ``_realize`` draws from, in
    the one (count, n) call that a single block makes.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(n * (n - 1) // 2, -1)
    assert thetas.shape[1] <= BLOCK // n
    (block,) = _realize(thetas, n, np.random.default_rng(seed))
    bits = np.random.default_rng(seed).integers(0, 2, size=(thetas.shape[1], n))
    return block.copy(), bits


def signs(bits):
    """The reflection factor of each draw, diag(1 - 2 b), as a (count, n, n) stack."""
    return np.stack([np.diag(1.0 - 2.0 * b) for b in bits])


class TestRealize:
    def test_two_dimensional_rotation(self):
        theta = 0.7
        q, bits = realize_with_twin(2, [theta], 1)
        expected = np.array(
            [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
        )
        assert np.allclose(q, signs(bits) @ expected, atol=1e-15)

    def test_all_reflections_no_rotation(self):
        qs, bits = realize_with_twin(3, np.zeros((3, 16)), 2)
        assert (bits == 1).all(axis=1).any()  # the seed reaches all three reflections
        assert np.array_equal(qs, signs(bits))

    def test_rotation_times_inverse(self):
        theta = 1.2
        (fwd, back), bits = realize_with_twin(2, [[theta, 2 * math.pi - theta]], 3)
        fwd, back = signs(bits) @ np.stack([fwd, back])  # each draw's reflections undone
        assert np.allclose(fwd @ back, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_special_angles_match_strided_reference(self, n):
        # angles with exact zeros in their sines and cosines, where a
        # rotation that skips rows or reorders its roundings flips signed zeros
        keys = [(i, j) for i in range(1, n) for j in range(i, n)]
        sweep = (0.0, math.pi / 2, 2.0, 3.0, math.pi)
        choices = [sweep if n - j - 1 > 0 else sweep + (6.0,) for _, j in keys]
        rng = np.random.default_rng(n)
        if math.prod(map(len, choices)) <= 2000:
            angles = np.array(list(itertools.product(*choices))).reshape(-1, len(keys))
        else:  # 2000 random picks
            angles = np.column_stack([rng.choice(values, 2000) for values in choices])
        got, bits = realize_with_twin(n, angles.T, n)
        expected = strided_reference_rotate(n, dict(zip(keys, angles.T)), bits)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 30))
    def test_realized_matrices_are_orthogonal(self, n):
        qs = sample_orthogonal_batch(n, 10, np.random.default_rng(91))
        assert orthogonality_check(qs, 1e-12)
        assert np.all(np.abs(np.abs(np.linalg.det(qs)) - 1.0) < 1e-10)


class TestOrthogonalityCheck:
    def test_identity(self):
        assert orthogonality_check(np.eye(4), 1e-300)

    def test_perturbed_identity(self):
        q = np.eye(3)
        q[0, 1] += 1e-6
        assert not orthogonality_check(q, 1e-9)
        assert orthogonality_check(q, 1e-3)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            orthogonality_check(np.eye(2), 0.0)

    @pytest.mark.parametrize("count", (3, 5))
    def test_stacks_check_every_matrix(self, count):
        # q.T reverses every axis: with count == n it still multiplies, but
        # pairs the wrong matrices, and with count != n it cannot multiply
        qs = sample_orthogonal_batch(3, count, np.random.default_rng(3))
        assert orthogonality_check(qs, 1e-12)
        qs[-1, 0, 1] += 1e-6
        assert not orthogonality_check(qs, 1e-9)


class TestDeterminism:
    @pytest.mark.parametrize(
        "n, count",
        (
            (1, 20),
            (2, 50),
            (3, 200),
            (7, 40),
            (30, 12),
            # several blocks of BLOCK // n draws, the last one partial
            (3, 2 * (BLOCK // 3) + 5),
            (30, 2 * (BLOCK // 30) + 7),
            # nine sweeps of different widths over three blocks, the last partial
            (10, 2 * (BLOCK // 10) + 3),
            # a batch longer than BLOCK itself, in one draw per angle row
            (3, 2 * BLOCK + 3),
        ),
    )
    def test_batch_matches_strided_reference(self, n, count):
        rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
        batch = sample_orthogonal_batch(n, count, rng)
        assert np.array_equal(batch, strided_reference_batch(n, count, ref_rng))
        assert batch.flags.c_contiguous
        assert rng.random() == ref_rng.random()  # same stream consumption

    def test_batch_reproducible(self):
        b1 = sample_orthogonal_batch(3, 50, np.random.default_rng(33))
        b2 = sample_orthogonal_batch(3, 50, np.random.default_rng(33))
        assert np.array_equal(b1, b2)

    def test_integer_seed_accepted(self):
        assert np.array_equal(sample_orthogonal_batch(2, 3, 9), sample_orthogonal_batch(2, 3, 9))


class TestOneDimensional:
    def test_values_are_signs(self):
        qs = sample_orthogonal_batch(1, 500, np.random.default_rng(3))
        values = qs[:, 0, 0]
        assert set(np.unique(values)) == {-1.0, 1.0}
        # both components within a loose binomial window
        assert 0.4 < (values == 1.0).mean() < 0.6


class TestSamplerStatistics:
    SAMPLES = 30_000

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_squared_entry_moment(self, n):
        qs = sample_orthogonal_batch(n, self.SAMPLES, np.random.default_rng(100 + n))
        for i, j in ((0, 0), (n - 1, 0), (0, n - 1)):
            x = qs[:, i, j] ** 2
            se = x.std(ddof=1) / math.sqrt(x.size)
            assert abs(x.mean() - 1 / n) <= 3 * se

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_fourth_moment(self, n):
        qs = sample_orthogonal_batch(n, self.SAMPLES, np.random.default_rng(200 + n))
        x = qs[:, 0, 0] ** 4
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 3 / (n * (n + 2))) <= 3 * se

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_det_sign_frequency(self, n):
        qs = sample_orthogonal_batch(n, self.SAMPLES, np.random.default_rng(300 + n))
        freq = (np.linalg.det(qs) < 0).mean()
        assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / self.SAMPLES)

    @pytest.mark.parametrize("n", (2, 3))
    def test_left_invariance_moments(self, n):
        # fixing an orthogonal P must not move the entry moments of P Q
        theta = 0.7
        p = np.eye(n)
        p[:2, :2] = [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
        qs = p @ sample_orthogonal_batch(n, self.SAMPLES, np.random.default_rng(400 + n))
        x2 = qs[:, 0, 0] ** 2
        se2 = x2.std(ddof=1) / math.sqrt(x2.size)
        assert abs(x2.mean() - 1 / n) <= 3 * se2
        x4 = qs[:, 0, 0] ** 4
        se4 = x4.std(ddof=1) / math.sqrt(x4.size)
        assert abs(x4.mean() - 3 / (n * (n + 2))) <= 3 * se4


class TestOracle:
    def test_orthogonality(self):
        rng = np.random.default_rng(55)
        for n in (1, 2, 4):
            assert orthogonality_check(oracle_sample_batch(n, 10, rng), 1e-12)

    def test_first_column_angle_uniform(self):
        qs = oracle_sample_batch(2, 100_000, np.random.default_rng(60))
        angles = np.arctan2(qs[:, 1, 0], qs[:, 0, 0])
        p = kstest(angles, "uniform", args=(-math.pi, 2 * math.pi)).pvalue
        assert p > 0.01

    def test_squared_entry_moment(self):
        for n in (2, 3):
            qs = oracle_sample_batch(n, 30_000, np.random.default_rng(71 + n))
            x = qs[:, 0, 0] ** 2
            se = x.std(ddof=1) / math.sqrt(x.size)
            assert abs(x.mean() - 1 / n) <= 3 * se

    def test_det_signs_cover_both_components(self):
        qs = oracle_sample_batch(3, 30_000, np.random.default_rng(80))
        freq = (np.linalg.det(qs) < 0).mean()
        assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / 30_000)


def scipy_ortho_group_batch(n, count, rng):
    """scipy's Haar sampler on O(n), a second oracle independent of this package."""
    return ortho_group.rvs(n, size=count, random_state=rng).reshape(count, n, n)


class TestTwoSamplerAgreement:
    """Smaller version of the full distributional battery (see acceptance)."""

    SAMPLES = 30_000

    @pytest.mark.parametrize(
        "n, oracle",
        [pytest.param(n, oracle_sample_batch, id=str(n)) for n in (2, 3, 4)]
        + [pytest.param(n, scipy_ortho_group_batch, id=f"{n}-scipy") for n in (2, 3, 4)],
    )
    def test_ks_battery(self, n, oracle):
        qs = sample_orthogonal_batch(n, self.SAMPLES, np.random.default_rng(500 + n))
        qo = oracle(n, self.SAMPLES, np.random.default_rng(600 + n))
        assert rounded_ks(np.trace(qs, axis1=1, axis2=2), np.trace(qo, axis1=1, axis2=2)) > 0.01
        assert rounded_ks(qs[:, 0, 0], qo[:, 0, 0]) > 0.01
        assert rounded_ks(qs[:, 0, 0] ** 2, qo[:, 0, 0] ** 2) > 0.01
