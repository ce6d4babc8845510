"""The rotation/reflection Haar sampler and its QR oracle."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.stats import beta, ks_2samp, kstest, ortho_group

from zonalpoly import haar
from zonalpoly.haar import (
    BLOCK,
    _realize,
    _sweep_rotations,
    oracle_sample_batch,
    sample_orthogonal_batch,
)

from oracles import orthogonality_check


def rounded_ks(xs, ys):
    """Two-sample KS on a common grid.

    Mixed distributions here carry atoms (the trace of a 2x2 reflection is
    exactly zero); rounding aligns the atoms across samplers and leaves the
    tie-heavy test conservative.
    """
    return ks_2samp(np.round(xs, 12), np.round(ys, 12)).pvalue


def normal_rows(n):
    """Normals per draw: sweep i = 1, ..., n - 1 takes n - i + 1 of them, in turn."""
    return n * (n + 1) // 2 - 1


def strided_reference_rotations(n, normals):
    """Cosine and sine by key (i, j), recomputed from a block's (rows, m) normals.

    Sweep i takes the next d + 1 = n - i + 1 rows g_0..g_d.  The rotation of
    key (i, j), r = j - i, gets c = g_r / R_r and s = R_(r+1) / R_r, or
    s = g_d / R_(d-1) for r = d - 1, with R_k = sqrt(g_k^2 + ... + g_d^2)
    summed from g_d^2 up; where R_r = 0 it is the identity, c = 1 and s = 0.
    Each key computes its own radii, so nothing is shared between keys.
    """

    def radius(g, k):
        total = g[-1] * g[-1]
        for x in g[k:-1][::-1]:
            total = x * x + total
        return np.sqrt(total)

    rotations, first = {}, 0
    for i in range(1, n):
        d = n - i
        g = normals[first : first + d + 1]
        for r in range(d):
            radius_r = radius(g, r)
            with np.errstate(invalid="ignore"):
                c = g[r] / radius_r
                s = (radius(g, r + 1) if r < d - 1 else g[d]) / radius_r
            rotations[(i, i + r)] = (
                np.where(radius_r == 0.0, 1.0, c),
                np.where(radius_r == 0.0, 0.0, s),
            )
        first += d + 1
    return rotations


def strided_reference_draw(n, count, rng):
    """Cosines and sines by key and (count,) bits, drawn as sample_orthogonal_batch draws them.

    Per block of BLOCK // n draws, all the block's normals in one
    (rows, m) draw, then its m bits, one per draw.
    """
    size = max(1, min(count, BLOCK // n))
    blocks, bits = [], []
    for start in range(0, count, size):
        m = min(size, count - start)
        blocks.append(strided_reference_rotations(n, rng.standard_normal((normal_rows(n), m))))
        bits.append(rng.integers(0, 2, size=m))
    rotations = {
        key: tuple(map(np.concatenate, zip(*(block[key] for block in blocks)))) for key in blocks[0]
    }
    return rotations, np.concatenate(bits)


def reflect_row_zero(q, bits):
    """Each draw of a (count, n, n) stack with row 0 times 1 - 2 b, b its bit, in place."""
    q[:, 0] *= (1.0 - 2.0 * bits)[:, None]
    return q


def strided_reference_rotate(n, rotations, bits):
    """Matrices from cosines and sines by key and (count,) bits on a C-ordered stack.

    The subgroup order: the sweeps are multiplied onto the identity from
    the left, i = n - 1 down to 1, and factor (i, j) of sweep i, from
    j = i up, rotates rows j - 1 and j over the trailing columns
    i - 1, ..., n - 1, two strided rows out of place.  The package's
    draw-minor sweep must reproduce it bit for bit.
    """
    q = np.broadcast_to(np.eye(n), (len(bits), n, n)).copy()
    for i in range(n - 1, 0, -1):
        for j in range(i, n):
            c, s = (x[:, None] for x in rotations[(i, j)])
            top = q[:, j - 1, i - 1 :].copy()
            bottom = q[:, j, i - 1 :]
            q[:, j - 1, i - 1 :] = c * top + s * bottom
            q[:, j, i - 1 :] = c * bottom - s * top
    return reflect_row_zero(q, bits)


def left_to_right_rotate(n, rotations, bits):
    """The same product formed left to right, sweep i = 1 first, on whole columns.

    Factor (i, j), from j = n - 1 down, rotates columns j - 1 and j over
    all n rows.  It rounds differently from the subgroup order, so it is
    an independent check of the product, not of its bits.
    """
    q = np.broadcast_to(np.eye(n), (len(bits), n, n)).copy()
    for i in range(1, n):
        for j in range(n - 1, i - 1, -1):
            c, s = (x[:, None] for x in rotations[(i, j)])
            left = q[..., j - 1].copy()
            right = q[..., j]
            q[..., j - 1] = c * left - s * right
            q[..., j] = s * left + c * right
    return reflect_row_zero(q, bits)


def strided_reference_batch(n, count, rng):
    """Reference sampler on a C-ordered (count, n, n) stack."""
    return strided_reference_rotate(n, *strided_reference_draw(n, count, rng))


class FixedNormals:
    """A generator stand-in: fixed normals, and bits from a generator seeded with ``seed``.

    With ``seed=None`` every bit is 0: no draw is reflected.
    """

    def __init__(self, normals, seed):
        self.normals = normals
        self.bits = None if seed is None else np.random.default_rng(seed)

    def standard_normal(self, out):
        out[...] = self.normals
        return out

    def integers(self, low, high, size):
        if self.bits is None:
            return np.zeros(size, dtype=np.int64)
        return self.bits.integers(low, high, size=size)


def realize_with_twin(n, normals, seed):
    """``_realize`` of one block of (rows, count) normals, with the (count,) bits it drew.

    The normals are fed through ``FixedNormals``; the bits come from a twin
    of its generator, in the one call of one bit per draw that a single
    block makes.  The draw-minor block is transposed to a (count, n, n)
    stack.
    """
    normals = np.asarray(normals, dtype=float).reshape(normal_rows(n), -1)
    count = normals.shape[1]
    assert count <= BLOCK // n
    (block,) = _realize(n, count, FixedNormals(normals, seed))
    if seed is None:
        bits = np.zeros(count, dtype=np.int64)
    else:
        bits = np.random.default_rng(seed).integers(0, 2, size=count)
    return block.transpose(2, 0, 1).copy(), bits


def signs(n, bits):
    """The reflection factor of each draw, diag(1 - 2 b, 1, ..., 1), as a (count, n, n) stack."""
    return reflect_row_zero(np.broadcast_to(np.eye(n), (len(bits), n, n)).copy(), bits)


def special_sweeps(width):
    """Normals of one sweep with exact zeros in its cosines and sines.

    Every vector of +-0.0 and +-1.0: one-hot vectors, equal magnitudes,
    signed zeros and all-zero tails, where a rotation that skips rows or
    reorders its roundings flips signed zeros.
    """
    return list(itertools.product((0.0, -0.0, 1.0, -1.0), repeat=width))


class TestRealize:
    def test_two_dimensional_rotation(self):
        theta = 0.7
        q, bits = realize_with_twin(2, [3 * math.cos(theta), 3 * math.sin(theta)], 1)
        expected = np.array(
            [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
        )
        assert np.allclose(q, signs(2, bits) @ expected, atol=1e-15)

    def test_all_reflections_no_rotation(self):
        # one-hot normals: c = 1 and s = 0, and the zero tails after them are the identity
        normals = np.zeros((normal_rows(3), 16))
        normals[[0, 3]] = np.linspace(0.5, 2.0, 16)
        qs, bits = realize_with_twin(3, normals, 2)
        assert bits.any() and not bits.all()  # the seed reaches the reflection and the identity
        assert np.array_equal(qs, signs(3, bits))

    def test_rotation_times_inverse(self):
        theta = 1.2
        g = [[math.cos(theta), math.cos(theta)], [math.sin(theta), -math.sin(theta)]]
        (fwd, back), bits = realize_with_twin(2, g, 3)
        fwd, back = signs(2, bits) @ np.stack([fwd, back])  # each draw's reflection undone
        assert np.allclose(fwd @ back, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("n", (2, 3, 6))
    def test_reflection_flips_row_zero_only(self, n):
        # the rotation product alone lies in SO(n); a set bit negates row 0
        # and leaves rows 1..n-1 as they were, bit for bit
        normals = np.random.default_rng(70 + n).standard_normal((normal_rows(n), 300))
        rotations, _ = realize_with_twin(n, normals, None)
        assert np.all(np.abs(np.linalg.det(rotations) - 1.0) <= 1e-12)
        got, bits = realize_with_twin(n, normals, n)
        assert bits.any() and not bits.all()
        assert np.array_equal(got[:, 1:].view(np.int64), rotations[:, 1:].view(np.int64))
        assert np.array_equal(got[:, 0], (1.0 - 2.0 * bits)[:, None] * rotations[:, 0])

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_special_angles_match_strided_reference(self, n):
        # special normals give angles with exact zeros in their sines and cosines
        choices = [special_sweeps(n - i + 1) for i in range(1, n)]
        rng = np.random.default_rng(n)
        if math.prod(map(len, choices)) <= 2000:
            picks = itertools.product(*choices)
        else:  # 2000 random picks
            picks = zip(*(np.array(sweeps)[rng.integers(0, len(sweeps), 2000)] for sweeps in choices))
        normals = np.array([np.concatenate(pick) for pick in picks]).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an undefined angle warns nothing
            got, bits = realize_with_twin(n, normals, n)
        expected = strided_reference_rotate(n, strided_reference_rotations(n, normals), bits)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("n", (2, 3, 6))
    def test_zero_tails_are_identity_rotations(self, n):
        # numpy's normals include +-0.0; a zero tail g_r = ... = g_d = 0 would
        # make rotation r 0 / 0 and every entry of the draw NaN
        rng = np.random.default_rng(40 + n)
        normals = rng.standard_normal((normal_rows(n), 300))
        first = 0
        for i in range(1, n):
            d = n - i
            for draw in range(300):
                r = rng.integers(0, d + 2)  # r = d + 1 leaves the sweep as drawn
                normals[first + r : first + d + 1, draw] = rng.choice((0.0, -0.0), d + 1 - r)
            first += d + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, bits = realize_with_twin(n, normals, n)
        assert np.isfinite(got).all()
        assert orthogonality_check(got, 1e-12)
        expected = strided_reference_rotate(n, strided_reference_rotations(n, normals), bits)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_undefined_rotation_is_identity(self):
        c, s = np.empty((3, 4)), np.empty((3, 4))
        g = np.array(
            [[1.0, 0.0, 0.0, 2.0], [0.0, -0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, -0.0, 0.0, 3.0]]
        )
        _sweep_rotations(g, np.empty((4, 4)), c, s)
        assert c.tolist() == [[1.0, 1.0, 1.0, 0.5547001962252291], [1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0]]
        assert s.tolist() == [[0.0, 0.0, 0.0, 0.8320502943378437], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]]

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

    @pytest.mark.parametrize("n, count", ((2, 300), (3, 300), (7, 100), (30, 40)))
    def test_subgroup_order_matches_left_to_right_product(self, n, count):
        # the same factors multiplied in the other order, on whole columns:
        # the matrices agree to rounding, a bound fixed before the first run
        batch = sample_orthogonal_batch(n, count, np.random.default_rng(29))
        rotations, bits = strided_reference_draw(n, count, np.random.default_rng(29))
        assert np.max(np.abs(batch - left_to_right_rotate(n, rotations, bits))) <= 1e-14

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


class TestRotationLaw:
    """The cosines and sines the sampler takes from its normals, by exponent.

    Rotation r of a sweep of d has the exponent k = d - 1 - r: for k >= 1,
    (1 + c) / 2 is Beta((k + 1) / 2, (k + 1) / 2), and for k = 0 the angle
    atan2(s, c) is uniform on [0, 2*pi); every (c, s) is a unit vector.  Seed, sample size and the p-value
    bound (1e-3 for each of the ten laws at n = 5) were fixed before the
    first run; a rotation that takes the normal or the radius of a
    neighbouring index moves some law far beyond it.
    """

    N, SAMPLES, P_MIN = 5, 20_000, 1e-3

    def test_each_exponent_has_its_law(self, monkeypatch):
        seen = {}

        def recording(g, radii, c, s):
            _sweep_rotations(g, radii, c, s)
            seen.setdefault(len(c), []).append((c.copy(), s.copy()))

        monkeypatch.setattr(haar, "_sweep_rotations", recording)
        sample_orthogonal_batch(self.N, self.SAMPLES, np.random.default_rng(16))
        assert sorted(seen) == list(range(1, self.N))
        for d, blocks in seen.items():
            c, s = (np.concatenate(x, axis=1) for x in zip(*blocks))
            assert c.shape == (d, self.SAMPLES)
            assert np.all(np.abs(np.hypot(c, s) - 1.0) < 1e-15)
            assert np.all(s[:-1] >= 0.0)  # angles of exponent k >= 1 lie in [0, pi]
            for r in range(d):
                k = d - 1 - r
                if k:
                    p = kstest((1.0 + c[r]) / 2.0, beta((k + 1) / 2, (k + 1) / 2).cdf).pvalue
                else:
                    angle = np.mod(np.arctan2(s[r], c[r]), 2 * math.pi)
                    p = kstest(angle, "uniform", args=(0.0, 2 * math.pi)).pvalue
                assert p > self.P_MIN, (d, r, p)


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
