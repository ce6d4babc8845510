"""The Householder subgroup Haar sampler, the quaternion blocks of the n = 3 Monte Carlo lane, and the QR oracle."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import beta, ks_2samp, kstest, ortho_group

from zonalpoly import haar
from zonalpoly.haar import (
    BLOCK,
    QUATERNION_ROWS,
    _generator,
    _quaternion_workspace,
    _quaternions,
    _realize,
    _workspace,
    sample_orthogonal_batch,
)

from oracles import oracle_sample_batch, orthogonality_check, quaternion_matrices, reflect_row_zero


def rounded_ks(xs, ys):
    """Two-sample KS on a common grid.

    Mixed distributions here carry atoms (the trace of a 2x2 reflection is
    exactly zero); rounding aligns the atoms across samplers and leaves the
    tie-heavy test conservative.
    """
    return ks_2samp(np.round(xs, 12), np.round(ys, 12)).pvalue


def stream_calls(n):
    """The sweeps that make one block, in stream order, as (i, rows per draw).

    The sweeps i = n - 1, ..., 1 start from SO(1) = {1}, and sweep i draws
    n - i + 1 normals per draw.
    """
    return [(i, n - i + 1) for i in range(n - 1, 0, -1)]


def normal_rows(n):
    """Normals per draw: n(n+1)/2 - 1."""
    return sum(width for _, width in stream_calls(n))


def split_normals(n, normals):
    """Each sweep's (count, rows) normals by i, from (count, normal_rows(n)) normals in stream order."""
    out, first = {}, 0
    for i, width in stream_calls(n):
        out[i] = normals[:, first : first + width]
        first += width
    return out


def strided_reference_draw(n, count, rng):
    """(count, rows) normals and (count,) bits, drawn as sample_orthogonal_batch draws them.

    Per block of BLOCK // n draws, each sweep of ``stream_calls`` in one
    (rows, m) draw, in turn, and then the block's m bits, one per draw, in
    one ``integers`` call.  The normals of a draw are laid out in the same
    order.
    """
    size = max(1, min(count, BLOCK // n))
    normals, bits = [], []
    for start in range(0, count, size):
        m = min(size, count - start)
        calls = [rng.standard_normal((width, m)) for _, width in stream_calls(n)]
        normals.append(np.concatenate(calls or [np.empty((0, m))]).T)
        bits.append(rng.integers(0, 2, size=m))
    return np.concatenate(normals), np.concatenate(bits)


def strided_reference_step(q, i, g):
    """Sweep i's step on a C-ordered (count, n, n) stack, from its (count, d + 1) normals g.

    The operations of the package's draw-minor step, one draw per row of
    every array: an all-zero g takes g_0 = 1; row i times s = sign(g_0);
    g into column i - 1; the dots of g against rows i - 1, ..., n - 1,
    added from the first row down onto zero; R from the first dot;
    z = dots / (R w), w = -|g_0| - R; rows i, ... plus g[1:] z'; row
    i - 1 z times s (|g_0| + R); column i - 1 g / R.
    """
    g = g.copy()
    g[~g.any(axis=1), 0] = 1.0
    g0 = g[:, 0]
    sign = np.copysign(1.0, g0)
    q[:, i, i:] *= sign[:, None]
    corner = q[:, i - 1 :, i - 1 :]
    corner[:, :, 0] = g
    dots = np.zeros(corner.shape[:2])
    for k in range(g.shape[1]):
        dots = dots + g[:, k, None] * corner[:, k]
    radius = np.sqrt(dots[:, 0])
    scale = -np.abs(g0) - radius
    z = dots[:, 1:] / (radius * scale)[:, None]
    corner[:, 1:, 1:] += g[:, 1:, None] * z[:, None, :]
    corner[:, 0, 1:] = z * np.copysign(scale, g0)[:, None]
    corner[:, :, 0] = g / radius[:, None]


def strided_reference_realize(n, normals, bits):
    """Matrices from (count, rows) normals and (count,) bits on a C-ordered stack.

    The subgroup order: from the identity, the steps are applied from the
    left, sweep by sweep in stream order, each on the trailing rows and
    columns i - 1, ..., n - 1, and then row 0 of each draw is reflected by
    its bit.  The package's draw-minor sweep must reproduce it bit for
    bit.
    """
    q = np.broadcast_to(np.eye(n), (len(bits), n, n)).copy()
    for i, g in split_normals(n, normals).items():
        strided_reference_step(q, i, g)
    return reflect_row_zero(q, bits)


def dense_step(n, i, g):
    """Sweep i's step of one draw as a dense n x n matrix: diag(I_(i-1), M).

    M = H diag(-s, s, 1, ..., 1), H the Householder reflection with
    v = u + s e_0, u = g / |g| by ``np.linalg.norm`` and s = sign(g_0);
    the identity for an all-zero g.
    """
    out = np.eye(n)
    radius = np.linalg.norm(g)
    if radius == 0.0:
        return out
    u = g / radius
    s = math.copysign(1.0, g[0])
    v = u.copy()
    v[0] += s
    h = np.eye(len(g)) - 2.0 * np.outer(v, v) / (v @ v)
    flips = np.ones(len(g))
    flips[:2] = (-s, s)
    out[i - 1 :, i - 1 :] = h * flips
    return out


def left_to_right_product(n, normals, bits):
    """The same matrices as dense products F^b E_1 E_2 ... E_(n-1), formed left to right.

    E_i is sweep i's ``dense_step``.  It rounds differently from the
    subgroup order and builds each factor from its definition, so it is an
    independent check of the product, not of its bits.
    """
    by_sweep = split_normals(n, normals)
    out = np.empty((len(bits), n, n))
    for k in range(len(bits)):
        q = np.eye(n)
        for i in range(1, n):
            q = q @ dense_step(n, i, by_sweep[i][k])
        out[k] = q
    return reflect_row_zero(out, bits)


def strided_reference_batch(n, count, rng):
    """Reference sampler on a C-ordered (count, n, n) stack."""
    return strided_reference_realize(n, *strided_reference_draw(n, count, rng))


def quaternion_lane_batch(n, count, rng):
    """The (count, 3, 3) draws F^b R(q) of the n = 3 Monte Carlo lane's ``_quaternions`` blocks on ``rng``.

    The rotations are built by the textbook formula (``quaternion_matrices``),
    as the package never builds them.
    """
    assert n == 3
    blocks = _quaternions(count, rng, _quaternion_workspace(count))
    return np.concatenate([quaternion_matrices(block) for block in blocks])


class FixedNormals:
    """A generator stand-in: fixed normals, and bits from a generator seeded with ``seed``.

    The (rows, count) normals are laid out in stream order, so each call
    is served the first rows not yet served.  With ``seed=None`` every bit
    is 0: no draw is reflected.
    """

    def __init__(self, normals, seed):
        self.normals, self.first = normals, 0
        self.bits = None if seed is None else np.random.default_rng(seed)

    def standard_normal(self, out):
        out[...] = self.normals[self.first : self.first + len(out)]
        self.first += len(out)
        return out

    def integers(self, low, high, size):
        if self.bits is None:
            return np.zeros(size, dtype=np.int64)
        return self.bits.integers(low, high, size=size)


def realize_with_twin(n, normals, seed):
    """``_realize`` of one block of (rows, count) normals, with the (count,) bits it took.

    The normals are fed through ``FixedNormals``, and the bits come from a
    twin of its generator, in the one call of one bit per draw that a
    single block makes (all 0 for ``seed=None``).  The draw-minor block is
    transposed to a (count, n, n) stack.
    """
    normals = np.asarray(normals, dtype=float).reshape(normal_rows(n), -1)
    count = normals.shape[1]
    assert count <= BLOCK // n
    rng = FixedNormals(normals, seed)
    (block,) = _realize(n, count, rng, _workspace(n, count))
    assert rng.first == len(normals)  # every normal served, none left over
    if seed is None:
        bits = np.zeros(count, dtype=np.int64)
    else:
        bits = np.random.default_rng(seed).integers(0, 2, size=count)
    return block.transpose(2, 0, 1).copy(), bits


def signs(n, bits):
    """The reflection factor of each draw, diag(1 - 2 b, 1, ..., 1), as a (count, n, n) stack."""
    return reflect_row_zero(np.broadcast_to(np.eye(n), (len(bits), n, n)).copy(), bits)


def special_sweeps(width):
    """Normals of one sweep with exact zeros in its step.

    Every vector of +-0.0 and +-1.0: one-hot vectors, equal magnitudes,
    signed zeros and all-zero calls, where a step that skips rows or
    reorders its roundings flips signed zeros.
    """
    return list(itertools.product((0.0, -0.0, 1.0, -1.0), repeat=width))


class TestRealize:
    def test_two_dimensional_rotation(self):
        # the step takes e_0 to g / |g| and has det 1
        theta = 0.7
        q, bits = realize_with_twin(2, [3 * math.cos(theta), 3 * math.sin(theta)], 1)
        expected = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        assert np.allclose(q, signs(2, bits) @ expected, atol=1e-15)

    def test_all_reflections_no_rotation(self):
        # every sweep's normals e_0 times a positive scale: each step is the
        # identity, and the drawn bits are the reflections
        for n in (3, 4, 6):
            normals = np.zeros((normal_rows(n), 16))
            first = np.cumsum([0] + [width for _, width in stream_calls(n)][:-1])
            normals[first] = np.linspace(0.5, 2.0, 16)
            qs, bits = realize_with_twin(n, normals, 2)
            assert bits.any() and not bits.all()  # the bits reach the reflection and the identity
            assert np.array_equal(qs, signs(n, bits)), n

    def test_rotation_times_inverse(self):
        theta = 1.2
        g = [[math.cos(theta), math.cos(theta)], [math.sin(theta), -math.sin(theta)]]
        (fwd, back), bits = realize_with_twin(2, g, 3)
        fwd, back = signs(2, bits) @ np.stack([fwd, back])  # each draw's reflection undone
        assert np.allclose(fwd @ back, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("n", (2, 3, 6))
    def test_reflection_flips_row_zero_only(self, n):
        # the product of the steps alone lies in SO(n); a set bit negates row 0
        # and leaves rows 1..n-1 as they were, bit for bit
        normals = np.random.default_rng(70 + n).standard_normal((normal_rows(n), 300))
        rotations, _ = realize_with_twin(n, normals, None)
        assert np.all(np.abs(np.linalg.det(rotations) - 1.0) <= 1e-12)
        got, bits = realize_with_twin(n, normals, n)
        assert bits.any() and not bits.all()
        assert np.array_equal(got[:, 1:].view(np.int64), rotations[:, 1:].view(np.int64))
        assert np.array_equal(got[:, 0], (1.0 - 2.0 * bits)[:, None] * rotations[:, 0])

    @pytest.mark.parametrize("n", (2, 3, 5, 30))
    def test_det_is_the_reflection_sign(self, n):
        # every step has det 1, whatever the sign of g_0, so det = 1 - 2 b
        normals = np.random.default_rng(80 + n).standard_normal((normal_rows(n), 300))
        got, bits = realize_with_twin(n, normals, n)
        assert bits.any() and not bits.all()
        assert np.all(np.abs(np.linalg.det(got) - (1.0 - 2.0 * bits)) <= 1e-12)

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 30))
    def test_first_column_is_the_first_sweep_direction(self, n):
        # column 0 of a draw is F^b g / |g|, g the normals of sweep 1 (the
        # last n rows), |g| the square root of g_0^2 + ... + g_(n-1)^2 added
        # in that order: the step's einsum adds its terms from k = 0 up
        normals = np.random.default_rng(90 + n).standard_normal((normal_rows(n), 300))
        got, bits = realize_with_twin(n, normals, n)
        g = normals[-n:]
        total = np.zeros(300)
        for x in g:
            total = total + x * x
        want = g / np.sqrt(total)
        want[0] *= 1.0 - 2.0 * bits
        assert np.array_equal(got[:, :, 0].view(np.int64), want.T.view(np.int64))

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_special_angles_match_strided_reference(self, n):
        # special normals give steps with exact zeros in their entries
        choices = [special_sweeps(width) for _, width in stream_calls(n)]
        rng = np.random.default_rng(n)
        if math.prod(map(len, choices)) <= 2000:
            picks = itertools.product(*choices)
        else:  # 2000 random picks
            picks = zip(*(np.array(sweeps)[rng.integers(0, len(sweeps), 2000)] for sweeps in choices))
        normals = np.array([np.concatenate(pick) for pick in picks]).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an all-zero call warns nothing
            got, bits = realize_with_twin(n, normals, n)
        expected = strided_reference_realize(n, normals.T, bits)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("n", (2, 3, 6))
    def test_zero_tails_are_identity_rotations(self, n):
        # numpy's normals include +-0.0; a sweep whose normals are all zero
        # would make its step 0 / 0 and every entry of the draw NaN, and is
        # the identity instead.  Shorter zero tails g_r = ... = 0, r > 0,
        # are no special case, and every draw matches the reference
        rng = np.random.default_rng(40 + n)
        normals = rng.standard_normal((normal_rows(n), 300))
        first = 0
        for _, width in stream_calls(n):
            for draw in range(300):
                r = rng.integers(0, width + 1)  # r = width leaves the call as drawn
                normals[first + r : first + width, draw] = rng.choice((0.0, -0.0), width - r)
            first += width
        normals[:, :10] = rng.choice((0.0, -0.0), (normal_rows(n), 10))  # every step the identity
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, bits = realize_with_twin(n, normals, n)
        assert np.isfinite(got).all()
        assert orthogonality_check(got, 1e-12)
        assert np.array_equal(got[:10], signs(n, bits[:10]))
        expected = strided_reference_realize(n, normals.T, bits)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_undefined_rotation_is_identity(self):
        # an all-zero g has no direction: the step leaves diag(1, C) as it is,
        # in value, with no warning, whatever the signs of its zeros and of C
        m = 8
        for d in (1, 2, 5):
            corner = np.zeros((d + 1, d + 1, m))
            corner[0, 0] = 1.0
            corner[1:, 1:] = sample_orthogonal_batch(d, m, np.random.default_rng(d)).transpose(1, 2, 0)
            before = corner.copy()
            g = np.random.default_rng(d).choice((0.0, -0.0), (d + 1, m))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                haar._step(corner, g, np.empty((d + 1, m)), np.empty(d * d * m), np.empty((3, m)))
            assert np.array_equal(corner, before), d

    @pytest.mark.parametrize("n", (1, 2, 3, 5))
    def test_bits_drawn_only_without_a_quaternion(self, n):
        # at every n each block of _realize makes one integers call, of one
        # bit per draw, after its sweeps' normals; the quaternion blocks of
        # the n = 3 lane take their bits from the signs of w and make one
        # normal call each and no integers call
        calls = []

        class Spy:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, out):
                calls.append(("normal", out.shape[-1]))
                return self.gen.standard_normal(out=out)

            def integers(self, low, high, size):
                calls.append(("integers", size))
                return self.gen.integers(low, high, size=size)

        size = BLOCK // n
        count = 2 * size + 3
        blocks = _realize(n, count, Spy(np.random.default_rng(n)), _workspace(n, count))
        widths = [block.shape[2] for block in blocks]
        assert widths == [size, size, 3]
        per_block = len(stream_calls(n))
        want = []
        for m in widths:
            want += [("normal", m)] * per_block + [("integers", m)]
        assert calls == want
        if n == 3:
            calls.clear()
            blocks = _quaternions(count, Spy(np.random.default_rng(n)), _quaternion_workspace(count))
            assert [block.shape[1] for block in blocks] == widths
            assert calls == [("normal", m) for m in widths]

    def test_quaternion_blocks_take_one_normal_call_each(self):
        # blocks of BLOCK // 3 draws, the last one shorter, each one
        # standard_normal call of (4, m) in rows 0-3, where each all-zero q
        # is (+-1, 0, 0, 0), keeping the sign of w as drawn (-0.0 gives -1),
        # the reflection sign; the scratch rows 4-6, and every entry of the
        # workspace past the block, are left as they were
        size = BLOCK // 3
        count = 2 * size + 5
        zeros = np.random.default_rng(5).choice((0.0, -0.0), (4, 6))
        zeros[0, :2] = (0.0, -0.0)

        class Zeros:
            """A generator whose first call starts with six all-zero quaternions."""

            def __init__(self):
                self.gen, self.calls = np.random.default_rng(4), []

            def standard_normal(self, out):
                self.calls.append(out.shape)
                self.gen.standard_normal(out=out)
                if len(self.calls) == 1:
                    out[:, :6] = zeros
                return out

        rng = Zeros()
        workspace = _quaternion_workspace(count)
        assert workspace.shape == (QUATERNION_ROWS, size)
        flat = workspace.reshape(-1)
        flat[...] = np.arange(len(flat))
        twin = np.random.default_rng(4)
        widths = []
        blocks = _quaternions(count, rng, workspace)
        while True:
            before = flat.copy()
            block = next(blocks, None)
            if block is None:
                break
            m = block.shape[1]
            widths.append(m)
            assert block.shape == (QUATERNION_ROWS, m) and block.flags.c_contiguous
            assert np.shares_memory(block, workspace) and np.array_equal(flat[4 * m :], before[4 * m :])
            q = twin.standard_normal((4, m))
            if len(widths) == 1:
                q[:, :6] = zeros
            zero = ~q.any(axis=0)
            q[0, zero] = np.copysign(1.0, q[0, zero])
            assert np.array_equal(block[:4].view(np.int64), q.view(np.int64))
        assert widths == [size, size, 5]
        assert rng.calls == [(4, m) for m in widths]
        assert list(np.copysign(1.0, zeros[0, :2])) == [1.0, -1.0]

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 30))
    def test_realized_matrices_are_orthogonal(self, n):
        qs = sample_orthogonal_batch(n, 10, np.random.default_rng(91))
        assert orthogonality_check(qs, 1e-12)
        assert np.all(np.abs(np.abs(np.linalg.det(qs)) - 1.0) < 1e-10)

    def test_sampler_scratch_is_capped(self):
        # the sampler holds its block (n^2 doubles per draw), the widest
        # sweep's normals (n), the step's dots (n) and rank-1 update scratch
        # (UPDATE_ROWS (n - 1)); then four per-draw rows, the step's three
        # and the reflection signs, plus numpy's transients: the ufunc
        # buffers of np.getbufsize() elements that broadcast in-place updates
        # take, about two at n = 30 (measured), three allowed, which also
        # hold each block's m bits from integers
        for n, count in ((3, 20_000), (30, 5_000)):
            size = BLOCK // n
            rows = n * n + n + n + haar.UPDATE_ROWS * (n - 1) + 4
            cap = (rows * size + 3 * np.getbufsize()) * np.dtype(float).itemsize
            sample_orthogonal_batch(n, 2, 3)  # numpy.random's lazy imports happen outside the measurement
            tracemalloc.start()
            try:
                blocks = _realize(n, count, np.random.default_rng(3), _workspace(n, count))
                assert sum(block.shape[2] for block in blocks) == count
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= cap, (n, peak, cap)


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
            # a batch longer than BLOCK itself
            (3, 2 * BLOCK + 3),
            # a last block of one draw
            (30, BLOCK // 30 + 1),
            # one draw, a full block and a block plus one draw (at n = 30 above)
            (2, 1), (3, 1), (5, 1), (30, 1),
            (2, BLOCK // 2), (3, BLOCK // 3), (5, BLOCK // 5), (30, BLOCK // 30),
            (2, BLOCK // 2 + 1), (3, BLOCK // 3 + 1), (5, BLOCK // 5 + 1),
        ),
    )
    def test_batch_matches_strided_reference(self, n, count):
        # per block, each sweep's own (d + 1, m) normals as it runs, then the
        # block's m bits: a twin generator that makes those calls gives the
        # same matrices, bit for bit, and ends in the same state
        rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
        batch = sample_orthogonal_batch(n, count, rng)
        reference = strided_reference_batch(n, count, ref_rng)
        assert np.array_equal(batch.view(np.int64), reference.view(np.int64))
        assert batch.flags.c_contiguous
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n", (2, 3, 10, 30))
    def test_draw_alone_matches_its_block(self, n):
        # given its normals and bit, a draw has the same bits in a block of
        # one as in a full block, wherever it sits there
        size = BLOCK // n
        normals = np.random.default_rng(110 + n).standard_normal((normal_rows(n), size))
        block, bits = realize_with_twin(n, normals, n)
        for k in np.random.default_rng(n).choice(size, 12, replace=False):
            alone, _ = realize_with_twin(n, normals[:, k : k + 1], None)
            alone[:, 0] *= 1.0 - 2.0 * bits[k]
            assert np.array_equal(alone[0].view(np.int64), block[k].view(np.int64)), k

    @pytest.mark.parametrize("n, count", ((2, 300), (3, 300), (7, 100), (30, 40)))
    def test_subgroup_order_matches_left_to_right_product(self, n, count):
        # each step built densely from its definition and the steps multiplied
        # in the other order: the matrices agree to rounding, a bound fixed
        # before the first run
        batch = sample_orthogonal_batch(n, count, np.random.default_rng(29))
        normals, bits = strided_reference_draw(n, count, np.random.default_rng(29))
        assert np.max(np.abs(batch - left_to_right_product(n, normals, bits))) <= 1e-14

    def test_batch_reproducible(self):
        b1 = sample_orthogonal_batch(3, 50, np.random.default_rng(33))
        b2 = sample_orthogonal_batch(3, 50, np.random.default_rng(33))
        assert np.array_equal(b1, b2)

    def test_integer_seed_accepted(self):
        assert np.array_equal(sample_orthogonal_batch(2, 3, 9), sample_orthogonal_batch(2, 3, 9))

    @pytest.mark.parametrize("n, count", ((1, 20), (2, 50), (3, BLOCK // 3 + 1), (5, 40), (30, 12)))
    def test_seed_means_sfc64(self, n, count):
        # a seed s draws exactly what Generator(SFC64(s)) draws; a Generator
        # passed in, PCG64 here, is used as given: it draws as the strided
        # reference on it does, and the seed's draws are not its draws
        by_seed = sample_orthogonal_batch(n, count, 23)
        sfc = sample_orthogonal_batch(n, count, np.random.Generator(np.random.SFC64(23)))
        assert np.array_equal(by_seed.view(np.int64), sfc.view(np.int64))
        reference = strided_reference_batch(n, count, np.random.Generator(np.random.SFC64(23)))
        assert np.array_equal(by_seed.view(np.int64), reference.view(np.int64))
        pcg = sample_orthogonal_batch(n, count, np.random.default_rng(23))
        assert not np.array_equal(pcg, by_seed)

    def test_generator_used_as_given(self):
        # a Generator is returned as it is and a bit generator is wrapped, as
        # before seeds meant SFC64; every kind of seed means SFC64
        gen = np.random.default_rng(5)
        assert _generator(gen) is gen
        bits = np.random.PCG64(5)
        assert _generator(bits).bit_generator is bits
        for seed in (5, [5, 6], np.random.SeedSequence(5), None):
            assert isinstance(_generator(seed).bit_generator, np.random.SFC64)
        assert np.array_equal(_generator(5).random(8), np.random.Generator(np.random.SFC64(5)).random(8))


class TestInputChecks:
    @pytest.mark.parametrize(
        "n, count, message",
        ((0, 5, "n must be at least 1"), (-1, 5, "n must be at least 1"), (3, -1, "count must be nonnegative")),
    )
    def test_rejected_before_any_draw(self, n, count, message):
        rng = np.random.default_rng(41)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            sample_orthogonal_batch(n, count, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", (1, 2, 3, 30))
    def test_empty_batch(self, n):
        batch = sample_orthogonal_batch(n, 0, np.random.default_rng(41))
        assert batch.shape == (0, n, n)
        assert batch.dtype == np.float64
        assert batch.flags.c_contiguous


class TestOneDimensional:
    def test_values_are_signs(self):
        qs = sample_orthogonal_batch(1, 500, np.random.default_rng(3))
        values = qs[:, 0, 0]
        assert set(np.unique(values)) == {-1.0, 1.0}
        # both components within a loose binomial window
        assert 0.4 < (values == 1.0).mean() < 0.6


def samplers(*dimensions):
    """``sample_orthogonal_batch`` at each n, id'd by n, and the n = 3 quaternion lane, id'd 3-quaternions."""
    return [pytest.param(n, sample_orthogonal_batch, id=str(n)) for n in dimensions] + [
        pytest.param(3, quaternion_lane_batch, id="3-quaternions")
    ]


class TestSamplerStatistics:
    """Entry moments and the reflection bit's law, of sample_orthogonal_batch and of the n = 3 lane.

    The lane's draws F^b R(q) are built from its ``_quaternions`` blocks,
    several of them per sample.  Its seeds are those of
    sample_orthogonal_batch at n = 3 and its bounds the same, fixed before
    its first run.
    """

    SAMPLES = 30_000

    @pytest.mark.parametrize("n, sampler", samplers(2, 3, 4))
    def test_squared_entry_moment(self, n, sampler):
        qs = sampler(n, self.SAMPLES, np.random.default_rng(100 + n))
        for i, j in ((0, 0), (n - 1, 0), (0, n - 1)):
            x = qs[:, i, j] ** 2
            se = x.std(ddof=1) / math.sqrt(x.size)
            assert abs(x.mean() - 1 / n) <= 3 * se

    @pytest.mark.parametrize("n, sampler", samplers(2, 3, 4))
    def test_fourth_moment(self, n, sampler):
        qs = sampler(n, self.SAMPLES, np.random.default_rng(200 + n))
        x = qs[:, 0, 0] ** 4
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 3 / (n * (n + 2))) <= 3 * se

    @pytest.mark.parametrize("n, sampler", samplers(2, 3, 4))
    def test_det_sign_frequency(self, n, sampler):
        qs = sampler(n, self.SAMPLES, np.random.default_rng(300 + n))
        freq = (np.linalg.det(qs) < 0).mean()
        assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / self.SAMPLES)

    @pytest.mark.parametrize("n, sampler", samplers(3, 5))
    def test_reflection_bit_is_fair_and_independent_of_the_rotation(self, n, sampler):
        # the sampler draws the bit by integers, the n = 3 lane takes the
        # sign of the quaternion's w: det = -1 with frequency 1/2 within 4
        # sigma, and on each coset the trace and two entries of the last
        # row, which the bit leaves alone, have the law of the QR oracle's
        # draws on that coset, so the bit does not lean on the rotation.
        # The trace alone would not see a bit that leans on a quantity
        # conjugation moves, such as the sign of Q[n-1, n-2].  Seeds, sample
        # sizes and the p-value bound were fixed before the first run
        qs = sampler(n, self.SAMPLES, np.random.default_rng(700 + n))
        qo = oracle_sample_batch(n, self.SAMPLES, np.random.default_rng(800 + n))
        reflected, oracle_reflected = np.linalg.det(qs) < 0, np.linalg.det(qo) < 0
        assert abs(reflected.mean() - 0.5) <= 4 * math.sqrt(0.25 / self.SAMPLES)
        for stat in (
            lambda q: np.trace(q, axis1=1, axis2=2),
            lambda q: q[:, n - 1, n - 1],
            lambda q: q[:, n - 1, n - 2],
        ):
            for coset in (False, True):
                p = rounded_ks(stat(qs[reflected == coset]), stat(qo[oracle_reflected == coset]))
                assert p > 1e-3, (coset, p)

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


class TestStepLaw:
    """The corner entries of a draw, by the law of a Haar draw's entry.

    Every entry Q_ij^2 of a Haar draw is Beta(1/2, (n - 1) / 2).  Q_00 is
    u_0 = g_0 / |g| for the n normals g of sweep 1, flipped by the
    reflection bit.  Q_(n-1)(n-1) is an entry of the first step, a 2 x 2
    rotation, under the n - 2 steps after it.  The n = 3 lane's draws
    F^b R(q) take the same checks.  Seeds, sample size and the p-value
    bound were fixed before the first run (for the lane, before its first
    run too); a step that takes the wrong normals or the wrong radius
    moves the law far beyond it.
    """

    SAMPLES, P_MIN = 20_000, 1e-3

    @pytest.mark.parametrize("n, sampler", samplers(2, 3, 4, 5, 30))
    def test_corner_square_is_beta(self, n, sampler):
        qs = sampler(n, self.SAMPLES, np.random.default_rng(16))
        p = kstest(qs[:, 0, 0] ** 2, beta(0.5, (n - 1) / 2).cdf).pvalue
        assert p > self.P_MIN, p

    @pytest.mark.parametrize("n, sampler", samplers(3, 4))
    def test_last_corner_square_is_beta(self, n, sampler):
        qs = sampler(n, self.SAMPLES, np.random.default_rng(17))
        p = kstest(qs[:, -1, -1] ** 2, beta(0.5, (n - 1) / 2).cdf).pvalue
        assert p > self.P_MIN, p


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
        "n, sampler, oracle",
        [pytest.param(n, sample_orthogonal_batch, oracle_sample_batch, id=str(n)) for n in (2, 3, 4)]
        + [pytest.param(n, sample_orthogonal_batch, scipy_ortho_group_batch, id=f"{n}-scipy") for n in (2, 3, 4)]
        # the n = 3 quaternion lane on the same seeds and bounds, fixed before its first run
        + [
            pytest.param(3, quaternion_lane_batch, oracle_sample_batch, id="3-quaternions"),
            pytest.param(3, quaternion_lane_batch, scipy_ortho_group_batch, id="3-quaternions-scipy"),
        ],
    )
    def test_ks_battery(self, n, sampler, oracle):
        qs = sampler(n, self.SAMPLES, np.random.default_rng(500 + n))
        qo = oracle(n, self.SAMPLES, np.random.default_rng(600 + n))
        assert rounded_ks(np.trace(qs, axis1=1, axis2=2), np.trace(qo, axis1=1, axis2=2)) > 0.01
        assert rounded_ks(qs[:, 0, 0], qo[:, 0, 0]) > 0.01
        assert rounded_ks(qs[:, 0, 0] ** 2, qo[:, 0, 0] ** 2) > 0.01
