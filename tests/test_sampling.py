import tracemalloc

import numpy as np
import pytest

from linopt_bp import RandomSource, random_circuit, uniform_sphere
from linopt_bp import sampling
from linopt_bp.sampling import (
    haar_orthogonal_batch,
    haar_unitary_batch,
    uniform_angles_batch,
    uniform_sphere_batch,
)

from conftest import one_shot_haar_orthogonal, one_shot_haar_unitary, one_shot_sphere, uniform_angles


class TestRandomSource:
    def test_seed_determinism_is_bitwise(self):
        a = RandomSource(123).generator().standard_normal(1000)
        b = RandomSource(123).generator().standard_normal(1000)
        np.testing.assert_array_equal(a, b)

    def test_substreams_are_deterministic_and_distinct(self):
        src = RandomSource(9)
        a0 = src.substream(0).standard_normal(100)
        a0_again = src.substream(0).standard_normal(100)
        a1 = src.substream(1).standard_normal(100)
        np.testing.assert_array_equal(a0, a0_again)
        assert not np.array_equal(a0, a1)

    def test_seed_range_checked(self):
        with pytest.raises(ValueError, match="64-bit"):
            RandomSource(-1)
        with pytest.raises(ValueError, match="64-bit"):
            RandomSource(2**64)


class TestHaarOrthogonal:
    def test_orthogonality(self):
        src = RandomSource(4)
        ts = haar_orthogonal_batch(3, 64, src.generator())
        for t in ts:
            assert np.linalg.norm(t.T @ t - np.eye(6)) <= 1e-10

    def test_first_row_second_moments(self):
        m, n = 3, 100_000
        ts = haar_orthogonal_batch(m, n, RandomSource(7).generator())
        sq = ts[:, 0, :] ** 2
        expected = 1.0 / (2 * m)
        se = sq.std(ddof=1, axis=0) / np.sqrt(n)
        gaps = np.abs(sq.mean(axis=0) - expected)
        assert np.all(gaps <= 3.0 * se), (gaps, 3 * se)

    def test_determinant_components_balanced(self):
        n = 10_000
        ts = haar_orthogonal_batch(2, n, RandomSource(8).generator())
        dets = np.linalg.det(ts)
        np.testing.assert_allclose(np.abs(dets), 1.0, atol=1e-9)
        frac_plus = float(np.mean(dets > 0))
        se = 0.5 / np.sqrt(n)
        assert abs(frac_plus - 0.5) <= 3.0 * se

    def test_left_invariance_of_column_moments(self):
        # for fixed orthogonal Q the law of Q T matches that of T
        m, n = 2, 100_000
        gen = RandomSource(12).generator()
        q = haar_orthogonal_batch(m, 1, gen)[0]
        ts = haar_orthogonal_batch(m, n, gen)
        rotated = np.einsum("ij,njk->nik", q, ts)
        for batch in (ts, rotated):
            sq = batch[:, :, 0] ** 2
            se = sq.std(ddof=1, axis=0) / np.sqrt(n)
            assert np.all(np.abs(sq.mean(axis=0) - 1.0 / (2 * m)) <= 3.5 * se)

    def test_single_draw_matches_batch_interface(self):
        t = haar_orthogonal_batch(4, 1, RandomSource(5))[0]
        assert t.shape == (8, 8)


class TestHaarUnitary:
    def test_shape_and_unitarity(self):
        us = haar_unitary_batch(3, 16, RandomSource(4).generator())
        assert us.shape == (16, 3, 3) and us.dtype == np.complex128
        for u in us:
            assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-12

    def test_seeded_draws_are_bitwise_reproducible(self):
        a = haar_unitary_batch(4, 3, RandomSource(6).generator())
        b = haar_unitary_batch(4, 3, RandomSource(6).generator())
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("m", [2, 5])
    def test_moments(self, m):
        # Haar on U(m): E|tr U|^2 = 1 and |U_11|^2 ~ Beta(1, m - 1), mean 1/m
        n = 20_000
        us = haar_unitary_batch(m, n, RandomSource(13).generator())
        for x, expected in (
            (np.abs(np.trace(us, axis1=1, axis2=2)) ** 2, 1.0),
            (np.abs(us[:, 0, 0]) ** 2, 1.0 / m),
        ):
            se = x.std(ddof=1) / np.sqrt(n)
            assert abs(x.mean() - expected) <= 4.0 * se, (m, x.mean(), expected, se)


def _blocks(n: int, itemsize: int, size: int) -> int:
    """How many batched QRs fill a stack of ``size`` n x n matrices."""
    per_block = max(1, sampling._BLOCK_BYTES // (itemsize * n * n))
    return -(-size // per_block)


class TestBlockedHaar:
    """Blocked stacks equal one batched draw and QR, and need about one stack of memory."""

    # a short last block; blocks of exactly one layer; one mode
    @pytest.mark.parametrize("m, size, blocks", [(16, 100, 2), (100, 3, 3), (1, 5, 1)])
    def test_unitary_stack_matches_one_shot_draw(self, m, size, blocks):
        assert _blocks(m, 16, size) == blocks
        gen = RandomSource(3).generator()
        expected = one_shot_haar_unitary(m, size, gen)
        blocked, built = RandomSource(3).generator(), RandomSource(3).generator()
        np.testing.assert_array_equal(haar_unitary_batch(m, size, blocked), expected)
        np.testing.assert_array_equal(random_circuit(m, size, built).unitaries, expected)
        after = gen.standard_normal(4)
        for own in (blocked, built):  # later draws from the generator are unchanged too
            np.testing.assert_array_equal(own.standard_normal(4), after)

    # a short last block; size 1 with room to spare, and larger than a block
    @pytest.mark.parametrize("m, size, blocks", [(3, 1000, 2), (2, 1, 1), (100, 1, 1)])
    def test_orthogonal_stack_matches_one_shot_draw(self, m, size, blocks):
        assert _blocks(2 * m, 8, size) == blocks
        gen, own = RandomSource(4).generator(), RandomSource(4).generator()
        expected = one_shot_haar_orthogonal(m, size, gen)
        np.testing.assert_array_equal(haar_orthogonal_batch(m, size, own), expected)
        np.testing.assert_array_equal(own.standard_normal(4), gen.standard_normal(4))

    def test_peak_memory_is_about_one_stack(self):
        stack_bytes = 256 * 64 * 64 * 16  # 16 MiB; one batched QR peaked at 4x this
        for build in (haar_unitary_batch, random_circuit):
            tracemalloc.start()
            try:
                build(64, 256, RandomSource(1).generator())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * stack_bytes, (build.__name__, peak / stack_bytes)


class TestUniformSphere:
    def test_zero_radius(self):
        y = uniform_sphere(3, 0.0, RandomSource(1))
        np.testing.assert_array_equal(y, np.zeros(6))

    def test_norm_exact(self):
        ys = uniform_sphere_batch(4, 1.7, 5000, RandomSource(2).generator())
        np.testing.assert_allclose(np.linalg.norm(ys, axis=1), 1.7, atol=1e-12)

    def test_coordinate_second_moment(self):
        m, radius, n = 3, 2.0, 100_000
        ys = uniform_sphere_batch(m, radius, n, RandomSource(3).generator())
        sq = ys**2
        expected = radius**2 / (2 * m)
        se = sq.std(ddof=1, axis=0) / np.sqrt(n)
        assert np.all(np.abs(sq.mean(axis=0) - expected) <= 3.0 * se)

    # blocks of up to 5461 rows at m = 3, 546 at m = 30 and 81 at m = 200, the last one short
    @pytest.mark.parametrize("m, blocks", [(3, 2), (30, 11), (200, 75)])
    def test_second_point_in_row_blocks_matches_one_shot_draws(self, m, blocks):
        # y in one call, then b one row block at a time from the same generator:
        # each equals one (size, 2m) draw, bit for bit
        size = 6000
        gen, own = RandomSource(8).generator(), RandomSource(8).generator()
        expected_y = one_shot_sphere(m, 1.3, size, gen)
        expected_b = one_shot_sphere(m, 0.4, size, gen)
        row_blocks = list(sampling.row_blocks(size, 16 * m))
        assert len(row_blocks) == blocks
        y = uniform_sphere_batch(m, 1.3, size, own)
        b = np.concatenate([uniform_sphere_batch(m, 0.4, rows.stop - rows.start, own) for rows in row_blocks])
        np.testing.assert_array_equal(y, expected_y)
        np.testing.assert_array_equal(b, expected_b)
        np.testing.assert_array_equal(own.standard_normal(4), gen.standard_normal(4))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            uniform_sphere(2, -1.0, RandomSource(0))


class TestUniformAngles:
    def test_range_and_shape(self):
        th = uniform_angles_batch(5, 10_000, RandomSource(6).generator())
        assert th.shape == (10_000, 5)
        assert np.all(th >= -np.pi) and np.all(th <= np.pi)

    def test_mean_and_cosine_centered(self):
        n = 200_000
        th = uniform_angles_batch(1, n, RandomSource(10).generator())[:, 0]
        assert abs(th.mean()) <= 3.0 * th.std(ddof=1) / np.sqrt(n)
        c = np.cos(th)
        assert abs(c.mean()) <= 3.0 * c.std(ddof=1) / np.sqrt(n)

    def test_single_draw(self):
        th = uniform_angles(4, RandomSource(13))
        assert th.shape == (4,)
