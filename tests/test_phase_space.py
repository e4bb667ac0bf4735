"""The phase-space conventions of a coherent state, a real length-2m mean vector
``(q1, p1, ..., qm, pm)``: its intensity ``|u|^2 / 2`` and the overlap of two
states, pinned on the reference functions of ``conftest``.  The trainer's own
check of a state is in ``test_trainer``."""

import math

import numpy as np
import pytest

from linopt_bp import RandomSource
from linopt_bp.sampling import haar_orthogonal_batch

from conftest import intensity, overlap_fidelity


class TestIntensity:
    def test_vacuum_is_dark(self):
        assert intensity(np.zeros(2 * 3)) == 0.0

    def test_unit_quadratures_two_modes(self):
        u = np.tile([1.0, 1.0], 2)
        assert intensity(u) == pytest.approx(2.0, abs=0)

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    @pytest.mark.parametrize("u1,u2", [(0.3, -0.4), (1.0, 0.0), (0.7, 0.7)])
    def test_product_state_scales_with_mode_count(self, m, u1, u2):
        s = u1 * u1 + u2 * u2
        u = np.tile([u1, u2], m)
        assert intensity(u) == pytest.approx(m * s / 2.0, rel=1e-14)

    def test_energy_conserved_by_linear_optics(self):
        rng = RandomSource(11)
        gen = rng.generator()
        for _ in range(20):
            u = gen.standard_normal(8)
            t = haar_orthogonal_batch(4, 1, gen)[0]
            assert intensity(u @ t) == pytest.approx(intensity(u), rel=1e-12)


class TestOverlapFidelity:
    def test_identical_states(self):
        u = np.array([0.3, -1.2, 0.0, 2.0])
        assert overlap_fidelity(u, u) == 1.0

    def test_single_mode_against_vacuum(self):
        # |<alpha|0>|^2 = exp(-|alpha|^2) with |alpha|^2 = 1
        u = np.array([math.sqrt(2.0), 0.0])
        v = np.zeros(2 * 1)
        assert overlap_fidelity(u, v) == pytest.approx(math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("a", [0.1, 0.9, 2.3])
    def test_antipodal_points(self, a):
        u = np.array([a, 0.0])
        v = np.array([-a, 0.0])
        assert overlap_fidelity(u, v) == pytest.approx(math.exp(-2 * a * a), rel=1e-13)

    def test_symmetry(self):
        gen = RandomSource(5).generator()
        for _ in range(25):
            u = gen.standard_normal(6)
            v = gen.standard_normal(6)
            assert overlap_fidelity(u, v) == overlap_fidelity(v, u)

    def test_isometry_invariance(self):
        gen = RandomSource(6).generator()
        for _ in range(25):
            u = gen.standard_normal(6)
            v = gen.standard_normal(6)
            t = haar_orthogonal_batch(3, 1, gen)[0]
            assert overlap_fidelity(u @ t, v @ t) == pytest.approx(
                overlap_fidelity(u, v), rel=1e-12
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatched mode counts"):
            overlap_fidelity(np.zeros(2 * 2), np.zeros(2 * 3))

