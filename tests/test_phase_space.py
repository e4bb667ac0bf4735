import math

import numpy as np
import pytest

from linopt_bp import MeanVector, RandomSource, haar_orthogonal, intensity, overlap_fidelity


class TestIntensity:
    def test_vacuum_is_dark(self):
        assert intensity(MeanVector.vacuum(3)) == 0.0

    def test_unit_quadratures_two_modes(self):
        u = MeanVector.repeated_single_mode(1.0, 1.0, 2)
        assert intensity(u) == pytest.approx(2.0, abs=0)

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    @pytest.mark.parametrize("u1,u2", [(0.3, -0.4), (1.0, 0.0), (0.7, 0.7)])
    def test_product_state_scales_with_mode_count(self, m, u1, u2):
        s = u1 * u1 + u2 * u2
        u = MeanVector.repeated_single_mode(u1, u2, m)
        assert intensity(u) == pytest.approx(m * s / 2.0, rel=1e-14)

    def test_energy_conserved_by_linear_optics(self):
        rng = RandomSource(11)
        gen = rng.generator()
        for _ in range(20):
            u = MeanVector(gen.standard_normal(8))
            t = haar_orthogonal(4, gen)
            assert MeanVector(u.values @ t).intensity() == pytest.approx(u.intensity(), rel=1e-12)


class TestOverlapFidelity:
    def test_identical_states(self):
        u = MeanVector.of([0.3, -1.2, 0.0, 2.0])
        assert overlap_fidelity(u, u) == 1.0

    def test_single_mode_against_vacuum(self):
        # |<alpha|0>|^2 = exp(-|alpha|^2) with |alpha|^2 = 1
        u = MeanVector.of([math.sqrt(2.0), 0.0])
        v = MeanVector.vacuum(1)
        assert overlap_fidelity(u, v) == pytest.approx(math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("a", [0.1, 0.9, 2.3])
    def test_antipodal_points(self, a):
        u = MeanVector.of([a, 0.0])
        v = MeanVector.of([-a, 0.0])
        assert overlap_fidelity(u, v) == pytest.approx(math.exp(-2 * a * a), rel=1e-13)

    def test_symmetry(self):
        gen = RandomSource(5).generator()
        for _ in range(25):
            u = MeanVector(gen.standard_normal(6))
            v = MeanVector(gen.standard_normal(6))
            assert overlap_fidelity(u, v) == overlap_fidelity(v, u)

    def test_isometry_invariance(self):
        gen = RandomSource(6).generator()
        for _ in range(25):
            u = MeanVector(gen.standard_normal(6))
            v = MeanVector(gen.standard_normal(6))
            t = haar_orthogonal(3, gen)
            assert overlap_fidelity(MeanVector(u.values @ t), MeanVector(v.values @ t)) == pytest.approx(
                overlap_fidelity(u, v), rel=1e-12
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatched mode counts"):
            overlap_fidelity(MeanVector.vacuum(2), MeanVector.vacuum(3))


class TestMeanVector:
    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            MeanVector.of([1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MeanVector.of([1.0, math.inf])

    def test_values_are_immutable(self):
        u = MeanVector.of([1.0, 0.0])
        with pytest.raises(ValueError):
            u.values[0] = 2.0
