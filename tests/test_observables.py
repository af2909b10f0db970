"""Overhauser-shift observables and unit conversions.

Anchor values: the fully polarized shift I_Ga*A_Ga + I_As*A_As = 132 ueV
for the default constants, a 38 ueV shift corresponding to a polarization
degree just under 29%, and the helicity splitting identity
dE(sigma+) - dE(sigma-) = 2 g_e muB B_N.
"""
import numpy as np
import pytest

from spindiff import (Helicity, InvariantViolation, MaterialParams,
                      MissingGFactor, MU_B_UEV_PER_T, UnphysicalShift,
                      degree_from_field, diffusion_cm2s_to_nm2s,
                      diffusion_nm2s_to_cm2s, electron_zeeman,
                      exciton_zeeman_splitting, ohs_max, overhauser_field,
                      overhauser_state, polarization_degree)

DEFAULTS = MaterialParams()
WITH_G = MaterialParams(g_e_abs=0.54, g_h_abs=1.4)


class TestUnits:
    def test_cm2s_to_nm2s_factor(self):
        assert diffusion_cm2s_to_nm2s(1e-13) == pytest.approx(10.0)
        assert diffusion_nm2s_to_cm2s(10.0) == pytest.approx(1e-13, abs=0)

    def test_round_trip(self):
        for d in (2e-15, 1e-13, 1e-12):
            assert diffusion_nm2s_to_cm2s(
                diffusion_cm2s_to_nm2s(d)) == pytest.approx(d, rel=1e-15, abs=0)

    def test_negative_rejected(self):
        with pytest.raises(InvariantViolation):
            diffusion_cm2s_to_nm2s(-1.0)

    def test_negative_nm2s_rejected(self):
        with pytest.raises(InvariantViolation, match="NegativeDiffusion"):
            diffusion_nm2s_to_cm2s(-1.0)

    def test_overflowing_conversion_rejected(self):
        for d in (1e300, float("inf")):
            with pytest.raises(InvariantViolation,
                               match="diffusion coefficient"):
                diffusion_cm2s_to_nm2s(d)


class TestOhsMax:
    def test_defaults_give_132(self):
        assert ohs_max(DEFAULTS) == pytest.approx(132.0, abs=1e-12)

    def test_zero_constants_give_zero(self):
        assert ohs_max(MaterialParams(a_ga=0.0, a_as=0.0)) == 0.0

    def test_linear_in_spin(self):
        m = MaterialParams(i_ga=3.0, i_as=3.0)
        assert ohs_max(m) == pytest.approx(2 * 132.0)


class TestPolarizationDegree:
    def test_paper_saturation_value(self):
        p = polarization_degree(38.0, DEFAULTS)
        assert 0.287 <= p <= 0.289
        assert round(p, 2) == 0.29

    def test_full_shift_is_unity(self):
        assert polarization_degree(132.0, DEFAULTS) == pytest.approx(1.0)

    def test_zero(self):
        assert polarization_degree(0.0, DEFAULTS) == 0.0

    def test_round_trip_identity(self):
        full = ohs_max(DEFAULTS)
        for p in np.linspace(-1, 1, 21):
            assert polarization_degree(p * full, DEFAULTS) == pytest.approx(
                p, rel=1e-12, abs=1e-12)

    def test_unphysical_shift_rejected(self):
        with pytest.raises(UnphysicalShift):
            polarization_degree(200.0, DEFAULTS)
        with pytest.raises(UnphysicalShift):
            polarization_degree(-132.1, DEFAULTS)

    def test_nan_rejected(self):
        with pytest.raises(UnphysicalShift, match="nan"):
            polarization_degree(float("nan"), DEFAULTS)


class TestOverhauserField:
    def test_zero_polarization_zero_field(self):
        assert overhauser_field(0.0, WITH_G) == 0.0

    def test_unit_g_factor_value(self):
        m = MaterialParams(g_e_abs=1.0)
        assert overhauser_field(1.0, m) == pytest.approx(132.0 / MU_B_UEV_PER_T,
                                                         rel=1e-12)

    def test_linearity(self):
        assert overhauser_field(0.5, WITH_G) == pytest.approx(
            overhauser_field(1.0, WITH_G) / 2.0, rel=1e-12)

    def test_missing_g_factor(self):
        with pytest.raises(MissingGFactor):
            overhauser_field(0.5, DEFAULTS)

    def test_unphysical_degree_rejected(self):
        with pytest.raises(UnphysicalShift):
            overhauser_field(1.5, WITH_G)

    def test_nan_rejected(self):
        for call in (lambda: overhauser_field(float("nan"), WITH_G),
                     lambda: overhauser_state(float("nan"), DEFAULTS)):
            with pytest.raises(UnphysicalShift, match="nan"):
                call()

    def test_field_shift_equals_ohs(self):
        # g_e muB B_N must equal the shift that produced B_N
        p = 0.2879
        b_n = overhauser_field(p, WITH_G)
        assert WITH_G.g_e_abs * MU_B_UEV_PER_T * b_n == pytest.approx(
            p * ohs_max(WITH_G), rel=1e-12)

    def test_state_bundle(self):
        p = 38.0 / 132.0
        st = overhauser_state(p, WITH_G)
        assert st.polarization_degree == p
        assert st.ohs_energy == pytest.approx(38.0, rel=1e-12)
        assert st.b_n == pytest.approx(overhauser_field(p, WITH_G))

    def test_state_without_g_factor_has_no_field(self):
        st = overhauser_state(-0.5, DEFAULTS)
        assert (st.ohs_energy, st.b_n) == (-66.0, None)
        with pytest.raises(UnphysicalShift, match="outside"):
            overhauser_state(1.5, DEFAULTS)


class TestDegreeFromField:
    def test_inverts_overhauser_field(self):
        for p in (-0.9, -0.3, 0.0, 0.2879, 0.9):
            assert degree_from_field(overhauser_field(p, WITH_G),
                                     WITH_G) == pytest.approx(p, rel=1e-12,
                                                              abs=1e-15)

    @pytest.mark.parametrize("p", [1.0, -1.0])
    def test_full_polarization_round_trips_exactly(self, p):
        assert degree_from_field(overhauser_field(p, WITH_G), WITH_G) == p

    def test_beyond_full_polarization_rejected(self):
        b_full = overhauser_field(1.0, WITH_G)
        for b_n in (1.01 * b_full, -1.01 * b_full, float("nan")):
            with pytest.raises(UnphysicalShift,
                               match="exceeds the fully polarized value"):
                degree_from_field(b_n, WITH_G)

    def test_requires_positive_g_factor(self):
        for m in (DEFAULTS, MaterialParams(g_e_abs=0.0)):
            with pytest.raises(MissingGFactor, match="g_e_abs > 0"):
                degree_from_field(1.0, m)


class TestZeemanSplittings:
    def test_symmetric_cancellation_at_zero_field_shift(self):
        m = MaterialParams(g_e_abs=1.0, g_h_abs=1.0)
        for h in (Helicity.SIGMA_PLUS, Helicity.SIGMA_MINUS):
            assert exciton_zeeman_splitting(m, 0.0, h) == pytest.approx(0.0)

    def test_helicity_difference_identity(self):
        for b_n in (0.0, 0.3, 1.7, -0.9):
            d_plus = exciton_zeeman_splitting(WITH_G, b_n, Helicity.SIGMA_PLUS)
            d_minus = exciton_zeeman_splitting(WITH_G, b_n,
                                               Helicity.SIGMA_MINUS)
            expected = 2.0 * WITH_G.g_e_abs * MU_B_UEV_PER_T * b_n
            assert d_plus - d_minus == pytest.approx(expected, rel=1e-12,
                                                     abs=1e-12)

    def test_known_arithmetic_case(self):
        m = MaterialParams(g_e_abs=1.0, g_h_abs=0.0, b_ext=0.0)
        assert exciton_zeeman_splitting(m, 1.0, Helicity.SIGMA_PLUS) == \
            pytest.approx(MU_B_UEV_PER_T, rel=1e-12)

    def test_affine_in_bn_with_slope_ge_mub(self):
        db = 1e-3
        for h, sign in ((Helicity.SIGMA_PLUS, 1), (Helicity.SIGMA_MINUS, -1)):
            f0 = exciton_zeeman_splitting(WITH_G, 0.4, h)
            f1 = exciton_zeeman_splitting(WITH_G, 0.4 + db, h)
            slope = (f1 - f0) / db
            assert slope == pytest.approx(sign * WITH_G.g_e_abs
                                          * MU_B_UEV_PER_T, rel=1e-9)

    def test_missing_g_factors(self):
        with pytest.raises(MissingGFactor):
            exciton_zeeman_splitting(DEFAULTS, 0.1, Helicity.SIGMA_PLUS)
        with pytest.raises(MissingGFactor):
            exciton_zeeman_splitting(MaterialParams(g_e_abs=0.54), 0.1,
                                     Helicity.SIGMA_PLUS)


class TestElectronZeeman:
    def test_full_compensation(self):
        b_n = WITH_G.b_ext
        assert electron_zeeman(WITH_G, b_n, Helicity.SIGMA_PLUS) == \
            pytest.approx(0.0, abs=1e-12)

    def test_helicity_agnostic_without_field_shift(self):
        assert electron_zeeman(WITH_G, 0.0, Helicity.SIGMA_PLUS) == \
            electron_zeeman(WITH_G, 0.0, Helicity.SIGMA_MINUS)

    def test_sigma_minus_costs_more_for_positive_bn(self):
        for b_n in (0.0, 0.5, 1.0):
            assert electron_zeeman(WITH_G, b_n, Helicity.SIGMA_MINUS) >= \
                electron_zeeman(WITH_G, b_n, Helicity.SIGMA_PLUS)

    def test_missing_g(self):
        with pytest.raises(MissingGFactor):
            electron_zeeman(DEFAULTS, 0.1, Helicity.SIGMA_PLUS)
