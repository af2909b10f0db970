"""Domain-type validation: material parameters, geometry, pulse sequences,
and decay series."""
import numpy as np
import pytest

from spindiff import (DecaySeries, DotGeometry, Helicity, InvariantViolation,
                      MaterialParams, PulseSegment, PulseSequence,
                      SegmentKind, YKind, paper_decay_sequence,
                      validate_material)


class TestMaterialParams:
    def test_defaults_are_gaas_values(self):
        m = MaterialParams()
        assert m.a_ga == 42.0
        assert m.a_as == 46.0
        assert m.i_ga == m.i_as == 1.5
        assert m.b_ext == 2.0
        assert m.g_e_abs is None and m.g_h_abs is None

    def test_valid_custom_material_passes(self):
        validate_material(MaterialParams(g_e_abs=0.54, g_h_abs=1.4))

    @pytest.mark.parametrize("kwargs,name", [
        (dict(a_ga=0.0), "NonPositiveHyperfineConstant"),
        (dict(a_as=-1.0), "NonPositiveHyperfineConstant"),
        (dict(i_ga=0.0), "NonPositiveNuclearSpin"),
        (dict(i_as=0.0), "NonPositiveNuclearSpin"),
        (dict(b_ext=-0.1), "NegativeField"),
        (dict(g_e_abs=-0.5), "NegativeGFactor"),
        (dict(g_h_abs=-1.0), "NegativeGFactor"),
        (dict(b_ext=float("nan")), "NonFiniteValue"),
        (dict(g_e_abs=float("nan")), "NonFiniteValue"),
        (dict(g_h_abs=float("inf")), "NonFiniteValue"),
        (dict(a_ga=float("inf")), "NonFiniteValue"),
        (dict(i_as=float("inf")), "NonFiniteValue"),
    ])
    def test_invalid_material_rejected(self, kwargs, name):
        with pytest.raises(InvariantViolation) as err:
            validate_material(MaterialParams(**kwargs))
        assert err.value.name == name


class TestDotGeometry:
    def test_default_is_paper_disk(self):
        g = DotGeometry()
        assert g.radius == 10.0
        assert g.height == 5.0
        assert g.z_center == 0.0

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(InvariantViolation):
            DotGeometry(radius=0.0)
        with pytest.raises(InvariantViolation):
            DotGeometry(height=-5.0)

    @pytest.mark.parametrize("kwargs", [dict(radius=float("inf")),
                                        dict(height=float("inf")),
                                        dict(z_center=float("nan"))])
    def test_non_finite_dimensions_rejected(self, kwargs):
        with pytest.raises(InvariantViolation, match=list(kwargs)[0]) as err:
            DotGeometry(**kwargs)
        assert err.value.name == "NonFiniteValue"


class TestHelicity:
    def test_signs(self):
        assert Helicity.SIGMA_PLUS.sign == 1
        assert Helicity.SIGMA_MINUS.sign == -1

    def test_values_match_data_labels(self):
        assert Helicity("sigma+") is Helicity.SIGMA_PLUS
        assert Helicity("sigma-") is Helicity.SIGMA_MINUS


class TestPulseSequence:
    def test_paper_decay_factory(self):
        seq = paper_decay_sequence(t_dark=120.0)
        kinds = [s.kind for s in seq.segments]
        assert kinds == [SegmentKind.ERASE, SegmentKind.PUMP,
                         SegmentKind.DARK, SegmentKind.PROBE]
        assert seq.segments[0].duration == 10.0
        assert seq.segments[1].duration == 10.0
        assert seq.segments[2].duration == 120.0
        assert seq.segments[3].duration == pytest.approx(0.1)
        assert seq.total_duration == pytest.approx(140.1)

    def test_negative_duration_rejected(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvariantViolation, match="NegativeDuration"):
                PulseSegment(SegmentKind.DARK, bad)

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvariantViolation):
            PulseSequence(segments=())


class TestDecaySeries:
    def test_holds_data_and_kind(self):
        s = DecaySeries(t=np.array([0.0, 1.0]), y=np.array([1.0, 0.5]),
                        y_kind=YKind.DOT_AVERAGE)
        assert len(s) == 2
        assert s.y_kind is YKind.DOT_AVERAGE

    def test_time_must_strictly_increase(self):
        with pytest.raises(InvariantViolation):
            DecaySeries(t=np.array([0.0, 1.0, 1.0]),
                        y=np.array([1.0, 0.5, 0.4]),
                        y_kind=YKind.DOT_AVERAGE)

    @pytest.mark.parametrize("name, bad", [("t", float("inf")),
                                           ("t", float("nan")),
                                           ("y", float("nan")),
                                           ("y", -float("inf"))])
    def test_non_finite_value_rejected(self, name, bad):
        # checked before the time order: a NaN time is not reported as
        # NonMonotonicTime
        data = {"t": np.array([0.0, 1.0, 2.0]), "y": np.array([1.0, 0.5, 0.4])}
        data[name][1] = bad
        with pytest.raises(InvariantViolation,
                           match=rf"{name}\[1\] = {bad}") as err:
            DecaySeries(**data, y_kind=YKind.DOT_AVERAGE)
        assert err.value.name == "NonFiniteValue"

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvariantViolation):
            DecaySeries(t=np.array([0.0, 1.0]), y=np.array([1.0]),
                        y_kind=YKind.DOT_AVERAGE)

    def test_empty_rejected(self):
        with pytest.raises(InvariantViolation):
            DecaySeries(t=np.array([]), y=np.array([]),
                        y_kind=YKind.DOT_AVERAGE)

    @pytest.mark.parametrize("sigma, detail", [
        ([1.0, 1.0], r"sigma shape \(2,\), t shape \(3,\)"),
        ([1.0, 0.0, 1.0], r"sigma\[1\] = 0"),
        ([1.0, 1.0, -2.0], r"sigma\[2\] = -2"),
        ([float("nan"), 1.0, 1.0], r"sigma\[0\] = nan"),
        ([1.0, float("inf"), 1.0], r"sigma\[1\] = inf"),
    ])
    def test_bad_sigma_rejected(self, sigma, detail):
        with pytest.raises(InvariantViolation, match=detail) as err:
            DecaySeries(t=np.array([0.0, 1.0, 2.0]),
                        y=np.array([1.0, 0.5, 0.4]), sigma=sigma)
        assert err.value.name == "BadSigma"

    def test_sigma_in_metadata_rejected(self):
        # a label the fit does not read would leave it silently unweighted
        with pytest.raises(InvariantViolation) as err:
            DecaySeries(t=np.array([0.0, 1.0]), y=np.array([1.0, 0.5]),
                        metadata={"sigma": (1.0, 2.0)})
        assert err.value.name == "BadSigma"

    def test_sigma_stored_as_float_array(self):
        s = DecaySeries(t=np.array([0.0, 1.0]), y=np.array([1.0, 0.5]),
                        sigma=[1, 2])
        assert isinstance(s.sigma, np.ndarray)
        assert s.sigma.dtype == np.float64
        assert s.sigma.tolist() == [1.0, 2.0]

    def test_kind_labels(self):
        assert YKind.DOT_AVERAGE.value == "dot_average"
        assert YKind.ZEEMAN_SPLITTING_UEV.value == "zeeman_splitting_uev"
