import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from replink import analytic, cli
from replink.params import (
    ConfigurationError,
    Duration,
    MemoryBudget,
    ProtocolConfig,
    ProtocolKind,
    link_delay,
    link_success_probability,
    mps_success_probability,
    optical_transmission,
    validate_probability,
)

# the interfaces (emission fraction, collection efficiency) of four of the
# command line's hardware presets
ION = (1.00, 0.05)
NV = (0.05, 0.50)
QD = (1.00, 0.50)
OPTIMISTIC = (1.00, 0.50)


def fiber_delay(length_m):
    """The one-way delay of the scenario's default fiber: index 1.5."""
    return link_delay(length_m, 1.5)


def fiber_transmission(interface, length_m):
    """An interface's transmission over the default fiber: attenuation length 22 km."""
    return optical_transmission(*interface, length_m, 22_000.0)


class TestDuration:
    def test_basic_arithmetic_is_exact(self):
        a = Duration(1_000_000)
        b = Duration(3)
        assert (a + b).ps == 1_000_003
        assert (7 * b).ps == 21
        assert a // b == 333_333
        assert Duration.from_us(100).ps == 100_000_000
        assert Duration.from_ns(1).ps == 1_000
        assert Duration.from_ms(10).ps == 10_000_000_000

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            Duration(-1)

    def test_float_ps_rejected(self):
        with pytest.raises(TypeError):
            Duration(1.5)

    def test_ordering(self):
        assert Duration(1) < Duration(2)
        assert max(Duration(5), Duration(3)) == Duration(5)

    def test_seconds(self):
        assert Duration.from_us(25).seconds == pytest.approx(25e-6)

    @pytest.mark.parametrize(
        "convert,unit",
        [(Duration.from_ns, "ns"), (Duration.from_us, "us"), (Duration.from_ms, "ms")],
    )
    @pytest.mark.parametrize("value", [1e308, math.inf, -math.inf, math.nan])
    def test_no_finite_picosecond_count_is_a_configuration_error(self, convert, unit, value):
        message = f"duration must round to a finite number of picoseconds, got {value!r} {unit}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            convert(value)


class TestLinkDelay:
    def test_5_km_is_about_25_us(self):
        delay = fiber_delay(5_000)
        assert delay.seconds * 1e6 == pytest.approx(25.0, rel=1e-2)

    def test_zero_length(self):
        assert fiber_delay(0).ps == 0

    def test_20_km_matches_exact_rational_evaluation(self):
        # 1.5 * 20000 m / c, in ps, rounded to nearest
        exact = Fraction(3 * 10**16, 299_792_458)
        expected = int(exact) + (1 if exact - int(exact) >= Fraction(1, 2) else 0)
        delay = fiber_delay(20_000)
        assert abs(delay.ps - expected) <= 1

    @pytest.mark.parametrize("length,index", [(math.inf, 1.5), (1e305, 1.5), (10_000.0, 1e308)])
    def test_delay_past_a_finite_picosecond_count_is_a_configuration_error(self, length, index):
        message = "^the link delay must round to a finite number of picoseconds"
        with pytest.raises(ConfigurationError, match=message) as error:
            link_delay(length, index)
        assert f"(n = {index!r}, L = {length!r} m)" in str(error.value)

    @given(st.floats(min_value=1.0, max_value=200_000.0))
    def test_linear_in_length(self, length):
        one = fiber_delay(length)
        two = fiber_delay(2 * length)
        assert abs(two.ps - 2 * one.ps) <= 1


class TestOpticalTransmission:
    def test_optimistic_prefactor_at_zero_distance(self):
        assert fiber_transmission(OPTIMISTIC, 0) == pytest.approx(0.5)

    def test_qd_at_44_km_is_half_over_e(self):
        value = fiber_transmission(QD, 44_000)
        assert value == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)
        assert value == pytest.approx(0.18394, abs=1e-5)

    def test_ion_prefactor(self):
        assert fiber_transmission(ION, 0) == pytest.approx(0.05)

    def test_nv_prefactor(self):
        assert fiber_transmission(NV, 0) == pytest.approx(0.025)

    @given(st.floats(min_value=0.0, max_value=100_000.0), st.floats(min_value=100.0, max_value=100_000.0))
    def test_strictly_decreasing_in_length(self, length, extra):
        near = fiber_transmission(QD, length)
        far = fiber_transmission(QD, length + extra)
        assert far < near
        assert 0.0 <= far <= 1.0


def mps_joint(p_bsa, p_mid, p_optical):
    """p_mid * p_side^2: the midpoint source's one-attempt bin law."""
    return analytic.mps_entanglement(mps_success_probability(p_bsa, p_optical), p_mid, 1).p_ent_sum


class TestSuccessProbabilities:
    def test_link_success_example(self):
        assert link_success_probability(0.5, 0.5) == pytest.approx(0.125)

    def test_total_loss(self):
        assert link_success_probability(0.5, 0.0) == 0.0

    def test_snspd_detector_model(self):
        assert link_success_probability(0.24, 0.05) == pytest.approx(6.0e-4)

    def test_mps_success_example(self):
        assert mps_joint(0.5, 1.0, 0.5) == pytest.approx(0.0625)
        assert mps_success_probability(0.5, 0.5) == pytest.approx(0.25)

    def test_mps_source_never_fires(self):
        assert mps_joint(0.5, 0.0, 0.5) == 0.0

    def test_beamsplitter_source_halves_joint_probability(self):
        assert mps_joint(0.5, 0.5, 0.3) == pytest.approx(0.5 * mps_joint(0.5, 1.0, 0.3))

    def test_mps_requires_p_mid(self):
        with pytest.raises(ConfigurationError, match="requires --p-mid"):
            cli.parse_scenario(["--protocol", "mps", "--preset", "qd", "--distances", "10"], env={})

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_mps_joint_equals_p_mid_times_p_bsa_times_link_success(self, p_bsa, p_mid, p_opt):
        joint = mps_joint(p_bsa, p_mid, p_opt)
        p = link_success_probability(p_bsa, p_opt)
        assert joint <= p_mid * p_bsa * p + 1e-15
        assert joint == pytest.approx(p_mid * p_bsa * p, abs=1e-15)
        assert 0.0 <= joint <= 1.0


class TestPresets:
    """The hardware presets, as the command line resolves them."""

    @staticmethod
    def resolve(name):
        argv = ["--protocol", "mitm", "--preset", name, "--distances", "10"]
        return cli.parse_scenario(argv, env={})[0]

    @pytest.mark.parametrize(
        "name,cycle_ps,emission,collection",
        [
            ("ion", 1_000_000, 1.00, 0.05),
            ("nv", 100_000, 0.05, 0.50),
            ("qd", 10_000, 1.00, 0.50),
            ("optimistic", 1_000, 1.00, 0.50),
            ("pessimistic", 1_000, 1.00, 0.10),
        ],
    )
    def test_table(self, name, cycle_ps, emission, collection):
        scenario = self.resolve(name)
        assert scenario.cycle_time_ns == cycle_ps / 1000.0
        assert cli.build_link_model(scenario, 10.0).tau_clock.ps == cycle_ps
        assert scenario.emission_fraction == emission
        assert scenario.collection_efficiency == collection

    def test_unknown_preset_lists_valid_names(self):
        with pytest.raises(ConfigurationError, match="valid presets: ion, nv, optimistic"):
            self.resolve("warpdrive")

    def test_bsa_defaults(self):
        assert self.resolve("optimistic").p_bsa == 0.5
        assert self.resolve("pessimistic").p_bsa == 0.1
        assert self.resolve("qd").p_bsa == 0.24


class TestValidation:
    def test_probability_range(self):
        with pytest.raises(ConfigurationError):
            validate_probability(-0.1)
        with pytest.raises(ConfigurationError):
            validate_probability(1.1)
        with pytest.raises(ConfigurationError):
            validate_probability(float("nan"))
        assert validate_probability(0.3) == 0.3

    def test_memory_budget_counts(self):
        with pytest.raises(ConfigurationError):
            MemoryBudget(n_per_side=-1)
        budget = MemoryBudget.sender_receiver(184, 16)
        assert (budget.n_sender, budget.n_receiver, budget.n_per_side) == (184, 16, 100)

    def test_protocol_config_k_attempts(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(ProtocolKind.MPS, MemoryBudget.symmetric(3))
        with pytest.raises(ConfigurationError):
            ProtocolConfig(ProtocolKind.MITM, MemoryBudget.symmetric(3), k_attempts=5)
