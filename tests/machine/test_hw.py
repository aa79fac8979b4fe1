"""Unit tests for :class:`repro.machine.hw.HwMachine`."""

import pytest

from repro.machine import (HW_ORACLE_INFINITE, PREDICTOR_NAMES, HwMachine,
                           hw_machine, paper_hw_machines)
from repro.machine.latencies import TABLE_6_1_MEM2, TABLE_6_1_MEM6


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive_fus(self, bad):
        with pytest.raises(ValueError, match="num_fus"):
            HwMachine(num_fus=bad)

    @pytest.mark.parametrize("bad", [0, -4])
    def test_rejects_nonpositive_window(self, bad):
        with pytest.raises(ValueError, match="window"):
            HwMachine(window=bad)

    def test_rejects_negative_penalty(self):
        with pytest.raises(ValueError, match="replay_penalty"):
            HwMachine(replay_penalty=-1)

    def test_rejects_unknown_predictor(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            HwMachine(predictor="psychic")

    def test_none_means_unbounded(self):
        mach = HwMachine(num_fus=None, window=None)
        assert mach.num_fus is None and mach.window is None
        assert mach.name == "hw-inffu-winf-mem2-store-set"


class TestNaming:
    def test_auto_name_encodes_every_knob(self):
        assert HwMachine(num_fus=2, window=8).name == \
            "hw-2fu-w8-mem2-store-set"
        assert HW_ORACLE_INFINITE.name == "hw-inffu-winf-mem2-oracle"

    def test_explicit_name_wins(self):
        assert HwMachine(name="custom").name == "custom"


class TestConstructors:
    def test_hw_machine_selects_latency_table(self):
        assert hw_machine(4, memory_latency=2).latencies is TABLE_6_1_MEM2
        assert hw_machine(4, memory_latency=6).latencies is TABLE_6_1_MEM6
        assert hw_machine(4, memory_latency=9).memory_latency == 9

    def test_paper_sweep_widths(self):
        sweep = paper_hw_machines()
        assert [m.num_fus for m in sweep] == [1, 2, 4, 8]
        assert all(m.predictor == "store-set" for m in sweep)

    def test_oracle_infinite_is_fully_unbounded(self):
        assert HW_ORACLE_INFINITE.num_fus is None
        assert HW_ORACLE_INFINITE.window is None
        assert HW_ORACLE_INFINITE.predictor == "oracle"

    def test_registry_matches_predictor_module(self):
        """Every name but the oracle, which the simulator resolves
        from actual addresses, names a predictor policy."""
        from repro.hwsim import make_predictor
        for name in PREDICTOR_NAMES:
            if name != "oracle":
                assert make_predictor(name).name == name
