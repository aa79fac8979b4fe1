"""Shape tests for the experiment harness: each table/figure regenerates
and reproduces the paper's qualitative claims.

These are the repository's core "reproduction" assertions; the
benchmarks/ directory re-runs the same harness with timing.
"""

import pytest

from repro.bench import NRC_BENCHMARKS, REPORTED, UNAFFECTED, get_benchmark
from repro.disambig import Disambiguator
from repro.experiments import (ablation, figure6_2, figure6_3, figure6_4,
                               table6_1, table6_2, table6_3)
from repro.frontend import GraftConfig
from repro.machine import machine
from repro.passes import DEFAULT_CLEANUP, PassPipelineConfig
from repro.pipeline import ArtifactStore, Pipeline

from ..conftest import spec_over_static


@pytest.fixture(scope="module")
def t63(pipeline):
    return table6_3.run(pipeline)


@pytest.fixture(scope="module")
def f62(pipeline):
    return figure6_2.run(pipeline)


@pytest.fixture(scope="module")
def f63(pipeline):
    return figure6_3.run(pipeline)


@pytest.fixture(scope="module")
def f64(pipeline):
    return figure6_4.run(pipeline)


class TestTable61:
    def test_matches_paper(self):
        assert table6_1.run().matches_paper()

    def test_render(self):
        text = table6_1.run().render()
        assert "Integer multiplies" in text and "2 or 6" in text


class TestTable62:
    def test_eleven_reported_rows(self):
        assert len(table6_2.run().rows()) == len(REPORTED)

    def test_render_contains_suites(self):
        text = table6_2.run().render()
        for suite in ("NRC", "StanfInt", "SPEC"):
            assert suite in text


class TestTable63:
    def test_war_never_selected(self, t63):
        """Paper: 'For this particular set of benchmarks, it does not
        benefit WAR dependences at all.'"""
        for memory_latency in (2, 6):
            _raw, war, _waw = t63.totals(memory_latency)
            assert war == 0

    def test_raw_important(self, t63):
        """Paper: RAW dependences benefit most (87 vs 22 WAW at 2-cycle
        memory).  Our RAW share is lower — the kernels are smaller and
        the accept check rolls back RAW applications whose replicated
        stores re-serialise (see EXPERIMENTS.md, Deviations) — but RAW
        must stay at least on par with WAW at 2-cycle memory and beat
        WAR everywhere."""
        raw2, war2, waw2 = t63.totals(2)
        assert raw2 >= waw2
        assert raw2 > war2
        raw6, war6, _waw6 = t63.totals(6)
        assert raw6 > war6
        assert raw6 >= 5

    def test_applications_exist(self, t63):
        raw2, _w, waw2 = t63.totals(2)
        assert raw2 + waw2 >= 5

    def test_applications_at_both_latencies(self, t63):
        """Paper's totals grow slightly with latency (87+22 -> 94+30);
        ours shrink instead because the accept check prunes harder at
        6-cycle memory (see EXPERIMENTS.md, Deviations) — but a healthy
        population of applications must exist at both latencies."""
        assert sum(t63.totals(2)) >= 15
        assert sum(t63.totals(6)) >= 12

    def test_render(self, t63):
        text = t63.render()
        assert "TOTAL" in text and "espresso" in text


class TestFigure62:
    def test_spec_bridges_static_perfect_gap(self, f62):
        """SPEC never loses to STATIC, never beats PERFECT by much
        except where dynamic disambiguation legitimately wins."""
        for (name, _lat), bars in f62.speedups.items():
            static = bars[Disambiguator.STATIC]
            spec = bars[Disambiguator.SPEC]
            assert spec >= static - 1e-9, name

    def test_spec_gains_somewhere(self, f62):
        gains = [bars[Disambiguator.SPEC] - bars[Disambiguator.STATIC]
                 for bars in f62.speedups.values()]
        assert max(gains) > 0.05

    def test_quick_spec_outperforms_perfect(self, f62):
        """Paper: 'Note that for the benchmark quick, SPEC outperforms
        PERFECT, despite the code overhead incurred by SpD.'"""
        for lat in (2, 6):
            bars = f62.speedups[("quick", lat)]
            assert bars[Disambiguator.SPEC] > bars[Disambiguator.PERFECT]

    def test_memory_latency_amplifies_the_gap(self, f62):
        """The static-to-perfect gap (which SpD bridges) widens at
        6-cycle memory, aggregated over the benchmarks."""
        def gap(lat):
            return sum(
                bars[Disambiguator.PERFECT] - bars[Disambiguator.STATIC]
                for (_name, latency), bars in f62.speedups.items()
                if latency == lat)
        assert gap(6) > gap(2)

    def test_render(self, f62):
        assert "SPEC@6" in f62.render()


class TestFigure63:
    def test_narrow_machines_can_lose(self, f63):
        """Paper: 'Because SpD produces additional code, it will
        actually slow down machines with insufficient resource.'"""
        one_fu = [series[0] for series in f63.series.values()]
        assert min(one_fu) < 0

    def test_crossover_between_two_and_three_fus_at_mem2(self, f63):
        """Paper: 'With a two cycle memory latency, most programs need
        between two and three functional units to take advantage.'"""
        crossovers = [f63.crossover_width(name, 2)
                      for name in NRC_BENCHMARKS]
        assert sorted(crossovers)[len(crossovers) // 2] in (2, 3)

    def test_mem6_profits_at_narrower_widths(self, f63):
        """Paper: 'When the memory latency is increased to six cycles,
        most programs will benefit from SpD with as few as one
        functional unit.'"""
        for name in NRC_BENCHMARKS:
            assert (f63.crossover_width(name, 6)
                    <= f63.crossover_width(name, 2))

    def test_wide_machine_gains_larger_at_mem6(self, f63):
        """Ambiguous aliases hinder performance more as memory latency
        increases (paper Section 6.3)."""
        gain2 = sum(f63.series[(n, 2)][7] for n in NRC_BENCHMARKS)
        gain6 = sum(f63.series[(n, 6)][7] for n in NRC_BENCHMARKS)
        assert gain6 > gain2

    def test_monotone_in_width(self, f63):
        """More functional units never make SpD relatively worse by
        much (small scheduler noise tolerated)."""
        for series in f63.series.values():
            assert series[7] >= series[0] - 1e-9


class TestFigure64:
    def test_growth_nonnegative_and_bounded(self, f64):
        for name in REPORTED:
            growth = f64.growth(name)
            assert 0 <= growth <= 1.0  # within MaxExpansion

    def test_some_growth_observed(self, f64):
        assert max(f64.growth(n) for n in REPORTED) > 0.01

    def test_cost_benefit_varies(self, f64):
        """The paper contrasts smooft (tiny cost, real speedup) with
        solvde (large cost, little speedup): growth must not be uniform."""
        growths = sorted(f64.growth(n) for n in REPORTED)
        assert growths[-1] > growths[0]

    def test_render(self, f64):
        assert "Base ops" in f64.render()


class TestUnaffectedPrograms:
    def test_three_stanford_programs_unaffected(self, pipeline):
        """Paper: 'With StanfInt, three of the programs were not
        affected by SpD at all.'"""
        for name in UNAFFECTED:
            source = get_benchmark(name).source
            view = pipeline.view(name, source, Disambiguator.SPEC, 2)
            assert sum(view.spd_counts().values()) == 0
            assert (view.code_size()
                    == pipeline.compiled(name, source).base_size)

    def test_unaffected_spec_equals_static(self, pipeline):
        mach = machine(5, 2)
        for name in UNAFFECTED:
            assert (spec_over_static(pipeline, name, mach)
                    == pytest.approx(0.0))


class TestAblationsRunOnTheGivenPipeline:
    def test_grafting_study_inherits_cleanup_passes(self):
        """Both variants of the grafting study keep the given pipeline's
        cleanup passes; only ``graft`` is overridden."""
        passes = PassPipelineConfig(cleanup=DEFAULT_CLEANUP)
        store = ArtifactStore(None)
        pipeline = Pipeline(store=store, passes=passes)
        study = ablation.run_grafting_study(pipeline, names=["perm"])
        mach = machine(5, 6)
        grafted = Pipeline(store=store, passes=passes, graft=GraftConfig())
        expected = (spec_over_static(pipeline, "perm", mach),
                    spec_over_static(grafted, "perm", mach))
        assert study.results["perm"][2:] == expected
        # the cleaned-up toolchain really measures differently
        plain = Pipeline(store=store)
        assert expected[0] != spec_over_static(plain, "perm", mach)
