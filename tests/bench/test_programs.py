"""Behavioural tests of every benchmark program: each compiles, runs,
and produces the expected key outputs (the checksums the paper-style
validation relies on)."""

import math

import pytest

from repro.bench import SUITE


@pytest.fixture(scope="module")
def compiled(pipeline):
    """Each benchmark's profiling run (a ProfileArtifact) by name."""
    return {name: pipeline.profile(name, benchmark.source)
            for name, benchmark in SUITE.items()}


class TestAllBenchmarks:
    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_compiles_and_runs(self, compiled, name):
        result = compiled[name].reference
        assert result.output, f"{name} produced no output"
        assert result.steps > 1000, f"{name} is trivially small"

    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_deterministic(self, compiled, name, pipeline):
        from repro.sim import run_program
        program = pipeline.compiled(name, SUITE[name].source).program
        again = run_program(program.copy(), collect_profile=False)
        assert compiled[name].reference.output_equal(again)


class TestKnownAnswers:
    def test_queen_finds_92_solutions(self, compiled):
        assert compiled["queen"].reference.output[0] == 92

    def test_towers_moves(self, compiled):
        out = compiled["towers"].reference.output
        assert out[0] == 2 ** 12 - 1   # minimal move count
        assert out[1] == 12            # all discs moved
        assert out[2] == 12 and out[3] == 1  # ordered stack

    def test_quick_sorts(self, compiled):
        out = compiled["quick"].reference.output
        assert out[0] == 1             # sorted flag
        assert out[2] <= out[3]        # min <= max

    def test_bubble_sorts(self, compiled):
        out = compiled["bubble"].reference.output
        assert out[0] == 1
        assert out[2] <= out[3]

    def test_tree_invariant_holds(self, compiled):
        out = compiled["tree"].reference.output
        assert out[0] == 1             # BST ordering verified
        assert out[2] == 200           # node count

    def test_perm_counts(self, compiled):
        # 3 runs of permute(6): each makes 1 + sum over levels calls;
        # permute(n) call count c(n) = 1 + n*c(n-1) - ... just assert
        # the classic Stanford value ratio: same count each run
        out = compiled["perm"].reference.output
        assert out[0] % 3 == 0

    def test_fft_parseval_and_inverse(self, compiled):
        out = compiled["fft"].reference.output
        # Parseval: spectrum energy = nn * time-domain energy; the
        # two-tone signal has average power 0.5*1 + 0.5*0.25 = 0.625,
        # so energy ~ 64 * 0.625 = 40 and spectrum energy ~ 64 * 40
        assert out[0] == pytest.approx(64 * 64 * 0.625, rel=0.05)
        # inverse transform recovers the first sample (which is sin(0)+0.5)
        assert out[3] == pytest.approx(0.5, abs=1e-6)

    def test_solvde_converges_to_sine(self, compiled):
        out = compiled["solvde"].reference.output
        iterations, err, mid = out[0], out[1], out[2]
        assert err < 1e-6
        # y(pi/4) for y'' = -y with y(0)=0, y(pi/2)=1 is sin(pi/4)
        assert mid == pytest.approx(math.sin(math.pi / 4), abs=5e-4)

    def test_moment_statistics(self, compiled):
        out = compiled["moment"].reference.output
        ave, adev, sdev, var, _skew, _curt = out
        assert sdev == pytest.approx(math.sqrt(var), rel=1e-9)
        assert adev > 0 and var > 0

    def test_espresso_minimises_to_two_cubes(self, compiled):
        """The on-set is (x0 & x1) | (!x2 & x3): exactly two product
        terms; the kernel must find both."""
        out = compiled["espresso"].reference.output
        assert out[0] == 2

    def test_adi_conserves_heat_roughly(self, compiled):
        out = compiled["adi"].reference.output
        total = out[0]
        # diffusion with cold boundaries loses some of the initial 32
        assert 0 < total < 32.0

    def test_smooft_preserves_trend(self, compiled):
        out = compiled["smooft"].reference.output
        total, first, mid, last = out
        # smoothing a ramp keeps endpoints near the ramp values
        assert first == pytest.approx(0.05 * 1, abs=0.6)
        assert last == pytest.approx(0.05 * 64, abs=0.6)

    def test_bcuint_interpolates_corners(self, compiled):
        out = compiled["bcuint"].reference.output
        assert all(isinstance(v, float) for v in out)


class TestRunnerCaching:
    """The session pipeline serves repeated stage requests from its
    memory tier."""

    source = SUITE["fft"].source

    def test_compiled_cached(self, pipeline):
        assert (pipeline.compiled("fft", self.source)
                is pipeline.compiled("fft", self.source))

    def test_views_cached_per_latency(self, pipeline):
        from repro.disambig import Disambiguator
        a = pipeline.view("fft", self.source, Disambiguator.SPEC, 2)
        b = pipeline.view("fft", self.source, Disambiguator.SPEC, 2)
        c = pipeline.view("fft", self.source, Disambiguator.SPEC, 6)
        assert a is b and a is not c

    def test_non_spec_views_share_across_latency(self, pipeline):
        from repro.disambig import Disambiguator
        a = pipeline.view("fft", self.source, Disambiguator.STATIC, 2)
        b = pipeline.view("fft", self.source, Disambiguator.STATIC, 6)
        assert a is b
