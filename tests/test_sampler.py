import math
from fractions import Fraction

import pytest

from loopcurrents import sampler
from loopcurrents.errors import CapExceededError, LoopCurrentsError
from loopcurrents.graphs import (
    CYCLE_DIMENSION_CAP,
    Graph,
    counter_family,
    cycle_space_basis,
    generalized_theta,
)
from loopcurrents.measures import (
    MODELS,
    bernoulli,
    build,
    double_current,
    loop_o1,
    push_uniform_even,
)
from loopcurrents.sampler import (
    CHAIN_BLOCK,
    COUPLED_MODELS,
    loop_chain,
    make_rng,
    sample_stream,
    write_sample_dump,
)

from oracles import (
    chi_square_statistic,
    degrees,
    empirical_counts,
    loop_chain_transition_matrix,
    sample_stream_per_draw,
)

F = Fraction
THETA111 = generalized_theta([1, 1, 1])
TREE = Graph(3, ((0, 1), (1, 2)))


def chi2_critical(dof: int, alpha: float) -> float:
    scipy_stats = pytest.importorskip("scipy.stats")
    return float(scipy_stats.chi2.isf(alpha, dof))


class TestReproducibility:
    def test_same_seed_same_stream(self):
        a = list(loop_chain(THETA111, F(1, 2), 42, samples=200, burn_in=20))
        b = list(loop_chain(THETA111, F(1, 2), 42, samples=200, burn_in=20))
        assert a == b

    def test_coupled_stream_reproducible(self):
        a = sample_stream("double_current", THETA111, F(1, 2), 5, 50)
        b = sample_stream("double_current", THETA111, F(1, 2), 5, 50)
        assert a == b

    def test_streams_are_pinned(self):
        # the rng is consumed in a fixed order: loop copies, then the
        # Bernoulli layer, then the pushforward's basis bits; make_rng's
        # spawn key (0,) is part of every pinned stream
        g = generalized_theta([2, 3, 2])
        pinned = {
            "single_current": [0xB, 0x3F, 0x5F, 0x7C, 0x6B, 0xB, 0x73, 0x17],
            "double_current": [0x67, 0x6E, 0x2A, 0x27, 0x7F, 0x6F, 0x7F, 0x7F],
            "uniform_even_of_double_current": [0x0, 0x0, 0x0, 0x0, 0x1F, 0x0, 0x1F, 0x1F],
        }
        for model, draws in pinned.items():
            assert sample_stream(model, g, F(4, 5), 123456, len(draws)) == draws, model
        # the chain reads blocks of CHAIN_BLOCK basis picks, then as many coins
        chain = [0x0, 0x0, 0x7C, 0x7C, 0x0, 0x63, 0x0, 0x1F]
        assert list(loop_chain(g, F(4, 5), 123456, len(chain), thin=3, burn_in=10)) == chain

    def test_coupled_stream_matches_the_per_draw_reference(self):
        # one uniform per loop copy searched in the CDF reads the same
        # doubles as one Generator.choice per copy
        for g in (generalized_theta([2, 3, 2]), counter_family(2, 2), TREE):
            for model in COUPLED_MODELS:
                for seed in (0, 7, 123456):
                    expected = sample_stream_per_draw(model, g, F(4, 5), seed, 60)
                    assert sample_stream(model, g, F(4, 5), seed, 60) == expected, (model, seed)

    def test_chain_reads_its_proposals_in_blocks(self):
        g = generalized_theta([2, 3, 2])
        elements = cycle_space_basis(g)
        rng = make_rng(5)
        picks = rng.integers(0, len(elements), size=CHAIN_BLOCK)
        coins = rng.random(CHAIN_BLOCK)
        state, expected = 0, []
        for pick, coin in zip(picks, coins):
            new = state ^ elements[pick]
            delta = new.bit_count() - state.bit_count()
            if delta <= 0 or coin < 0.5**delta:
                state = new
            expected.append(state)
        # one sample per sweep of len(elements) proposals
        per_sweep = expected[len(elements) - 1 :: len(elements)]
        assert list(loop_chain(g, F(1, 2), 5, 100)) == per_sweep[:100]

    def test_shorter_requests_are_prefixes(self):
        # 3000 samples of a two-dimensional chain take 6000 proposals, past
        # the first block of CHAIN_BLOCK
        g = generalized_theta([2, 3, 2])
        k, m = 3000, 1500
        assert k * len(cycle_space_basis(g)) > CHAIN_BLOCK
        for thin, burn_in in ((1, 0), (2, 7)):
            long = list(loop_chain(g, F(1, 2), 9, k + m, thin, burn_in))
            assert list(loop_chain(g, F(1, 2), 9, k, thin, burn_in)) == long[:k]
        for model in COUPLED_MODELS:
            long = sample_stream(model, g, F(4, 5), 9, 300)
            assert sample_stream(model, g, F(4, 5), 9, 200) == long[:200], model

    def test_config_validation(self):
        # a negative burn-in or seed, or a thin of 0, on a cycle and on a tree
        for g in (THETA111, TREE):
            for seed, thin, burn_in in ((1, 1, -1), (1, 0, 0), (-1, 1, 0)):
                with pytest.raises(LoopCurrentsError):
                    next(loop_chain(g, F(1, 2), seed, samples=1, thin=thin, burn_in=burn_in))

    def test_work_above_the_cap_is_refused_before_the_first_draw(self, monkeypatch):
        monkeypatch.setattr(sampler, "SAMPLE_WORK_CAP", 12)
        g = generalized_theta([2, 3, 2])  # two basis cycles
        assert len(sample_stream("loop", g, F(1, 2), 1, 12)) == 12
        # (burn-in 2 + 2 samples * 2 sweeps) * 2 = 12 proposals
        assert len(list(loop_chain(g, F(1, 2), 1, samples=2, thin=2, burn_in=2))) == 2
        with pytest.raises(CapExceededError, match="^sample draws needs size 13,"):
            sample_stream("loop", g, F(1, 2), 1, 13)
        with pytest.raises(CapExceededError, match="^chain proposals needs size 14,"):
            next(loop_chain(g, F(1, 2), 1, samples=2, thin=2, burn_in=3))
        # a forest makes no proposals: its chain holds its samples
        assert list(loop_chain(TREE, F(1, 2), 1, samples=12, thin=10**12)) == [0] * 12
        with pytest.raises(CapExceededError, match="^chain proposals needs size 13,"):
            next(loop_chain(TREE, F(1, 2), 1, samples=13))


class TestChainExactness:
    def test_transition_matrix_detailed_balance(self):
        x = F(1, 2)
        states, T = loop_chain_transition_matrix(THETA111, x)
        pi = [x ** s.bit_count() for s in states]
        size = len(states)
        for i in range(size):
            assert sum(T[i]) == 1
            for j in range(size):
                assert pi[i] * T[i][j] == pi[j] * T[j][i]

    def test_transition_matrix_stationarity(self):
        x = F(2, 5)
        states, T = loop_chain_transition_matrix(THETA111, x)
        pi = [x ** s.bit_count() for s in states]
        z = sum(pi)
        for j in range(len(states)):
            assert sum(pi[i] * T[i][j] for i in range(len(states))) == pi[j]
        assert z == loop_o1(THETA111, x).z

    def test_tree_chain_is_stuck_at_empty(self):
        assert list(loop_chain(TREE, F(1, 2), 3, samples=1, thin=25)) == [0]

    def test_chain_state_always_even(self):
        g = generalized_theta([2, 3, 2])
        for state in loop_chain(g, F(2, 3), 11, samples=100, burn_in=5):
            assert all(d % 2 == 0 for d in degrees(g, state))

    def test_chain_runs_past_the_enumeration_cap(self):
        # 22 parallel edges: cycle dimension 21, above the even-subgraph span
        # cap that the exact law and the coupled draws need
        g = Graph(2, ((0, 1),) * 22)
        assert len(cycle_space_basis(g)) == 21 > CYCLE_DIMENSION_CAP
        states = list(loop_chain(g, F(1, 2), 5, samples=50, burn_in=5))
        assert len(states) == 50 and any(states)
        assert all(state.bit_count() % 2 == 0 for state in states)
        with pytest.raises(CapExceededError):
            sample_stream("loop", g, F(1, 2), 5, 3)

    def test_chain_matches_exact_law(self):
        samples = list(loop_chain(THETA111, F(1, 2), 2024, samples=20000, thin=3, burn_in=50))
        counts = empirical_counts(samples)
        exact = loop_o1(THETA111, F(1, 2))
        # mean occupancy of the empty state within 3 sigma of 4/7
        n = len(samples)
        p = 4 / 7
        observed = counts.get(0, 0) / n
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(observed - p) < 3 * sigma
        stat, dof = chi_square_statistic(counts, exact)
        assert stat < chi2_critical(dof, 0.001)


class TestCoupledSamplers:
    ALPHA = 0.001
    N = 20000

    def _gof(self, model, graph, x, exact, seed=1):
        samples = sample_stream(model, graph, x, seed, self.N)
        stat, dof = chi_square_statistic(empirical_counts(samples), exact)
        assert stat < chi2_critical(dof, self.ALPHA), (model, stat, dof)

    def test_random_cluster_on_tree_is_bernoulli(self):
        self._gof("random_cluster", TREE, F(1, 2), bernoulli(TREE, F(1, 2)))

    def test_double_current_on_tree_is_bernoulli_x_squared(self):
        self._gof("double_current", TREE, F(1, 2), bernoulli(TREE, F(1, 4)))

    def test_double_current_on_theta(self):
        self._gof("double_current", THETA111, F(1, 2), double_current(THETA111, F(1, 2)))

    def test_uniform_even_pushforward_matches_loop_model(self):
        self._gof(
            "uniform_even_of_double_current",
            THETA111,
            F(1, 2),
            loop_o1(THETA111, F(1, 2)),
        )

    def test_pushforward_agrees_with_exact_pushforward(self):
        exact = push_uniform_even(double_current(THETA111, F(1, 2)))
        self._gof("uniform_even_of_double_current", THETA111, F(1, 2), exact)

    def test_single_current_needs_pythagorean_params(self):
        with pytest.raises(LoopCurrentsError):
            sample_stream("single_current", THETA111, F(1, 2), 1, 1)

    def test_single_current_sampling(self):
        self._gof("single_current", THETA111, F(4, 5), build("single_current", THETA111, F(4, 5)))

    def test_unknown_model_rejected(self):
        # the model is checked once per stream, before any draw
        for count in (0, 1):
            with pytest.raises(LoopCurrentsError):
                sample_stream("wolff", THETA111, F(1, 2), 1, count)

    def test_every_model_draws_in_exact_support(self):
        g = generalized_theta([2, 3, 2])
        x = F(4, 5)
        assert set(COUPLED_MODELS) == {*MODELS, "uniform_even_of_double_current"}
        for model in COUPLED_MODELS:
            if model in MODELS:
                exact = build(model, g, x)
            else:
                exact = push_uniform_even(double_current(g, x))
            draws = sample_stream(model, g, x, 17, 200)
            assert len(draws) == 200
            assert set(draws) <= set(exact.weights), model

    def test_off_support_sample_is_an_error(self):
        exact = loop_o1(THETA111, F(1, 2))
        with pytest.raises(LoopCurrentsError):
            chi_square_statistic({0b001: 5}, exact)


class TestDumps:
    def test_dump_format(self, tmp_path):
        masks = sample_stream("random_cluster", THETA111, F(1, 2), 9, 25)
        path = tmp_path / "dump.txt"
        write_sample_dump(path, "random_cluster", THETA111, F(1, 2), 9, masks)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# model=random_cluster rng=philox")
        assert "seed=9" in lines[0]
        parsed = [int(s, 16) for s in lines[2:]]
        assert parsed == masks

    def test_header_records_only_the_settings_given(self, tmp_path):
        path = tmp_path / "dump.txt"
        write_sample_dump(path, "random_cluster", THETA111, F(1, 2), 9, [0])
        assert path.read_text().splitlines()[1] == "# x=1/2 edges=3"
        write_sample_dump(path, "loop_mcmc", THETA111, F(1, 2), 9, [0], {"burn_in": 30, "thin": 2})
        assert path.read_text().splitlines()[1] == "# burn_in=30 thin=2 x=1/2 edges=3"
