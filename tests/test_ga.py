import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, binomtest, chi2, chisquare, ks_2samp

import thermoga as tg
from thermoga.ga import _distinct_picks

FALSE_ALARM = 1e-6   # p-value below which a law test fails

CHAIN = tg.ModelKind.CHAIN


@pytest.fixture(scope="module")
def chain_setup():
    params = tg.DisorderParams(0.0, 1.0, CHAIN)
    d = tg.sample_chain_disorder(40, params, 100)
    return d, tg.chain_evaluator(d)


def _rngs(seed):
    """The generators of a lone population: one block, one generator."""
    return [np.random.default_rng(seed)]


def _lone(model):
    """A lone population's evaluator `model(members)` in block-aware form."""
    return lambda members, blocks: model(members)


def _per_generation(entropy, t):
    """A fresh generator for generation t of a run."""
    return [np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(t,)))]


def make_params(**kw):
    defaults = dict(population_size=20, genome_length=40, tournament_size=2,
                    crossover_rate=0.1, mutation_rate=0.001)
    defaults.update(kw)
    return tg.GAParams(**defaults)


class TestParams:
    def test_odd_population_rejected(self):
        with pytest.raises(ValueError):
            make_params(population_size=21)

    def test_tournament_size_bounds(self):
        with pytest.raises(ValueError):
            make_params(tournament_size=0)
        with pytest.raises(ValueError):
            make_params(tournament_size=21)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            make_params(crossover_rate=1.5)


class TestInit:
    def test_shapes_and_values(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(population_size=100), model, 0)
        assert pop.members.shape == (100, 40)
        assert np.all(np.abs(pop.members) == 1)

    def test_deterministic(self, chain_setup):
        _, model = chain_setup
        a = tg.init_population(make_params(), model, 5)
        b = tg.init_population(make_params(), model, 5)
        assert np.array_equal(a.members, b.members)

    def test_site_mean_near_zero(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(population_size=500), model, 9)
        mean = pop.members.astype(float).mean()
        assert abs(mean) < 3 / np.sqrt(500 * 40)

    def test_energy_cache_coherent(self, chain_setup):
        d, model = chain_setup
        pop = tg.init_population(make_params(), model, 5)
        assert np.array_equal(pop.energies, tg.chain_energies(pop.members, d))


class TestTournament:
    def test_sigma_one_is_uniform_resampling(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(population_size=200), model, 1)
        out = tg.tournament_select(pop, make_params(population_size=200, tournament_size=1),
                                   _rngs(2))
        # no selection pressure: mean energy unchanged within resampling noise
        spread = pop.energies.std() / np.sqrt(200)
        assert abs(tg.empirical_energy(out) - tg.empirical_energy(pop)) < 4 * spread

    def test_sigma_equals_population_copies_best(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 3)
        out = tg.tournament_select(pop, make_params(tournament_size=20), _rngs(4))
        assert np.all(out.energies == pop.energies.min())

    def test_selection_lowers_mean_energy(self, chain_setup):
        _, model = chain_setup
        params = make_params(population_size=100)
        wins = 0
        for k in range(100):
            pop = tg.init_population(params, model, 1000 + k)
            out = tg.tournament_select(pop, params, _rngs(2000 + k))
            wins += tg.empirical_energy(out) <= tg.empirical_energy(pop)
        assert wins == 100

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
    def test_energy_tie_goes_to_first_drawn(self, k):
        # distinct genomes, equal energies: each slot keeps its first candidate,
        # which column 0 draws as integers(0, M) for every slot
        members = np.eye(12, dtype=np.int8) * 2 - 1
        pop = tg.Population(members=members, energies=np.zeros(12))
        out = tg.tournament_select(pop, make_params(population_size=12, genome_length=12,
                                                    tournament_size=k), _rngs(5))
        first = np.random.default_rng(5).integers(0, 12, size=12)
        assert np.array_equal(out.members, members[first])


class TestBoltzmann:
    def test_zero_beta_uniform_weights(self):
        w = tg.boltzmann_weights(np.array([0.0, -3.0, 2.0, 5.0]), 0.0)
        assert np.allclose(w, 0.25)

    def test_exact_two_member_weights(self):
        w = tg.boltzmann_weights(np.array([0.0, np.log(2)]), 1.0)
        assert w == pytest.approx([2 / 3, 1 / 3], rel=1e-12)

    def test_sampling_matches_weights(self, chain_setup):
        # population of two genome kinds, energies 0 and ln 2, beta_s = 1
        members = np.ones((100, 40), dtype=np.int8)
        members[50:, 0] = -1
        energies = np.zeros(100)
        energies[50:] = np.log(2)
        pop = tg.Population(members=members, energies=energies)
        picks = 0
        total = 0
        for k in range(1000):
            out = tg.boltzmann_select(pop, 1.0, _rngs(k))
            picks += int(np.sum(out.energies == 0.0))
            total += 100
        frac = picks / total
        se = np.sqrt((2 / 3) * (1 / 3) / total)
        assert abs(frac - 2 / 3) < 4 * se

    def test_large_beta_selects_best(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 8)
        out = tg.boltzmann_select(pop, 1e6, _rngs(9))
        assert np.all(out.energies == pop.energies.min())


class TestCrossover:
    def test_zero_rate_identity(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 11)
        out = tg.crossover(pop, 0.0, _rngs(12), _lone(model))
        assert np.array_equal(out.members, pop.members)

    def test_single_point_semantics(self):
        # parents all +1 and all -1 that cross for sure: each child keeps its own
        # parent's head and takes the other's tail from one interior cut on
        pop = tg.Population(members=np.array([[1] * 6, [-1] * 6], dtype=np.int8),
                            energies=np.zeros(2))
        cuts = set()
        for seed in range(40):
            out = tg.crossover(pop, 1.0, _rngs(seed), _no_energy)
            assert np.array_equal(out.members[1], -out.members[0])
            assert list(out.members[:, 0]) == [1, -1]
            cut = int(np.count_nonzero(out.members[0] == 1))
            assert 1 <= cut < 6
            assert np.array_equal(out.members[0], np.where(np.arange(6) < cut, 1, -1))
            cuts.add(cut)
        assert cuts == {1, 2, 3, 4, 5}

    def test_column_multisets_conserved(self, chain_setup):
        d, model = chain_setup
        pop = tg.init_population(make_params(population_size=30), model, 13)
        out = tg.crossover(pop, 1.0, _rngs(14), _lone(model))
        assert np.array_equal(np.sort(out.members, axis=0), np.sort(pop.members, axis=0))

    def test_cache_recomputed(self, chain_setup):
        d, model = chain_setup
        pop = tg.init_population(make_params(), model, 15)
        out = tg.crossover(pop, 1.0, _rngs(16), _lone(model))
        assert np.array_equal(out.energies, tg.chain_energies(out.members, d))


def _random_disorder(kind, n, seed):
    if kind is CHAIN:
        return tg.sample_chain_disorder(n, tg.DisorderParams(0.0, 1.0, CHAIN), seed)
    return tg.sample_sk_disorder(n, tg.DisorderParams(0.0, 1.0, tg.ModelKind.SK), seed)


GA_CASES = dict(
    n=st.integers(2, 40),
    pairs=st.integers(1, 12),
    p_c=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    p_m=st.sampled_from([0.0, 0.001, 0.02, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)


class TestChangedRowEnergies:
    """Crossover and mutation re-cache only the rows they change."""

    @settings(max_examples=60, deadline=None)
    @given(**GA_CASES)
    def test_chain_equals_full_recompute_exactly(self, n, pairs, p_c, p_m, seed):
        model = tg.chain_evaluator(_random_disorder(CHAIN, n, seed))
        pop = tg.init_population(make_params(population_size=2 * pairs, genome_length=n),
                                 model, seed + 1)
        crossed = tg.crossover(pop, p_c, _rngs(seed + 2), _lone(model))
        assert np.array_equal(crossed.energies, model(crossed.members))
        mutated = tg.mutate(crossed, p_m, _rngs(seed + 3), _lone(model))
        assert np.array_equal(mutated.energies, model(mutated.members))

    @settings(max_examples=60, deadline=None)
    @given(convention=st.sampled_from(["ordered", "unordered"]), **GA_CASES)
    def test_sk_equals_full_recompute(self, convention, n, pairs, p_c, p_m, seed):
        d = _random_disorder(tg.ModelKind.SK, n, seed)
        model = tg.sk_evaluator(tg.SKDisorder(d.couplings, d.params, convention))
        pop = tg.init_population(make_params(population_size=2 * pairs, genome_length=n),
                                 model, seed + 1)
        mutated = tg.mutate(tg.crossover(pop, p_c, _rngs(seed + 2), _lone(model)), p_m,
                            _rngs(seed + 3), _lone(model))
        e_max = np.abs(d.couplings).sum() / n    # no row's |E| exceeds this
        assert np.all(np.abs(mutated.energies - model(mutated.members)) <= 1e-12 * e_max)

    def test_only_changed_rows_are_recomputed(self, chain_setup):
        d, _ = chain_setup
        seen = []

        def model(members):
            seen.append(members.shape[0])
            return tg.chain_energies(members, d)

        pop = tg.init_population(make_params(), model, 41)
        seen.clear()
        out = tg.mutate(pop, 0.01, _rngs(42), _lone(model))
        changed = int(np.count_nonzero(np.any(out.members != pop.members, axis=1)))
        assert sum(seen) == changed < pop.size

    def test_identical_parents_need_no_recompute(self, chain_setup):
        _, model = chain_setup
        calls = []
        pop = tg.init_population(make_params(), model, 43)
        clones = tg.Population(members=np.repeat(pop.members[:1], pop.size, axis=0),
                               energies=np.repeat(pop.energies[:1], pop.size))
        out = tg.crossover(clones, 1.0, _rngs(44), _lone(lambda m: calls.append(m) or model(m)))
        assert calls == []
        assert out.energies is clones.energies


class TestMutate:
    def test_zero_rate_identity(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 17)
        out = tg.mutate(pop, 0.0, _rngs(18), _lone(model))
        assert out is pop

    def test_full_rate_flips_everything(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 19)
        out = tg.mutate(pop, 1.0, _rngs(20), _lone(model))
        assert np.array_equal(out.members, -pop.members)
        assert np.allclose(out.energies, pop.energies)

    def test_flip_count_concentration(self, chain_setup):
        _, model = chain_setup
        p_m = 0.02
        total_sites = 0
        total_flips = 0
        for k in range(20):
            pop = tg.init_population(make_params(population_size=50), model, 300 + k)
            out = tg.mutate(pop, p_m, _rngs(400 + k), _lone(model))
            total_flips += int(np.sum(out.members != pop.members))
            total_sites += pop.members.size
        expected = total_sites * p_m
        sd = np.sqrt(total_sites * p_m * (1 - p_m))
        assert abs(total_flips - expected) < 4 * sd


class TestStepGeneration:
    def test_deterministic(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 23)
        a = tg.step_generation(pop, make_params(), _lone(model), _rngs(24))
        b = tg.step_generation(pop, make_params(), _lone(model), _rngs(24))
        assert np.array_equal(a.members, b.members)

    @pytest.mark.parametrize("make_seed", [lambda: 28,
                                           lambda: np.random.SeedSequence(28, spawn_key=(3, 4))],
                             ids=["int", "seed_sequence"])
    def test_int_or_seed_sequence_gives_same_offspring(self, chain_setup, make_seed):
        # a generator built afresh from the same int or SeedSequence repeats the offspring
        _, model = chain_setup
        params = make_params(crossover_rate=0.5, mutation_rate=0.05)
        pop = tg.init_population(params, model, 27)
        seed = make_seed()
        a = tg.step_generation(pop, params, _lone(model), _rngs(seed))
        b = tg.step_generation(pop, params, _lone(model), _rngs(seed))
        assert np.array_equal(a.members, b.members)
        if isinstance(seed, np.random.SeedSequence):
            assert seed.n_children_spawned == 0
        # one generator, drawn from by selection, crossover and mutation in turn
        rngs = _rngs(make_seed())
        ref = tg.mutate(tg.crossover(tg.tournament_select(pop, params, rngs), 0.5, rngs,
                                     _lone(model)), 0.05, rngs, _lone(model))
        assert np.array_equal(a.members, ref.members)
        assert np.array_equal(a.energies, ref.energies)

    def test_generator_is_advanced(self, chain_setup):
        _, model = chain_setup
        params = make_params(crossover_rate=0.5, mutation_rate=0.05)
        pop = tg.init_population(params, model, 27)
        rng = np.random.default_rng(28)
        state = rng.bit_generator.state
        a = tg.step_generation(pop, params, _lone(model), [rng])
        assert rng.bit_generator.state != state
        b = tg.step_generation(pop, params, _lone(model), [rng])
        assert not np.array_equal(a.members, b.members)

    def test_collapse_to_best_under_pure_elitist_selection(self, chain_setup):
        _, model = chain_setup
        params = make_params(tournament_size=20, crossover_rate=0.0, mutation_rate=0.0)
        pop = tg.init_population(params, model, 25)
        out = tg.step_generation(pop, params, _lone(model), _rngs(26))
        assert np.all(out.energies == pop.energies.min())

    def test_best_energy_improves_statistically(self, chain_setup):
        _, model = chain_setup
        params = make_params(crossover_rate=0.1, mutation_rate=0.001)
        finals, starts = [], []
        for k in range(20):
            pop = tg.init_population(params, model, 500 + k)
            starts.append(pop.energies.min())
            for t in range(30):
                pop = tg.step_generation(pop, params, _lone(model), _per_generation(600 + k, t))
            finals.append(pop.energies.min())
        assert np.median(finals) < np.median(starts)

    def test_sigma_dominance_early(self, chain_setup):
        _, model = chain_setup
        track = {}
        for sigma in (2, 4):
            params = make_params(population_size=100, tournament_size=sigma)
            best = []
            for k in range(10):
                pop = tg.init_population(params, model, 700 + k)
                per_gen = []
                for t in range(30):
                    pop = tg.step_generation(pop, params, _lone(model),
                                             _per_generation(800 + k, t))
                    per_gen.append(pop.energies.min())
                best.append(per_gen)
            track[sigma] = np.median(np.asarray(best), axis=0)
        assert np.all(track[4][1:15] <= track[2][1:15])


def _blocks(m, n, blocks, energies=None):
    """`blocks` copies of an M-member block: members +1, energies tiled (default 0)."""
    e = np.zeros(m) if energies is None else np.asarray(energies, dtype=np.float64)
    return tg.Population(members=np.ones((blocks * m, n), dtype=np.int8),
                         energies=np.tile(e, blocks))


def _no_energy(members, blocks):
    return np.zeros(members.shape[0])


def _pooled_chisquare(observed, expected, min_expected=50.0):
    """Chi-square p-value after merging neighbouring cells until each expects >= min_expected."""
    obs, exp, o, e = [], [], 0.0, 0.0
    for oi, ei in zip(observed, expected):
        o, e = o + oi, e + ei
        if e >= min_expected:
            obs.append(o), exp.append(e)
            o, e = 0.0, 0.0
    obs[-1] += o
    exp[-1] += e
    return chisquare(obs, exp).pvalue


class TestDistinctPicks:
    """Raw draws map one to one onto ordered tuples of distinct indices (exhaustive, exact)."""

    @pytest.mark.parametrize("m, k", [(1, 1), (2, 2), (5, 1), (5, 2), (5, 3), (5, 5), (7, 4)])
    def test_raw_draws_biject_onto_ordered_tuples(self, m, k):
        draws = np.array(list(itertools.product(*(range(m - c) for c in range(k)))),
                         dtype=np.intp).reshape(-1, k)
        picks = _distinct_picks(draws)
        tuples = {tuple(row) for row in picks.tolist()}
        assert tuples == set(itertools.permutations(range(m), k))
        assert len(tuples) == len(draws)

    def test_equals_shifting_past_earlier_picks_in_ascending_order(self):
        draws = np.array(list(itertools.product(range(6), range(5), range(4))), dtype=np.intp)
        for raw, got in zip(draws.tolist(), _distinct_picks(draws).tolist()):
            picks = []
            for x in raw:
                for p in sorted(picks):
                    x += x >= p
                picks.append(x)
            assert got == picks


class TestTournamentLaw:
    """The exact law of tournament winners, from many independent blocks of one generator.

    Each statistical test fails with probability 1e-6 under the exact law
    (chi-square or exact binomial p-value below FALSE_ALARM; every pooled
    chi-square cell expects at least 50 counts).
    """

    M, BLOCKS = 10, 2000

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_winner_rank_law(self, k):
        # energies distinct, rank r = 1 the best: P(r) = C(M - r, k - 1) / C(M, k)
        m = self.M
        energies = np.random.default_rng(7).permutation(m).astype(np.float64)
        pop = _blocks(m, 1, self.BLOCKS, energies)
        rng = np.random.default_rng(11 + k)
        out = tg.tournament_select(pop, make_params(population_size=m, genome_length=1,
                                                    tournament_size=k),
                                   [rng] * self.BLOCKS)
        counts = np.bincount(out.energies.astype(np.intp), minlength=m)   # energy e has rank e + 1
        law = np.array([math.comb(m - r, k - 1) / math.comb(m, k) for r in range(1, m + 1)])
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(counts[law == 0] == 0)
        if k == m:
            assert counts[0] == pop.size
        else:
            assert _pooled_chisquare(counts[law > 0], pop.size * law[law > 0]) > FALSE_ALARM

    @pytest.mark.parametrize("m, k", [(2, 2), (4, 4), (6, 3)])
    def test_tied_members_win_half_of_their_ties(self, m, k):
        # members 0 and 1 tie at the lowest energy; given that one of them won,
        # each did with probability 1/2
        energies = np.zeros(m)
        energies[:2] = -1.0
        members = np.tile(np.eye(m, dtype=np.int8), (self.BLOCKS, 1))
        pop = tg.Population(members=members, energies=np.tile(energies, self.BLOCKS))
        rng = np.random.default_rng(100 + m)
        out = tg.tournament_select(pop, make_params(population_size=m, genome_length=m,
                                                    tournament_size=k),
                                   [rng] * self.BLOCKS)
        wins = out.members[:, :2].sum(axis=0)   # member j's row is the j-th unit vector
        assert wins.sum() > 0
        assert binomtest(int(wins[0]), int(wins.sum()), 0.5).pvalue > FALSE_ALARM


class TestMutationLaw:
    """Mutation flips each site independently with probability p_m.

    Each statistical test fails with probability 1e-6 under the exact law
    (chi-square p-value below FALSE_ALARM; every pooled cell expects at
    least 50 counts).
    """

    def test_flip_pattern_law_of_a_small_block(self):
        # M = 2, N = 2: all 16 flip patterns, each p^|S| (1 - p)^(4 - |S|)
        p_m, blocks = 0.3, 20000
        pop = _blocks(2, 2, blocks)
        rng = np.random.default_rng(21)
        out = tg.mutate(pop, p_m, [rng] * blocks, _no_energy)
        flipped = (out.members == -1).reshape(blocks, 4)
        patterns = np.bincount(flipped @ (1 << np.arange(4)), minlength=16)
        sizes = np.array([bin(i).count("1") for i in range(16)])
        law = p_m ** sizes * (1 - p_m) ** (4 - sizes)
        assert chisquare(patterns, blocks * law).pvalue > FALSE_ALARM

    def test_flip_count_per_block_is_binomial(self):
        m, n, p_m, blocks = 4, 5, 0.3, 20000
        pop = _blocks(m, n, blocks)
        rng = np.random.default_rng(22)
        out = tg.mutate(pop, p_m, [rng] * blocks, _no_energy)
        per_block = (out.members == -1).reshape(blocks, m * n).sum(axis=1)
        counts = np.bincount(per_block, minlength=m * n + 1)
        law = binom.pmf(np.arange(m * n + 1), m * n, p_m)
        assert _pooled_chisquare(counts, blocks * law) > FALSE_ALARM

    def test_flipped_positions_are_uniform(self):
        # every site flips in Binomial(blocks, p_m) of the blocks, independently
        m, n, p_m, blocks = 10, 10, 0.05, 4000
        pop = _blocks(m, n, blocks)
        rng = np.random.default_rng(23)
        out = tg.mutate(pop, p_m, [rng] * blocks, _no_energy)
        per_site = (out.members == -1).reshape(blocks, m * n).sum(axis=0)
        stat = np.sum((per_site - blocks * p_m) ** 2) / (blocks * p_m * (1 - p_m))
        assert chi2.sf(stat, m * n) > FALSE_ALARM

    def test_no_site_flips_twice(self):
        # the flipped sites of a block number exactly its binomial count, the first draw
        m, n, p_m = 4, 5, 0.6
        for seed in range(200):
            count = np.random.default_rng(seed).binomial(m * n, p_m)
            out = tg.mutate(_blocks(m, n, 1), p_m, _rngs(seed), _no_energy)
            assert np.count_nonzero(out.members == -1) == count

    def test_edge_rates_are_exact(self):
        pop = _blocks(4, 5, 3)
        rngs = [np.random.default_rng(s) for s in range(3)]
        states = [rng.bit_generator.state for rng in rngs]
        assert tg.mutate(pop, 0.0, rngs, _no_energy) is pop
        assert [rng.bit_generator.state for rng in rngs] == states
        assert np.all(tg.mutate(pop, 1.0, rngs, _no_energy).members == -1)


class TestBlocks:
    """R replica blocks advanced together equal R populations advanced alone."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from([CHAIN, tg.ModelKind.SK]), n=st.integers(2, 30),
           pairs=st.integers(1, 8), blocks=st.integers(1, 4),
           sigma=st.sampled_from([1, 2, 3, 4]),
           selection=st.sampled_from(["tournament", "boltzmann"]),
           p_c=st.sampled_from([0.0, 0.5, 1.0]), p_m=st.sampled_from([0.0, 0.02, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_step_generation_per_block(self, kind, n, pairs, blocks, sigma, selection,
                                       p_c, p_m, seed):
        params = make_params(population_size=2 * pairs, genome_length=n,
                             tournament_size=min(sigma, 2 * pairs), crossover_rate=p_c,
                             mutation_rate=p_m, selection_mode=selection, boltzmann_beta=1.5)
        disorders = [_random_disorder(kind, n, seed + r) for r in range(blocks)]
        models = [tg.chain_evaluator(d) if kind is CHAIN else tg.sk_evaluator(d)
                  for d in disorders]
        alone = [tg.init_population(params, model, seed + 10 + r)
                 for r, model in enumerate(models)]
        batch = tg.Population(members=np.concatenate([p.members for p in alone]),
                              energies=np.concatenate([p.energies for p in alone]))
        model = tg.replica_evaluator(disorders)

        def generators():   # one per block, kept for the whole run
            return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
                    for r in range(blocks)]

        batch_rngs, alone_rngs = generators(), generators()
        for _ in range(3):
            batch = tg.step_generation(batch, params, model, batch_rngs)
            alone = [tg.step_generation(p, params, _lone(mod), [rng])
                     for p, mod, rng in zip(alone, models, alone_rngs)]
            assert np.array_equal(batch.members, np.concatenate([p.members for p in alone]))
            assert np.array_equal(batch.energies, np.concatenate([p.energies for p in alone]))

    def test_rows_must_split_into_blocks(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(population_size=6), model, 1)
        with pytest.raises(tg.errors.DimensionMismatchError):
            tg.mutate(pop, 0.1, [np.random.default_rng(s) for s in range(4)], _lone(model))


def test_sigma_one_neutral_dynamics_is_stationary():
    # Uniform resampling is energy-blind, so the marginal distribution of a
    # member's energy is time-invariant.  Within one run drift collapses the
    # population onto few lineages, so the comparison samples one member per
    # independent run rather than a whole (internally correlated) population.
    params = tg.DisorderParams(0.0, 1.0, CHAIN)
    d = tg.sample_chain_disorder(40, params, 100)
    model = tg.chain_evaluator(d)
    ga_params = tg.GAParams(population_size=100, genome_length=40, tournament_size=1,
                            crossover_rate=0.0, mutation_rate=0.0)
    first, last = [], []
    for run in range(60):
        pop = tg.init_population(ga_params, model, 3000 + run)
        first.append(pop.energies[0])
        for t in range(100):
            pop = tg.step_generation(pop, ga_params, _lone(model), _per_generation(run, t))
        last.append(pop.energies[0])
    assert ks_2samp(first, last).pvalue > 0.01


def test_empirical_energy_examples():
    members = np.ones((2, 3), dtype=np.int8)
    pop = tg.Population(members=members, energies=np.array([-1.0, 3.0]))
    assert tg.empirical_energy(pop) == 1.0
    same = tg.Population(members=members, energies=np.array([2.5, 2.5]))
    assert tg.empirical_energy(same) == 2.5
