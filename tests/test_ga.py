import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, binomtest, chi2, chisquare, ks_2samp

import thermoga as tg
from thermoga.ga import _distinct_picks

FALSE_ALARM = 1e-6   # p-value below which a law test fails

CHAIN = tg.ModelKind.CHAIN
G = tg.DRAW_BLOCK


@pytest.fixture(scope="module")
def chain_setup():
    params = tg.DisorderParams(0.0, 1.0, CHAIN)
    d = tg.sample_chain_disorder(40, params, 100)
    return d, tg.chain_evaluator(d)


def _lone(model):
    """A lone population's evaluator `model(members)` in block-aware form."""
    return lambda members, blocks: model(members)


def make_params(**kw):
    defaults = dict(population_size=20, genome_length=40, tournament_size=2,
                    crossover_rate=0.1, mutation_rate=0.001)
    defaults.update(kw)
    return tg.GAParams(**defaults)


def _draws(seed, blocks=1, **kw):
    """Generation 0 of a fresh block of draws; every row block draws from one generator."""
    rng = np.random.default_rng(seed)
    return tg.draw_generations([rng] * blocks, make_params(**kw))[0]


def _evolve(pop, params, model, seed):
    """The populations after generations 1, 2, ... of a lone run drawing from one generator."""
    rng = np.random.default_rng(seed)
    for t in itertools.count():
        if t % G == 0:
            block = tg.draw_generations([rng], params)
        pop = tg.step_generation(pop, params, _lone(model), block[t % G])
        yield pop


def _run(pop, params, model, seed, generations):
    return list(itertools.islice(_evolve(pop, params, model, seed), generations))[-1]


class TestParams:
    def test_odd_population_rejected(self):
        with pytest.raises(ValueError):
            make_params(population_size=21)

    def test_tournament_size_bounds(self):
        with pytest.raises(ValueError):
            make_params(tournament_size=0)
        with pytest.raises(ValueError):
            make_params(tournament_size=21)

    def test_genome_length_at_least_two(self):
        make_params(genome_length=2)
        for n in (1, 0):
            with pytest.raises(ValueError, match="at least 2"):
                make_params(genome_length=n)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            make_params(crossover_rate=1.5)

    @pytest.mark.parametrize("beta", [-1.0, float("nan"), float("inf")])
    def test_boltzmann_beta_finite_and_nonnegative(self, beta):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            make_params(selection_mode="boltzmann", boltzmann_beta=beta)


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
        out = tg.tournament_select(pop, _draws(2, population_size=200, tournament_size=1))
        # no selection pressure: mean energy unchanged within resampling noise
        spread = pop.energies.std() / np.sqrt(200)
        assert abs(float(np.mean(out.energies)) - float(np.mean(pop.energies))) < 4 * spread

    def test_sigma_equals_population_copies_best(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 3)
        out = tg.tournament_select(pop, _draws(4, tournament_size=20))
        assert np.all(out.energies == pop.energies.min())

    def test_selection_lowers_mean_energy(self, chain_setup):
        _, model = chain_setup
        params = make_params(population_size=100)
        wins = 0
        for k in range(100):
            pop = tg.init_population(params, model, 1000 + k)
            out = tg.tournament_select(pop, _draws(2000 + k, population_size=100))
            wins += float(np.mean(out.energies)) <= float(np.mean(pop.energies))
        assert wins == 100

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
    def test_energy_tie_goes_to_first_drawn(self, k):
        # distinct genomes, equal energies: each slot keeps its first candidate,
        # which column 0 draws for generation 0 as the first M of integers(0, M, size=G*M)
        members = np.eye(12, dtype=np.int8) * 2 - 1
        pop = tg.Population(members=members, energies=np.zeros(12))
        out = tg.tournament_select(pop, _draws(5, population_size=12, genome_length=12,
                                               tournament_size=k))
        first = np.random.default_rng(5).integers(0, 12, size=G * 12)[:12]
        assert np.array_equal(out.members, members[first])


class TestBoltzmann:
    def test_zero_beta_uniform_weights(self):
        w = tg.gibbs_weights(np.array([0.0, -3.0, 2.0, 5.0]), math.inf)
        assert np.allclose(w, 0.25)

    def test_exact_two_member_weights(self):
        w = tg.gibbs_weights(np.array([0.0, np.log(2)]), 1.0)
        assert w == pytest.approx([2 / 3, 1 / 3], rel=1e-12)

    def test_sampling_matches_weights(self, chain_setup):
        # population of two genome kinds, energies 0 and ln 2, beta_s = 1
        members = np.ones((100, 40), dtype=np.int8)
        members[50:, 0] = -1
        energies = np.zeros(100)
        energies[50:] = np.log(2)
        pop = tg.Population(members=members, energies=energies)
        params = make_params(population_size=100, selection_mode="boltzmann")
        picks = 0
        total = 0
        for k in range(1000 // G + 1):
            for draws in tg.draw_generations([np.random.default_rng(k)], params):
                out = tg.boltzmann_select(pop, 1.0, draws)
                picks += int(np.sum(out.energies == 0.0))
                total += 100
        frac = picks / total
        se = np.sqrt((2 / 3) * (1 / 3) / total)
        assert abs(frac - 2 / 3) < 4 * se

    def test_large_beta_selects_best(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 8)
        out = tg.boltzmann_select(pop, 1e6, _draws(9, selection_mode="boltzmann"))
        assert np.all(out.energies == pop.energies.min())

    def test_huge_beta_is_one_hot_on_the_block_minimum(self):
        # shifted by the block minimum before scaling, every other exponent overflows
        # to -inf (weight 0), where scaling first made every weight NaN
        energies = np.array([-2.44, -3.14, -1.0, -2.0, -1.0, -2.0, -3.14, -2.44])
        pop = tg.Population(members=np.arange(8)[:, None], energies=energies)
        draws = tg.Draws(selection=np.random.default_rng(4).random(8),
                         order=np.zeros((2, 4), np.intp), cross=np.zeros((2, 2)),
                         cuts=np.ones((2, 2), np.intp), flips=np.empty(0, np.intp))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = tg.gibbs_weights(energies.reshape(2, 4), 1 / 1e308)
            out = tg.boltzmann_select(pop, 1e308, draws)
        assert np.array_equal(weights, [[0, 1, 0, 0], [0, 0, 1, 0]])
        assert np.array_equal(out.members[:, 0], [1] * 4 + [6] * 4)

    @pytest.mark.parametrize("beta_s", [0.0, 0.7, 5.0, 1e6])
    def test_inverse_cdf_equals_generator_choice(self, beta_s):
        # block r's slots take exactly what Generator.choice(p=...) returns for the
        # same uniforms, the block's Boltzmann weights and the block's energies
        m, blocks = 12, 3
        energies = np.random.default_rng(1).normal(0, 2, m * blocks).round(1)
        pop = tg.Population(members=np.arange(m * blocks)[:, None], energies=energies)
        rngs = [np.random.default_rng(30 + r) for r in range(blocks)]
        uniforms = np.concatenate([rng.random(m) for rng in rngs])
        draws = tg.Draws(selection=uniforms, order=np.zeros((blocks, m), np.intp),
                         cross=np.zeros((blocks, m // 2)), cuts=np.ones((blocks, m // 2), np.intp),
                         flips=np.empty(0, np.intp))
        out = tg.boltzmann_select(pop, beta_s, draws)
        T = 1 / beta_s if beta_s else math.inf
        want = np.concatenate([
            np.random.default_rng(30 + r).choice(
                m, size=m, p=tg.gibbs_weights(energies[r * m:(r + 1) * m], T)) + r * m
            for r in range(blocks)])
        assert np.array_equal(out.members[:, 0], want)   # member i's one site holds i


class TestCrossover:
    def test_zero_rate_identity(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 11)
        out = tg.crossover(pop, 0.0, _draws(12), _lone(model))
        assert np.array_equal(out.members, pop.members)

    def test_single_point_semantics(self):
        # parents all +1 and all -1 that cross for sure: each child keeps its own
        # parent's head and takes the other's tail from one interior cut on
        pop = tg.Population(members=np.array([[1] * 6, [-1] * 6], dtype=np.int8),
                            energies=np.zeros(2))
        cuts = set()
        for seed in range(40):
            draws = _draws(seed, population_size=2, genome_length=6, crossover_rate=1.0)
            out = tg.crossover(pop, 1.0, draws, _no_energy)
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
        out = tg.crossover(pop, 1.0, _draws(14, population_size=30), _lone(model))
        assert np.array_equal(np.sort(out.members, axis=0), np.sort(pop.members, axis=0))

    def test_cache_recomputed(self, chain_setup):
        d, model = chain_setup
        pop = tg.init_population(make_params(), model, 15)
        out = tg.crossover(pop, 1.0, _draws(16), _lone(model))
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
        params = make_params(population_size=2 * pairs, genome_length=n, mutation_rate=p_m)
        pop = tg.init_population(params, model, seed + 1)
        crossed = tg.crossover(pop, p_c, tg.draw_generations(
            [np.random.default_rng(seed + 2)], params)[0], _lone(model))
        assert np.array_equal(crossed.energies, model(crossed.members))
        mutated = tg.mutate(crossed, tg.draw_generations(
            [np.random.default_rng(seed + 3)], params)[0], _lone(model))
        assert np.array_equal(mutated.energies, model(mutated.members))

    @settings(max_examples=60, deadline=None)
    @given(**GA_CASES)
    def test_sk_equals_full_recompute(self, n, pairs, p_c, p_m, seed):
        d = _random_disorder(tg.ModelKind.SK, n, seed)
        model = tg.sk_evaluator(d)
        params = make_params(population_size=2 * pairs, genome_length=n, mutation_rate=p_m)
        pop = tg.init_population(params, model, seed + 1)
        draws = tg.draw_generations([np.random.default_rng(seed + 2)], params)
        mutated = tg.mutate(tg.crossover(pop, p_c, draws[0], _lone(model)), draws[1],
                            _lone(model))
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
        out = tg.mutate(pop, _draws(42, mutation_rate=0.01), _lone(model))
        changed = int(np.count_nonzero(np.any(out.members != pop.members, axis=1)))
        assert sum(seen) == changed < pop.size

    def test_identical_parents_need_no_recompute(self, chain_setup):
        _, model = chain_setup
        calls = []
        pop = tg.init_population(make_params(), model, 43)
        clones = tg.Population(members=np.repeat(pop.members[:1], pop.size, axis=0),
                               energies=np.repeat(pop.energies[:1], pop.size))
        out = tg.crossover(clones, 1.0, _draws(44),
                           _lone(lambda m: calls.append(m) or model(m)))
        assert calls == []
        assert out.energies is clones.energies


class TestMutate:
    def test_zero_rate_identity(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 17)
        out = tg.mutate(pop, _draws(18, mutation_rate=0.0), _lone(model))
        assert out is pop

    def test_full_rate_flips_everything(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 19)
        out = tg.mutate(pop, _draws(20, mutation_rate=1.0), _lone(model))
        assert np.array_equal(out.members, -pop.members)
        assert np.allclose(out.energies, pop.energies)

    def test_flip_count_concentration(self, chain_setup):
        _, model = chain_setup
        p_m = 0.02
        total_sites = 0
        total_flips = 0
        for k in range(20):
            pop = tg.init_population(make_params(population_size=50), model, 300 + k)
            out = tg.mutate(pop, _draws(400 + k, population_size=50, mutation_rate=p_m),
                            _lone(model))
            total_flips += int(np.sum(out.members != pop.members))
            total_sites += pop.members.size
        expected = total_sites * p_m
        sd = np.sqrt(total_sites * p_m * (1 - p_m))
        assert abs(total_flips - expected) < 4 * sd


class TestStepGeneration:
    def test_deterministic(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 23)
        a = tg.step_generation(pop, make_params(), _lone(model), _draws(24))
        b = tg.step_generation(pop, make_params(), _lone(model), _draws(24))
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
        a = tg.step_generation(pop, params, _lone(model),
                               tg.draw_generations([np.random.default_rng(seed)], params)[0])
        b = tg.step_generation(pop, params, _lone(model),
                               tg.draw_generations([np.random.default_rng(seed)], params)[0])
        assert np.array_equal(a.members, b.members)
        if isinstance(seed, np.random.SeedSequence):
            assert seed.n_children_spawned == 0
        # one generation's draws, used by selection, crossover and mutation in turn
        draws = tg.draw_generations([np.random.default_rng(make_seed())], params)[0]
        ref = tg.mutate(tg.crossover(tg.tournament_select(pop, draws), 0.5, draws,
                                     _lone(model)), draws, _lone(model))
        assert np.array_equal(a.members, ref.members)
        assert np.array_equal(a.energies, ref.energies)

    def test_generator_is_advanced(self, chain_setup):
        _, model = chain_setup
        params = make_params(crossover_rate=0.5, mutation_rate=0.05)
        pop = tg.init_population(params, model, 27)
        rng = np.random.default_rng(28)
        state = rng.bit_generator.state
        a = tg.step_generation(pop, params, _lone(model), tg.draw_generations([rng], params)[0])
        assert rng.bit_generator.state != state
        b = tg.step_generation(pop, params, _lone(model), tg.draw_generations([rng], params)[0])
        assert not np.array_equal(a.members, b.members)

    def test_collapse_to_best_under_pure_elitist_selection(self, chain_setup):
        _, model = chain_setup
        params = make_params(tournament_size=20, crossover_rate=0.0, mutation_rate=0.0)
        pop = tg.init_population(params, model, 25)
        out = tg.step_generation(pop, params, _lone(model),
                                 tg.draw_generations([np.random.default_rng(26)], params)[0])
        assert np.all(out.energies == pop.energies.min())

    def test_best_energy_improves_statistically(self, chain_setup):
        _, model = chain_setup
        params = make_params(crossover_rate=0.1, mutation_rate=0.001)
        finals, starts = [], []
        for k in range(20):
            pop = tg.init_population(params, model, 500 + k)
            starts.append(pop.energies.min())
            finals.append(_run(pop, params, model, 600 + k, 30).energies.min())
        assert np.median(finals) < np.median(starts)

    def test_sigma_dominance_early(self, chain_setup):
        _, model = chain_setup
        track = {}
        for sigma in (2, 4):
            params = make_params(population_size=100, tournament_size=sigma)
            best = []
            for k in range(10):
                pop = tg.init_population(params, model, 700 + k)
                runs = itertools.islice(_evolve(pop, params, model, 800 + k), 30)
                best.append([p.energies.min() for p in runs])
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

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_draws_are_the_distinct_picks_of_each_blocks_columns(self, k):
        # block r draws integers(0, M - c, size=G*M) for column c from its own generator,
        # generation g taking rows g*M .. (g+1)*M of the block's picks
        m, blocks = 8, 3
        params = make_params(population_size=m, genome_length=5, tournament_size=k)
        draws = tg.draw_generations([np.random.default_rng(r) for r in range(blocks)], params)
        for r in range(blocks):
            rng = np.random.default_rng(r)
            raw = np.stack([rng.integers(0, m - c, size=G * m) for c in range(k)], axis=1)
            want = _distinct_picks(raw).reshape(G, m, k)
            for g in range(G):
                assert np.array_equal(draws[g].selection[r * m:(r + 1) * m], want[g])


class TestTournamentLaw:
    """The exact law of tournament winners, over every generation of many blocks' draws.

    Each statistical test fails with probability 1e-6 under the exact law
    (chi-square or exact binomial p-value below FALSE_ALARM; every pooled
    chi-square cell expects at least 50 counts).
    """

    M, BLOCKS = 10, 2000 // G   # 2000 block-generations

    def select_all(self, pop, k, rng):
        params = make_params(population_size=pop.size // self.BLOCKS,
                             genome_length=pop.members.shape[1], tournament_size=k)
        draws = tg.draw_generations([rng] * self.BLOCKS, params)
        return [tg.tournament_select(pop, d) for d in draws]

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_winner_rank_law(self, k):
        # energies distinct, rank r = 1 the best: P(r) = C(M - r, k - 1) / C(M, k)
        m = self.M
        energies = np.random.default_rng(7).permutation(m).astype(np.float64)
        pop = _blocks(m, 2, self.BLOCKS, energies)
        outs = self.select_all(pop, k, np.random.default_rng(11 + k))
        counts = sum(np.bincount(out.energies.astype(np.intp), minlength=m) for out in outs)
        samples = pop.size * G   # energy e has rank e + 1
        law = np.array([math.comb(m - r, k - 1) / math.comb(m, k) for r in range(1, m + 1)])
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(counts[law == 0] == 0)
        if k == m:
            assert counts[0] == samples
        else:
            assert _pooled_chisquare(counts[law > 0], samples * law[law > 0]) > FALSE_ALARM

    @pytest.mark.parametrize("m, k", [(2, 2), (4, 4), (6, 3)])
    def test_tied_members_win_half_of_their_ties(self, m, k):
        # members 0 and 1 tie at the lowest energy; given that one of them won,
        # each did with probability 1/2
        energies = np.zeros(m)
        energies[:2] = -1.0
        members = np.tile(np.eye(m, dtype=np.int8), (self.BLOCKS, 1))
        pop = tg.Population(members=members, energies=np.tile(energies, self.BLOCKS))
        outs = self.select_all(pop, k, np.random.default_rng(100 + m))
        # member j's row is the j-th unit vector
        wins = sum(out.members[:, :2].sum(axis=0) for out in outs)
        assert wins.sum() > 0
        assert binomtest(int(wins[0]), int(wins.sum()), 0.5).pvalue > FALSE_ALARM


class TestPairingLaw:
    """Each generation pairs a block's members by a uniformly random permutation.

    The test fails with probability 1e-6 under the exact law (chi-square
    p-value below FALSE_ALARM; each of the 24 cells expects 500 counts).
    """

    def test_pairing_permutations_are_uniform(self):
        m, blocks = 4, 750
        params = make_params(population_size=m, genome_length=3)
        draws = tg.draw_generations([np.random.default_rng(31)] * blocks, params)
        order = np.concatenate([d.order for d in draws])
        assert np.array_equal(np.sort(order, axis=1), np.tile(np.arange(m), (len(order), 1)))
        perms = {p: i for i, p in enumerate(itertools.permutations(range(m)))}
        counts = np.bincount([perms[tuple(row)] for row in order.tolist()], minlength=len(perms))
        assert chisquare(counts).pvalue > FALSE_ALARM


class TestMutationLaw:
    """Mutation flips each site independently with probability p_m.

    Each statistical test fails with probability 1e-6 under the exact law
    (chi-square p-value below FALSE_ALARM; every pooled cell expects at
    least 50 counts).
    """

    @staticmethod
    def flipped(m, n, p_m, blocks, seed):
        """Flip indicators (G, blocks, M*N) of one block of draws, every row block one generator."""
        params = make_params(population_size=m, genome_length=n, mutation_rate=p_m)
        pop = _blocks(m, n, blocks)
        draws = tg.draw_generations([np.random.default_rng(seed)] * blocks, params)
        return np.stack([(tg.mutate(pop, d, _no_energy).members == -1).reshape(blocks, m * n)
                         for d in draws])

    def test_flip_pattern_law_of_a_small_block(self):
        # M = 2, N = 2: all 16 flip patterns, each p^|S| (1 - p)^(4 - |S|)
        p_m, blocks = 0.3, 20000 // G
        flipped = self.flipped(2, 2, p_m, blocks, 21).reshape(-1, 4)
        patterns = np.bincount(flipped @ (1 << np.arange(4)), minlength=16)
        sizes = np.array([bin(i).count("1") for i in range(16)])
        law = p_m ** sizes * (1 - p_m) ** (4 - sizes)
        assert chisquare(patterns, len(flipped) * law).pvalue > FALSE_ALARM

    def test_flip_count_per_block_is_binomial(self):
        m, n, p_m, blocks = 4, 5, 0.3, 20000 // G
        per_block = self.flipped(m, n, p_m, blocks, 22).sum(axis=2).ravel()
        counts = np.bincount(per_block, minlength=m * n + 1)
        law = binom.pmf(np.arange(m * n + 1), m * n, p_m)
        assert _pooled_chisquare(counts, per_block.size * law) > FALSE_ALARM

    @pytest.mark.parametrize("generation", [0, G - 1])
    def test_flip_count_at_a_block_boundary_is_binomial(self, generation):
        # successive blocks of one generator: the first generation of each block starts
        # afresh after the last gap of the block before is dropped
        m, n, p_m, calls = 2, 5, 0.15, 10000
        params = make_params(population_size=m, genome_length=n, mutation_rate=p_m)
        rng = np.random.default_rng(24 + generation)
        per_block = np.array([tg.draw_generations([rng], params)[generation].flips.size
                              for _ in range(calls)])
        counts = np.bincount(per_block, minlength=m * n + 1)
        law = binom.pmf(np.arange(m * n + 1), m * n, p_m)
        assert _pooled_chisquare(counts, calls * law) > FALSE_ALARM

    def test_flipped_positions_are_uniform(self):
        # every site flips in Binomial(block-generations, p_m) of them, independently
        m, n, p_m, blocks = 10, 10, 0.05, 4000 // G
        per_site = self.flipped(m, n, p_m, blocks, 23).sum(axis=(0, 1))
        samples = blocks * G
        stat = np.sum((per_site - samples * p_m) ** 2) / (samples * p_m * (1 - p_m))
        assert chi2.sf(stat, m * n) > FALSE_ALARM

    def test_no_site_flips_twice(self):
        # a generation flips exactly its drawn sites, each once
        m, n = 4, 5
        params = make_params(population_size=m, genome_length=n, mutation_rate=0.6)
        for seed in range(20):
            for d in tg.draw_generations([np.random.default_rng(seed)], params):
                assert np.unique(d.flips).size == d.flips.size
                out = tg.mutate(_blocks(m, n, 1), d, _no_energy)
                assert np.count_nonzero(out.members == -1) == d.flips.size

    def test_flips_ascend_and_each_changed_row_is_rescored_once(self):
        m, n, blocks = 4, 5, 3
        params = make_params(population_size=m, genome_length=n, mutation_rate=0.2)
        rngs = [np.random.default_rng(s) for s in range(blocks)]
        for d in tg.draw_generations(rngs, params) + tg.draw_generations(rngs, params):
            assert np.all(np.diff(d.flips) > 0)
            scored = []

            def model(members, block_of):
                scored.append((members.copy(), block_of))
                return np.zeros(members.shape[0])

            out = tg.mutate(_blocks(m, n, blocks), d, model)
            changed = np.flatnonzero(np.any(out.members == -1, axis=1))
            assert len(scored) == (1 if changed.size else 0)
            if scored:
                members, block_of = scored[0]
                assert np.array_equal(members, out.members[changed])
                assert np.array_equal(block_of, changed // m)

    def test_edge_rates_are_exact(self):
        pop = _blocks(4, 5, 3)
        params = make_params(population_size=4, genome_length=5, mutation_rate=0.0)
        rngs = [np.random.default_rng(s) for s in range(3)]
        draws = tg.draw_generations(rngs, params)
        assert all(tg.mutate(pop, d, _no_energy) is pop for d in draws)
        # p_m = 0 draws nothing: the generators end where the other draws leave them
        for s, rng in enumerate(rngs):
            replay = np.random.default_rng(s)
            for c in range(params.tournament_size):
                replay.integers(0, 4 - c, size=G * 4)
            replay.permuted(np.broadcast_to(np.arange(4), (G, 4)), axis=1)
            replay.random((G, 2))
            replay.integers(1, 5, size=(G, 2))
            assert rng.bit_generator.state == replay.bit_generator.state
        for p_m, flips in ((1.0, True), (1e-300, False)):
            draws = tg.draw_generations(rngs, make_params(population_size=4, genome_length=5,
                                                          mutation_rate=p_m))
            for d in draws:
                assert np.all((tg.mutate(pop, d, _no_energy).members == -1) == flips)


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
        for t in range(G + 3):   # into the second block of draws
            if t % G == 0:
                batch_draws = tg.draw_generations(batch_rngs, params)
                alone_draws = [tg.draw_generations([rng], params) for rng in alone_rngs]
            batch = tg.step_generation(batch, params, model, batch_draws[t % G])
            alone = [tg.step_generation(p, params, _lone(mod), d[t % G])
                     for p, mod, d in zip(alone, models, alone_draws)]
            assert np.array_equal(batch.members, np.concatenate([p.members for p in alone]))
            assert np.array_equal(batch.energies, np.concatenate([p.energies for p in alone]))

    def test_rows_must_split_into_blocks(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(population_size=6), model, 1)
        with pytest.raises(tg.errors.DimensionMismatchError):
            tg.mutate(pop, _draws(1, blocks=4, population_size=6, mutation_rate=0.1),
                      _lone(model))


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
        last.append(_run(pop, ga_params, model, run, 100).energies[0])
    assert ks_2samp(first, last).pvalue > 0.01

