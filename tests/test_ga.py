import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

import thermoga as tg
from thermoga.ga import BlockSeeds, cross_pair, smallest_keys

CHAIN = tg.ModelKind.CHAIN


@pytest.fixture(scope="module")
def chain_setup():
    params = tg.DisorderParams(0.0, 1.0, CHAIN)
    d = tg.sample_chain_disorder(40, params, 100)
    return d, tg.chain_evaluator(d)


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
        assert pop.generation == 0

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
        out = tg.tournament_select(pop, make_params(population_size=200, tournament_size=1), 2)
        # no selection pressure: mean energy unchanged within resampling noise
        spread = pop.energies.std() / np.sqrt(200)
        assert abs(tg.empirical_energy(out) - tg.empirical_energy(pop)) < 4 * spread

    def test_sigma_equals_population_copies_best(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 3)
        out = tg.tournament_select(pop, make_params(tournament_size=20), 4)
        assert np.all(out.energies == pop.energies.min())

    def test_selection_lowers_mean_energy(self, chain_setup):
        _, model = chain_setup
        params = make_params(population_size=100)
        wins = 0
        for k in range(100):
            pop = tg.init_population(params, model, 1000 + k)
            out = tg.tournament_select(pop, params, 2000 + k)
            wins += tg.empirical_energy(out) <= tg.empirical_energy(pop)
        assert wins == 100

    @pytest.mark.parametrize("k", [2, 3, 7, 12])
    def test_energy_tie_goes_to_smaller_key(self, k):
        # distinct genomes, equal energies: each slot keeps its smallest-key candidate
        members = np.eye(12, dtype=np.int8) * 2 - 1
        pop = tg.Population(members=members, energies=np.zeros(12), generation=0)
        out = tg.tournament_select(pop, make_params(population_size=12, genome_length=12,
                                                    tournament_size=k), 5)
        keys = np.random.default_rng(5).random((12, 12))
        assert np.array_equal(out.members, members[keys.argmin(axis=1)])

    def test_generation_unchanged(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 3)
        assert tg.tournament_select(pop, make_params(), 4).generation == pop.generation


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
        pop = tg.Population(members=members, energies=energies, generation=0)
        picks = 0
        total = 0
        for k in range(1000):
            out = tg.boltzmann_select(pop, 1.0, k)
            picks += int(np.sum(out.energies == 0.0))
            total += 100
        frac = picks / total
        se = np.sqrt((2 / 3) * (1 / 3) / total)
        assert abs(frac - 2 / 3) < 4 * se

    def test_large_beta_selects_best(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 8)
        out = tg.boltzmann_select(pop, 1e6, 9)
        assert np.all(out.energies == pop.energies.min())


class TestCrossover:
    def test_zero_rate_identity(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 11)
        out = tg.crossover(pop, 0.0, 12, model)
        assert np.array_equal(out.members, pop.members)

    def test_single_point_semantics(self):
        a = np.array([1, 1, 1, 1], dtype=np.int8)
        b = np.array([-1, -1, -1, -1], dtype=np.int8)
        ca, cb = cross_pair(a, b, 2)
        assert np.array_equal(ca, [1, 1, -1, -1])
        assert np.array_equal(cb, [-1, -1, 1, 1])

    def test_column_multisets_conserved(self, chain_setup):
        d, model = chain_setup
        pop = tg.init_population(make_params(population_size=30), model, 13)
        out = tg.crossover(pop, 1.0, 14, model)
        assert np.array_equal(np.sort(out.members, axis=0), np.sort(pop.members, axis=0))

    def test_cache_recomputed(self, chain_setup):
        d, model = chain_setup
        pop = tg.init_population(make_params(), model, 15)
        out = tg.crossover(pop, 1.0, 16, model)
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
        crossed = tg.crossover(pop, p_c, seed + 2, model)
        assert np.array_equal(crossed.energies, model(crossed.members))
        mutated = tg.mutate(crossed, p_m, seed + 3, model)
        assert np.array_equal(mutated.energies, model(mutated.members))

    @settings(max_examples=60, deadline=None)
    @given(convention=st.sampled_from(["ordered", "unordered"]), **GA_CASES)
    def test_sk_equals_full_recompute(self, convention, n, pairs, p_c, p_m, seed):
        d = _random_disorder(tg.ModelKind.SK, n, seed)
        model = tg.sk_evaluator(tg.SKDisorder(d.couplings, d.params, convention))
        pop = tg.init_population(make_params(population_size=2 * pairs, genome_length=n),
                                 model, seed + 1)
        mutated = tg.mutate(tg.crossover(pop, p_c, seed + 2, model), p_m, seed + 3, model)
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
        out = tg.mutate(pop, 0.01, 42, model)
        changed = int(np.count_nonzero(np.any(out.members != pop.members, axis=1)))
        assert sum(seen) == changed < pop.size

    def test_identical_parents_need_no_recompute(self, chain_setup):
        _, model = chain_setup
        calls = []
        pop = tg.init_population(make_params(), model, 43)
        clones = tg.Population(members=np.repeat(pop.members[:1], pop.size, axis=0),
                               energies=np.repeat(pop.energies[:1], pop.size), generation=0)
        out = tg.crossover(clones, 1.0, 44, lambda m: calls.append(m) or model(m))
        assert calls == []
        assert out.energies is clones.energies


class TestMutate:
    def test_zero_rate_identity(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 17)
        out = tg.mutate(pop, 0.0, 18, model)
        assert out is pop

    def test_full_rate_flips_everything(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 19)
        out = tg.mutate(pop, 1.0, 20, model)
        assert np.array_equal(out.members, -pop.members)
        assert np.allclose(out.energies, pop.energies)

    def test_flip_count_concentration(self, chain_setup):
        _, model = chain_setup
        p_m = 0.02
        total_sites = 0
        total_flips = 0
        for k in range(20):
            pop = tg.init_population(make_params(population_size=50), model, 300 + k)
            out = tg.mutate(pop, p_m, 400 + k, model)
            total_flips += int(np.sum(out.members != pop.members))
            total_sites += pop.members.size
        expected = total_sites * p_m
        sd = np.sqrt(total_sites * p_m * (1 - p_m))
        assert abs(total_flips - expected) < 4 * sd


class TestStepGeneration:
    def test_counter_increments(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 21)
        assert tg.step_generation(pop, make_params(), model, 22).generation == 1

    def test_deterministic(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 23)
        a = tg.step_generation(pop, make_params(), model, 24)
        b = tg.step_generation(pop, make_params(), model, 24)
        assert np.array_equal(a.members, b.members)

    def test_seed_sequence_reused_gives_same_offspring(self, chain_setup):
        _, model = chain_setup
        params = make_params(crossover_rate=0.5, mutation_rate=0.05)
        pop = tg.init_population(params, model, 27)
        ss = np.random.SeedSequence(entropy=28, spawn_key=(3, 4))
        a = tg.step_generation(pop, params, model, ss)
        b = tg.step_generation(pop, params, model, ss)
        assert np.array_equal(a.members, b.members)
        assert ss.n_children_spawned == 0
        # the operator streams are the children spawn(3) makes of a fresh copy
        s_sel, s_cross, s_mut = np.random.SeedSequence(entropy=28, spawn_key=(3, 4)).spawn(3)
        ref = tg.mutate(tg.crossover(tg.tournament_select(pop, params, s_sel), 0.5, s_cross,
                                     model), 0.05, s_mut, model)
        assert np.array_equal(a.members, ref.members)
        assert np.array_equal(a.energies, ref.energies)

    def test_collapse_to_best_under_pure_elitist_selection(self, chain_setup):
        _, model = chain_setup
        params = make_params(tournament_size=20, crossover_rate=0.0, mutation_rate=0.0)
        pop = tg.init_population(params, model, 25)
        out = tg.step_generation(pop, params, model, 26)
        assert np.all(out.energies == pop.energies.min())

    def test_best_energy_improves_statistically(self, chain_setup):
        _, model = chain_setup
        params = make_params(crossover_rate=0.1, mutation_rate=0.001)
        finals, starts = [], []
        for k in range(20):
            pop = tg.init_population(params, model, 500 + k)
            starts.append(pop.energies.min())
            for t in range(30):
                pop = tg.step_generation(pop, params, model,
                                         np.random.SeedSequence(entropy=600 + k, spawn_key=(t,)))
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
                    pop = tg.step_generation(pop, params, model,
                                             np.random.SeedSequence(entropy=800 + k, spawn_key=(t,)))
                    per_gen.append(pop.energies.min())
                best.append(per_gen)
            track[sigma] = np.median(np.asarray(best), axis=0)
        assert np.all(track[4][1:15] <= track[2][1:15])


class TestSmallestKeys:
    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(1, 6), m=st.integers(1, 30), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_candidate_set_of_argpartition(self, rows, m, data, seed):
        k = data.draw(st.integers(1, m))
        keys = np.random.default_rng(seed).random((rows, m))
        want = np.argpartition(keys, k - 1, axis=1)[:, :k]
        got = smallest_keys(keys.copy(), k)
        assert np.array_equal(np.sort(got, axis=1), np.sort(want, axis=1))
        assert np.all(np.diff(np.take_along_axis(keys, got, 1), axis=1) > 0)
        if k <= 2:
            assert np.array_equal(got, want)


def test_direct_children_draw_like_spawned_children():
    # SeedSequence(entropy, (r, 3 + t, i)) in a bare PCG64 is child i of spawn(3)
    for entropy, r, t in [(0, 0, 1), (101, 3, 1500), (2**40 + 7, 9, 2000)]:
        spawned = np.random.SeedSequence(entropy=entropy, spawn_key=(r, 3 + t)).spawn(3)
        for i, child in enumerate(spawned):
            direct = np.random.SeedSequence(entropy=entropy, spawn_key=(r, 3 + t, i))
            a, b = np.random.default_rng(child), np.random.Generator(np.random.PCG64(direct))
            assert np.array_equal(a.random(50), b.random(50))
            assert np.array_equal(a.permutation(20), b.permutation(20))
            assert np.array_equal(a.integers(1, 40, size=10), b.integers(1, 40, size=10))


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
                              energies=np.concatenate([p.energies for p in alone]), generation=0)
        model = tg.replica_evaluator(disorders)
        for t in range(3):
            selected, batch = tg.step_generation(
                batch, params, model,
                BlockSeeds(np.random.SeedSequence(entropy=seed, spawn_key=(r, t))
                           for r in range(blocks)),
                return_selected=True)
            picked = [tg.step_generation(p, params, mod,
                                         np.random.SeedSequence(entropy=seed, spawn_key=(r, t)),
                                         return_selected=True)
                      for r, (p, mod) in enumerate(zip(alone, models))]
            alone = [after for _, after in picked]
            assert np.array_equal(selected.energies,
                                  np.concatenate([sel.energies for sel, _ in picked]))
            assert np.array_equal(batch.members, np.concatenate([p.members for p in alone]))
            assert np.array_equal(batch.energies, np.concatenate([p.energies for p in alone]))
            assert batch.generation == t + 1

    def test_rows_must_split_into_blocks(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(population_size=6), model, 1)
        with pytest.raises(tg.errors.DimensionMismatchError):
            tg.mutate(pop, 0.1, BlockSeeds([1, 2, 3, 4]), lambda members, blocks: model(members))

    def test_tuple_seed_is_one_seed(self, chain_setup):
        _, model = chain_setup
        pop = tg.init_population(make_params(), model, 1)
        a = tg.step_generation(pop, make_params(), model, (3, 7))
        b = tg.step_generation(pop, make_params(), model, np.random.SeedSequence((3, 7)))
        assert np.array_equal(a.members, b.members)


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
            pop = tg.step_generation(pop, ga_params, model,
                                     np.random.SeedSequence(entropy=run, spawn_key=(t,)))
        last.append(pop.energies[0])
    assert ks_2samp(first, last).pvalue > 0.01


def test_empirical_energy_examples():
    members = np.ones((2, 3), dtype=np.int8)
    pop = tg.Population(members=members, energies=np.array([-1.0, 3.0]), generation=0)
    assert tg.empirical_energy(pop) == 1.0
    same = tg.Population(members=members, energies=np.array([2.5, 2.5]), generation=0)
    assert tg.empirical_energy(same) == 2.5
