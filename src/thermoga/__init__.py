"""Thermodynamic average-case evaluation of a simple GA on spin-glass costs.

The package fits a single-parameter Gibbs distribution to the population of
a simple genetic algorithm generation by generation, producing an effective
annealing schedule T(t) whose asymptotics, together with the residual
energy, measure how well the GA optimizes two solvable models: the Gaussian
spin-glass chain and the Sherrington-Kirkpatrick model.
"""

from .analysis import (
    CrossoverFit,
    HollandSystem,
    PowerLawFit,
    TimeSeries,
    detect_crossover,
    fit_power_law,
    holland_distribution,
    holland_residual,
    residual_energy_series,
)
from .analytic import (
    RSOrderParams,
    chain_free_energy_density,
    chain_ground_state_density,
    chain_internal_energy,
    erfcc,
    gaussian_mean_abs,
    sk_internal_energy_density,
    sk_rs_fixed_point,
    sk_zero_temperature_magnetization,
)
from .experiment import (
    ExperimentConfig,
    McmcCurveConfig,
    RunSummary,
    emit_plot_data,
    list_presets,
    load_config,
    oracle_check,
    parse_config,
    preset_configs,
    run_config,
    run_experiment,
    run_mcmc_curve,
    run_preset,
    serialize_config,
)
from .ga import (
    DRAW_BLOCK,
    Draws,
    GAParams,
    Population,
    boltzmann_select,
    crossover,
    draw_generations,
    init_population,
    mutate,
    step_generation,
    tournament_select,
)
from .learner import (
    EnergyOracle,
    analytic_chain_oracle,
    analytic_sk_oracle,
    disorder_averaged_trajectory,
    learn_schedule,
    learner_step,
)
from .mcmc import (
    MCMCOptions,
    chain_flip_costs,
    estimate_internal_energy,
    exact_gibbs_expectation,
    metropolis_sweep,
)
from .spin_systems import (
    ChainDisorder,
    DisorderParams,
    ModelKind,
    SKDisorder,
    chain_energies,
    chain_evaluator,
    chain_ground_state,
    energy_chain,
    enumerate_landscape,
    gibbs_weights,
    replica_evaluator,
    sample_chain_disorder,
    sample_sk_disorder,
    sk_energies,
    sk_evaluator,
    states_from_indices,
)

__version__ = "0.1.0"
