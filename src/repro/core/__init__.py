"""WMED-driven CGP circuit approximation — the paper's core contribution."""

from .annealing import AnnealingConfig, anneal
from .chromosome import CGP_FUNCTION_SET, CGPParams, Chromosome
from .components import (
    COMPONENTS,
    ComponentSpec,
    adder_objective,
    barrel_shifter_objective,
    component_names,
    component_objective,
    divider_objective,
    get_component,
    infer_component,
    mac_objective,
    multiplier_objective,
    netlist_objective,
    sampled_component_objective,
    subtractor_objective,
)
from .evolution import EvolutionConfig, EvolutionResult, evolve
from .mutation import mutate, random_gene_value
from .objective import (
    CircuitObjective,
    EvalResult,
    SampledEvalResult,
    SampledObjective,
    SampledStimulus,
    SampleSpec,
    draw_sampled_stimulus,
)
from .pareto import dominates, hypervolume_2d, pareto_indices, pareto_points
from .seeding import netlist_to_chromosome, params_for_netlist, random_chromosome
from .serialization import chromosome_from_string, chromosome_to_string

__all__ = [
    "AnnealingConfig",
    "anneal",
    "CircuitObjective",
    "COMPONENTS",
    "ComponentSpec",
    "adder_objective",
    "barrel_shifter_objective",
    "component_names",
    "component_objective",
    "divider_objective",
    "get_component",
    "infer_component",
    "mac_objective",
    "multiplier_objective",
    "netlist_objective",
    "sampled_component_objective",
    "subtractor_objective",
    "SampledEvalResult",
    "SampledObjective",
    "SampledStimulus",
    "SampleSpec",
    "draw_sampled_stimulus",
    "CGP_FUNCTION_SET",
    "CGPParams",
    "Chromosome",
    "EvolutionConfig",
    "EvolutionResult",
    "evolve",
    "EvalResult",
    "mutate",
    "random_gene_value",
    "dominates",
    "hypervolume_2d",
    "pareto_indices",
    "pareto_points",
    "netlist_to_chromosome",
    "params_for_netlist",
    "random_chromosome",
    "chromosome_from_string",
    "chromosome_to_string",
]
