"""Every public name the package exports resolves, and is exported once."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import vrjp

# the package and each of its modules that declares __all__ (cli does not)
MODULES = [
    name
    for name in ["vrjp"]
    + [f"vrjp.{info.name}" for info in pkgutil.iter_modules(vrjp.__path__)]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    missing = [x for x in exported if not hasattr(module, x)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    repeated = sorted({x for x in exported if exported.count(x) > 1})
    assert not repeated, f"{name}.__all__ repeats {repeated}"


# names the package does not export, each with the module that held them:
# test oracles and helpers (tests/_oracles.py; banded_coupling had no
# product caller), marginal_params, which was the one line
# WiredBand.from_graph(g, subset).params(), sample_sequential and
# BetaSample, whose work sample_batch and BandSample do, rooted_u_samples,
# which is harness._rooted_u_samples, harness.ALPHA, which only
# verify.ALPHA is, verify._beta_chunks, whose loop is verify._draws, and
# ExperimentConfig, whose checks the command line makes on the raw config,
# and time_change, whose D column a continuous Trajectory now carries
REMOVED = {
    "betafield": [
        "BetaSample",
        "sample_sequential",
        "spd_certificate",
        "density",
        "log_density",
        "schur_step",
        "sample_errw_env",
        "banded_coupling",
        "marginal_params",
    ],
    "graphs": [
        "enumerate_paths",
        "path_weight",
        "path_beta_factor",
        "PATH_CAP_DEFAULT",
        "save_graph",
    ],
    "schrodinger": [
        "assemble_H",
        "u_field",
        "truncated_green_pathsum",
        "q_density",
        "spectrum_bottom",
    ],
    "processes": ["time_change_maps", "h_transform_rates", "time_change"],
    "harness": [
        "run_replicas",
        "ks_test",
        "srw_paths",
        "diffusion_estimate",
        "rooted_u_samples",
        "ALPHA",
        "ExperimentConfig",
    ],
    "errors": ["EnumerationError", "ConditioningError"],
    "verify": ["_beta_chunks"],
}


@pytest.mark.parametrize(
    "module,name", [(m, x) for m, names in REMOVED.items() for x in names]
)
def test_removed_name_is_gone(module, name):
    assert not hasattr(vrjp, name), f"vrjp still exports {name}"
    assert not hasattr(importlib.import_module(f"vrjp.{module}"), name)


# methods moved to the test oracles as functions (edge_weight,
# total_weights), or dropped because no product caller used them, or, for
# GreenBundle.hat_g_ext, because its readers take the one row they need
REMOVED_METHODS = {
    "WeightedGraph": ["weight", "total_weights"],
    "Trajectory": ["first_return_index", "is_discrete"],
    "EstimatorReport": ["within", "row"],
    "GreenBundle": ["hat_g_ext"],
}


@pytest.mark.parametrize(
    "cls,name", [(c, x) for c, names in REMOVED_METHODS.items() for x in names]
)
def test_removed_method_is_gone(cls, name):
    assert not hasattr(getattr(vrjp, cls), name), f"{cls} still has {name}"


# keyword arguments dropped because no product caller set them, or, for
# green_bundle's beta, replaced by the sample whose kept factor it solves on,
# and, for QuenchedRates.from_green's green, by the root row it reads; the
# dense marginal and conductances (green_bundle's params, from_green's w)
# and markov_words' dense kernels gave way to the neighbour tables
REMOVED_KEYWORDS = {
    "quenched_mjp": ["holding"],
    "build_lattice_box": ["center", "max_vertices"],
    "simulate_errw": ["return_counts"],
    "mc_return_probability": ["max_sweeps"],
    "conductance_ratio_experiment": ["margin"],
    "QuenchedRates.from_bundle": ["i0"],
    "sample_batch": ["order"],
    "green_bundle": ["beta", "params"],
    "QuenchedRates.from_green": ["green", "w"],
    "markov_words": ["kernels"],
}


def _resolve(dotted):
    head, *rest = dotted.split(".")
    obj = getattr(vrjp, head)
    for part in rest:
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize(
    "func,name", [(f, x) for f, names in REMOVED_KEYWORDS.items() for x in names]
)
def test_removed_keyword_is_gone(func, name):
    params = inspect.signature(_resolve(func)).parameters
    assert name not in params, f"{func} still takes {name}"


def test_package_exports_49_names():
    assert len(vrjp.__all__) == 49
