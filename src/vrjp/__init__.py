"""Reinforced walks on finite weighted graphs, the random potential whose
Schrodinger operator carries them, restricted Green functions with wired
boundary, environment-fixed chains, and a reproducible Monte Carlo harness.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .betafield import (
    BandSample,
    NuParams,
    WiredBand,
    gig_half_sample,
    laplace_closed_form,
    sample_banded,
    sample_batch,
)
from .errors import (
    ConfigError,
    CoverageError,
    DomainError,
    FactorizationError,
    NumericError,
    PreconditionError,
    RestrictionError,
    SizeError,
    TestError,
    VrjpError,
)
from .graphs import (
    WeightedGraph,
    build_lattice_box,
    load_graph,
)
from .harness import (
    EstimatorReport,
    conductance_ratio_experiment,
    cosh_moment_experiment,
    psi_decay_experiment,
    srw_endpoints,
    vrjp_diffusion_experiment,
    word_chi2,
)
from .processes import (
    AbsorptionReport,
    QuenchedRates,
    Trajectory,
    errw_words,
    escape_probability_formula,
    markov_words,
    mc_return_probability,
    quenched_mjp,
    simulate_errw,
    simulate_vrjp,
    simulate_vrjp_lattice,
    vrjp_words,
)
from .schrodinger import (
    GreenBundle,
    IdentityReport,
    check_identities,
    green_bundle,
    green_solve,
    green_solve_banded,
)
from .streams import stream
from .verify import CheckResult, run_suite

__all__ = [
    "__version__",
    # graphs
    "WeightedGraph",
    "build_lattice_box",
    "load_graph",
    # potential field
    "NuParams",
    "BandSample",
    "laplace_closed_form",
    "gig_half_sample",
    "sample_batch",
    "sample_banded",
    "WiredBand",
    # operator and Green functions
    "GreenBundle",
    "IdentityReport",
    "green_solve",
    "green_solve_banded",
    "green_bundle",
    "check_identities",
    # processes
    "Trajectory",
    "QuenchedRates",
    "AbsorptionReport",
    "simulate_vrjp",
    "simulate_vrjp_lattice",
    "simulate_errw",
    "quenched_mjp",
    "escape_probability_formula",
    "mc_return_probability",
    "vrjp_words",
    "errw_words",
    "markov_words",
    # harness
    "EstimatorReport",
    "word_chi2",
    "srw_endpoints",
    "vrjp_diffusion_experiment",
    "psi_decay_experiment",
    "cosh_moment_experiment",
    "conductance_ratio_experiment",
    # verification
    "CheckResult",
    "run_suite",
    # streams and errors
    "stream",
    "VrjpError",
    "DomainError",
    "SizeError",
    "RestrictionError",
    "FactorizationError",
    "NumericError",
    "CoverageError",
    "PreconditionError",
    "TestError",
    "ConfigError",
]
