"""Construction and exact verification toolkit for multicolor Ramsey
lower bounds built from self-orthogonal vectors over prime fields."""

from .bounds import (
    BoundRecord,
    baseline_bound,
    field_bound,
    floor_power_product,
    growth_rate,
    integer_root,
    new_bound,
)
from .cliques import (
    CliqueWitness,
    PotentialClique,
    clique_gram_det,
    enumerate_potential_cliques,
    max_monochromatic_clique,
    rank_count_bound,
)
from .coloring import (
    ConstructionParams,
    EdgeColoring,
    build_field_coloring,
    build_paley,
    build_two_color,
    dot_two_coloring,
    pair_identity,
    sample_binary_vectors,
)
from .compose import blowup_product
from .errors import (
    CapacityError,
    DimensionError,
    FormatError,
    ParameterError,
    RamseyLBError,
    ResourceCapError,
)
from .field import (
    FieldVector,
    PrimeModulus,
    dot,
    is_isotropic,
    is_prime,
    rank,
)
from .isotropic import (
    IsotropicSet,
    bernoulli_subset,
    enumerate_isotropic,
    sample_distinct,
)
from .moment import (
    MonteCarloEstimate,
    WitnessCertificate,
    WitnessSearchFailure,
    certificate_from_text,
    certificate_to_text,
    exact_mono_expectation,
    find_witness,
    monte_carlo_mono_count,
    recommended_n,
    reverify,
    reverify_text,
)
from .rng import derive_seed, make_rng, pair_coin

__version__ = "0.1.0"
