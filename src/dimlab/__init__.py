"""Numerical experiments on self-similar sets, percolation, and slices.

The package covers five layers that build on each other: similarity
geometry (cylinders, stopping sets, the Moran equation), random percolation
of symbolic trees, slice/projection counting with log-log dimension fits,
random self-similar measures with Fourier-product transforms, and a
phase-alignment scan for exceptional directions.  `experiments` ties them
into seeded, thresholded scenario reports; `cli` exposes everything as the
`dimlab` executable.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    ConfigError,
    DepthMismatchError,
    DimlabError,
    InsufficientDataError,
    InvalidWordError,
    OutOfRangeError,
    ParameterError,
    SubcriticalLawError,
    UnsupportedLawError,
)
from .geometry import (
    DEFAULT_BUDGET,
    IDENTITY,
    IFS,
    CylinderGeometry,
    Similarity,
    StoppingSet,
    compose,
    cylinder,
    enclosing_ball,
    iterate_system,
    moran_dimension,
    stopping_set,
    verify_ssc,
    word_geometry,
)
from .catalog import catalog_names, ifs_from_config, load_ifs
from .percolation import (
    BranchingStats,
    MandelbrotConfig,
    OffspringLaw,
    PercolationSample,
    batch_generation_counts,
    batch_intersection_counts,
    deterministic_law,
    intersect_samples,
    mandelbrot_config,
    path_survival,
    percolation_dimension,
    sample_surviving_tree,
    sample_tree,
    standard_law,
    survival_probability,
    table_law,
    uniform_law,
)
from .sections import (
    CellCloud,
    ConservationProfile,
    DimEstimate,
    Direction,
    ProbeResult,
    box_count_estimate,
    conservation_profile,
    conservation_profile_sample,
    count_slice,
    fit_loglog,
    interval_union_length,
    probe_sections,
    projection_measure,
    slice_counts,
)
from .measures import (
    DecayEstimate,
    ForcedPairSelection,
    FourierPoint,
    MeasureSample,
    RandomWeightLaw,
    SplitProduct,
    convolution_split,
    cylinder_mass,
    fixed_vector_law,
    forced_pair_law,
    fourier_decay,
    fourier_mu,
    fourier_psi,
    measure_dimension,
    sample_measure,
)
from .exceptional import (
    AlignmentParams,
    MembershipResult,
    ScanResult,
    membership_fraction,
    scan_directions,
)
from .experiments import (
    SCENARIOS,
    parse_ladder,
    parse_scales,
    report_digest,
    run_scenario,
    scenario_names,
)
