"""Counting laboratory for length/displacement spectra of Schottky
representation tuples into products of SL(2,R) and SL(2,C) factors."""

__version__ = "0.1.0"

from .algebra import (  # noqa: F401
    Loxodata,
    NonLoxodromic,
    NotUnimodular,
    RealFactor,
    RenormMatrix,
    cartan_length,
    from_raw,
    holonomy_angle,
    identity,
    inverse,
    is_loxodromic,
    jordan_length,
    loxodata,
    mul,
)
from .census import (  # noqa: F401
    BoxWindowFamily,
    ConeBallFamily,
    CoordinateRayFamily,
    CountSeries,
    HolonomyHistogram,
    TruncatedTubeFamily,
    TubeBallFamily,
    census_box,
    census_cartan,
    census_jordan,
    completeness_horizon,
)
from .errors import SpectraCensusError  # noqa: F401
from .fitting import (  # noqa: F401
    BoundReport,
    FitResult,
    LadderResult,
    RatioReport,
    check_correlation_bounds,
    factor_critical_exponent,
    fit_growth,
    growth_indicator_ladder,
    jordan_cartan_ratio,
)
from .group import (  # noqa: F401
    CapacityExceeded,
    CyclicWord,
    EmptyWord,
    Word,
    canonical_rep,
    cyclic_reduce,
    enumerate_conjugacy_classes,
    enumerate_reduced_words,
    stratum_size,
)
from .regions import (  # noqa: F401
    BoxWindow,
    ConeSpec,
    DimensionMismatch,
    TruncatedTubeSpec,
    TubeSpec,
    box_as_tube_difference,
    in_box_window,
    in_cone,
    in_truncated_tube,
    in_tube,
    unit,
)
from .reps import (  # noqa: F401
    DependenceReport,
    Factor,
    InsufficientData,
    NotApplicable,
    PingPongFailure,
    ProductElement,
    Representation,
    SchemaError,
    SpectrumVector,
    ValidationReport,
    defect_constant,
    detect_dependence,
    evaluate,
    join,
    lambda_vector,
    load_representation,
    mu_vector,
    schottky_pair,
    to_document,
    validate_ping_pong,
)
