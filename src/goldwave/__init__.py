"""Golden-ratio rotated time-frequency lattices for continuous wavelet
analysis: exact ring arithmetic, lattice point counting, phase-space
coverings, analytic wavelets, and empirical frame-bound estimation."""

from .goldenring import ALPHA, ALPHA_FLOAT, GoldenNumber
from .lattice import (
    LatticeSpec,
    Rect,
    audit_max_count,
    audit_min_count,
    count_in_rect,
    enumerate_in_rect,
)
from .covering import audit_cover, beta_for_delta, cell, cell_index
from .wavelet import (
    MotherWavelet,
    SignalModel,
    admissibility_constant,
    cauchy_wavelet,
    cwt,
    decay_condition_report,
    normalize_tight,
)
from .framelab import (
    FrameEstimate,
    SampleSet,
    compare_schemes,
    dyadic_sample_set,
    estimate_bounds,
    golden_sample_set,
)

__version__ = "0.1.0"
