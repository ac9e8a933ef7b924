"""Compact labeling schemes for dynamic trees over a simulated network."""

from .dynamic import (DynamicScheme, ExactChangeTracker, FiniteScheme,
                      IncreasingScheme, PhaseParams, QuotaFunction,
                      compute_phase_params)
from .functions import get_function
from .harness import (RunConfig, VerificationReport, generate_scenario, run)
from .scheme_core import (SchemeCore, decode_labels, decode_dynamic_label,
                          dynamic_label_bits, encode_dynamic_label)
from .simnet import (InvalidEvent, MetricsLedger, Network, PortAssignment,
                     ScenarioEvent, format_scenario, parse_scenario)
from .static_schemes import scheme_for

__all__ = [
    "DynamicScheme", "ExactChangeTracker", "FiniteScheme", "IncreasingScheme",
    "PhaseParams", "QuotaFunction", "compute_phase_params", "get_function",
    "RunConfig", "VerificationReport", "generate_scenario", "run",
    "SchemeCore", "decode_labels", "decode_dynamic_label",
    "dynamic_label_bits", "encode_dynamic_label", "InvalidEvent",
    "MetricsLedger", "Network", "PortAssignment", "ScenarioEvent",
    "format_scenario", "parse_scenario", "scheme_for",
]
