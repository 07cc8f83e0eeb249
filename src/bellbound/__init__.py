"""Two-qubit knowledge excesses, the Bell-factor bound, and a coincidence-counting simulator.

The package is lazy (PEP 562): ``import bellbound`` loads no submodule and no
numpy.  Each exported name is looked up in its defining module on every
access, so a rebinding of the module attribute (a patch or a tracer) is seen
through the package too.
"""

import sys as _sys
import types as _types

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "BlochForm",
        "QubitMeasurement",
        "TwoQubitState",
        "are_complementary",
        "decompose",
        "measurement_from_polarization_angle",
        "recompose",
        "validate_state",
    ),
    "_local": (
        "ConditionalDecomposition",
        "apply_local_unitary",
        "conditional_decompose",
        "rotation_from_quaternion",
        "rotation_of_unitary",
        "unitary_from_rotation",
    ),
    "errors": (
        "BellboundError",
        "EmptyRecord",
        "NoConvergence",
        "NotAProbabilityVector",
        "NotComplementary",
        "NotHermitian",
        "NotPositive",
        "NotRotation",
        "NotUnitary",
        "OutOfRange",
        "SingularReduction",
        "StateValidationError",
        "TraceNotOne",
    ),
    "factories": ("WernerPrediction", "bell_diagonal", "random_state", "werner", "werner_prediction"),
    "knowledge": (
        "BoundCheck",
        "KnowledgeReport",
        "apriori",
        "bell_max",
        "check_bound",
        "check_same_meter_bound",
        "distinguishability",
        "distinguishability_excess",
        "knowledge",
        "knowledge_excess",
        "knowledge_report",
        "optimal_meter",
        "optimize_excess_sum",
    ),
    "_optimum": ("ExcessOptimum",),
    "canonical": (
        "CanonicalForm",
        "FilterResult",
        "canonical_form",
        "filter_normal_form",
        "saturate_after_filter",
    ),
    "expsim": (
        "BELL_ANGLE_PAIRS",
        "CountRecord",
        "ExperimentConfig",
        "SweepPoint",
        "bell_estimate_stderr",
        "coincidence_probs",
        "estimate_apriori",
        "estimate_bell_max",
        "estimate_correlation",
        "estimate_knowledge",
        "exact_counts",
        "run_sweep_experiment",
        "signal_measurement",
        "simulate_bell_records",
        "simulate_counts",
    ),
    "_mixing": (
        "MixingModel",
        "mixed_state_from_model",
        "mixing_model_from_schedule",
        "werner_mixing_model",
    ),
}
# Exported name -> full name of its defining module.
_ORIGIN = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
# Submodules exported by name; ``knowledge`` is not one, it names the function.
_SUBMODULES = ("canonical", "core", "errors", "expsim", "factories")

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


class _LazyPackage(_types.ModuleType):
    # __import__, unlike importlib.import_module, is timed by -X importtime.
    def __getattr__(self, name):
        origin = _ORIGIN.get(name)
        if origin is not None:
            module = _sys.modules.get(origin) or __import__(origin, fromlist=[name])
            return getattr(module, name)
        if name in _SUBMODULES:
            return __import__(f"{__name__}.{name}", fromlist=[name])
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

    def __setattr__(self, name, value):
        # Importing a submodule binds it on the package.  Where it shares its
        # name with an export (``bellbound.knowledge``), the export wins.
        if name in _ORIGIN and isinstance(value, _types.ModuleType):
            return
        super().__setattr__(name, value)

    def __dir__(self):
        return sorted({*super().__dir__(), *__all__})


_sys.modules[__name__].__class__ = _LazyPackage
