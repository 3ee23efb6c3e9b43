"""Circuit-level substrate: gate library, netlists, STA, logic
simulation, voltage/delay physics and pipe-stage synthesis.

This package replaces the paper's Synopsys DC + HSPICE + PTM
toolchain.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".gates": ("GATE_LIBRARY", "GateType", "gate_type"),
        ".logicsim": ("TraceResult", "evaluate", "simulate_trace"),
        ".netlist": ("Gate", "Netlist", "NetlistError"),
        ".ring_oscillator": (
            "RING_CALIBRATION", "RingOscillatorSweep", "sweep_ring_oscillator",
        ),
        ".sensitize": (
            "SensitizationProfile", "characterize_stage",
            "empirical_error_curve",
        ),
        ".spice": (
            "InverterParams", "TransientResult", "simulate_inverter_ring",
        ),
        ".sta": ("TimingReport", "analyze", "arrival_times", "critical_path"),
        ".synth": (
            "STAGE_NAMES", "PipeStage", "build_complex_alu_stage",
            "build_decode_stage", "build_simple_alu_stage", "get_stage",
            "int_to_bits",
        ),
        ".voltage": (
            "TABLE_5_1", "VOLTAGE_LEVELS", "AlphaPowerModel", "Table51Model",
            "fit_alpha_power_model",
        ),
    },
)

__all__ = [
    "GATE_LIBRARY",
    "GateType",
    "gate_type",
    "Gate",
    "Netlist",
    "NetlistError",
    "TimingReport",
    "analyze",
    "arrival_times",
    "critical_path",
    "TraceResult",
    "evaluate",
    "simulate_trace",
    "PipeStage",
    "STAGE_NAMES",
    "int_to_bits",
    "build_decode_stage",
    "build_simple_alu_stage",
    "build_complex_alu_stage",
    "get_stage",
    "SensitizationProfile",
    "characterize_stage",
    "empirical_error_curve",
    "TABLE_5_1",
    "VOLTAGE_LEVELS",
    "Table51Model",
    "AlphaPowerModel",
    "fit_alpha_power_model",
    "InverterParams",
    "TransientResult",
    "simulate_inverter_ring",
    "RING_CALIBRATION",
    "RingOscillatorSweep",
    "sweep_ring_oscillator",
]
