"""Van Atta acoustic backscatter — the paper's core contribution.

A Van Atta array is a retrodirective reflector: elements are wired in
pairs that are mirror images about the array centre, so the signal
received by one element is re-radiated by its mirror twin. The phase
gradient the incident wave paints across the aperture is thereby
*conjugated* on re-transmission, and the reflected beam steers itself back
toward the source — no phase shifters, no DoA estimation, no power.

Modules:

* :mod:`repro.vanatta.array` — array geometry, pairing, validation.
* :mod:`repro.vanatta.polarity` — cross-polarity co-phasing of pairs.
* :mod:`repro.vanatta.retrodirective` — far-field phasor response of the
  array (the model behind the E1 pattern and E5 scaling results).
* :mod:`repro.vanatta.switching` — the modulation switch joining each
  pair (insertion loss, transition behaviour, chip waveforms).
* :mod:`repro.vanatta.reflection` — time-domain reflection operator used
  by the end-to-end waveform simulator.
* :mod:`repro.vanatta.node` — the complete battery-free node.
* :mod:`repro.vanatta.scaling` — aperture-scaling design rules.
* :mod:`repro.vanatta.fastfield` — batched array-factor engine: the
  scalar response functions delegate to it at batch size 1, and it
  evaluates thousands of elements times hundreds of angles/frequencies
  in one broadcasted tensor op (plus a chirp-Z dense-grid path).
* :mod:`repro.vanatta.ris` — programmable (RIS-style) phase surfaces
  on the same kernel: steering/retro codebooks, quantized shifters,
  multi-reader spatial multiplexing (DoF, sum capacity).
"""

from repro.vanatta.array import VanAttaArray, linear_positions
from repro.vanatta.fastfield import (
    FASTFIELD_ENGINE_VERSION,
    ArrayFactorEngine,
    ensemble_monostatic_db,
)
from repro.vanatta.polarity import PairingScheme, pair_phase_errors
from repro.vanatta.ris import (
    PhaseSurface,
    quantization_loss_db,
    quantize_phases_rad,
    reader_steering_matrix,
    retro_phases_rad,
    spatial_dof,
    steering_phases_rad,
    sum_capacity_bits,
)
from repro.vanatta.retrodirective import (
    monostatic_gain,
    monostatic_gain_db,
    pattern,
    response,
)
from repro.vanatta.switching import ModulationSwitch, chips_to_waveform
from repro.vanatta.reflection import reflect_waveform
from repro.vanatta.node import VanAttaNode
from repro.vanatta.planar import (
    PlanarVanAttaArray,
    grid_positions,
    planar_monostatic_gain,
    planar_monostatic_gain_db,
    planar_response,
    point_mirror_pairs,
)
from repro.vanatta.scaling import (
    aperture_m,
    peak_gain_db,
    recommended_spacing,
    simulated_gain_curve_db,
)
from repro.vanatta.tolerance import (
    ToleranceResult,
    monte_carlo_gain,
    perturbed_array,
    position_tolerance_for_loss,
)
from repro.vanatta.wideband import (
    SystemResponse,
    max_chip_rate_for_bandwidth,
    system_response,
    usable_bandwidth_hz,
)

__all__ = [
    "VanAttaArray",
    "linear_positions",
    "PairingScheme",
    "pair_phase_errors",
    "ArrayFactorEngine",
    "FASTFIELD_ENGINE_VERSION",
    "ensemble_monostatic_db",
    "PhaseSurface",
    "steering_phases_rad",
    "retro_phases_rad",
    "quantize_phases_rad",
    "quantization_loss_db",
    "reader_steering_matrix",
    "spatial_dof",
    "sum_capacity_bits",
    "simulated_gain_curve_db",
    "response",
    "pattern",
    "monostatic_gain",
    "monostatic_gain_db",
    "ModulationSwitch",
    "chips_to_waveform",
    "reflect_waveform",
    "VanAttaNode",
    "PlanarVanAttaArray",
    "grid_positions",
    "point_mirror_pairs",
    "planar_response",
    "planar_monostatic_gain",
    "planar_monostatic_gain_db",
    "peak_gain_db",
    "aperture_m",
    "recommended_spacing",
    "ToleranceResult",
    "monte_carlo_gain",
    "perturbed_array",
    "position_tolerance_for_loss",
    "SystemResponse",
    "system_response",
    "usable_bandwidth_hz",
    "max_chip_rate_for_bandwidth",
]
