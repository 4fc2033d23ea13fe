"""Time-domain application of a multipath channel to baseband signals.

Signals in the waveform simulator are complex baseband envelopes sampled at
``fs`` around the carrier ``fc``. A set of :class:`~repro.acoustics.propagation.Path`
objects becomes a tapped delay line: each path contributes a tap with

* delay ``tau`` (applied as integer samples + linear fractional
  interpolation),
* complex gain ``g * exp(-j 2 pi fc tau)`` (the carrier phase of the
  delay shows up as a baseband rotation).

Surface-bounced taps can be animated: the wave displacement modulates the
path length, producing slow phase wander / Doppler spread. The
``Scenario.ocean`` preset does not exercise it: it traces the direct
path only (``max_bounces=0``; at 100 m even ``max_bounces=2`` adds one
bottom path and no surface path). What it does exercise is a 0.15 m/s
platform-drift Doppler and sea-state ambient noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.acoustics.constants import WaterProperties
from repro.acoustics.propagation import Path, trace_paths
from repro.acoustics.spreading import PRACTICAL_EXPONENT
from repro.acoustics.surface import SeaSurface
from repro.dsp.buffers import output_block
from repro.geometry.vec3 import Vec3


@dataclass
class ChannelResponse:
    """A concrete multipath response between two points.

    Attributes:
        paths: the propagation paths (sorted by delay).
        carrier_hz: carrier frequency the baseband is centred on.
        surface: surface state used to animate surface-bounce taps.
        sound_speed: sound speed, m/s.
    """

    paths: List[Path]
    carrier_hz: float
    surface: SeaSurface = field(default_factory=SeaSurface.calm)
    sound_speed: float = 1500.0

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("a channel response needs at least one path")

    @property
    def direct_path(self) -> Path:
        """The earliest-arriving path."""
        return self.paths[0]

    def total_gain(self) -> complex:
        """Coherent sum of all tap gains at the carrier (narrowband gain)."""
        return complex(sum(p.gain for p in self.paths))

    def total_gain_db(self) -> float:
        """Narrowband channel gain magnitude, dB."""
        mag = abs(self.total_gain())
        return 20.0 * math.log10(max(mag, 1e-30))

    def rms_delay_spread(self) -> float:
        """Power-weighted RMS delay spread, seconds."""
        powers = np.array([abs(p.gain) ** 2 for p in self.paths])
        delays = np.array([p.delay_s for p in self.paths])
        total = powers.sum()
        if total <= 0:
            return 0.0
        mean = float((powers * delays).sum() / total)
        var = float((powers * (delays - mean) ** 2).sum() / total)
        return math.sqrt(max(var, 0.0))

    def coherence_bandwidth_hz(self) -> float:
        """Rule-of-thumb coherence bandwidth 1 / (5 * delay spread)."""
        spread = self.rms_delay_spread()
        if spread <= 0:
            return math.inf
        return 1.0 / (5.0 * spread)

    def baseband_taps(self, time_s: float = 0.0) -> List[tuple]:
        """(delay_s, complex gain) taps at an absolute time.

        The propagation gain already carries the carrier phase of the
        nominal geometry; the time argument adds the surface-motion
        perturbation on surface-bounced paths.
        """
        taps = []
        k = 2.0 * math.pi * self.carrier_hz / self.sound_speed
        for p in self.paths:
            gain = p.gain
            if p.surface_bounces > 0 and self.surface.rms_height_m > 0.0:
                grazing = math.radians(abs(p.arrival_deg)) or 0.1
                dl = (
                    2.0
                    * p.surface_bounces
                    * self.surface.displacement(time_s)
                    * math.sin(grazing)
                )
                gain = gain * complex(math.cos(-k * dl), math.sin(-k * dl))
            taps.append((p.delay_s, gain))
        return taps

    def output_samples(
        self, n_samples: int, fs: float, include_delay: bool = False
    ) -> int:
        """Length of :meth:`apply`'s output for ``n_samples`` of input:
        the input plus the excess delay of the latest path (and two
        samples for the fractional-delay taps)."""
        base_delay = 0.0 if include_delay else self.direct_path.delay_s
        max_excess = max(p.delay_s - base_delay for p in self.paths)
        return n_samples + int(math.ceil(max_excess * fs)) + 2

    def apply(
        self,
        signal: np.ndarray,
        fs: float,
        start_time_s: float = 0.0,
        include_delay: bool = False,
        time_varying: bool = True,
        block_s: float = 0.05,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Convolve a complex baseband signal with the channel.

        Args:
            signal: complex baseband samples; 1-D, or ``(..., samples)``
                to push a batch of records through the same response
                (taps apply along the last axis, rows independent).
            fs: sample rate, Hz.
            start_time_s: absolute time of the first sample (drives the
                surface animation phase).
            include_delay: if True, the output is shifted by the absolute
                direct-path delay; if False (default), delays are measured
                relative to the direct path so the output aligns with the
                input, which keeps experiment bookkeeping simple.
            time_varying: animate surface-bounce taps block-by-block.
            block_s: animation block duration, seconds.
            out: a C-contiguous complex128 array of the output's shape (see
                :meth:`output_samples`) to write the result into; it
                must not overlap ``signal``.

        Returns:
            Complex baseband output, padded by the excess channel delay
            (``out`` when given).
        """
        signal = np.asarray(signal, dtype=np.complex128)
        n_samples = signal.shape[-1]
        base_delay = 0.0 if include_delay else self.direct_path.delay_s
        shape = signal.shape[:-1] + (
            self.output_samples(n_samples, fs, include_delay),
        )
        out = output_block(out, shape)
        out.fill(0.0)
        taps = _TapSum(out)

        animate = (
            time_varying
            and self.surface.rms_height_m > 0.0
            and any(p.surface_bounces for p in self.paths)
        )
        if not animate:
            for delay_s, gain in self.baseband_taps(start_time_s):
                taps.add(signal, (delay_s - base_delay) * fs, gain)
            return out

        # Animated taps, vectorized: a tap's *delay* is fixed — only its
        # gain wanders block to block — so instead of adding every
        # (block, tap) chunk separately, build the per-sample gain profile
        # of each tap (block-constant, via np.repeat) and add the whole
        # gain-modulated signal at the tap's offset in one shot. Every
        # surface path modulates the signal into the same block.
        block = max(int(block_s * fs), 1)
        starts = np.arange(0, n_samples, block)
        times = start_time_s + starts / fs
        k = 2.0 * math.pi * self.carrier_hz / self.sound_speed
        displacement = np.array([self.surface.displacement(t) for t in times])
        modulated = np.empty(signal.shape, dtype=np.complex128)
        for p in self.paths:
            if p.surface_bounces > 0:
                grazing = math.radians(abs(p.arrival_deg)) or 0.1
                dl = 2.0 * p.surface_bounces * displacement * math.sin(grazing)
                block_gains = p.gain * np.exp(-1j * k * dl)
                gains = np.repeat(block_gains, block)[:n_samples]
                np.multiply(gains, signal, out=modulated)
                taps.add(modulated, (p.delay_s - base_delay) * fs, 1.0)
            else:
                taps.add(signal, (p.delay_s - base_delay) * fs, p.gain)
        return out


class _TapSum:
    """Adds ``gain * signal`` copies into a zero-filled block at fractional
    sample offsets, along the last axis (leading batch axes pass through,
    so a ``(trials, samples)`` block shares one tap set).

    Each weighted copy is computed into one scratch block, allocated on
    the first copy that needs it, instead of a fresh temporary per copy.
    The first copy needs none: it is written straight into the zeroed
    span, then has ``0.0`` added, which is what adding it to the zero
    fill computes (the sum turns a ``-0.0`` product into ``+0.0``).
    """

    def __init__(self, out: np.ndarray) -> None:
        self.out = out
        self.scratch: Optional[np.ndarray] = None
        self.zeroed = True

    def add(self, signal: np.ndarray, delay_samples: float, gain: complex) -> None:
        if abs(gain) == 0.0:
            return
        n_sig = signal.shape[-1]
        n_out = self.out.shape[-1]
        n0 = int(math.floor(delay_samples))
        frac = delay_samples - n0
        w0 = (1.0 - frac) * gain
        w1 = frac * gain
        end0 = min(n0 + n_sig, n_out)
        if n0 < end0 and abs(w0) > 0:
            self._accumulate(n0, end0, w0, signal)
        n1 = n0 + 1
        end1 = min(n1 + n_sig, n_out)
        if n1 < end1 and abs(w1) > 0:
            self._accumulate(n1, end1, w1, signal)

    def _accumulate(
        self, start: int, end: int, weight: complex, signal: np.ndarray
    ) -> None:
        span = self.out[..., start:end]
        source = signal[..., : end - start]
        if self.zeroed:
            self.zeroed = False
            np.multiply(weight, source, out=span)
            span += 0.0
            return
        if self.scratch is None:
            self.scratch = np.empty(signal.shape, dtype=np.complex128)
        product = self.scratch[..., : end - start]
        np.multiply(weight, source, out=product)
        span += product


@dataclass
class AcousticChannel:
    """Factory for channel responses at a deployment site.

    Bundles the environment (water, surface, spreading) so experiment code
    can ask for the response between any two points::

        chan = AcousticChannel(carrier_hz=18_500, water=WaterProperties.river())
        h = chan.between(reader_pos, node_pos)

    Attributes:
        carrier_hz: carrier frequency, Hz.
        water: water-column properties.
        surface: sea-surface state.
        max_bounces: image-method bounce budget.
        spreading_exponent: geometric spreading exponent.
        direct_only: if True, trace only the line-of-sight path (useful
            for isolating array effects in unit experiments).
        bottom_density_kg_m3: sediment density (sand ~1800, mud ~1400).
        bottom_sound_speed_mps: sediment sound speed (sand ~1700, mud ~1480).
        bottom_loss_db_per_bounce: extra scattering loss per bottom hit.
    """

    carrier_hz: float
    water: WaterProperties
    surface: Optional[SeaSurface] = None
    max_bounces: int = 2
    spreading_exponent: float = PRACTICAL_EXPONENT
    direct_only: bool = False
    bottom_density_kg_m3: float = 1800.0
    bottom_sound_speed_mps: float = 1700.0
    bottom_loss_db_per_bounce: float = 2.0

    def __post_init__(self) -> None:
        if self.surface is None:
            self.surface = SeaSurface.calm()

    def between(self, source: Vec3, receiver: Vec3) -> ChannelResponse:
        """Trace the multipath response from ``source`` to ``receiver``."""
        paths = trace_paths(
            source,
            receiver,
            self.carrier_hz,
            self.water,
            surface=self.surface,
            max_bounces=0 if self.direct_only else self.max_bounces,
            spreading_exponent=self.spreading_exponent,
            bottom_density_kg_m3=self.bottom_density_kg_m3,
            bottom_sound_speed_mps=self.bottom_sound_speed_mps,
            bottom_loss_db_per_bounce=self.bottom_loss_db_per_bounce,
        )
        return ChannelResponse(
            paths=paths,
            carrier_hz=self.carrier_hz,
            surface=self.surface,
            sound_speed=self.water.sound_speed,
        )

    def one_way_gain_db(self, source: Vec3, receiver: Vec3) -> float:
        """Narrowband gain of the traced response, dB."""
        return self.between(source, receiver).total_gain_db()
