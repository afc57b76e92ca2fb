"""Wiring geometry + interference + PHY into a broadcast medium.

:class:`Testbed` is the top-level factory: give it a
:class:`~repro.testbed.placements.Placement` and it returns a
:class:`~repro.net.medium.BroadcastMedium` populated with terminals at
cell centres, Eve in her cell, and a :class:`PhysicalLossModel` that
computes per-packet delivery from SINR under the rotating interference
schedule.

Calibration notes (see DESIGN.md §2): with the default 0 dBm interferer
EIRP, a jammed cell sees interference within a few dB of the desired
signal, so Rayleigh fading puts jammed links in the 0.4-0.9 loss regime
while clear links lose almost nothing — the partial-erasure environment
the protocol feeds on, and the same mechanism the paper engineered with
WARP boards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.net.medium import BroadcastMedium, LossModel
from repro.net.node import Eavesdropper, Node, Terminal
from repro.net.packet import Packet
from repro.net.radio import (
    RadioConfig,
    received_power_dbm,
    sample_packet_loss,
    sinr_db,
)
from repro.net.trace import TransmissionLedger
from repro.testbed.geometry import TestbedGeometry
from repro.testbed.interference import InterferenceField, build_interference_field
from repro.testbed.placements import Placement

__all__ = ["TestbedConfig", "PhysicalLossModel", "Testbed"]


@dataclass(frozen=True)
class TestbedConfig:
    """All knobs of the simulated deployment.

    Attributes:
        geometry: cell grid (defaults to the paper's 14 m² 3×3).
        radio: PHY parameters (defaults to the paper's 802.11g setup).
        interferer_power_dbm: EIRP of each interference antenna.
        interference_enabled: ablation switch (§3.3 of the paper argues
            the protocol needs the artificial interference).
        slots_per_pattern: transmissions per noise-pattern dwell.
        base_loss: residual loss probability on every link, modelling
            non-PHY effects (collisions, driver hiccups).
        position_jitter_m: uniform jitter applied to node positions so
            distinct experiments see slightly different geometries.
    """

    __test__ = False  # a deployment config, not a pytest test class

    geometry: TestbedGeometry = field(default_factory=TestbedGeometry)
    radio: RadioConfig = field(default_factory=RadioConfig)
    interferer_power_dbm: float = 0.0
    interference_enabled: bool = True
    slots_per_pattern: int = 10
    base_loss: float = 0.02
    position_jitter_m: float = 0.15


class PhysicalLossModel(LossModel):
    """SINR-driven per-packet loss under the interference schedule."""

    def __init__(self, config: TestbedConfig, field_: InterferenceField) -> None:
        self.config = config
        self.field = field_

    def lost_at(
        self,
        src: Node,
        position: tuple,
        dst: Node,
        packet: Packet,
        slot: int,
        rng: np.random.Generator,
    ) -> bool:
        cfg = self.config
        if cfg.base_loss > 0 and rng.random() < cfg.base_loss:
            return True
        distance = src.distance_to(position)
        signal = received_power_dbm(cfg.radio.tx_power_dbm, distance, cfg.radio)
        interference = self.field.interference_powers_dbm(position, slot)
        mean_sinr = sinr_db(signal, interference, cfg.radio.noise_floor_dbm)
        packet_bits = 8 * packet.wire_bytes
        return sample_packet_loss(mean_sinr, packet_bits, cfg.radio, rng)


class Testbed:
    """Factory for placement-specific broadcast media.

    Example:
        >>> testbed = Testbed(TestbedConfig())
        >>> placement = next(enumerate_placements(3))  # doctest: +SKIP
        >>> medium, names = testbed.build_medium(placement, rng)  # doctest: +SKIP
    """

    __test__ = False  # a medium factory, not a pytest test class

    def __init__(self, config: Optional[TestbedConfig] = None) -> None:
        self.config = config if config is not None else TestbedConfig()
        self.interference = build_interference_field(
            self.config.geometry,
            self.config.radio,
            self.config.interferer_power_dbm,
            slots_per_pattern=self.config.slots_per_pattern,
        )
        self.interference.enabled = self.config.interference_enabled

    def _place(self, cell: int, rng: np.random.Generator) -> tuple:
        x, y = self.config.geometry.cell_center(cell)
        jitter = self.config.position_jitter_m
        if jitter > 0:
            x += float(rng.uniform(-jitter, jitter))
            y += float(rng.uniform(-jitter, jitter))
        return (x, y)

    def node_positions(self, placement: Placement, rng: np.random.Generator) -> tuple:
        """Jittered node coordinates for a placement.

        Returns ``(terminal_positions, eve_position)`` drawing the same
        jitter stream :meth:`build_medium` would (terminals in placement
        order, then Eve), so the analytic slot-aware bridge
        (:mod:`repro.testbed.pertable`) and a per-packet medium built
        from the same generator state see identical geometry.  Extra
        Eve antennas draw *after* these positions — call
        :meth:`antenna_positions` next with the same generator.
        """
        terminal_positions = [
            self._place(cell, rng) for cell in placement.terminal_cells
        ]
        eve_position = self._place(placement.eve_cell, rng)
        return terminal_positions, eve_position

    def antenna_positions(
        self, cells: tuple, rng: np.random.Generator
    ) -> list:
        """Jittered positions for extra Eve-antenna cells.

        Consumes the jitter stream in the same order
        :meth:`build_medium` does (after the terminal and primary Eve
        draws of :meth:`node_positions`), so the analytic bridge and a
        per-packet medium sharing a generator state agree on every
        antenna's geometry.
        """
        return [self._place(c, rng) for c in cells]

    def build_medium(
        self,
        placement: Placement,
        rng: np.random.Generator,
        eve_extra_cells: tuple = (),
        ledger: Optional[TransmissionLedger] = None,
    ) -> tuple:
        """Instantiate nodes for a placement and wire up the medium.

        Args:
            placement: Eve's cell + terminal cells.
            rng: randomness for jitter and all subsequent channel draws.
            eve_extra_cells: additional antenna cells for a multi-antenna
                Eve (the paper's §6 threat model); must avoid terminals.
            ledger: optional shared ledger.

        Returns:
            (medium, terminal_names) where terminal_names[i] corresponds
            to terminal_cells[i]; Eve's node is named ``"eve"``.
        """
        for cell in eve_extra_cells:
            if cell in placement.terminal_cells:
                raise ValueError("Eve's extra antennas cannot share terminal cells")
        terminal_positions, eve_position = self.node_positions(placement, rng)
        terminals = [
            Terminal(name=f"T{i}", position=pos)
            for i, pos in enumerate(terminal_positions)
        ]
        eve = Eavesdropper(
            name="eve",
            position=eve_position,
            extra_antennas=self.antenna_positions(tuple(eve_extra_cells), rng),
        )
        loss_model = PhysicalLossModel(self.config, self.interference)
        medium = BroadcastMedium(
            terminals + [eve], loss_model, rng, ledger=ledger
        )
        return medium, [t.name for t in terminals]

    def eve_candidate_cells(self, placement: Placement) -> list:
        """Cells Eve could occupy: everything the terminals do not.

        The paper's deployment requires every node to keep the minimum
        distance (one cell diagonal) from every other node, so Eve cannot
        share a cell with a terminal.  Schedule-based estimators
        (:class:`repro.testbed.estimator.InterferenceAwareEstimator`)
        minimise their certified budget over exactly this candidate set —
        which is why their bounds tighten as the group grows and fills
        the grid.
        """
        occupied = set(placement.terminal_cells)
        return [c for c in self.config.geometry.all_cells() if c not in occupied]

    # -- diagnostics -----------------------------------------------------

    def link_loss_probe(
        self,
        placement: Placement,
        rng: np.random.Generator,
        packet_bytes: int = 128,
        trials: int = 300,
    ) -> dict:
        """Monte-Carlo per-link loss rates per noise pattern (diagnostics).

        Returns { (src, dst, pattern_index): loss_rate } for every
        directed terminal/Eve pair — used by calibration tests and the
        EXPERIMENTS.md appendix.
        """
        from repro.net.packet import PacketKind  # local to avoid cycle at import

        medium, names = self.build_medium(placement, rng)
        probe = Packet(
            kind=PacketKind.X_DATA,
            src=names[0],
            payload=np.zeros(packet_bytes, dtype=np.uint8),
        )
        out: dict = {}
        all_names = names + ["eve"]
        n_patterns = self.interference.n_patterns()
        for pattern in range(n_patterns):
            slot = pattern * self.config.slots_per_pattern
            for src in names:
                probe.src = src
                for dst in all_names:
                    if dst == src:
                        continue
                    losses = 0
                    src_node = medium.node(src)
                    dst_node = medium.node(dst)
                    for _ in range(trials):
                        if medium.loss_model.lost(
                            src_node, dst_node, probe, slot, rng
                        ):
                            losses += 1
                    out[(src, dst, pattern)] = losses / trials
        return out
