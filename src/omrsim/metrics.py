"""End-to-end cost: per-hop energy, delay, EDP, per-point costs, MCS table."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import PhyConfig


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError("too large for a float in linear units") from None


@dataclass(frozen=True)
class McsEntry:
    name: str
    detection_threshold_db: float
    bits_per_symbol: int
    coding_gain_db: float = 0.0

    @property
    def gamma_t(self) -> float:
        """Linear detection threshold after any coding gain."""
        try:
            return db_to_linear(self.detection_threshold_db - self.coding_gain_db)
        except ValueError as exc:
            raise ValueError(f"{self.name} at coding_gain_db = "
                             f"{self.coding_gain_db:g}: {exc}") from None

    def rate(self, symbol_rate: float) -> float:
        """PHY bit rate for this constellation at the given symbol rate."""
        return self.bits_per_symbol * symbol_rate


def mcs_table(coding_gain_db: float = 0.0) -> list[McsEntry]:
    """Detection thresholds at 1e-2 bit error rate, two-branch combining.

    Differential detection spares channel estimation at the price of a higher
    threshold; coherent QPSK is the reference the baseline protocol uses.
    Rate-1/2 convolutional coding is worth 3 to 4 dB here; pass it as
    coding_gain_db to tighten every entry.
    """
    return [
        McsEntry("DQPSK", 12.8, 2, coding_gain_db),
        McsEntry("8-DPSK", 15.6, 3, coding_gain_db),
        McsEntry("16-DPSK", 18.5, 4, coding_gain_db),
        McsEntry("QPSK-coherent", 10.85, 2, coding_gain_db),
    ]


def hop_energy(e_l: float, e_k_prev: float, e_nr: float, phy: PhyConfig) -> float:
    """Energy expended at one hop.

    Receivers pay p_rx for the packet; the previous relay set transmits
    (1 + n_r) times and listens t_id for the forwarding confirmation; busy
    tones run at p_t/n_s during the ID listen and the packet reception.
    """
    if min(e_l, e_k_prev, e_nr) < 0:
        raise ValueError("expectation inputs must be non-negative")
    bt = phy.p_t / phy.n_s
    return (
        e_l * phy.p_rx * phy.t_p
        + (e_nr + 1.0) * e_k_prev * phy.p_t * phy.t_p
        + (e_nr + 1.0) * e_k_prev * phy.p_rx * phy.t_id
        + (e_k_prev * phy.t_id + e_l * phy.t_p) * bt
    )


def e2e_delay(nr_per_hop, t_p: float) -> float:
    """End-to-end latency: one packet duration per transmission attempt."""
    nr = list(nr_per_hop)
    if not nr:
        raise ValueError("at least one hop is required")
    return t_p * sum(1.0 + v for v in nr)


def edp_and_cost(e_e2e: float, l_e2e: float, r: float, t_p: float) -> tuple[float, float]:
    """Energy-delay product and its normalization per transported batch."""
    if r <= 0 or t_p <= 0:
        raise ValueError("rate and packet duration must be positive")
    edp = e_e2e * l_e2e
    return edp, edp / (r * t_p)


def trial_e2e(records, phy: PhyConfig) -> tuple[float, float]:
    """Realized end-to-end energy and delay of one simulated trial."""
    energy = 0.0
    nrs = []
    for rec in records:
        energy += hop_energy(rec.l, rec.k_prev, rec.n_r, phy)
        nrs.append(rec.n_r)
    return energy, e2e_delay(nrs, phy.t_p)


def point_e2e(trials, phy: PhyConfig) -> tuple[float, float]:
    """A sweep point's energy per delivery and mean delivered delay.

    Every trial's energy, failed trials included, is charged to the delivered
    ones; the delay is the mean over the delivered trials only. NaN, NaN when
    nothing was delivered.
    """
    costs = [trial_e2e(t.records, phy) for t in trials]
    delays = [l for t, (_, l) in zip(trials, costs) if t.reached]
    if not delays:
        return math.nan, math.nan
    return sum(e for e, _ in costs) / len(delays), float(np.mean(delays))
