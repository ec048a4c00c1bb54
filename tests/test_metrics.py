"""Cost assembly: per-hop energy, latency, EDP normalization, MCS table."""

import math
from dataclasses import replace

import numpy as np
import pytest

from omrsim.channel import PhyConfig
from omrsim.config import ExperimentSpec, dbm_to_watts
from omrsim.engine import HopRecord, TrialResult
from omrsim.experiments import run_omr_batch
from omrsim.metrics import (
    e2e_delay,
    edp_and_cost,
    hop_energy,
    mcs_table,
    point_e2e,
    trial_e2e,
)

PHY = PhyConfig()


def test_hop_energy_zero_counts():
    assert hop_energy(0.0, 0.0, 0.0, PHY) == 0.0


def test_hop_energy_unit_collapse():
    # E[L]=1, E[K]=1, E[n_r]=0:
    # P_Rx T_p + P_t T_p + P_Rx t_ID + (t_ID + T_p) P_t / N_s
    got = hop_energy(1.0, 1.0, 0.0, PHY)
    expect = (PHY.p_rx * PHY.t_p + PHY.p_t * PHY.t_p + PHY.p_rx * PHY.t_id
              + (PHY.t_id + PHY.t_p) * PHY.p_t / PHY.n_s)
    assert got == pytest.approx(expect, rel=1e-12)


def test_hop_energy_dual_evaluation():
    e_l, e_k, e_nr = 23.7, 8.1, 0.37
    got = hop_energy(e_l, e_k, e_nr, PHY)
    # independent rearrangement: group by power source
    rx_side = PHY.p_rx * (e_l * PHY.t_p + (e_nr + 1) * e_k * PHY.t_id)
    tx_side = PHY.p_t * ((e_nr + 1) * e_k * PHY.t_p
                         + (e_k * PHY.t_id + e_l * PHY.t_p) / PHY.n_s)
    assert got == pytest.approx(rx_side + tx_side, rel=1e-12)


def test_hop_energy_affine_and_monotone():
    base = (11.0, 4.0, 0.2)
    for idx in range(3):
        vals = []
        for step in (0.0, 1.0, 2.0):
            args = list(base)
            args[idx] += step
            vals.append(hop_energy(*args, PHY))
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], rel=1e-9)


def test_hop_energy_rejects_negative():
    with pytest.raises(ValueError):
        hop_energy(-1.0, 1.0, 0.0, PHY)


def test_e2e_delay_examples():
    assert e2e_delay([0.0], 0.01) == pytest.approx(0.01)
    assert e2e_delay([0.0] * 5, 0.01) == pytest.approx(0.05)
    assert e2e_delay([1.0, 0.0, 2.5], 0.01) == pytest.approx(0.01 * 6.5)
    with pytest.raises(ValueError):
        e2e_delay([], 0.01)


def test_edp_and_cost_examples():
    edp, cost = edp_and_cost(1.0, 1.0, 100.0, 0.01)  # r T_p = 1 bit
    assert edp == 1.0 and cost == 1.0
    _, c1 = edp_and_cost(2.0, 3.0, 250e3, 0.01)
    _, c2 = edp_and_cost(2.0, 3.0, 500e3, 0.01)
    assert c2 == pytest.approx(c1 / 2.0)


def test_mcs_table_entries():
    table = {m.name: m for m in mcs_table()}
    assert table["DQPSK"].detection_threshold_db == 12.8
    assert table["DQPSK"].bits_per_symbol == 2
    assert table["8-DPSK"].detection_threshold_db == 15.6
    assert table["16-DPSK"].detection_threshold_db == 18.5
    assert table["16-DPSK"].bits_per_symbol == 4
    assert table["QPSK-coherent"].detection_threshold_db == 10.85


def test_mcs_coding_gain():
    coded = {m.name: m for m in mcs_table(coding_gain_db=3.0)}
    assert coded["QPSK-coherent"].gamma_t == pytest.approx(
        10 ** (7.85 / 10.0), rel=1e-12)


def test_mcs_rate_scaling():
    table = {m.name: m for m in mcs_table()}
    assert table["16-DPSK"].rate(125e3) == pytest.approx(500e3)
    assert table["DQPSK"].rate(125e3) == pytest.approx(250e3)


def test_trial_e2e_matches_row_form():
    records = [
        HopRecord(hop=1, k_prev=1, j_prev=1, l=12, k=5, n_r=1, xh0=100.0),
        HopRecord(hop=2, k_prev=5, j_prev=2, l=20, k=7, n_r=0, xh0=220.0),
        HopRecord(hop=3, k_prev=7, j_prev=1, l=18, k=0, n_r=0, xh0=350.0),
    ]
    e, l = trial_e2e(records, PHY)
    # by hand: hop i is sent by the relay set hop i-1 formed (the lone source
    # at hop 1) and heard by its decoders, with one packet per attempt
    e2 = (hop_energy(12, 1, 1, PHY) + hop_energy(20, 5, 0, PHY)
          + hop_energy(18, 7, 0, PHY))
    assert e == pytest.approx(e2, rel=1e-12)
    assert l == pytest.approx(PHY.t_p * (2 + 1 + 1), rel=1e-12)


def _trial(reached: bool, *n_rs: int) -> TrialResult:
    """A synthetic trial, one hop per retransmission count."""
    records = [HopRecord(hop=h, k_prev=h, j_prev=1, l=10 + h, k=h + 1,
                         n_r=n_r, xh0=100.0 * h)
               for h, n_r in enumerate(n_rs, start=1)]
    return TrialResult(records, reached, len(records), 0.0,
                       "delivered" if reached else "retransmission cap")


def test_point_e2e_charges_failed_energy_to_deliveries():
    batch = [_trial(True, 0, 1), _trial(False, 2, 2, 3), _trial(True, 1)]
    e, _ = point_e2e(batch, PHY)
    spent = [trial_e2e(t.records, PHY)[0] for t in batch]
    assert spent[1] > 0
    assert e == pytest.approx(sum(spent) / 2, rel=1e-12)


def test_point_e2e_averages_delay_over_deliveries_only():
    # the failed trial's five attempts would raise the mean if counted
    _, l = point_e2e([_trial(True, 0, 1), _trial(False, 2, 3),
                      _trial(True, 1)], PHY)
    assert l == pytest.approx(PHY.t_p * (3 + 2) / 2, rel=1e-12)


def test_point_e2e_delay_is_numpy_mean():
    # the rows have always held float(np.mean(...)), which sums pairwise;
    # over delays of 1..8 attempts a running sum already rounds apart
    batch = [_trial(True, attempts - 1) for attempts in range(1, 9)]
    delays = [PHY.t_p * attempts for attempts in range(1, 9)]
    assert point_e2e(batch, PHY)[1] == float(np.mean(delays)) != sum(delays) / 8


def test_point_e2e_without_delivery_is_nan():
    for batch in ([], [_trial(False, 0), _trial(False, 4, 1)]):
        e, l = point_e2e(batch, PHY)
        assert math.isnan(e) and math.isnan(l)


def test_point_e2e_sums_trial_costs_of_a_sweep_batch():
    # at 22 dBm over 600 m, nine of the sixteen trials fail; over these
    # energies np.sum's pairwise sum rounds apart from the running sum
    spec = ExperimentSpec(trials=16, seed=3, workers=1)
    phy = spec.phy.with_tx_power(dbm_to_watts(22.0))
    batch = run_omr_batch(spec, replace(spec.field, length=600.0), phy, 16, 5)
    costs = [trial_e2e(t.records, phy) for t in batch]
    delays = [l for t, (_, l) in zip(batch, costs) if t.reached]
    assert 0 < len(delays) < len(batch)
    e, l = point_e2e(batch, phy)
    assert e == sum(c[0] for c in costs) / len(delays)
    assert l == float(np.mean(delays))


def test_dimensional_sanity():
    # doubling both energy and delay quadruples the product
    edp1, _ = edp_and_cost(1.5, 0.2, 250e3, 0.01)
    edp2, _ = edp_and_cost(3.0, 0.4, 250e3, 0.01)
    assert edp2 == pytest.approx(4 * edp1, rel=1e-12)
