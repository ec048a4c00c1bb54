"""Config parsing diagnostics, CLI exit codes, pipeline determinism, schemas."""

import filecmp
import os
from dataclasses import replace

import pytest

from omrsim.channel import PhyConfig
from omrsim.cli import main
from omrsim.config import (
    ConfigError,
    ExperimentSpec,
    dbm_to_watts,
    load_config,
    parse_config,
    validate_config,
    watts_to_dbm,
)
from omrsim.engine import RetransmitPolicy, run_two_packet_trial
from omrsim.experiments import SUMMARY_COLUMNS, run
from omrsim.field import FieldConfig, Point2D

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "configs", "golden.cfg")


def test_golden_config_accepted():
    spec = load_config(GOLDEN)
    assert spec.validate() == []
    assert spec.field.w == 200.0
    assert spec.field.length == 2000.0
    assert spec.field.epsilon == 0.25
    assert spec.phy.alpha == 3.0
    assert spec.phy.gamma_t == pytest.approx(10 ** 0.5)
    assert spec.phy.tau == 0.2
    assert spec.b == 24


def test_unit_conversions_roundtrip():
    assert dbm_to_watts(33.0) == pytest.approx(1.9953, rel=1e-4)
    assert watts_to_dbm(dbm_to_watts(27.5)) == pytest.approx(27.5, rel=1e-12)


def test_epsilon_out_of_range_rejected():
    with pytest.raises(ConfigError) as err:
        validate_config("epsilon = 1.5")
    assert any("epsilon" in d for d in err.value.diagnostics)


def test_rach_slot_count_rejected_with_pointer():
    with pytest.raises(ConfigError) as err:
        validate_config("b_rach_slots = 1")
    assert any(">= 2" in d for d in err.value.diagnostics)


def test_unknown_key_line_referenced():
    text = "trials = 10\nbogus_key = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any(d.startswith("line 2") and "bogus_key" in d
               for d in err.value.diagnostics)


def test_malformed_line_reported():
    with pytest.raises(ConfigError) as err:
        parse_config("this is not a key value pair")
    assert any("line 1" in d for d in err.value.diagnostics)


def test_list_keys_parse():
    spec = parse_config("p_t_dbm_list = 24, 27, 30\nb_list = 8, 16\n")
    assert spec.p_t_dbm_list == [24.0, 27.0, 30.0]
    assert spec.b_list == [8, 16]


def test_scenario_sweep_axis_guard():
    spec = ExperimentSpec(scenario="compare-power")
    spec.p_t_dbm_list = []
    assert any("sweep axis" in d for d in spec.validate())


def test_cli_validate_only(tmp_path, capsys):
    assert main(["--config", GOLDEN, "--validate-only"]) == 0
    assert "configuration ok" in capsys.readouterr().out


def test_cli_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epsilon = 2.0\n")
    assert main(["--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["analytic", "retransmissions"])
def test_cli_recursion_scenarios_reject_two_slots(tmp_path, capsys, scenario):
    cfg = tmp_path / "b2.cfg"
    cfg.write_text("b_rach_slots = 2\n")
    assert main(["--config", str(cfg), "--scenario", scenario,
                 "--validate-only"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and ">= 3" in err and scenario in err
    # the simulation alone runs with two slots
    assert main(["--config", str(cfg), "--scenario", "omr-trials",
                 "--validate-only"]) == 0


def test_cli_unknown_mcs_rejected(tmp_path, capsys):
    cfg = tmp_path / "mcs.cfg"
    cfg.write_text("scenario = compare-mcs\nmcs_list = DQPSK, 64-QAM\n")
    assert main(["--config", str(cfg), "--validate-only"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and "'64-QAM'" in err[0]


def test_negative_stagger_rejected(tmp_path, capsys):
    # flow b would never transmit, and the run would spend the slot budget
    cfg = tmp_path / "stagger.cfg"
    cfg.write_text("scenario = two-packets\ntwo_stagger_slots = -1\n")
    assert main(["--config", str(cfg), "--validate-only"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "two_stagger_slots" in err[0]
    with pytest.raises(ValueError, match="stagger_slots"):
        run_two_packet_trial(FieldConfig(), PhyConfig(), RetransmitPolicy(),
                             24, 1, src_a=Point2D(0.0, 120.0),
                             src_b=Point2D(0.0, -120.0), stagger_slots=-1)


def test_cli_analytic_prints_dumped_pmfs(tmp_path, capsys):
    cfg = tmp_path / "dump.cfg"
    cfg.write_text("dump_pmfs = true\nlength_m = 800\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--scenario", "analytic", "--trials",
                 "2", "--seed", "3", "--workers", "1", "--out",
                 str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].endswith("analytic_hops.csv")
    pmfs = [p for p in printed if os.path.basename(p).startswith("pmf_K_hop")]
    with open(printed[0], encoding="utf-8") as fh:
        hops = len(fh.readlines()) - 1
    assert len(pmfs) == hops >= 1
    assert all(os.path.exists(p) for p in printed)


def test_cli_missing_config(capsys):
    assert main(["--config", "/nonexistent/x.cfg"]) == 2


def test_cli_flag_overrides(tmp_path):
    out = tmp_path / "o"
    code = main(["--config", GOLDEN, "--scenario", "omr-trials", "--trials",
                 "2", "--seed", "9", "--workers", "1", "--out", str(out)])
    assert code == 0
    assert (out / "omr_trace.csv").exists()
    assert (out / "summary.csv").exists()


def _small_spec(out_dir: str, scenario: str = "omr-trials") -> ExperimentSpec:
    spec = ExperimentSpec(scenario=scenario, trials=3, seed=5,
                          out_dir=out_dir, workers=1)
    spec.field = replace(spec.field, length=800.0)
    return spec


def test_pipeline_determinism_bytes(tmp_path):
    a = _small_spec(str(tmp_path / "a"))
    b = _small_spec(str(tmp_path / "b"))
    run(a)
    run(b)
    for name in ("omr_trace.csv", "summary.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name


def test_two_packets_determinism(tmp_path):
    a = _small_spec(str(tmp_path / "a"), "two-packets")
    b = _small_spec(str(tmp_path / "b"), "two-packets")
    run(a)
    run(b)
    for name in ("two_packets_flow_a.csv", "two_packets_flow_b.csv",
                 "two_packets_summary.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name


def test_summary_schema_stable(tmp_path):
    spec = _small_spec(str(tmp_path / "s"))
    run(spec)
    with open(tmp_path / "s" / "summary.csv", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    assert header == SUMMARY_COLUMNS


def test_workers_parallel_matches_serial(tmp_path):
    a = _small_spec(str(tmp_path / "a"))
    a.trials = 12
    b = _small_spec(str(tmp_path / "b"))
    b.trials = 12
    b.workers = 2
    run(a)
    run(b)
    assert filecmp.cmp(tmp_path / "a" / "omr_trace.csv",
                       tmp_path / "b" / "omr_trace.csv", shallow=False)


def test_delay_spread_scenario_schema(tmp_path):
    spec = ExperimentSpec(scenario="delay-spread", trials=3, seed=2,
                          out_dir=str(tmp_path), workers=1)
    spec.field = replace(spec.field, length=600.0)
    spec.w_list = [150.0]
    spec.rho_per_km2_list = [1500.0]
    paths = run(spec)
    with open(paths[0], encoding="utf-8") as fh:
        assert fh.readline().startswith("rho_per_km2,w_m,delivered")


def test_cli_calibrate_too_few_samples_one_line(tmp_path, capsys):
    # four trials give fewer hop samples than the progress fit needs
    rc = main(["--config", GOLDEN, "--scenario", "calibrate", "--trials", "4",
               "--workers", "1", "--seed", "5", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == [err.strip()]
    assert err.startswith("calibration error: need >= 100 samples")
    assert "CalibrationError" in (tmp_path / "error_manifest.txt").read_text()


def test_error_manifest_on_failure(tmp_path):
    spec = ExperimentSpec(scenario="compare-mcs", trials=2, seed=1,
                          out_dir=str(tmp_path), workers=1)
    spec.mcs_list = ["NOT-A-SCHEME"]
    with pytest.raises(ValueError):
        run(spec)
    assert (tmp_path / "error_manifest.txt").exists()
