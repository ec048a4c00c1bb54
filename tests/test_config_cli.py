"""Config parsing diagnostics, CLI exit codes, pipeline determinism, schemas."""

import csv
import filecmp
import importlib.util
import math
import os
from dataclasses import fields, replace

import pytest

from omrsim import config
from omrsim.baseline import BclConfig
from omrsim.channel import PhyConfig, detection_constant
from omrsim.cli import main
from omrsim.config import (
    MAX_FIELD_NODES,
    ConfigError,
    PLANS,
    ExperimentSpec,
    dbm_to_watts,
    load_config,
    mcs_phy,
    parse_config,
    plan,
    watts_to_dbm,
)
from omrsim.engine import RetransmitPolicy, run_two_packet_trial, slot_budget
from omrsim.experiments import SUMMARY_COLUMNS, _SCENARIO_FUNCS, run
from omrsim.field import FieldConfig, Point2D, field_extent

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "configs", "golden.cfg")


def test_option_counts_pinned():
    # the size of the option surface: a change that adds a config key or an
    # ExperimentSpec field edits these counts in plain view
    assert len(config._KEYMAP) == 39
    assert len(fields(ExperimentSpec)) == 18


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


def test_defaults_are_the_golden_config():
    # one source for each reference value: the dataclass defaults and
    # configs/golden.cfg describe the same run, 33 dBm included
    assert load_config(GOLDEN) == ExperimentSpec()


def test_unit_conversions_roundtrip():
    assert dbm_to_watts(33.0) == pytest.approx(1.9953, rel=1e-4)
    assert watts_to_dbm(dbm_to_watts(27.5)) == pytest.approx(27.5, rel=1e-12)


def test_epsilon_out_of_range_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("epsilon = 1.5")
    assert any("epsilon" in d for d in err.value.diagnostics)


def test_rach_slot_count_rejected_with_pointer():
    with pytest.raises(ConfigError) as err:
        parse_config("b_rach_slots = 1")
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
    # every axis a scenario runs on is guarded, the densities included
    spec = ExperimentSpec(scenario="retransmissions")
    spec.rho_per_km2_list = []
    assert any(d.startswith("rho_per_km2_list:") and "sweep axis" in d
               for d in spec.validate())


CONFIG_CLASSES = (FieldConfig, PhyConfig, RetransmitPolicy, BclConfig)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls,name", [
    (cls, f.name) for cls in CONFIG_CLASSES for f in fields(cls)
    if f.type.startswith("float")])
def test_config_rejects_non_finite_field(cls, name, value):
    # every config is checked where it is built, replace() copies included
    with pytest.raises(ValueError):
        replace(cls(), **{name: value})


def test_cli_validate_only(tmp_path, capsys):
    assert main(["--config", GOLDEN, "--validate-only"]) == 0
    assert "configuration ok" in capsys.readouterr().out


def test_cli_validate_only_without_config(capsys):
    # no --config: the defaults, which are the golden config, are checked
    assert main(["--validate-only"]) == 0
    assert capsys.readouterr().out == "configuration ok\n"


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


def test_cli_mcs_threshold_overflow_rejected(tmp_path, capsys):
    # each MCS threshold is 10^((dB - coding gain) / 10), past a float here
    cfg = tmp_path / "mcs.cfg"
    cfg.write_text("scenario = compare-mcs\ncoding_gain_db = -3100\n")
    assert main(["--config", str(cfg), "--validate-only"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("config error:") for line in err)
    assert any("mcs_list:" in line for line in err)


def test_cli_mcs_threshold_overflow_names_each_scheme(tmp_path, capsys):
    # each swept scheme under mcs_list; the baseline's coherent QPSK, which
    # no key sweeps, under the coding gain that overflows it
    cfg = tmp_path / "mcs.cfg"
    cfg.write_text("scenario = compare-mcs\ncoding_gain_db = -3100\n")
    assert main(["--config", str(cfg), "--validate-only"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(" at ")[0] for line in err] == [
        "config error: mcs_list: DQPSK", "config error: mcs_list: 8-DPSK",
        "config error: mcs_list: 16-DPSK",
        "config error: coding_gain_db: QPSK-coherent"]
    assert all("coding_gain_db = -3100" in line for line in err)


@pytest.mark.parametrize("scenario,axis,value", [
    ("compare-B", "b_list = 8, 1", "b must be >= 2, got 1"),
    ("delay-spread", "w_list_m = 100, -5", "w must be positive, got -5.0"),
    ("compare-power", "rho_per_km2_list = 900, 0",
     "rho must be positive, got 0.0"),
], ids=["compare-B", "delay-spread", "compare-power"])
def test_cli_swept_value_rejected(tmp_path, capsys, scenario, axis, value):
    # the run would fail on this sweep point after the points before it
    cfg = tmp_path / "axis.cfg"
    cfg.write_text(f"scenario = {scenario}\n{axis}\n")
    assert main(["--config", str(cfg), "--validate-only"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and value in err[0]


@pytest.mark.parametrize("scenario", ["omr-trials", "analytic"])
@pytest.mark.parametrize("key", ["rho_per_km2", "length_m", "field_margin_m",
                                 "delta_w_m"])
def test_cli_field_too_large_to_draw_rejected(tmp_path, capsys, scenario, key):
    # each value is finite, but the field it sizes holds ~1e30 nodes or more,
    # which deploy cannot draw
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"scenario = {scenario}\n{key} = 1e30\n")
    assert main(["--config", str(cfg), "--validate-only"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: field size: the OMR field")


def test_cli_two_packet_field_checked_at_its_drawn_width(tmp_path, capsys):
    # the two-packet run draws its field 240 m wider than a one-flow run's,
    # for its sources 120 m either side of the axis: at this length the
    # wider field holds 1.2e7 nodes on average, the one-flow field 8.8e6
    cfg = tmp_path / "long.cfg"
    cfg.write_text("length_m = 9e6\n")
    assert main(["--config", str(cfg), "--scenario", "two-packets",
                 "--validate-only"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: field size: the OMR field")
    assert main(["--config", str(cfg), "--scenario", "omr-trials",
                 "--validate-only"]) == 0


def test_field_size_rule_bounds_the_mean_node_count():
    # the baseline field is six reaches wide, so it outgrows the bound at a
    # lower density than the OMR field at its widest strip
    spec = ExperimentSpec(scenario="compare-power", rho_per_km2_list=[1500.0])
    area = field_extent(spec.field, 6.0 * detection_constant(
        spec.phy).single_relay_radius)[1] / spec.field.rho
    rho_km2 = MAX_FIELD_NODES / area * 1e6
    assert plan(replace(spec, rho_per_km2_list=[0.999 * rho_km2]))[1] == []
    over = replace(spec, rho_per_km2_list=[1.001 * rho_km2])
    assert [d.split(" per km2")[0] for d in plan(over)[1]] == [
        f"field size: the BCL field at {1.001 * rho_km2:g}"]


@pytest.mark.parametrize("text,field", [
    ("alpha = nan", "alpha"),
    ("p_n_w = nan", "p_n"),
    ("delta_w_m = nan", "delta_w"),
    ("field_margin_m = nan", "field_margin"),
    ("t_guard_s = -1", "t_guard"),
    ("t_cp_s = 0", "t_cp"),
    ("delta_r_m = -1", "delta_r"),
    ("interference_radius_m = nan", "interference_radius"),
    ("scenario = compare-power\np_t_dbm_list = nan", "p_t"),
    ("scenario = bcl-trials\np_t_dbm = nan",
     "phy: p_t must be positive, got nan"),
    # 10^(dB/10) overflows a float
    ("p_t_dbm = 100000", "p_t_dbm"),
    ("gamma_t_db = 100000", "gamma_t_db"),
    ("scenario = compare-power\np_t_dbm_list = 100000", "p_t_dbm_list"),
    # an unparseable list item
    ("b_list = 8, x", "b_list"),
    # numpy's seed sequences take non-negative integers only
    ("seed = -1", "seed must be >= 0"),
    ("scenario = nope", "scenario must be one of"),
    ("workers = -1", "workers must be >= 0"),
    ("n_r_max = -1", "policy: n_r_max must be >= 0, got -1"),
    # the detection constant u underflows to 0.0
    ("lambda_m = 1e300", "phy: the detection constant u must be finite and "
     "positive, got 0.0"),
], ids=["alpha", "p_n_w", "delta_w_m", "field_margin_m", "t_guard_s",
        "t_cp_s", "delta_r_m", "interference_radius_m", "p_t_dbm_list",
        "bcl_trials_p_t_dbm", "p_t_dbm_overflow", "gamma_t_db_overflow",
        "p_t_dbm_list_overflow", "b_list", "seed", "scenario",
        "workers", "n_r_max", "lambda_m"])
def test_cli_bad_value_rejected_before_running(tmp_path, capsys, text, field):
    # each value breaks a rule of what it is built into, so no work may start
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    assert main(["--config", str(cfg), "--validate-only"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and field in err[0]


@pytest.mark.parametrize("scenario", ["compare-power", "retransmissions"])
def test_negative_power_runs(tmp_path, capsys, scenario):
    # -20 dBm is a valid power: a point's seed is never negative
    cfg = tmp_path / "low.cfg"
    cfg.write_text(f"scenario = {scenario}\nseed = 1\np_t_dbm_list = -20\n"
                   "rho_per_km2_list = 900\nlength_m = 600\n")
    assert main(["--config", str(cfg), "--validate-only"]) == 0
    assert capsys.readouterr().out == "configuration ok\n"
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--trials", "2", "--workers", "1",
                 "--out", str(out)]) == 0
    (path,) = capsys.readouterr().out.split()
    with open(path, encoding="utf-8") as fh:
        assert [r for r in csv.DictReader(fh) if r["p_t_dbm"] == "-20.0"]


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


def test_stagger_past_slot_budget_rejected(tmp_path, capsys):
    # flow b would be injected after the slot loop ends: its run is empty
    spec = load_config(GOLDEN)
    budget = slot_budget(spec.field, spec.phy, spec.policy)
    cfg = tmp_path / "stagger.cfg"
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    cfg.write_text(golden + "scenario = two-packets\n"
                   "two_stagger_slots = 100000\n")
    assert main(["--config", str(cfg), "--validate-only"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: two_stagger_slots")
    assert str(budget) in err[0]
    last = replace(spec, scenario="two-packets", two_stagger_slots=budget - 1)
    assert last.validate() == []
    with pytest.raises(ValueError, match="stagger_slots"):
        run_two_packet_trial(spec.field, spec.phy, spec.policy, spec.b, 1,
                             src_a=Point2D(0.0, 120.0),
                             src_b=Point2D(0.0, -120.0), stagger_slots=budget)


def test_cli_analytic_prints_dumped_pmfs(tmp_path, capsys):
    cfg = tmp_path / "dump.cfg"
    cfg.write_text("length_m = 800\n")
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


def test_cli_flags_override_before_validation(tmp_path, capsys):
    # a flag replaces the file's key before the one validation, so a value
    # the flag overrides is never judged
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    cfg = tmp_path / "t0.cfg"
    cfg.write_text(golden.replace("trials = 1000", "trials = 0"))
    assert main(["--config", str(cfg), "--validate-only"]) == 2
    assert "trials must be >= 1, got 0" in capsys.readouterr().err
    assert main(["--config", str(cfg), "--trials", "4",
                 "--validate-only"]) == 0
    cfg.write_text("scenario = analytic\nb_rach_slots = 2\n")
    assert main(["--config", str(cfg), "--validate-only"]) == 2
    assert main(["--config", str(cfg), "--scenario", "omr-trials",
                 "--validate-only"]) == 0


def _check_identity():
    """tools/check_identity.py as a module."""
    path = os.path.join(os.path.dirname(__file__), "..", "tools",
                        "check_identity.py")
    loader = importlib.util.spec_from_file_location("check_identity", path)
    check_identity = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(check_identity)
    return check_identity


def test_scenario_lists_match():
    # a scenario missing from one list would skip validation, have no runner
    # or escape the byte-identity check
    assert list(PLANS) == list(_SCENARIO_FUNCS) \
        == list(_check_identity().SCENARIOS)


def test_check_identity_counts_source_lines_like_wc(tmp_path):
    (tmp_path / "omrsim").mkdir()
    (tmp_path / "omrsim" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "omrsim" / "b.py").write_text("z = 3")  # no final newline
    (tmp_path / "omrsim" / "c.txt").write_text("\n\n")
    assert _check_identity().line_count(tmp_path) == 2


def test_check_identity_counts_each_module_like_wc(tmp_path):
    (tmp_path / "omrsim").mkdir()
    (tmp_path / "omrsim" / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "omrsim" / "a.py").write_text("z = 3")  # no final newline
    (tmp_path / "omrsim" / "c.txt").write_text("\n\n")
    lines = _check_identity().module_lines(tmp_path)
    assert list(lines.items()) == [("a.py", 0), ("b.py", 2)]


def test_check_identity_labels_csv_by_largest_relative_difference():
    differences = _check_identity().differences

    def run(csv, txt=b"1"):
        return 0, "", "", {"rows.csv": csv, "note.txt": txt}

    base = run(b"k,e_k\n1,2.0\n2,x\n")
    assert differences(base, run(b"k,e_k\n1,2.0000000002\n2,x\n", b"2")) \
        == ["note.txt", "rows.csv (max rel diff 1e-10)"]
    assert differences(base, run(b"k,e_k\n1,2.0\n2,y\n")) \
        == ["rows.csv (max rel diff 0, 1 other cells differ)"]
    assert differences(base, run(b"k,e_k\n1,2.0,3\n2,x\n")) == ["rows.csv"]


# configs/golden.cfg at seed 5 and 12 trials: each scenario's points per
# density, in run order, as (protocol, p_t_dbm, B, mcs, trials)
POWERS = (24.0, 25.5, 27.0, 28.5, 30.0, 31.5, 33.0)
DENSITIES = (900.0, 1200.0, 1500.0)
BCL_REF = ("bcl", 33.0, None, "", 100)  # max(100, 12 // 5) trials
GOLDEN_PLANS = {
    "omr-trials": {1500.0: [("omr", 33.0, 24, "", 12)]},
    "bcl-trials": {1500.0: [("bcl", 33.0, None, "", 12)]},
    "analytic": {1500.0: [("omr", 33.0, 24, "", 200)]},
    "compare-power": {rho: [BCL_REF] + [("omr", p, 24, "", 12) for p in POWERS]
                      for rho in DENSITIES},
    "compare-B": {1500.0: [BCL_REF] + [("omr", 33.0, b, "", 12)
                                       for b in (8, 16, 24, 48)]},
    "compare-mcs": {1500.0: [BCL_REF[:3] + ("QPSK-coherent", 100)] + [
        ("omr", 33.0, 24, name, 12) for name in ("DQPSK", "8-DPSK", "16-DPSK")]},
    "retransmissions": {rho: [("omr", p, 24, "", 12) for p in POWERS]
                        for rho in DENSITIES},
    "two-packets": {},
    "calibrate": {1500.0: [("omr", 33.0, 24, "", 12)]},
}
# delay-spread's points carry a strip width, density-major
DELAY_SPREAD_POINTS = [(rho, w) for rho in DENSITIES
                       for w in (100.0, 150.0, 200.0)]


@pytest.mark.parametrize("scenario", list(PLANS))
def test_golden_plan_points(scenario):
    # every point's protocol, coordinates and trials, in run order
    spec = load_config(GOLDEN, scenario=scenario, seed=5, trials=12)
    points, diags = plan(spec)
    assert diags == []
    if scenario == "delay-spread":
        got = [(p.protocol, p.rho_km2, p.field.w, p.b, p.trials)
               for p in points]
        assert got == [("omr", rho, w, 24, 12)
                       for rho, w in DELAY_SPREAD_POINTS]
        return
    got = [(p.rho_km2, (p.protocol, p.p_t_dbm, p.b, p.mcs, p.trials))
           for p in points]
    assert got == [(rho, point) for rho, row in GOLDEN_PLANS[scenario].items()
                   for point in row]
    for p in points:
        assert p.field.rho == p.rho_km2 * 1e-6
        assert p.phy.p_t == dbm_to_watts(p.p_t_dbm)
        if p.mcs:
            assert p.phy.gamma_t == mcs_phy(spec, p.mcs).gamma_t


def test_delay_spread_point_seeds_distinct():
    # density + width is 1200 at both (1000, 200) and (1100, 100)
    spec = load_config(GOLDEN, scenario="delay-spread")
    spec.rho_per_km2_list = [1000.0, 1100.0]
    spec.w_list = [100.0, 200.0]
    points, diags = plan(spec)
    assert diags == []
    assert len({p.seed for p in points}) == len(points) == 4


@pytest.mark.parametrize("key,values,problem", [
    ("p_t_dbm_list", [24.0, 27.0, 24.0], "repeats 24.0"),
    ("rho_per_km2_list", [900.0, 900.0], "repeats 900.0"),
])
def test_sweep_axis_rejects_repeated_value(key, values, problem):
    # two points with the same coordinates would get the same seed
    spec = load_config(GOLDEN, scenario="compare-power")
    setattr(spec, key, values)
    assert f"{key}: {problem}" in plan(spec)[1]


def test_cli_rejects_repeated_sweep_value(tmp_path, capsys):
    cfg = tmp_path / "repeat.cfg"
    cfg.write_text("scenario = compare-power\np_t_dbm_list = 24, 24\n")
    assert main(["--config", str(cfg), "--validate-only"]) == 2
    assert "p_t_dbm_list: repeats 24.0" in capsys.readouterr().err


def test_power_point_keeps_seed_when_axis_grows():
    # a point's seed is keyed by its own coordinates, not by its place
    spec = load_config(GOLDEN, scenario="compare-power")

    def seeds() -> dict:
        return {(p.protocol, p.rho_km2, p.p_t_dbm): p.seed
                for p in plan(spec)[0]}

    before = seeds()
    spec.p_t_dbm_list = [22.5] + spec.p_t_dbm_list
    after = seeds()
    assert len(after) == len(before) + len(DENSITIES)
    assert all(after[key] == seed for key, seed in before.items())


@pytest.mark.parametrize("scenario", ["bcl-trials", "compare-power",
                                      "compare-B", "compare-mcs"])
def test_baseline_runs_at_p_t_dbm(scenario):
    # no sweep moves the baseline: its walks run at the spec's own power
    spec = load_config(GOLDEN, scenario=scenario)
    spec.phy = spec.phy.with_tx_power(dbm_to_watts(30.0))
    refs = [p for p in plan(spec)[0] if p.protocol == "bcl"]
    assert refs and all(p.p_t_dbm == 30.0 for p in refs)
    assert all(p.phy.p_t == dbm_to_watts(30.0) for p in refs)


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
    # the BCL walks of bcl-trials and compare-power share the OMR trials' pool
    for scenario in ("omr-trials", "bcl-trials", "compare-power"):
        a = _small_spec(str(tmp_path / scenario / "a"), scenario)
        a.trials = 12
        b = _small_spec(str(tmp_path / scenario / "b"), scenario)
        b.trials = 12
        b.workers = 2
        names = [os.path.basename(p) for p in run(a)]
        assert [os.path.basename(p) for p in run(b)] == names
        assert sorted(os.listdir(a.out_dir)) == sorted(os.listdir(b.out_dir))
        for name in os.listdir(a.out_dir):
            assert filecmp.cmp(os.path.join(a.out_dir, name),
                               os.path.join(b.out_dir, name),
                               shallow=False), (scenario, name)


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


def test_cli_truncation_error_one_line(monkeypatch, capsys):
    # a recursion whose support outgrows its cap ends the run in one line
    import omrsim.cli
    from omrsim.analytic import TruncationError

    def truncated(spec):
        raise TruncationError("support 4587 exceeds cap 4096")

    monkeypatch.setattr(omrsim.cli, "run", truncated)
    rc = main(["--config", GOLDEN, "--scenario", "retransmissions"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "recursion error: support 4587 exceeds cap 4096\n"


def test_cli_unwritable_output_one_line(tmp_path, capsys):
    # the output directory cannot be made under a regular file
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["--config", GOLDEN, "--trials", "2", "--workers", "1",
               "--out", str(blocker / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == [err.strip()]
    assert err.startswith("cannot write output:")


def test_cli_calibrate_fits_at_the_phy_alpha(tmp_path):
    # the fitted law's reach is the PHY's single-relay radius, not alpha 3's
    cfg = tmp_path / "a4.cfg"
    cfg.write_text("scenario = calibrate\nalpha = 4\np_n_w = 3e-17\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--trials", "60", "--workers", "1",
                 "--seed", "5", "--out", str(out)]) == 0
    with open(out / "calibration.csv", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    phy = load_config(str(cfg)).phy
    assert float(row["alpha"]) == 4.0
    assert float(row["r1_m"]) == detection_constant(phy).single_relay_radius


def test_error_manifest_on_failure(tmp_path):
    spec = ExperimentSpec(scenario="compare-mcs", trials=2, seed=1,
                          out_dir=str(tmp_path), workers=1)
    spec.mcs_list = ["NOT-A-SCHEME"]
    with pytest.raises(ValueError):
        run(spec)
    assert (tmp_path / "error_manifest.txt").exists()


@pytest.mark.parametrize("text", ["tau = 1e-30", "alpha = 1e30"],
                         ids=["tau", "alpha"])
def test_cli_rejects_phy_without_finite_detection_constant(tmp_path, capsys,
                                                           text):
    # 1 - tau rounds to 1 below tau ~ 5.6e-17, so the reliability term
    # log(1 / (1 - tau)) divides by zero; (4 pi / lambda)^alpha overflows
    # for a huge alpha. Either PHY is refused in one line before any work.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    out = tmp_path / "o"
    rc = main(["--config", str(cfg), "--trials", "2", "--workers", "1",
               "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1
    assert err[0].startswith("config error: phy: the detection constant u")
    assert not out.exists()


def test_cli_zero_hop1_relay_mean_is_a_recursion_error(tmp_path, capsys):
    # a strip too thin to hold a hop-1 relay leaves the recursion a Poisson
    # point mass at 0, which it reports in its one line
    cfg = tmp_path / "thin.cfg"
    cfg.write_text("strip_width_m = 1e-30\n")
    rc = main(["--config", str(cfg), "--scenario", "analytic", "--trials",
               "2", "--workers", "1", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == [err.strip()]
    assert err.startswith("recursion error: the hop-1 relay mean")
