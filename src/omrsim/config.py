"""Experiment configuration: defaults, key/value files, validation diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

from .analytic import check_recursion_slots
from .baseline import BclConfig
from .channel import PhyConfig
from .engine import RetransmitPolicy, check_rach_slots, check_stagger_slots
from .field import FieldConfig
from .metrics import mcs_table

class ConfigError(ValueError):
    """Invalid configuration; carries line-referenced diagnostics."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(diagnostics))


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError("too large for a float in linear units") from None


def dbm_to_watts(dbm: float) -> float:
    return db_to_linear(dbm - 30.0)


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts) + 30.0


@dataclass
class ExperimentSpec:
    """Everything one scenario run needs, with reference-scenario defaults."""

    scenario: str = "omr-trials"
    trials: int = 1000
    seed: int = 1
    out_dir: str = "out"
    workers: int = 0             # 0: use available parallelism

    field: FieldConfig = dc_field(default_factory=FieldConfig)
    phy: PhyConfig = dc_field(default_factory=PhyConfig)
    policy: RetransmitPolicy = dc_field(default_factory=RetransmitPolicy)
    bcl: BclConfig = dc_field(default_factory=BclConfig)
    b: int = 24                  # RACH slots

    # sweep axes
    p_t_dbm_list: list = dc_field(
        default_factory=lambda: [24.0, 25.5, 27.0, 28.5, 30.0, 31.5, 33.0])
    rho_per_km2_list: list = dc_field(default_factory=lambda: [900.0, 1200.0, 1500.0])
    b_list: list = dc_field(default_factory=lambda: [8, 16, 24, 48])
    mcs_list: list = dc_field(
        default_factory=lambda: ["DQPSK", "8-DPSK", "16-DPSK"])
    w_list: list = dc_field(default_factory=lambda: [100.0, 150.0, 200.0])
    bcl_p_t_dbm: float = 33.0
    coding_gain_db: float = 0.0
    dump_pmfs: bool = False

    # two-packet demo timing and interference model
    two_stagger_slots: int = 0
    interference_radius: float = 600.0

    def validate(self) -> list[str]:
        """All invariant violations as named diagnostics (empty when valid).

        field, phy, policy and bcl are valid by construction; each value a
        scenario builds from is checked by building it (see SWEEPS)."""
        diags = []
        if self.scenario not in SCENARIOS:
            diags.append(f"scenario must be one of {SCENARIOS}, got "
                         f"'{self.scenario}'")
        if self.trials < 1:
            diags.append(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            diags.append(f"seed must be >= 0, got {self.seed}")
        if self.workers < 0:
            diags.append("workers must be >= 0")
        for key in SWEEPS.get(self.scenario, ()):
            values, build = _AXES[key]
            if not values(self):
                diags.append(f"{key}: scenario '{self.scenario}' needs a "
                             f"non-empty sweep axis")
            for value in values(self):
                try:
                    build(self, value)
                except ValueError as exc:
                    diags.append(f"{key}: {exc}")
        if not (self.interference_radius > 0):
            diags.append("interference_radius must be positive")
        return diags


def mcs_phy(spec: ExperimentSpec, name: str) -> PhyConfig:
    """spec.phy with the detection threshold and data rate of MCS `name`."""
    table = {m.name: m for m in mcs_table(spec.coding_gain_db)}
    if name not in table:
        raise ValueError(f"unknown MCS '{name}' (known: {', '.join(table)})")
    return replace(spec.phy, gamma_t=table[name].gamma_t,
                   r=table[name].rate(spec.phy.symbol_rate))


def _tx_power_phy(spec: ExperimentSpec, p_t_dbm: float) -> PhyConfig:
    return spec.phy.with_tx_power(dbm_to_watts(p_t_dbm))


def power_point_seed(spec: ExperimentSpec, p_t_dbm: float) -> int:
    """Seed of a power-sweep point's trials: spec.seed + int(10 p_t_dbm)."""
    seed = spec.seed + int(p_t_dbm * 10)
    if seed < 0:  # numpy's seed sequences take non-negative integers only
        raise ValueError(f"point seed {spec.seed} + int({p_t_dbm:g} * 10) = "
                         f"{seed} must be >= 0")
    return seed


def _slots(spec: ExperimentSpec, b: int) -> None:
    """The RACH rule on b, and the recursion's where the scenario runs it."""
    check_rach_slots(b)
    if spec.scenario in ("analytic", "retransmissions"):
        try:
            check_recursion_slots(b)
        except ValueError as exc:
            raise ValueError(f"scenario '{spec.scenario}': {exc}") from None


# Config key of each value a scenario builds from -> (the spec's values for
# it, the construction the scenario runs on one value). A bad value raises
# the ValueError of the rule it breaks; a scalar is a one-value axis.
_AXES = {
    "b_rach_slots": (lambda spec: [spec.b], _slots),
    "b_list": (lambda spec: spec.b_list, _slots),
    "rho_per_km2_list": (lambda spec: spec.rho_per_km2_list,
                         lambda spec, r: replace(spec.field, rho=r * 1e-6)),
    "w_list_m": (lambda spec: spec.w_list,
                 lambda spec, w: replace(spec.field, w=w)),
    "p_t_dbm_list": (lambda spec: spec.p_t_dbm_list, lambda spec, p: (
        _tx_power_phy(spec, p), power_point_seed(spec, p))),
    "mcs_list": (lambda spec: spec.mcs_list, mcs_phy),
    # the BCL reference PHY, built on spec.phy or an MCS copy of it
    "bcl_p_t_dbm": (lambda spec: [spec.bcl_p_t_dbm], _tx_power_phy),
    "two_stagger_slots": (lambda spec: [spec.two_stagger_slots],
                          lambda spec, s: check_stagger_slots(
                              s, spec.field, spec.phy, spec.policy)),
}

# scenario -> the axes it runs on; the scenario list is this table's keys
SWEEPS = {
    "omr-trials": ("b_rach_slots",),
    "bcl-trials": ("bcl_p_t_dbm",),
    "analytic": ("b_rach_slots",),
    "compare-power": ("rho_per_km2_list", "p_t_dbm_list", "bcl_p_t_dbm",
                      "b_rach_slots"),
    "compare-B": ("b_list", "bcl_p_t_dbm"),
    "compare-mcs": ("mcs_list", "bcl_p_t_dbm", "b_rach_slots"),
    "delay-spread": ("rho_per_km2_list", "w_list_m", "b_rach_slots"),
    "retransmissions": ("rho_per_km2_list", "p_t_dbm_list", "b_rach_slots"),
    "two-packets": ("b_rach_slots", "two_stagger_slots"),
    "calibrate": ("b_rach_slots",),
}
SCENARIOS = tuple(SWEEPS)


def _list_of(conv):
    """Converter of a comma-separated list whose items convert with conv."""
    return lambda s: [conv(v.strip()) for v in s.split(",") if v.strip()]


# file keys -> (target, attribute, converter); unit suffixes make the file
# self-documenting
_KEYMAP = {
    "scenario": ("spec", "scenario", str),
    "trials": ("spec", "trials", int),
    "seed": ("spec", "seed", int),
    "out_dir": ("spec", "out_dir", str),
    "workers": ("spec", "workers", int),
    "b_rach_slots": ("spec", "b", int),
    "bcl_p_t_dbm": ("spec", "bcl_p_t_dbm", float),
    "coding_gain_db": ("spec", "coding_gain_db", float),
    "dump_pmfs": ("spec", "dump_pmfs", lambda s: s.lower() in ("1", "true", "yes")),
    "interference_radius_m": ("spec", "interference_radius", float),
    "two_stagger_slots": ("spec", "two_stagger_slots", int),
    "p_t_dbm_list": ("spec", "p_t_dbm_list", _list_of(float)),
    "rho_per_km2_list": ("spec", "rho_per_km2_list", _list_of(float)),
    "b_list": ("spec", "b_list", _list_of(int)),
    "mcs_list": ("spec", "mcs_list", _list_of(str)),
    "w_list_m": ("spec", "w_list", _list_of(float)),

    "rho_per_km2": ("field", "rho", lambda s: float(s) * 1e-6),
    "epsilon": ("field", "epsilon", float),
    "length_m": ("field", "length", float),
    "strip_width_m": ("field", "w", float),
    "field_margin_m": ("field", "field_margin", float),

    "lambda_m": ("phy", "lambda_c", float),
    "alpha": ("phy", "alpha", float),
    "n_subcarriers": ("phy", "n_s", int),
    "p_n_w": ("phy", "p_n", float),
    "p_t_dbm": ("phy", "p_t", lambda s: dbm_to_watts(float(s))),
    "gamma_t_db": ("phy", "gamma_t", lambda s: db_to_linear(float(s))),
    "tau": ("phy", "tau", float),
    "t_cp_s": ("phy", "t_cp", float),
    "t_p_s": ("phy", "t_p", float),
    "t_id_s": ("phy", "t_id", float),
    "p_rx_w": ("phy", "p_rx", float),
    "rate_bps": ("phy", "r", float),
    "symbol_rate_sps": ("phy", "symbol_rate", float),
    "t_guard_s": ("phy", "t_guard", float),
    "delta_r_m": ("phy", "delta_r", float),

    "n_r_max": ("policy", "n_r_max", int),
    "delta_w_m": ("policy", "delta_w", float),
    "fa_rate": ("policy", "fa_rate", float),

    "bcl_n_p": ("bcl", "n_p", int),
    "bcl_t_s_s": ("bcl", "t_s", float),
}


def parse_config(text: str, **overrides) -> ExperimentSpec:
    """Parse `key = value` lines into a spec; '#' starts a comment.

    `overrides` set ExperimentSpec fields over the file's keys before the
    spec is validated. Raises ConfigError with one line-referenced
    diagnostic per problem.
    """
    spec = ExperimentSpec()
    updates: dict[str, dict] = {k: {} for k in ("field", "phy", "policy", "bcl")}
    diags = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            diags.append(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
            continue
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KEYMAP:
            diags.append(f"line {lineno}: unknown key '{key}'")
            continue
        target, attr, conv = _KEYMAP[key]
        try:
            parsed = conv(value)
        except ValueError as exc:
            diags.append(f"line {lineno}: {key}: {exc}")
            continue
        if target == "spec":
            setattr(spec, attr, parsed)
        else:
            updates[target][attr] = parsed

    if diags:
        raise ConfigError(diags)

    for part, changes in updates.items():
        try:
            setattr(spec, part, replace(getattr(spec, part), **changes))
        except ValueError as exc:
            diags.append(f"{part}: {exc}")
    spec = replace(spec, **overrides)
    diags += spec.validate()
    if diags:
        raise ConfigError(diags)
    return spec


def load_config(path: str, **overrides) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), **overrides)
