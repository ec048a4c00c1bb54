"""Experiment configuration: defaults, key/value files, validation diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

from .baseline import BclConfig
from .channel import PhyConfig
from .engine import RetransmitPolicy
from .field import FieldConfig
from .metrics import mcs_table

SCENARIOS = (
    "omr-trials",
    "bcl-trials",
    "analytic",
    "compare-power",
    "compare-B",
    "compare-mcs",
    "delay-spread",
    "retransmissions",
    "two-packets",
    "calibrate",
)

# scenarios that run the analytic hop recursion, which needs b >= 3
RECURSION_SCENARIOS = ("analytic", "retransmissions")
# scenarios that sweep the node density over rho_per_km2_list
RHO_SWEEP_SCENARIOS = ("compare-power", "delay-spread", "retransmissions")


class ConfigError(ValueError):
    """Invalid configuration; carries line-referenced diagnostics."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(diagnostics))


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts) + 30.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


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

    # two-packet demo geometry and interference model
    two_src_a: tuple = (0.0, 120.0)
    two_src_b: tuple = (0.0, -120.0)
    two_stagger_slots: int = 0
    interference_radius: float = 600.0

    def validate(self) -> list[str]:
        """All invariant violations as named diagnostics (empty when valid)."""
        diags = []
        if self.scenario not in SCENARIOS:
            diags.append(f"scenario must be one of {SCENARIOS}, got "
                         f"'{self.scenario}'")
        if self.trials < 1:
            diags.append(f"trials must be >= 1, got {self.trials}")
        if self.b < 2:
            diags.append(f"b (RACH slots) must be >= 2, got {self.b}")
        elif self.b < 3 and self.scenario in RECURSION_SCENARIOS:
            diags.append(f"b (RACH slots) must be >= 3 for scenario "
                         f"'{self.scenario}' (analytic recursion), got {self.b}")
        if self.workers < 0:
            diags.append("workers must be >= 0")
        checks = [("field", self.field), ("phy", self.phy),
                  ("policy", self.policy), ("bcl", self.bcl)]
        # a swept value must pass the rule of the config it is swept into
        if self.scenario in RHO_SWEEP_SCENARIOS:
            checks += [("rho_per_km2_list", replace(self.field, rho=r * 1e-6))
                       for r in self.rho_per_km2_list]
        if self.scenario == "delay-spread":
            checks += [("w_list_m", replace(self.field, w=w)) for w in self.w_list]
        errors = {}  # error text -> first source, so a bad field is named once
        for name, cfg in checks:
            try:
                cfg.validate()
            except ValueError as exc:
                errors.setdefault(str(exc), name)
        diags += [f"{name}: {err}" for err, name in errors.items()]
        if self.scenario == "compare-B":
            diags += [f"b_list: RACH slot count b must be >= 2, got {b}"
                      for b in self.b_list if b < 2]
        sweep_needs = {
            "compare-power": self.p_t_dbm_list,
            "compare-B": self.b_list,
            "compare-mcs": self.mcs_list,
            "delay-spread": self.w_list,
        }
        axis = sweep_needs.get(self.scenario)
        if axis is not None and not axis:
            diags.append(f"scenario '{self.scenario}' needs a non-empty sweep axis")
        if self.scenario == "compare-mcs":
            known = [m.name for m in mcs_table()]
            diags += [f"unknown MCS '{name}' (known: {', '.join(known)})"
                      for name in self.mcs_list if name not in known]
        if self.interference_radius <= 0:
            diags.append("interference_radius must be positive")
        if self.two_stagger_slots < 0:
            diags.append(f"two_stagger_slots must be >= 0, got "
                         f"{self.two_stagger_slots}")
        return diags


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

    "bcl_d_m_m": ("bcl", "d_m", lambda s: None if s.lower() == "auto" else float(s)),
    "bcl_n_p": ("bcl", "n_p", int),
    "bcl_t_s_s": ("bcl", "t_s", float),
    "bcl_xi": ("bcl", "xi", lambda s: None if s.lower() == "auto" else float(s)),
}

_LIST_KEYS = {
    "p_t_dbm_list": ("p_t_dbm_list", float),
    "rho_per_km2_list": ("rho_per_km2_list", float),
    "b_list": ("b_list", int),
    "mcs_list": ("mcs_list", str),
    "w_list_m": ("w_list", float),
}


def parse_config(text: str) -> ExperimentSpec:
    """Parse `key = value` lines into a spec; '#' starts a comment.

    Raises ConfigError with one line-referenced diagnostic per problem.
    """
    spec = ExperimentSpec()
    parts = {"field": spec.field, "phy": spec.phy, "policy": spec.policy,
             "bcl": spec.bcl}
    updates: dict[str, dict] = {k: {} for k in parts}
    diags = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            diags.append(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
            continue
        key, value = (s.strip() for s in line.split("=", 1))
        if key in _LIST_KEYS:
            attr, conv = _LIST_KEYS[key]
            try:
                setattr(spec, attr, [conv(v.strip()) for v in value.split(",") if v.strip()])
            except ValueError as exc:
                diags.append(f"line {lineno}: {key}: {exc}")
            continue
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

    spec.field = replace(spec.field, **updates["field"])
    spec.phy = replace(spec.phy, **updates["phy"])
    spec.policy = replace(spec.policy, **updates["policy"])
    for attr, val in updates["bcl"].items():
        setattr(spec.bcl, attr, val)

    diags = spec.validate()
    if diags:
        raise ConfigError(diags)
    return spec


def load_config(path: str) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
