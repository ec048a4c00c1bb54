"""Experiment configuration: defaults, key/value files, validation diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import partial
from typing import NamedTuple

from .analytic import check_recursion_slots
from .baseline import FIELD_REACHES, BclConfig
from .channel import PhyConfig, detection_constant
from .engine import (TWO_PACKET_SOURCES, RetransmitPolicy, check_rach_slots,
                     check_stagger_slots, field_width)
from .field import FieldConfig, Point2D, field_extent
from .metrics import db_to_linear, mcs_table

MAX_FIELD_NODES = 1e7  # mean node count of the largest field a run may draw


class ConfigError(ValueError):
    """Invalid configuration; carries line-referenced diagnostics."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(diagnostics))


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
        """Every rule the spec breaks, as plan's diagnostics (empty when
        valid); field, phy, policy and bcl are valid by construction."""
        return plan(self)[1]


def mcs_phy(spec: ExperimentSpec, name: str) -> PhyConfig:
    """spec.phy with the detection threshold and data rate of MCS `name`."""
    table = {m.name: m for m in mcs_table(spec.coding_gain_db)}
    if name not in table:
        raise ValueError(f"unknown MCS '{name}' (known: {', '.join(table)})")
    return replace(spec.phy, gamma_t=table[name].gamma_t,
                   r=table[name].rate(spec.phy.symbol_rate))


class Point(NamedTuple):
    """One sweep point: protocol, inputs, seed, and its rows' coordinates."""

    protocol: str                 # "omr" or "bcl"
    field: FieldConfig
    phy: PhyConfig
    b: int | None                 # RACH slots; None for the baseline
    trials: int
    seed: int                     # keyed by scenario and coordinates in plan();
                                  # trial i runs on child i of its sequence
    rho_km2: float | None = None
    p_t_dbm: float | None = None
    mcs: str = ""


def _slot_counts(spec: ExperimentSpec, axis, key: str = "b_rach_slots"):
    """The slot counts under key that pass the RACH rule and, where the
    scenario runs it, the recursion's."""
    def check(b: int) -> int:
        check_rach_slots(b)
        if spec.scenario in ("analytic", "retransmissions"):
            try:
                check_recursion_slots(b)
            except ValueError as exc:
                raise ValueError(f"scenario '{spec.scenario}': {exc}") from None
        return b
    return axis(key, check)


def _bcl_refs(spec: ExperimentSpec, axis, base: Point, mcs: str = ""):
    """The baseline point at bcl_p_t_dbm that a cost-ratio sweep divides by,
    on spec.phy or on MCS mcs's copy of it."""
    return [base._replace(protocol="bcl", phy=phy, b=None, mcs=mcs,
                          trials=max(100, spec.trials // 5),
                          p_t_dbm=spec.bcl_p_t_dbm)
            for phy in axis("bcl_p_t_dbm", lambda p: (
                mcs_phy(spec, mcs) if mcs else spec.phy).with_tx_power(
                    dbm_to_watts(p)))]


def _plan_one(spec: ExperimentSpec, axis, base: Point) -> list[Point]:
    return [base._replace(b=b) for b in _slot_counts(spec, axis)]


def _plan_powers(spec: ExperimentSpec, axis, base: Point, bcl: bool):
    """The density-major density x power grid; with bcl, each density's
    points open with its baseline reference."""
    densities = axis("rho_per_km2_list",
                     lambda r: (r, replace(spec.field, rho=r * 1e-6)))
    powers = axis("p_t_dbm_list", lambda p: base._replace(
        phy=spec.phy.with_tx_power(dbm_to_watts(p)), p_t_dbm=p))
    refs = _bcl_refs(spec, axis, base) if bcl else []
    _slot_counts(spec, axis)
    return [point._replace(field=field, rho_km2=rho_km2)
            for rho_km2, field in densities for point in refs + powers]


def _plan_compare_b(spec: ExperimentSpec, axis, base: Point) -> list[Point]:
    return _bcl_refs(spec, axis, base) + [
        base._replace(b=b) for b in _slot_counts(spec, axis, "b_list")]


def _plan_compare_mcs(spec: ExperimentSpec, axis, base: Point) -> list[Point]:
    """Each MCS in mcs_list against the baseline running coherent QPSK."""
    schemes = axis("mcs_list", lambda name: base._replace(
        phy=mcs_phy(spec, name), mcs=name))
    refs = _bcl_refs(spec, axis, base, "QPSK-coherent")
    _slot_counts(spec, axis)
    return refs + schemes


def _plan_delay_spread(spec: ExperimentSpec, axis, base: Point) -> list[Point]:
    densities = axis("rho_per_km2_list",
                     lambda r: (r, replace(spec.field, rho=r * 1e-6)))
    widths = axis("w_list_m", lambda w: replace(spec.field, w=w).w)
    _slot_counts(spec, axis)
    return [base._replace(field=replace(field, w=w), rho_km2=rho_km2)
            for rho_km2, field in densities for w in widths]


def _plan_two_packets(spec: ExperimentSpec, axis, base: Point) -> list[Point]:
    # no sweep: the scenario's one two-flow run is seeded by spec.seed itself
    _slot_counts(spec, axis)
    axis("two_stagger_slots", lambda s: check_stagger_slots(
        s, spec.field, spec.phy, spec.policy))
    return []


# scenario -> its plan(spec, axis, base), base being the OMR point on the
# spec's own inputs; the scenario list is this table's keys
PLANS = {
    "omr-trials": _plan_one,
    "bcl-trials": lambda spec, axis, base: [
        ref._replace(trials=spec.trials)
        for ref in _bcl_refs(spec, axis, base)],
    "analytic": lambda spec, axis, base: [
        point._replace(trials=max(200, spec.trials // 5))
        for point in _plan_one(spec, axis, base)],
    "compare-power": partial(_plan_powers, bcl=True),
    "compare-B": _plan_compare_b,
    "compare-mcs": _plan_compare_mcs,
    "delay-spread": _plan_delay_spread,
    "retransmissions": partial(_plan_powers, bcl=False),
    "two-packets": _plan_two_packets,
    "calibrate": _plan_one,
}
SCENARIOS = tuple(PLANS)


def plan(spec: ExperimentSpec) -> tuple[list[Point], list[str]]:
    """The scenario's points in run order, and the spec's one check: a
    diagnostic per spec-level rule broken, and a `<config key>: <problem>`
    one per value the points cannot be built from, per repeated value and
    per empty sweep axis; the points are only whole when there is none."""
    diags = []
    if spec.scenario not in PLANS:
        diags.append(f"scenario must be one of {SCENARIOS}, got "
                     f"'{spec.scenario}'")
    if spec.trials < 1:
        diags.append(f"trials must be >= 1, got {spec.trials}")
    if spec.seed < 0:
        diags.append(f"seed must be >= 0, got {spec.seed}")
    if spec.workers < 0:
        diags.append("workers must be >= 0")

    def axis(key: str, build) -> list:
        """build(value) of each value of key that builds; a scalar is a
        one-value axis. A repeated value is a problem: its points would
        share coordinates, and so one seed."""
        values = getattr(spec, _KEYMAP[key][1])
        if values == []:
            diags.append(f"{key}: scenario '{spec.scenario}' needs a "
                         f"non-empty sweep axis")
        values = values if isinstance(values, list) else [values]
        built = []
        for i, value in enumerate(values):
            if value in values[:i]:
                diags.append(f"{key}: repeats {value}")
                continue
            try:
                built.append(build(value))
            except ValueError as exc:
                diags.append(f"{key}: {exc}")
        return built

    base = Point("omr", spec.field, spec.phy, spec.b, spec.trials, spec.seed,
                 spec.field.rho * 1e6, round(watts_to_dbm(spec.phy.p_t), 6))
    points = (PLANS[spec.scenario](spec, axis, base)
              if spec.scenario in PLANS else [])
    # the field-size rule, over the field each point's run draws (for the
    # two-packet run, the base point's): BCL's is FIELD_REACHES ranges wide
    two = spec.scenario == "two-packets"
    srcs = TWO_PACKET_SOURCES if two else [Point2D(0.0, 0.0)]
    for p in [base] if two else points:
        width = (FIELD_REACHES * detection_constant(p.phy).single_relay_radius
                 if p.protocol == "bcl"
                 else field_width(p.field, spec.policy, srcs))
        nodes = field_extent(p.field, width)[1]
        problem = (f"field size: the {p.protocol.upper()} field at "
                   f"{p.rho_km2:g} per km2 holds {nodes:.3g} nodes on average, "
                   f"more than {MAX_FIELD_NODES:.0e}")
        if not (nodes <= MAX_FIELD_NODES) and problem not in diags:
            diags.append(problem)
    if not (spec.interference_radius > 0):
        diags.append("interference_radius must be positive")
    # the one seed rule: a point's seed is its key's repr read as an integer,
    # so points with distinct coordinates never share a seed, and a point
    # keeps its seed when another value joins its axis
    return [p._replace(seed=int.from_bytes(repr((
        spec.seed, spec.scenario, p.protocol, p.rho_km2, p.p_t_dbm, p.b,
        p.mcs, p.field.w)).encode(), "big")) for p in points], diags


def _boolean(s: str) -> bool:
    """true/yes/1 or false/no/0, in any case."""
    word = s.lower()
    if word not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"expected true/false/yes/no/1/0, got '{s}'")
    return word in ("true", "yes", "1")


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
    "dump_pmfs": ("spec", "dump_pmfs", _boolean),
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
