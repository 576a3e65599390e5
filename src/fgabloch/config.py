"""Run configuration and run reports (flat structured-text documents).

A RunConfig is an INI document with sections [potential], [numerics],
[initial], [run], [tolerances]; every numeric field is range-checked at
parse.  CLI overrides arrive as repeatable `--set section.key=value` items.
Reports serialize the resolved configuration alongside invariant-monitor
summaries, error norms and per-stage wall-clock timings, and round-trip
through their text form unchanged.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .potentials import ExternalPotential, PeriodicPotential, parse_external


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _format_value(kind, val) -> str:
    """Config text of a field value; set_value parses it back."""
    if kind == "floats":
        return ",".join(repr(float(v)) for v in val)
    if kind == "ints":
        return ",".join(str(int(v)) for v in val)
    if kind is bool:
        return "true" if val else "false"
    if kind is float:
        return repr(float(val))
    return str(val)


def parse_lattice_spec(spec: str, dimension: int, amplitude: float = 1.0) -> PeriodicPotential:
    """Lattice potential from a config value.

    Accepts 'zero', 'cosine', 'file:PATH', or inline coefficients
    'k:re:im, k:re:im' (d = 1) / 'kx,ky:re:im' (d = 2).
    """
    spec = spec.strip()
    if spec in ("zero", "0", "none", ""):
        return PeriodicPotential.zero(dimension)
    if spec == "cosine":
        return PeriodicPotential.cosine(dimension, amplitude)
    if spec.startswith("file:"):
        with open(spec[5:].strip()) as fh:
            return PeriodicPotential.from_text(fh.read())
    coeffs = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad lattice coefficient {item!r} (want k:re:im)")
        kpart, re_s, im_s = parts
        k = tuple(int(c) for c in kpart.split())
        if len(k) != dimension:
            raise ConfigError(f"coefficient key {kpart!r} has wrong dimension")
        coeffs[k] = complex(float(re_s), float(im_s))
    try:
        return PeriodicPotential(dimension=dimension, coefficients=coeffs)
    except Exception as exc:
        raise ConfigError(f"invalid lattice potential: {exc}") from exc


@dataclass
class RunConfig:
    # [potential]
    dimension: int = 1
    lattice_spec: str = "cosine"
    lattice_amplitude: float = 1.0
    external_spec: str = "zero"
    # [numerics]
    eps_list: tuple = (1 / 32,)
    brillouin_m: int = 64
    m_auto: bool = True
    cutoff: int = 16
    n_bands: int = 8
    c_g: float = 0.5
    r_c: float = 8.0
    dt: float = 1e-3
    x_per_cell: int = 16
    ref_x_per_cell: int = 32
    ref_dt_divisor: float = 40.0
    seed_threshold: float = 1e-8
    a1: bool = False
    # [initial]
    initial_type: str = "gaussian-packet"
    q0: float = 2.0
    p0: float = 0.5
    width: float = 1.0
    initial_file: str = ""
    # [run]
    length: float = 4.0
    t_final: float = 0.5
    bands: tuple = (1,)
    recon_bands: int = 8
    checkpoints: tuple = ()          # empty -> {0, T/2, T}
    out_dir: str = "out"
    compare_reference: bool = False
    # [tolerances]
    gap_guard_factor: float = 10.0
    mem_limit_gb: float = 2.0
    floor_tol: float = 1e-6

    def lattice(self) -> PeriodicPotential:
        return parse_lattice_spec(self.lattice_spec, self.dimension, self.lattice_amplitude)

    def external(self) -> ExternalPotential:
        try:
            return parse_external(self.external_spec, self.dimension)
        except Exception as exc:
            raise ConfigError(f"invalid external potential: {exc}") from exc

    @property
    def eps(self) -> float:
        if len(self.eps_list) != 1:
            raise ConfigError("this command needs a single eps; got a list")
        return self.eps_list[0]

    def checkpoint_times(self):
        if self.checkpoints:
            return sorted(set(self.checkpoints) | {self.t_final})
        return sorted({0.0, self.t_final / 2, self.t_final})

    def validate(self):
        if self.dimension not in (1, 2):
            raise ConfigError("dimension must be 1 or 2")
        for eps in self.eps_list:
            if not 0 < eps <= 1:
                raise ConfigError(f"eps = {eps} outside (0, 1]")
            ratio = self.length / eps
            if abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(f"L/eps = {ratio} is not an integer")
        if not _is_power_of_two(self.brillouin_m):
            raise ConfigError(f"M = {self.brillouin_m} is not a power of two")
        if self.cutoff < 1:
            raise ConfigError("cutoff must be >= 1")
        if self.n_bands < 1 or self.n_bands > (2 * self.cutoff + 1) ** self.dimension:
            raise ConfigError("n_bands outside the plane-wave basis size")
        if self.c_g <= 0 or self.r_c < 4:
            raise ConfigError("need c_g > 0 and r_c >= 4")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.x_per_cell < 8:
            raise ConfigError("x_per_cell must be >= 8")
        if self.ref_x_per_cell < 32:
            raise ConfigError("ref_x_per_cell must be >= 32")
        if self.compare_reference and self.dimension != 1:
            raise ConfigError("compare_reference needs dimension = 1: the reference "
                              "solver is one-dimensional")
        if self.compare_reference and self.ref_x_per_cell % self.x_per_cell:
            raise ConfigError(f"compare_reference needs ref_x_per_cell = {self.ref_x_per_cell}"
                              f" to be a multiple of x_per_cell = {self.x_per_cell}")
        if self.ref_dt_divisor < 20:
            raise ConfigError("ref_dt_divisor must be >= 20")
        if not 0 <= self.seed_threshold < 1:
            raise ConfigError("seed_threshold must lie in [0, 1)")
        if self.initial_type not in ("gaussian-packet", "wavefield-file"):
            raise ConfigError(f"unknown initial type {self.initial_type!r}")
        if self.initial_type == "wavefield-file" and not self.initial_file:
            raise ConfigError("initial_file required for wavefield-file input")
        if self.width <= 0:
            raise ConfigError("packet width must be positive")
        if self.t_final < 0:
            raise ConfigError("T must be nonnegative")
        if not self.bands or any(b < 1 for b in self.bands):
            raise ConfigError("band list must contain bands >= 1")
        if max(self.bands) > self.n_bands:
            raise ConfigError("requested band exceeds n_bands")
        if self.recon_bands < 0 or self.recon_bands > self.n_bands:
            raise ConfigError("recon_bands outside 0..n_bands")
        if self.mem_limit_gb <= 0:
            raise ConfigError("mem_limit_gb must be positive")
        for t in self.checkpoints:
            if t < 0 or t > self.t_final + 1e-12:
                raise ConfigError(f"checkpoint {t} outside [0, T]")
        if self.lattice_amplitude != 1.0 and self.lattice_spec.strip() != "cosine":
            raise ConfigError(f"lattice_amplitude = {self.lattice_amplitude!r} scales only "
                              f"lattice_spec = cosine, not {self.lattice_spec!r}")
        self.lattice()
        self.external()
        return self

    # --- text form -------------------------------------------------------

    _LAYOUT = {
        "potential": [("dimension", int), ("lattice_spec", str),
                      ("lattice_amplitude", float), ("external_spec", str)],
        "numerics": [("eps_list", "floats"), ("brillouin_m", int), ("m_auto", bool),
                     ("cutoff", int), ("n_bands", int), ("c_g", float), ("r_c", float),
                     ("dt", float), ("x_per_cell", int), ("ref_x_per_cell", int),
                     ("ref_dt_divisor", float), ("seed_threshold", float), ("a1", bool)],
        "initial": [("initial_type", str), ("q0", float), ("p0", float),
                    ("width", float), ("initial_file", str)],
        "run": [("length", float), ("t_final", float), ("bands", "ints"),
                ("recon_bands", int), ("checkpoints", "floats"), ("out_dir", str),
                ("compare_reference", bool)],
        "tolerances": [("gap_guard_factor", float), ("mem_limit_gb", float),
                       ("floor_tol", float)],
    }
    _ALIASES = {"eps": "eps_list", "M": "brillouin_m", "K": "cutoff",
                "T": "t_final", "L": "length", "V": "lattice_spec",
                "U": "external_spec", "out": "out_dir", "type": "initial_type",
                "file": "initial_file", "d": "dimension"}

    @classmethod
    def _field_kind(cls, name):
        for sect, entries in cls._LAYOUT.items():
            for fname, kind in entries:
                if fname == name:
                    return sect, kind
        raise ConfigError(f"unknown config field {name!r}")

    def to_text(self) -> str:
        buf = io.StringIO()
        for sect, entries in self._LAYOUT.items():
            buf.write(f"[{sect}]\n")
            for fname, kind in entries:
                buf.write(f"{fname} = {_format_value(kind, getattr(self, fname))}\n")
            buf.write("\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.optionxform = str
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        cfg = cls()
        for sect in parser.sections():
            if sect not in cls._LAYOUT:
                raise ConfigError(f"unknown config section [{sect}]")
            for key, raw in parser.items(sect):
                cfg.set_value(key, raw, section=sect)
        return cfg.validate()

    def set_value(self, key: str, raw: str, section: str = None):
        name = self._ALIASES.get(key, key)
        sect, kind = self._field_kind(name)
        if section is not None and sect != section:
            raise ConfigError(f"field {key!r} belongs to [{sect}], not [{section}]")
        raw = raw.strip()
        try:
            if kind == "floats":
                val = tuple(float(v) for v in raw.split(",") if v.strip()) if raw else ()
            elif kind == "ints":
                val = tuple(int(v) for v in raw.split(",") if v.strip()) if raw else ()
            elif kind is bool:
                if raw.lower() not in ("true", "false", "1", "0", "yes", "no"):
                    raise ValueError(f"bad boolean {raw!r}")
                val = raw.lower() in ("true", "1", "yes")
            elif kind is int:
                val = int(raw)
            elif kind is float:
                val = float(raw)
            else:
                val = raw
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
        setattr(self, name, val)

    def apply_overrides(self, overrides):
        """Apply 'section.key=value' or 'key=value' items, then re-validate."""
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not key=value")
            key, val = item.split("=", 1)
            key = key.strip()
            if "." in key:
                sect, key = key.split(".", 1)
                self.set_value(key.strip(), val, section=sect.strip())
            else:
                self.set_value(key, val)
        return self.validate()


class RunReport:
    """Ordered section -> key -> string-value document; round-trip stable."""

    def __init__(self):
        self.sections: dict[str, dict[str, str]] = {}

    def put(self, section: str, key: str, value):
        if isinstance(value, (float, np.floating)):
            value = repr(float(value))
        elif isinstance(value, (int, np.integer, bool)):
            value = str(value)
        self.sections.setdefault(section, {})[key] = str(value)

    def get(self, section: str, key: str) -> str:
        return self.sections[section][key]

    def get_float(self, section: str, key: str) -> float:
        return float(self.sections[section][key])

    def to_text(self) -> str:
        buf = io.StringIO()
        for sect, entries in self.sections.items():
            buf.write(f"[{sect}]\n")
            for key, val in entries.items():
                buf.write(f"{key} = {val}\n")
            buf.write("\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "RunReport":
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"report parse error: {exc}") from exc
        rep = cls()
        for sect in parser.sections():
            for key, val in parser.items(sect):
                rep.put(sect, key, val)
        return rep

    def __eq__(self, other):
        return isinstance(other, RunReport) and self.sections == other.sections

    def embed_config(self, cfg: RunConfig):
        for sect, entries in cfg._LAYOUT.items():
            for fname, kind in entries:
                self.put(f"config.{sect}", fname, _format_value(kind, getattr(cfg, fname)))
