"""Flat key/value run configuration.

Format: one ``key = value`` per line, ``#`` comments, nothing nested.
Unknown and repeated keys are hard errors so typos cannot be silently
absorbed.  Any key can be overridden through the environment with the
``HETASYM_`` prefix (e.g. ``HETASYM_V_A=12``), and a ``HETASYM_`` name that
is not a key is an error too.  The command line sets no values.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields

from .errors import ValidationError

ENV_PREFIX = "HETASYM_"


@dataclass
class RunConfig:
    """Every tunable of the pipeline, with the defaults used throughout: each
    library default that mirrors a key is read from this class."""

    seed: int = 12345

    # reference signal
    amplitude_sq: float = 552.0
    n_phases: int = 1000
    pulses_per_phase: int = 1

    # detector
    asymmetry_percent: float = 0.0
    hybrid_phase_error: float = 0.0
    noise_var: float = 1.0

    # phase alignment / noise budget
    v_a: float = 10.0
    block: int = 1
    v_drift_rad2: float = 0.0  # laser drift 2 pi (dv_A + dv_B) |t_R - t_S|

    # key rate
    beta: float = 0.93
    xi_line: float = 0.02
    eta: float = 0.68
    v_elec: float = 0.1
    alpha_db_per_km: float = 0.2
    distance_min_km: float = 0.0
    distance_max_km: float = 60.0
    distance_step_km: float = 1.0
    xi_det_values: str = "0.1091,0.0318,0.0140,0.0032,0.0016,0.0"

    # tomography
    dim: int = 25
    max_iter: int = 2000
    tol: float = 1e-10
    use_true_phase: bool = True
    amplitude_scale: float = 1.0
    wigner_extent: float = 6.0
    wigner_points: int = 121

    def xi_det_list(self) -> list[float]:
        values = [_coerce("xi_det_values", float, tok)
                  for tok in self.xi_det_values.split(",") if tok.strip()]
        if not values:
            raise ValidationError("xi_det_values is empty")
        # == on floats, so 0.01 and 0.010, or 0.0 and -0.0, are one value
        repeated = [value for i, value in enumerate(values) if value in values[:i]]
        if repeated:
            raise ValidationError(f"xi_det_values repeats {repeated[0]!r}; each value "
                                  "is one column of the sweep")
        return values

    def resolved_items(self) -> list[tuple[str, str]]:
        """Stable (key, rendered value) listing used for output headers."""
        return [(f.name, render(getattr(self, f.name))) for f in fields(self)]

    def config_hash(self) -> str:
        # imported here: it loads OpenSSL, and only commands that write a file need it
        import hashlib

        digest = hashlib.sha256()
        for key, value in self.resolved_items():
            digest.update(f"{key} = {value}\n".encode("utf-8"))
        return digest.hexdigest()[:16]


#: The type of every config key, taken from its default.
_KINDS = {f.name: type(f.default) for f in fields(RunConfig)}
#: The config key of every environment name.
_ENV_KEYS = {ENV_PREFIX + key.upper(): key for key in _KINDS}


def render(value) -> str:
    """The text of a value in every output file and the config hash: booleans
    as true/false, floats (numpy's too) in shortest round-trip repr, else str."""
    # no numpy scalar can exist unless numpy is loaded, so this never loads it
    np = sys.modules.get("numpy")
    if isinstance(value, bool) or np is not None and isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, float) or np is not None and isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def _coerce(name: str, kind, text: str):
    text = text.strip()
    try:
        if kind is bool:
            low = text.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if kind is int:
            value = int(text)
        elif kind is float:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError("non-finite value")
        else:
            return text
    except ValueError as exc:
        raise ValidationError(f"config key {name}: cannot parse {text!r} as {kind.__name__}") from exc
    return value


def parse_config_text(text: str) -> RunConfig:
    """Parse ``key = value`` lines over the defaults; unknown and repeated
    keys raise."""
    config = RunConfig()
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KINDS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ValidationError(f"config line {lineno}: key {key!r} is already set "
                                  f"on line {first_line[key]}")
        first_line[key] = lineno
        setattr(config, key, _coerce(key, _KINDS[key], value))
    return config


def load_config(path: str | None, env: dict | None = None) -> RunConfig:
    """Defaults, then the config file (if any), then HETASYM_* environment
    overrides; a HETASYM_* name that is not a config key raises."""
    text = ""
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path}: config file is not UTF-8 ({exc})") from exc
    config = parse_config_text(text)
    env = os.environ if env is None else env
    for env_key in sorted(name for name in env if name.startswith(ENV_PREFIX)):
        if env_key not in _ENV_KEYS:
            raise ValidationError(f"environment variable {env_key}: unknown config key")
        key = _ENV_KEYS[env_key]
        setattr(config, key, _coerce(key, _KINDS[key], env[env_key]))
    return config
