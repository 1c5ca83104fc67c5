"""Run configuration: flat dotted-key text files with environment overrides.

File format: one `key = value` per line; a line whose first non-blank
character is '#' is a comment, and a '#' anywhere else belongs to the value.
Every key maps to one field of `RunConfig`; unknown keys are an error, and
so is a key away from its default that the run would ignore, e.g. a
`noise.*` key in the weight domain (checked by `training.config_problem`).
Environment variables named PHOTOPINN_<KEY> (dots replaced by double
underscores, upper-cased, e.g. PHOTOPINN_ZO__QUERIES) override file values;
explicit function arguments override both.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

__all__ = ["RunConfig", "ConfigError", "parse_config", "serialize_config", "load_config"]

ENV_PREFIX = "PHOTOPINN_"


class ConfigError(ValueError):
    pass


# The keys bounded only from below, and their lowest value.  A problem.sigma
# of 0, or a point count of 0, takes the problem's own.
_LOWEST = {
    "problem.sigma": 0, "problem.lambda0": 0, "problem.lambdab": 0,
    "problem.residual_points": 0, "problem.initial_points": 0, "problem.boundary_points": 0,
    "loss.samples": 1, "zo.queries": 1, "opt.iterations": 0,
    "noise.bits": 0, "noise.gamma_std": 0, "noise.seed": 0,
    "run.seed": 0, "run.log_every": 1, "run.eval_every": 0,
}


@dataclass(frozen=True)
class RunConfig:
    # problem
    problem_name: str = "black-scholes"
    problem_sigma: float = 0.0  # 0 -> problem default
    problem_lambda0: float = 1.0
    problem_lambdab: float = 1.0
    problem_margin: float = 0.0
    problem_residual_points: int = 0  # 0 -> problem default count
    problem_initial_points: int = 0
    problem_boundary_points: int = 0
    # model
    model_tensorized: bool = True
    model_rank: int = 2
    model_width: int = 0  # 0 -> problem default
    # loss evaluation
    loss_mode: str = "sg"  # sg (sparse grid) | se (monte-carlo stein)
    loss_level: int = 3
    loss_samples: int = 2048
    # zeroth-order optimizer
    zo_queries: int = 1
    zo_radius: float = 0.01
    zo_distribution: str = ""  # "" -> domain default (gaussian / rademacher)
    zo_grouping: str = "per-tensor"
    # updates
    opt_algorithm: str = "adam"
    opt_lr: float = 1e-3
    opt_beta1: float = 0.9
    opt_beta2: float = 0.999
    opt_eps: float = 1e-8
    opt_iterations: int = 1000
    # domain
    domain: str = "weight"  # weight | phase
    # hardware noise (phase domain)
    noise_bits: int = 8  # 0 disables quantization
    noise_gamma_std: float = 0.002
    noise_crosstalk: float = 0.005
    noise_phase_bias: bool = False
    noise_seed: int = 0
    # run control
    run_seed: int = 0
    run_seeds: tuple[int, ...] = ()  # non-empty -> multi-seed run, overrides run_seed
    run_out_dir: str = "artifacts/runs"
    run_oracle_dir: str = "artifacts/oracles"
    run_log_every: int = 100
    run_eval_every: int = 1000
    run_target_rel_l2: float = 0.0  # > 0 -> stop early once the hold-out metric reaches it

    def __post_init__(self):
        for key, lowest in _LOWEST.items():
            value = getattr(self, key.replace(".", "_"))
            if not value >= lowest:
                raise ConfigError(f"{key} must be >= {lowest}, got {value!r}")
        if min(self.run_seeds, default=0) < 0:  # NumPy seeds must be non-negative
            raise ConfigError(f"run.seeds must all be >= 0, got {self.run_seeds!r}")
        if len(set(self.run_seeds)) < len(self.run_seeds):  # a repeat would train into the same directory
            raise ConfigError(f"run.seeds must not repeat a seed, got {self.run_seeds!r}")
        if self.domain not in ("weight", "phase"):
            raise ConfigError(f"domain must be weight|phase, got {self.domain!r}")
        if self.loss_mode not in ("sg", "se"):
            raise ConfigError(f"loss.mode must be sg|se, got {self.loss_mode!r}")
        if self.loss_level not in (1, 2, 3):
            raise ConfigError(f"loss.level must be 1|2|3, got {self.loss_level}")
        if self.opt_algorithm not in ("adam", "sgd"):
            raise ConfigError(f"opt.algorithm must be adam|sgd, got {self.opt_algorithm!r}")
        if not self.zo_radius > 0:
            raise ConfigError(f"zo.radius must be > 0, got {self.zo_radius!r}")
        if self.zo_distribution not in ("", "gaussian", "rademacher"):
            raise ConfigError(f"zo.distribution must be gaussian|rademacher, got {self.zo_distribution!r}")
        if self.zo_grouping not in ("global", "per-tensor"):
            raise ConfigError(f"zo.grouping must be global|per-tensor, got {self.zo_grouping!r}")
        if not self.opt_lr > 0:
            raise ConfigError(f"opt.lr must be > 0, got {self.opt_lr!r}")
        for name in ("beta1", "beta2"):
            beta = getattr(self, f"opt_{name}")
            if not 0 <= beta < 1:
                raise ConfigError(f"opt.{name} must be in [0, 1), got {beta!r}")
        if not self.opt_eps > 0:
            raise ConfigError(f"opt.eps must be > 0, got {self.opt_eps!r}")
        if not 0 <= self.noise_crosstalk < 1:
            raise ConfigError(f"noise.crosstalk must be in [0, 1), got {self.noise_crosstalk!r}")
        if not 0 <= self.problem_margin < 0.5:
            raise ConfigError(f"problem.margin must be in [0, 0.5), got {self.problem_margin!r}")

    @property
    def seeds(self) -> tuple[int, ...]:
        return self.run_seeds if self.run_seeds else (self.run_seed,)

    def zo_distribution_effective(self) -> str:
        if self.zo_distribution:
            return self.zo_distribution
        return "rademacher" if self.domain == "phase" else "gaussian"

    def zo_radius_effective(self) -> float:
        # phase programming cannot move by less than one quantization level
        if self.domain == "phase" and self.noise_bits > 0:
            import math

            return 2.0 * math.pi / (1 << self.noise_bits)
        return self.zo_radius


def _dotted(name: str) -> str:
    return name.replace("_", ".", 1)


_KEY_TO_FIELD = {_dotted(f.name): f for f in fields(RunConfig)}


def _parse_value(f, raw: str):
    raw = raw.strip()
    # `from __future__ import annotations` leaves every field type as its source text, e.g. 'tuple[int, ...]'
    if f.type == "bool":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{_dotted(f.name)}: expected a boolean, got {raw!r}")
    try:
        if f.type == "int":
            expected = "an integer"
            return int(raw)
        if f.type == "float":
            expected = "a number"
            return float(raw)
        if f.type.startswith("tuple"):
            expected = "comma-separated integers"
            return tuple(int(v) for v in raw.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{_dotted(f.name)}: expected {expected}, got {raw!r}") from None
    return raw


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text: str, apply_env: bool = True) -> RunConfig:
    values = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        f = _KEY_TO_FIELD[key]
        values[f.name] = _parse_value(f, raw)
    if apply_env:
        for key, f in _KEY_TO_FIELD.items():
            env_name = ENV_PREFIX + key.replace(".", "__").upper()
            if env_name in os.environ:
                values[f.name] = _parse_value(f, os.environ[env_name])
    try:
        return RunConfig(**values)
    except TypeError as exc:  # pragma: no cover
        raise ConfigError(str(exc))


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        lines.append(f"{_dotted(f.name)} = {_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def load_config(path, apply_env: bool = True, **overrides) -> RunConfig:
    with open(path) as fh:
        cfg = parse_config(fh.read(), apply_env=apply_env)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg
