"""Flat ``key = value`` run configuration.

The keys are the fields of ``EncoderConfig`` followed by those of
``TrainPlan``, with their defaults; ``vocab_size``, which ``EncoderConfig``
requires, defaults to 256 (a target; training shrinks it to the vocabulary
the corpus yields). Unknown keys are rejected so typos never pass silently.
A config round-trips through ``to_file``/``from_file``.
"""

from __future__ import annotations

from dataclasses import MISSING, field, fields, make_dataclass, replace

from .errors import ContractError
from .model import EncoderConfig
from .training import TrainPlan

DEFAULT_VOCAB_SIZE = 256


def _schema() -> list[tuple[str, type, object]]:
    out = []
    for owner in (EncoderConfig, TrainPlan):
        for f in fields(owner):
            default = DEFAULT_VOCAB_SIZE if f.default is MISSING else f.default
            # every key has a typed default, so the default's type is the schema
            out.append((f.name, type(default), field(default=default)))
    return out


class _RunConfigMethods:
    @classmethod
    def field_types(cls) -> dict[str, type]:
        return {f.name: f.type for f in fields(cls)}

    @classmethod
    def _coerce(cls, key: str, raw: str):
        kind = cls.field_types()[key]
        try:
            if kind is int:
                return int(raw)
            if kind is float:
                return float(raw)
            return str(raw)
        except ValueError as exc:
            raise ContractError(f"config key {key!r}: cannot parse {raw!r} "
                                f"as {kind.__name__}") from exc

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        values = {}
        known = {f.name for f in fields(cls)}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ContractError(
                        f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in known:
                    raise ContractError(f"{path}:{lineno}: unknown config key {key!r}")
                if key in values:
                    raise ContractError(f"{path}:{lineno}: duplicate key {key!r}")
                values[key] = cls._coerce(key, value)
        return cls(**values)

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for f in fields(self):
                fh.write(f"{f.name} = {getattr(self, f.name)}\n")

    def with_overrides(self, overrides: dict) -> "RunConfig":
        """New config with the given fields replaced; unknown keys error."""
        known = {f.name for f in fields(self)}
        for key in overrides:
            if key not in known:
                raise ContractError(f"unknown config key {key!r}")
        return replace(self, **overrides)

    def _build(self, owner):
        return owner(**{f.name: getattr(self, f.name) for f in fields(owner)})

    def encoder_config(self) -> EncoderConfig:
        return self._build(EncoderConfig)

    def train_plan(self) -> TrainPlan:
        return self._build(TrainPlan)


RunConfig = make_dataclass(
    "RunConfig", _schema(), bases=(_RunConfigMethods,),
    namespace={"__module__": __name__,
               "__doc__": "Every EncoderConfig and TrainPlan field, flat."})
