"""Bundled default configs and the MEMBRANE_LAB_CONFIG override hook."""

from __future__ import annotations

import json
import os
from pathlib import Path

ENV_VAR = "MEMBRANE_LAB_CONFIG"


def config_dir() -> Path:
    """Directory the bundled configs are read from (env var overrides)."""
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def _read(name: str) -> str:
    return (config_dir() / name).read_text()


def load_default_templates() -> dict[str, tuple[StrokeTemplate, str]]:
    """name -> (template, which reference head it plays on)."""
    from .synth import StrokeTemplate

    doc = json.loads(_read("stroke_templates.json"))
    out = {}
    for entry in doc["strokes"]:
        tpl = StrokeTemplate.from_json_dict(entry["template"])
        out[tpl.name] = (tpl, entry.get("head", "right"))
    return out


def load_profile(name: str) -> RadialDensityProfile:
    from .membrane import RadialDensityProfile

    return RadialDensityProfile.loads(_read(name))


def load_layer_sequence() -> dict:
    return json.loads(_read("layer_sequence.json"))
