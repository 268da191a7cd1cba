"""IFS config files and the bundled example catalog.

An IFS config is a JSON document:

    {
      "label": "sierpinski_carpet",
      "ambient_dim": 2,
      "separation": "OSC-assumed",
      "dense_rotations": false,
      "maps": [{"ratio": 0.333..., "angle": 0.0, "translation": [0.0, 0.0]}, ...]
    }

Separation tags are assertions carried by the catalog.  Only "SSC-verified"
is checked numerically: `ifs_from_config` rejects such a config whose
depth-1 cylinder disks are not pairwise disjoint (geometry.verify_ssc).
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .geometry import IFS, SEPARATION_TAGS, Similarity, verify_ssc

__all__ = [
    "ifs_from_config",
    "load_ifs",
    "catalog_names",
    "load_catalog",
]


def ifs_from_config(cfg: dict) -> IFS:
    if not isinstance(cfg, dict) or "maps" not in cfg:
        raise ConfigError("IFS config must be an object with a 'maps' list")
    maps = []
    for i, entry in enumerate(cfg["maps"]):
        try:
            maps.append(
                Similarity(
                    ratio=float(entry["ratio"]),
                    angle=float(entry.get("angle", 0.0)),
                    translation=entry["translation"],
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad map entry {i}: {exc}") from exc
    separation = cfg.get("separation", "unverified")
    if separation not in SEPARATION_TAGS:
        raise ConfigError(f"unknown separation tag {separation!r}")
    ifs = IFS.from_maps(
        maps,
        separation=separation,
        label=cfg.get("label", ""),
        dense_rotations=bool(cfg.get("dense_rotations", False)),
    )
    declared = cfg.get("ambient_dim")
    if declared is not None and int(declared) != ifs.ambient_dim:
        raise ConfigError(
            f"declared ambient_dim {declared} != translation size {ifs.ambient_dim}"
        )
    if separation == "SSC-verified" and not verify_ssc(ifs):
        raise ConfigError("tagged SSC-verified, but its depth-1 cylinder disks overlap")
    return ifs


def catalog_names() -> list[str]:
    files = resources.files("dimlab").joinpath("catalog")
    return sorted(p.name[: -len(".json")] for p in files.iterdir() if p.name.endswith(".json"))


def load_catalog(name: str) -> IFS:
    entry = resources.files("dimlab").joinpath("catalog").joinpath(f"{name}.json")
    try:
        text = entry.read_text()
    except FileNotFoundError:
        raise ConfigError(
            f"no catalog entry {name!r}; available: {', '.join(catalog_names())}"
        ) from None
    return ifs_from_config(json.loads(text))


def load_ifs(path_or_name) -> IFS:
    """Load from a config file path, falling back to the bundled catalog."""
    p = Path(path_or_name)
    if p.exists():
        try:
            return ifs_from_config(json.loads(p.read_text()))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: not valid JSON: {exc}") from exc
    return load_catalog(str(path_or_name))
