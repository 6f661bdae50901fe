"""Pin the parsed ``analysis/zones.toml``.

Every lint rule is scoped by the :class:`~repro.analysis.zones.ZoneConfig`
that :func:`~repro.analysis.zones.load_zone_config` builds from the
committed file.  This test hashes the canonical JSON of that config —
every section, with the ``[protocol]`` order rules in their parsed
:class:`~repro.analysis.zones.OrderRule` form — so a change to how the
file is written or read must leave the digest alone.  Only a change to
what the config *says* moves it; re-pin that in a commit that says so.

``python tests/analysis/test_zone_config_pin.py`` prints the current
digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.analysis import load_zone_config

REPO_ROOT = Path(__file__).resolve().parents[2]

CONFIG_DIGEST = "9af36141e93430ce45f2f6e998015d12f26755f0b97d4a8845290027177da892"


def config_digest() -> str:
    config = load_zone_config(REPO_ROOT / "analysis" / "zones.toml")
    data = dataclasses.asdict(config)
    data["zones"] = {zone.value: patterns for zone, patterns in data["zones"].items()}
    canonical = json.dumps(data, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_zone_config_digest_is_pinned():
    assert config_digest() == CONFIG_DIGEST, (
        "the parsed analysis/zones.toml changed; if the policy change is "
        "intended, re-pin CONFIG_DIGEST in a commit that says so"
    )


if __name__ == "__main__":
    print(config_digest())
