"""Content-addressed artifact fingerprints.

Every pipeline stage output is identified by a fingerprint: the SHA-256
of a canonical-JSON description of *everything the stage result depends
on* — benchmark source text, the SpD heuristic knobs, the grafting
configuration, the machine's latency table and issue width, and a
pipeline version salt.  Two runs with identical inputs therefore share
cache entries; changing any knob (or bumping :data:`PIPELINE_VERSION`
after a behavioural change to the toolchain) changes every downstream
fingerprint and the old entries are simply never looked up again.

Stage fingerprints chain: the profile fingerprint embeds the compile
fingerprint, the view fingerprint embeds both, and the timing
fingerprint embeds the view fingerprint plus the machine.  A change to
the source text thus invalidates all four stages at once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict, Optional

from ..disambig.spd_heuristic import SpDConfig
from ..frontend.grafting import GraftConfig
from ..machine.description import LifeMachine
from ..machine.hw import HwMachine
from ..passes import PassPipelineConfig

__all__ = ["PIPELINE_VERSION", "fingerprint", "spd_config_key",
           "graft_config_key", "machine_key", "hw_machine_key",
           "latency_key", "pass_pipeline_key"]

#: Bump whenever a toolchain change alters any stage's output or the
#: pickled artifact layout: old on-disk entries become unreachable (and
#: are discarded on sight by the store's version check).
#: 2: DisambiguationResult grew the ``pass_stats`` field (pass-manager
#: refactor); version-1 view artifacts lack it.
#: 3: execution-engine refactor — profile/view fingerprints gained the
#: ``engine`` key, and pickled LatencyTable instances grew the cached
#: category lookup table older payloads lack.
#: 4: the frozen IR values gained ``__slots__`` and pickle positionally
#: through their constructors, and dependence graphs stopped pickling
#: their adjacency lists; version-3 payloads carry instance dicts.
#: 5: dependence graphs pickle their arcs as one packed int tuple (and
#: decode it on first use); version-4 payloads carry ``Arc`` lists.
#: 6: each arc is generated once, exit reads in operand order, so the
#: packed arc order changed (it followed ``PYTHONHASHSEED`` before);
#: pickled LatencyTable instances carry their fields only.
#: 7: decision trees pickle as their name, size and one flat tuple
#: (:mod:`repro.ir.treepack`), decoded on first use; version-6 payloads
#: carry ``Operation`` and ``TreeExit`` objects.
PIPELINE_VERSION = 7


def fingerprint(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON of *payload* + the version salt."""
    body = {"pipeline_version": PIPELINE_VERSION, **payload}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def spd_config_key(config: SpDConfig) -> Dict[str, object]:
    """All SpD heuristic knobs, as a JSON-stable dict."""
    return asdict(config)


def graft_config_key(config: Optional[GraftConfig]) -> Optional[Dict[str, object]]:
    """Grafting bounds (or ``None`` when grafting is off)."""
    return None if config is None else asdict(config)


def latency_key(machine: LifeMachine) -> Dict[str, object]:
    """The full latency table — any latency change invalidates."""
    return asdict(machine.latencies)


def machine_key(machine: LifeMachine) -> Dict[str, object]:
    """Issue width plus the full latency table."""
    return {"num_fus": machine.num_fus, "latencies": latency_key(machine)}


def hw_machine_key(machine: HwMachine) -> Dict[str, object]:
    """Every knob of a dynamically scheduled machine configuration."""
    return {"num_fus": machine.num_fus, "window": machine.window,
            "predictor": machine.predictor,
            "replay_penalty": machine.replay_penalty,
            "latencies": asdict(machine.latencies)}


def pass_pipeline_key(config: PassPipelineConfig) -> Dict[str, object]:
    """The cache-relevant pass-pipeline configuration (the pass list and
    any pass options; observational knobs like ``dump_after`` and
    ``validate`` are excluded by :meth:`PassPipelineConfig.cache_key`)."""
    return config.cache_key()
