"""Corpus curation: seed grid -> classified candidates -> manifest.

The manifest (``benchmarks/corpus/manifest.json``, schema
``repro.corpus/1``) is the committed identity of the macro-benchmark
corpus: ~1000 entries, each a ``(generator config, seed)`` pair plus
the measured shape features, stratum and a sha256 fingerprint of the
regenerated source.  Program *text* is never committed — the generator
is deterministic (see :mod:`repro.fuzz.generator`), so
:func:`entry_source` rebuilds any entry byte-identically, and
:func:`verify_manifest` proves it.

Curation is stratify-then-select: the seed grid (8 generator configs x
``per_config`` seeds) deliberately overshoots, every candidate is
classified by :func:`repro.corpus.features.stratum_of`, and
:func:`select_entries` draws a per-stratum quota so no shape class
drowns out the rest.  Selection is a pure function of the candidate
*set* — grouping and quota assignment sort by stratum name and then by
``(ops, id)``, so the result is independent of dict iteration order
and of the order candidates were produced in.

A ``smoke`` flag marks a ~30-program cross-section (the smallest entry
of each stratum, then the next-smallest round-robin): big enough to
touch every stratum, small enough for a CI gate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..fuzz.generator import (GENERATOR_VERSION, GeneratorConfig,
                              config_from_dict, config_to_dict,
                              generate_program, program_seed)
from ..pipeline.executor import worker_pool
from .features import extract_features, compiled_ops, stratum_of

__all__ = ["CORPUS_SCHEMA", "DEFAULT_MANIFEST_PATH", "CONFIG_TIERS",
           "BuildSpec", "Candidate", "build_manifest", "select_entries",
           "mark_smoke", "entry_source", "entry_config", "load_manifest",
           "write_manifest", "verify_manifest", "manifest_stats",
           "select_bench_entries"]

#: Version tag of the corpus manifest payload.
CORPUS_SCHEMA = "repro.corpus/1"

#: Repo-root-relative default location of the committed manifest.
DEFAULT_MANIFEST_PATH = Path("benchmarks") / "corpus" / "manifest.json"

#: The seed-grid generator configurations: four size tiers crossed with
#: two alias biases.  Tier budgets were calibrated so the measured op
#: counts sweep from well below the paper's kernels (~40 ops) to well
#: above (~1500 ops); the small tier drops the 2-D array so its dump
#: tail stays flat and the ``loop`` control stratum is populated.
CONFIG_TIERS: Dict[str, GeneratorConfig] = {
    "s-lo": GeneratorConfig(max_toplevel_stmts=4, max_block_stmts=2,
                            max_depth=1, enable_matrix=False,
                            enable_while=False, alias_bias=0.25),
    "s-hi": GeneratorConfig(max_toplevel_stmts=4, max_block_stmts=2,
                            max_depth=1, enable_matrix=False,
                            enable_while=False, alias_bias=0.75),
    "m-lo": GeneratorConfig(max_toplevel_stmts=8, max_block_stmts=3,
                            max_depth=2, alias_bias=0.25),
    "m-hi": GeneratorConfig(max_toplevel_stmts=8, max_block_stmts=3,
                            max_depth=2, alias_bias=0.75),
    "l-lo": GeneratorConfig(max_toplevel_stmts=14, max_block_stmts=4,
                            max_depth=2, array_size=32, alias_bias=0.25),
    "l-hi": GeneratorConfig(max_toplevel_stmts=14, max_block_stmts=4,
                            max_depth=2, array_size=32, alias_bias=0.75),
    "x-lo": GeneratorConfig(max_toplevel_stmts=24, max_block_stmts=5,
                            max_depth=3, array_size=32, loop_bound_max=8,
                            alias_bias=0.25),
    "x-hi": GeneratorConfig(max_toplevel_stmts=24, max_block_stmts=5,
                            max_depth=3, array_size=32, loop_bound_max=8,
                            alias_bias=0.75),
}


@dataclass(frozen=True)
class BuildSpec:
    """Knobs of one curation run (recorded in the manifest)."""

    target_size: int = 1000       #: entries to select across all strata
    per_config: int = 170         #: candidate seeds per config tier
    campaign_seed: int = 2026     #: base of the per-config seed streams
    smoke_size: int = 30          #: entries flagged for the CI smoke gate
    configs: Tuple[str, ...] = () #: subset of CONFIG_TIERS ((): all)

    def config_names(self) -> List[str]:
        names = list(self.configs) if self.configs else list(CONFIG_TIERS)
        unknown = sorted(set(names) - set(CONFIG_TIERS))
        if unknown:
            raise ValueError(f"unknown config tier(s): {', '.join(unknown)}")
        return sorted(names)


@dataclass(frozen=True)
class Candidate:
    """One measured grid point, ready for stratified selection."""

    id: str
    config: str
    seed: int
    fingerprint: str
    ops: int
    features: Dict[str, object]
    stratum: str


def _measure(task: Tuple[str, str, int]) -> Candidate:
    """Grid worker: generate + parse + compile one (config, seed)."""
    config_name, entry_id, seed = task
    source = generate_program(seed, CONFIG_TIERS[config_name])
    features = extract_features(source)
    ops = compiled_ops(source)
    return Candidate(
        id=entry_id, config=config_name, seed=seed,
        fingerprint=hashlib.sha256(source.encode("utf-8")).hexdigest(),
        ops=ops, features=features.to_dict(),
        stratum=stratum_of(features, ops))


def _grid(spec: BuildSpec) -> List[Tuple[str, str, int]]:
    """The candidate grid, in deterministic (config, index) order.

    Each config tier gets its own ``program_seed`` stream keyed off the
    campaign seed and the tier's rank, the same convention fuzz
    campaigns use — any entry is reproducible from the manifest alone.
    """
    tasks: List[Tuple[str, str, int]] = []
    for rank, name in enumerate(spec.config_names()):
        for index in range(spec.per_config):
            seed = program_seed(spec.campaign_seed + rank, index)
            tasks.append((name, f"{name}:{index:04d}", seed))
    return tasks


def select_entries(candidates: Sequence[Candidate],
                   target_size: int) -> List[Candidate]:
    """Stratified selection of ~*target_size* candidates.

    Every non-empty stratum gets an equal base quota; leftover slots
    are filled round-robin (sorted stratum order) from strata with
    spare candidates.  Within a stratum candidates are preferred
    smallest-first with the id as tie-break, so reruns and candidate
    *ordering* never change the outcome.

    Coverage beats the head count: every stratum present in the pool
    is always represented, so for a positive target the result size is
    ``min(len(candidates), max(target_size, number of strata))`` — a
    target smaller than the stratum count over-selects rather than
    silently dropping a shape class.  A target of zero selects nothing.
    """
    by_stratum: Dict[str, List[Candidate]] = {}
    for candidate in candidates:
        by_stratum.setdefault(candidate.stratum, []).append(candidate)
    for bucket in by_stratum.values():
        bucket.sort(key=lambda c: (c.ops, c.id))
    strata = sorted(by_stratum)
    if not strata or target_size <= 0:
        return []
    quota = max(1, target_size // len(strata))
    taken: Dict[str, int] = {name: min(quota, len(by_stratum[name]))
                             for name in strata}
    remaining = target_size - sum(taken.values())
    while remaining > 0:
        progressed = False
        for name in strata:
            if remaining <= 0:
                break
            if taken[name] < len(by_stratum[name]):
                taken[name] += 1
                remaining -= 1
                progressed = True
        if not progressed:  # every stratum exhausted
            break
    selected: List[Candidate] = []
    for name in strata:
        selected.extend(by_stratum[name][:taken[name]])
    return selected


def mark_smoke(selected: Sequence[Candidate], smoke_size: int) -> List[str]:
    """Ids of the smoke cross-section: round-robin the smallest unused
    entry of each stratum (sorted order) until *smoke_size* ids are
    picked, so the smoke set touches every stratum before doubling up
    anywhere."""
    by_stratum: Dict[str, List[Candidate]] = {}
    for candidate in selected:
        by_stratum.setdefault(candidate.stratum, []).append(candidate)
    for bucket in by_stratum.values():
        bucket.sort(key=lambda c: (c.ops, c.id))
    smoke: List[str] = []
    round_index = 0
    while len(smoke) < smoke_size:
        advanced = False
        for name in sorted(by_stratum):
            bucket = by_stratum[name]
            if round_index < len(bucket) and len(smoke) < smoke_size:
                smoke.append(bucket[round_index].id)
                advanced = True
        if not advanced:
            break
        round_index += 1
    return sorted(smoke)


def build_manifest(spec: BuildSpec = BuildSpec(), jobs: int = 1,
                   progress: Optional[Callable[[str], None]] = None
                   ) -> Dict[str, object]:
    """Run the full curation and return the manifest payload."""
    tasks = _grid(spec)
    if progress:
        progress(f"measuring {len(tasks)} candidates over "
                 f"{len(spec.config_names())} configs")
    if jobs > 1 and len(tasks) > 1:
        with worker_pool(min(jobs, len(tasks))) as pool:
            candidates = list(pool.map(_measure, tasks, chunksize=16))
    else:
        candidates = [_measure(task) for task in tasks]
    selected = select_entries(candidates, spec.target_size)
    smoke = set(mark_smoke(selected, spec.smoke_size))
    selected.sort(key=lambda c: (c.stratum, c.ops, c.id))
    entries = [{
        "id": candidate.id,
        "config": candidate.config,
        "seed": candidate.seed,
        "stratum": candidate.stratum,
        "smoke": candidate.id in smoke,
        "fingerprint": candidate.fingerprint,
        "ops": candidate.ops,
        "features": candidate.features,
    } for candidate in selected]
    strata: Dict[str, int] = {}
    for entry in entries:
        strata[entry["stratum"]] = strata.get(entry["stratum"], 0) + 1
    if progress:
        progress(f"selected {len(entries)}/{len(candidates)} candidates "
                 f"into {len(strata)} strata ({len(smoke)} smoke)")
    return {
        "schema": CORPUS_SCHEMA,
        "generator_version": GENERATOR_VERSION,
        "build": {
            "target_size": spec.target_size,
            "per_config": spec.per_config,
            "campaign_seed": spec.campaign_seed,
            "smoke_size": spec.smoke_size,
            "candidates": len(candidates),
        },
        "configs": {name: config_to_dict(CONFIG_TIERS[name])
                    for name in spec.config_names()},
        "strata": dict(sorted(strata.items())),
        "entries": entries,
    }


# ---------------------------------------------------------------------------
# manifest I/O and verification
# ---------------------------------------------------------------------------

def entry_config(manifest: Dict[str, object],
                 entry: Dict[str, object]) -> GeneratorConfig:
    """The generator config an entry was produced under."""
    params = manifest["configs"][entry["config"]]
    return config_from_dict(dict(params))


def entry_source(manifest: Dict[str, object],
                 entry: Dict[str, object]) -> str:
    """Regenerate an entry's tinyc source from its seed and config."""
    return generate_program(entry["seed"], entry_config(manifest, entry))


def write_manifest(path: Union[str, Path],
                   manifest: Dict[str, object]) -> None:
    """Write *manifest* as canonical JSON (sorted keys, indent 1)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def load_manifest(path: Union[str, Path]) -> Dict[str, object]:
    """Load a manifest, rejecting foreign or wrong-schema payloads."""
    with open(path) as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict) or "entries" not in manifest:
        raise ValueError(f"{path}: not a corpus manifest")
    schema = manifest.get("schema")
    if schema != CORPUS_SCHEMA:
        raise ValueError(f"{path}: unsupported corpus schema {schema!r} "
                         f"(expected {CORPUS_SCHEMA})")
    return manifest


def verify_manifest(manifest: Dict[str, object], full: bool = False,
                    progress: Optional[Callable[[str], None]] = None
                    ) -> List[str]:
    """Check every entry regenerates to its recorded identity.

    The default pass regenerates each source and compares the sha256
    fingerprint — proof the committed seeds still mean the same
    programs under this generator.  ``full=True`` additionally
    re-measures features, op count and stratum (a frontend run per
    entry, ~10x slower).  Returns a list of problem descriptions,
    empty when the manifest is sound.
    """
    problems: List[str] = []
    version = manifest.get("generator_version")
    if version != GENERATOR_VERSION:
        problems.append(
            f"generator_version {version} != toolchain {GENERATOR_VERSION}")
    entries = manifest["entries"]
    seen_ids: set = set()
    strata: Dict[str, int] = {}
    for index, entry in enumerate(entries):
        entry_id = entry.get("id", f"<entry {index}>")
        if entry_id in seen_ids:
            problems.append(f"{entry_id}: duplicate id")
        seen_ids.add(entry_id)
        try:
            source = entry_source(manifest, entry)
        except (KeyError, TypeError, ValueError) as error:
            problems.append(f"{entry_id}: cannot regenerate: {error}")
            continue
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        if digest != entry["fingerprint"]:
            problems.append(f"{entry_id}: fingerprint mismatch "
                            f"(drifted generator?)")
        strata[entry["stratum"]] = strata.get(entry["stratum"], 0) + 1
        if full:
            features = extract_features(source)
            ops = compiled_ops(source)
            if ops != entry["ops"]:
                problems.append(
                    f"{entry_id}: ops {entry['ops']} != measured {ops}")
            if features.to_dict() != entry["features"]:
                problems.append(f"{entry_id}: features drifted")
            stratum = stratum_of(features, ops)
            if stratum != entry["stratum"]:
                problems.append(f"{entry_id}: stratum {entry['stratum']} "
                                f"!= measured {stratum}")
        if progress and (index + 1) % 200 == 0:
            progress(f"verified {index + 1}/{len(entries)} entries")
    if strata != manifest.get("strata"):
        problems.append("strata summary disagrees with entries")
    if not any(entry.get("smoke") for entry in entries):
        problems.append("no smoke entries flagged")
    return problems


def manifest_stats(manifest: Dict[str, object]) -> Dict[str, object]:
    """JSON-ready per-stratum summary of a loaded manifest."""
    entries = manifest["entries"]
    per_stratum: Dict[str, Dict[str, object]] = {}
    for entry in entries:
        bucket = per_stratum.setdefault(entry["stratum"], {
            "programs": 0, "smoke": 0, "ops": []})
        bucket["programs"] += 1
        bucket["smoke"] += 1 if entry.get("smoke") else 0
        bucket["ops"].append(entry["ops"])
    for bucket in per_stratum.values():
        ops = sorted(bucket.pop("ops"))
        bucket["ops_min"] = ops[0]
        bucket["ops_median"] = ops[len(ops) // 2]
        bucket["ops_max"] = ops[-1]
    return {
        "schema": manifest["schema"],
        "generator_version": manifest["generator_version"],
        "entries": len(entries),
        "smoke_entries": sum(1 for e in entries if e.get("smoke")),
        "strata": dict(sorted(per_stratum.items())),
    }


def select_bench_entries(manifest: Dict[str, object],
                         stratum: Optional[str]) -> List[Dict[str, object]]:
    """The entries a ``repro bench --corpus [--stratum S]`` run covers.

    *stratum* ``None`` selects everything, the pseudo-stratum
    ``"smoke"`` the flagged cross-section, any other name that exact
    stratum.  Unknown names raise with the available choices listed.
    """
    entries = manifest["entries"]
    if stratum is None:
        return list(entries)
    if stratum == "smoke":
        selected = [entry for entry in entries if entry.get("smoke")]
    else:
        selected = [entry for entry in entries
                    if entry["stratum"] == stratum]
    if not selected:
        available = sorted({entry["stratum"] for entry in entries})
        raise ValueError(
            f"stratum {stratum!r} matches no corpus entry; available: "
            f"smoke, {', '.join(available)}")
    return selected
