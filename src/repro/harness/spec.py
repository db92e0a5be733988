"""Declarative sweep specifications.

A :class:`SweepSpec` names one experiment plus a parameter grid and a seed
list; :meth:`SweepSpec.expand` turns it into the full cross-product of
independent :class:`RunSpec` jobs.  Expansion is pure and deterministic:
the same spec always yields the same jobs in the same order, with the same
``run_id`` strings and the same per-run derived RNG seeds — which is what
makes sweeps resumable and worker-count-independent.

Specs are plain JSON documents::

    {
      "name": "fig6-seeds",
      "experiment": "fig6",
      "base": {"trace_scale": 0.02, "duration": 900.0},
      "grid": {"loss_rates": [[0.0], [0.05]]},
      "seeds": [1, 2, 3]
    }

``base`` holds fixed keyword arguments for the experiment's ``run()``;
``grid`` maps parameter names to lists of values to cross; ``seeds`` are
master seeds.  Each job's actual RNG seed is *derived* from its master seed
and its parameter combination (see :func:`derive_run_seed`), so different
grid points never share random streams.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Set, Union

from repro.experiments.resultio import dumps_canonical, num_key
from repro.sim.rng import derive_stream_seed

SPEC_SCHEMA = 1

_RUN_ID_SAFE = re.compile(r"[^A-Za-z0-9._=,-]+")
_MAX_RUN_ID = 100


class SpecError(ValueError):
    """A sweep spec is malformed."""


@dataclass
class RunSpec:
    """One independent job of a sweep."""

    run_id: str
    experiment: str
    params: Dict
    seed: int           # the master seed this job belongs to
    derived_seed: int   # the seed actually passed to the experiment's run()


def derive_run_seed(master_seed: int, experiment: str, params: Dict) -> int:
    """Per-job RNG seed: independent across parameter combinations.

    Derivation goes through :func:`repro.sim.rng.derive_stream_seed` with the
    canonical JSON of ``(experiment, params)`` as the stream name, so it
    depends only on *what* the job computes — not on the sweep name, job
    order, or worker count.
    """
    name = f"{experiment}:{dumps_canonical(params)}"
    return derive_stream_seed(master_seed, name)


def _value_token(value: Any) -> str:
    """Short, filesystem-safe rendering of a parameter value for run ids."""
    if isinstance(value, float):
        token = num_key(value)
    elif isinstance(value, (int, str)):
        token = str(value)
    else:
        token = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return _RUN_ID_SAFE.sub("_", token).strip("_") or "x"


def make_run_id(experiment: str, varying: Dict, seed: int) -> str:
    """Human-readable unique id: experiment + varying params + seed."""
    parts = [experiment]
    parts += [f"{key}={_value_token(varying[key])}" for key in sorted(varying)]
    run_id = "-".join(parts)
    if len(run_id) > _MAX_RUN_ID:
        digest = hashlib.sha256(run_id.encode()).hexdigest()[:10]
        run_id = f"{run_id[:_MAX_RUN_ID]}~{digest}"
    return f"{run_id}--s{seed}"


@dataclass
class SweepSpec:
    """A declarative experiment sweep: name x parameter grid x seeds."""

    name: str
    experiment: str
    base: Dict = field(default_factory=dict)
    grid: Dict[str, List] = field(default_factory=dict)
    seeds: List[int] = field(default_factory=lambda: [42])

    def __post_init__(self) -> None:
        if not self.name or _RUN_ID_SAFE.search(self.name):
            raise SpecError(
                f"sweep name {self.name!r} must be non-empty and use only "
                f"[A-Za-z0-9._=,-]"
            )
        if not self.experiment:
            raise SpecError("spec is missing 'experiment'")
        if not isinstance(self.base, dict):
            raise SpecError("'base' must be an object of keyword arguments")
        if not isinstance(self.grid, dict):
            raise SpecError("'grid' must map parameter names to value lists")
        if "seed" in self.base or "seed" in self.grid:
            raise SpecError(
                "'seed' is not a sweep parameter — list master seeds in "
                "'seeds'; each run gets a derived per-job seed"
            )
        for key, values in self.grid.items():
            if not isinstance(values, list) or not values:
                raise SpecError(f"grid axis {key!r} must be a non-empty list")
            if key in self.base:
                raise SpecError(f"parameter {key!r} is in both base and grid")
        if not isinstance(self.seeds, list) or not self.seeds:
            raise SpecError("'seeds' must be a non-empty list of integers")
        if not all(isinstance(s, int) and not isinstance(s, bool)
                   for s in self.seeds):
            raise SpecError("'seeds' must be a non-empty list of integers")
        if len(set(self.seeds)) != len(self.seeds):
            raise SpecError("'seeds' contains duplicates")

    # -- construction --------------------------------------------------
    @classmethod
    def from_json(cls, doc: Dict) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise SpecError("spec must be a JSON object")
        schema = doc.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise SpecError(f"unsupported spec schema {schema!r}")
        unknown = set(doc) - {"schema", "name", "experiment", "base", "grid",
                              "seeds"}
        if unknown:
            raise SpecError(f"unknown spec fields: {', '.join(sorted(unknown))}")
        try:
            return cls(
                name=doc.get("name", ""),
                experiment=doc.get("experiment", ""),
                base=doc.get("base", {}),
                grid=doc.get("grid", {}),
                seeds=doc.get("seeds", [42]),
            )
        except TypeError as exc:  # e.g. grid not iterable the way we need
            raise SpecError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SweepSpec":
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise SpecError(f"cannot read spec {path}: {exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec {path} is not valid JSON: {exc}") from exc
        return cls.from_json(doc)

    def to_json(self) -> Dict:
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "experiment": self.experiment,
            "base": self.base,
            "grid": self.grid,
            "seeds": self.seeds,
        }

    def spec_hash(self) -> str:
        """Stable fingerprint of the spec (identifies a sweep on disk)."""
        return hashlib.sha256(dumps_canonical(self.to_json()).encode()) \
            .hexdigest()[:16]

    # -- expansion -----------------------------------------------------
    def expand(self) -> List[RunSpec]:
        """The sweep's full job list: grid cross-product x seeds."""
        axes = sorted(self.grid)
        combos = itertools.product(*(self.grid[axis] for axis in axes))
        jobs: List[RunSpec] = []
        seen: Set[str] = set()
        for combo in combos:
            varying = dict(zip(axes, combo))
            params = {**self.base, **varying}
            for seed in self.seeds:
                run_id = make_run_id(self.experiment, varying, seed)
                if run_id in seen:
                    run_id = f"{run_id}-{len(seen)}"
                seen.add(run_id)
                jobs.append(RunSpec(
                    run_id=run_id,
                    experiment=self.experiment,
                    params=params,
                    seed=seed,
                    derived_seed=derive_run_seed(seed, self.experiment, params),
                ))
        return jobs
