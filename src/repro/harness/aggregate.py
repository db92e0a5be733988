"""Aggregate sweep artifacts back into the repo's plain-text tables.

Loads the per-run JSON artifacts of a sweep directory, groups runs that
share an (experiment, params) point — i.e. the same grid cell across master
seeds — flattens each result dict into dotted scalar metrics
(``rows.0.05.rdp`` and the like; series and other lists are skipped), and
reports mean and a Student-t 95% confidence interval per metric
via :func:`repro.experiments.reporting.format_table`.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.reporting import format_table
from repro.experiments.resultio import dumps_canonical

from repro.harness.store import STATUS_OK, ResultStore, StoreError


def flatten_scalars(result: Any, prefix: str = "") -> Dict[str, float]:
    """Dotted paths of every numeric scalar leaf in a result dict."""
    out: Dict[str, float] = {}
    if isinstance(result, dict):
        for key, value in result.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_scalars(value, path))
    elif isinstance(result, bool) or result is None:
        pass  # booleans/None are not measurements
    elif isinstance(result, (int, float)):
        out[prefix] = float(result)
    return out  # lists (time series, CDFs) are intentionally skipped


def mean_ci95(values: Sequence[float]) -> Tuple[float, float]:
    """Sample mean and half-width of its 95% CI (Student's t, n - 1 dof)."""
    mean = statistics.fmean(values)
    n = len(values)
    if n < 2:
        return mean, 0.0
    from scipy.stats import t  # on use: importing the CLI loads no scipy
    return mean, (float(t.ppf(0.975, n - 1)) * statistics.stdev(values)
                  / math.sqrt(n))


def group_runs(artifacts: List[Dict]) -> List[Dict]:
    """Group successful runs by grid point, aggregating across seeds.

    Returns one entry per (experiment, params) with::

        {"experiment", "params", "seeds", "metrics": {path: [values...]}}
    """
    groups: Dict[str, Dict] = {}
    for artifact in artifacts:
        if artifact.get("status") != STATUS_OK:
            continue
        key = f"{artifact['experiment']}|{dumps_canonical(artifact['params'])}"
        group = groups.setdefault(key, {
            "experiment": artifact["experiment"],
            "params": artifact["params"],
            "seeds": [],
            "metrics": {},
        })
        group["seeds"].append(artifact["seed"])
        for path, value in flatten_scalars(artifact.get("result") or {}).items():
            group["metrics"].setdefault(path, []).append(value)
    return [groups[key] for key in sorted(groups)]


def _varying_param_names(groups: List[Dict]) -> List[str]:
    """Parameter names whose values differ between grid points."""
    names = sorted({name for group in groups for name in group["params"]})
    varying: List[str] = []
    for name in names:
        values = {dumps_canonical(group["params"].get(name))
                  for group in groups}
        if len(values) > 1:
            varying.append(name)
    return varying


def _group_label(group: Dict, varying: List[str]) -> str:
    if not varying:
        return group["experiment"]
    cells = ", ".join(f"{name}={group['params'].get(name)}"
                      for name in varying)
    return f"{group['experiment']}[{cells}]"


def format_sweep_report(out_dir: Union[str, Path],
                        metrics: Optional[List[str]] = None) -> str:
    """Render one sweep directory: header, aggregate table, failures."""
    store = ResultStore(out_dir)
    manifest = store.load_manifest()
    if manifest is None:
        raise StoreError(f"{store.root} is not a sweep directory "
                         f"(no {store.MANIFEST})")
    artifacts = store.list_artifacts()
    ok = [a for a in artifacts if a.get("status") == STATUS_OK]
    failed = [a for a in artifacts if a.get("status") != STATUS_OK]
    pending = len(manifest.get("runs", {})) - len(artifacts)

    parts = [
        f"sweep {manifest.get('name', '?')!r} — "
        f"experiment {manifest.get('experiment', '?')}: "
        f"{len(ok)} ok, {len(failed)} failed, {max(0, pending)} pending",
    ]

    groups = group_runs(artifacts)
    varying = _varying_param_names(groups)
    rows: List[Tuple[str, str, int, float, float]] = []
    for group in groups:
        label = _group_label(group, varying)
        for path in sorted(group["metrics"]):
            if metrics and not any(want in path for want in metrics):
                continue
            values = group["metrics"][path]
            mean, ci = mean_ci95(values)
            rows.append((label, path, len(values), mean, ci))
    if rows:
        parts.append("")
        parts.append(format_table(
            ["run", "metric", "n", "mean", "ci95"], rows))
    elif ok:
        parts.append("(no scalar metrics matched)")

    if failed:
        parts.append("\nfailed runs:")
        for artifact in failed:
            error = artifact.get("error") or {}
            parts.append(f"  {artifact['run_id']}: "
                         f"{error.get('kind', 'error')}: "
                         f"{error.get('message', '')}".rstrip(": "))
    return "\n".join(parts)
