"""Canonical sweep specs and content-addressed point digests.

Identity is the foundation of the service's caching: two clients that
describe the same grid point must produce the same digest, or the
shared store computes the point twice; two *different* points must
never collide, or one client silently gets the other's results.  Both
properties come from canonicalization:

* a **sweep spec** is normalized (defaults resolved, axes keyed by
  name) and serialized as canonical JSON — ``sort_keys=True``,
  compact separators, no floats introduced — so the job id
  (:func:`spec_job_id`) is independent of client-side key order;
* a **point digest** (:func:`point_digest`) hashes the canonical JSON
  of everything the simulation result depends on: the run length,
  seed, warmup, cache geometry, the point's axis values, and the warm
  fingerprint (:func:`repro.sim.sweep.point_fingerprint`) of the
  exact configuration the point runs under.  The fingerprint folds in
  the workload's trace profiles, so renaming a workload without
  changing its behavior keeps the digest stable, while changing its
  access pattern invalidates it.

Digests use SHA-256 hex, never Python's builtin ``hash()`` (which is
salted per process) and never wallclock — the digest of a point is
the same on every host, in every process, on every day.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.snapshot import fingerprint_digest
from repro.sim.sweep import _KNOWN_AXES, SweepContext, _apply_point, point_fingerprint
from repro.workloads.mixes import workload as lookup_workload

#: Spec/point canonical-format markers; bump to invalidate stale
#: stores whenever result-affecting semantics change.
SPEC_FORMAT = "sweep-spec-v1"
POINT_FORMAT = "sweep-point-v1"


def canonical_json(payload: Any) -> str:
    """Canonical JSON text: sorted keys, compact, ASCII-safe."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _checked_int(value: Any, name: str, minimum: int = 1) -> int:
    """``value`` if it is an int (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer")
    if value < minimum:
        raise ValueError(
            f"{name} must be {'positive' if minimum == 1 else 'non-negative'}"
        )
    return value


@dataclass(frozen=True)
class SweepSpec:
    """A normalized, validated sweep request.

    ``axes`` preserves the submitted value order (it defines grid/row
    order) but is keyed canonically; :meth:`points` enumerates the
    grid in :data:`repro.sim.sweep._KNOWN_AXES` axis order, so two
    spec dicts that differ only in JSON key order yield identical
    point sequences — and therefore identical job ids.
    """

    events_per_core: int
    seed: int
    warmup_events_per_core: Optional[int]
    llc_bytes: Optional[int]
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]

    # ------------------------------------------------------------------
    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        """Validate and normalize a client-submitted spec dict."""
        if not isinstance(payload, Mapping):
            raise ValueError("sweep spec must be a JSON object")
        # Canonical forms round-trip (the journal replays them); a
        # mismatched marker means a store from other semantics.
        marker = payload.get("format", SPEC_FORMAT)
        if marker != SPEC_FORMAT:
            raise ValueError(
                f"spec format {marker!r} not supported (want {SPEC_FORMAT!r})"
            )
        known = {"format", "events_per_core", "seed",
                 "warmup_events_per_core", "llc_bytes", "axes"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        events = _checked_int(payload.get("events_per_core", 4000), "events_per_core")
        seed = payload.get("seed", 1)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError("seed must be an integer")
        warmup = payload.get("warmup_events_per_core")
        if warmup is not None:
            # 0 skips warmup, as it does for System and Sweep.
            warmup = _checked_int(warmup, "warmup_events_per_core", minimum=0)
        llc = payload.get("llc_bytes")
        if llc is not None:
            llc = _checked_int(llc, "llc_bytes")
        raw_axes = payload.get("axes")
        if not isinstance(raw_axes, Mapping) or not raw_axes:
            raise ValueError("spec needs a non-empty 'axes' object")
        axes: List[Tuple[str, Tuple[Any, ...]]] = []
        for name in _KNOWN_AXES:  # canonical axis order
            if name not in raw_axes:
                continue
            values = raw_axes[name]
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"axis {name!r} needs a non-empty list")
            if len(set(map(repr, values))) != len(values):
                raise ValueError(f"axis {name!r} has duplicate values")
            axes.append((name, tuple(values)))
        unknown_axes = set(raw_axes) - set(_KNOWN_AXES)
        if unknown_axes:
            raise ValueError(
                f"unknown axes {sorted(unknown_axes)}; known: {_KNOWN_AXES}"
            )
        if "workload" not in dict(axes):
            raise ValueError("a 'workload' axis is required")
        spec = cls(
            events_per_core=events,
            seed=seed,
            warmup_events_per_core=warmup,
            llc_bytes=llc,
            axes=tuple(axes),
        )
        spec.validate_axis_values()
        return spec

    def validate_axis_values(self) -> None:
        """Resolve every axis value eagerly so bad specs fail at submit."""
        for point in self.points():
            try:
                _apply_point(self.base_config(), point)
                lookup_workload(point["workload"])
            except (KeyError, ValueError) as exc:
                raise ValueError(f"invalid grid point {point}: {exc}") from exc

    # ------------------------------------------------------------------
    def canonical(self) -> Dict[str, Any]:
        """The normalized spec as a plain JSON-able dict."""
        return {
            "format": SPEC_FORMAT,
            "events_per_core": self.events_per_core,
            "seed": self.seed,
            "warmup_events_per_core": self.warmup_events_per_core,
            "llc_bytes": self.llc_bytes,
            "axes": {name: list(values) for name, values in self.axes},
        }

    def job_id(self) -> str:
        """Content-addressed job id: resubmitting the same spec (from
        any client, in any key order) lands on the same job."""
        return _sha256(canonical_json(self.canonical()))

    # ------------------------------------------------------------------
    def base_config(self) -> SystemConfig:
        if self.llc_bytes is None:
            return SystemConfig()
        return SystemConfig(cache=CacheConfig(llc_bytes=self.llc_bytes))

    def context(self, snapshot_dir: Optional[str] = None) -> SweepContext:
        """The grid-wide invariants, as the sweep/pool layers expect."""
        return (
            self.base_config(),
            self.events_per_core,
            self.seed,
            self.warmup_events_per_core,
            snapshot_dir,
        )

    def points(self) -> List[Dict[str, Any]]:
        """The grid as point dicts, in canonical grid order."""
        names = [name for name, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        return [
            dict(zip(names, combo)) for combo in itertools.product(*value_lists)
        ]

    def group_key(self, point: Dict[str, Any]) -> tuple:
        """Warm fingerprint of one point (pool-affinity grouping)."""
        return point_fingerprint(self.context(), point)

    def point_digest(self, point: Dict[str, Any]) -> str:
        """Content digest of one grid point under this spec."""
        return point_digest(
            events_per_core=self.events_per_core,
            seed=self.seed,
            warmup_events_per_core=self.warmup_events_per_core,
            llc_bytes=self.llc_bytes,
            point=point,
            fingerprint=self.group_key(point),
        )


def point_digest(
    events_per_core: int,
    seed: int,
    warmup_events_per_core: Optional[int],
    llc_bytes: Optional[int],
    point: Mapping[str, Any],
    fingerprint: tuple,
) -> str:
    """SHA-256 digest of everything a point's result depends on.

    The fingerprint digest (stable across processes — see
    :func:`repro.sim.snapshot.fingerprint_digest`) folds in the
    workload's trace profiles and cache geometry, so behavioral
    changes invalidate cached results even under an unchanged name.
    """
    payload = {
        "format": POINT_FORMAT,
        "events_per_core": events_per_core,
        "seed": seed,
        "warmup_events_per_core": warmup_events_per_core,
        "llc_bytes": llc_bytes,
        "point": dict(sorted(point.items())),
        "warm_fingerprint": fingerprint_digest(fingerprint),
    }
    return _sha256(canonical_json(payload))


def spec_job_id(payload: Mapping[str, Any]) -> str:
    """Job id of a raw spec dict (parse + canonicalize + hash)."""
    return SweepSpec.from_payload(payload).job_id()
