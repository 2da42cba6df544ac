"""The server-side resource catalog: named trees and facility sets.

Live :class:`~repro.index.TQTree` objects and facility lists cannot
cross a socket, so the HTTP wire schema references them *by name*: a
:class:`Catalog` holds the server-resident resources — registered once
at startup from the ``datasets`` loaders or synthetic generators — and
:func:`repro.service.http.wire.decode_request` resolves the names a
wire request carries into the live objects the in-process
:class:`~repro.service.requests.QueryRequest` dataclasses take.

Lookup misses raise :class:`~repro.core.errors.CatalogError`, which the
server maps to HTTP 404 — a missing resource, distinct from a malformed
query (:class:`~repro.core.errors.QueryError` → 400).

Three spec grammars build a catalog from the command line
(:func:`catalog_from_spec`):

* ``demo[:n_users[:n_facilities[:n_stops[:seed]]]]`` — the synthetic
  city the benchmarks use, registered under the name ``demo``;
* ``csv:<users_path>:<facilities_path>[:beta]`` — datasets written by
  :func:`repro.datasets.save_trajectories` /
  :func:`~repro.datasets.save_facilities`, registered under ``main``;
* ``store:<dir>`` — a persisted catalog directory precomputed offline
  by ``python -m repro.store build``; resources reconstruct over
  memory-mapped store files (O(open) startup) and any on-disk failure
  (:class:`~repro.core.errors.StoreError`) surfaces as a
  :class:`CatalogError` here, keeping the serving layer's error model.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ...core.errors import CatalogError, QueryError
from ...core.trajectory import FacilityRoute
from ...datasets import (
    CityModel,
    generate_bus_routes,
    generate_taxi_trips,
    load_facilities,
    load_trajectories,
)
from ...index import TQTree, build_tq_zorder

__all__ = [
    "Catalog",
    "build_demo_catalog",
    "build_store_catalog",
    "catalog_from_spec",
    "open_store_catalog",
]


class Catalog:
    """Named, server-resident query resources (see module docstring).

    Registration happens at startup and is not synchronised; lookups
    after startup are read-only and therefore safe from any thread the
    server dispatches on.
    """

    def __init__(self) -> None:
        self._trees: Dict[str, TQTree] = {}
        self._tree_sources: Dict[str, str] = {}
        self._facility_sets: Dict[str, Tuple[FacilityRoute, ...]] = {}
        self._facility_index: Dict[str, Dict[int, FacilityRoute]] = {}
        self._facility_sources: Dict[str, str] = {}
        #: The CLI spec this catalog was resolved from, when it came
        #: through :func:`catalog_from_spec` (``None`` for hand-built
        #: catalogs).  Surfaced on ``GET /catalog`` so a prefork pool —
        #: where spawn-mode workers each re-open the spec themselves —
        #: is checkable over the wire: every worker should report the
        #: same spec.
        self.spec: Optional[str] = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_tree(self, name: str, tree: TQTree, source: str = "") -> None:
        _check_name(name)
        if name in self._trees:
            raise CatalogError(f"tree {name!r} already registered")
        self._trees[name] = tree
        self._tree_sources[name] = source

    def add_facility_set(
        self, name: str, facilities: Iterable[FacilityRoute], source: str = ""
    ) -> None:
        _check_name(name)
        if name in self._facility_sets:
            raise CatalogError(f"facility set {name!r} already registered")
        routes = tuple(facilities)
        index: Dict[int, FacilityRoute] = {}
        for route in routes:
            if route.facility_id in index:
                raise CatalogError(
                    f"facility set {name!r} has duplicate facility id "
                    f"{route.facility_id}"
                )
            index[route.facility_id] = route
        self._facility_sets[name] = routes
        self._facility_index[name] = index
        self._facility_sources[name] = source

    # ------------------------------------------------------------------
    # lookup (CatalogError on a miss — the server's 404)
    # ------------------------------------------------------------------
    def tree(self, name: str) -> TQTree:
        try:
            return self._trees[name]
        except KeyError:
            raise CatalogError(
                f"unknown tree {name!r} (registered: "
                f"{sorted(self._trees) or 'none'})"
            ) from None

    def facility_set(self, name: str) -> Tuple[FacilityRoute, ...]:
        try:
            return self._facility_sets[name]
        except KeyError:
            raise CatalogError(
                f"unknown facility set {name!r} (registered: "
                f"{sorted(self._facility_sets) or 'none'})"
            ) from None

    def facility(self, set_name: str, facility_id: int) -> FacilityRoute:
        self.facility_set(set_name)  # 404 on the set name first
        try:
            return self._facility_index[set_name][facility_id]
        except KeyError:
            raise CatalogError(
                f"no facility {facility_id} in set {set_name!r}"
            ) from None

    def select(
        self, set_name: str, facility_ids: Optional[Sequence[int]] = None
    ) -> Tuple[FacilityRoute, ...]:
        """The facilities a multi-facility request names.

        ``facility_ids=None`` selects the whole set; an explicit list
        selects those ids, in the given order.  Malformed ids (wrong
        type) and repeated ids (the paper's candidate ``F`` is a set)
        are a :class:`QueryError`; ids absent from the set are a
        :class:`CatalogError` — the 400 / 404 split the server relies
        on.
        """
        if facility_ids is None:
            return self.facility_set(set_name)
        if isinstance(facility_ids, (str, bytes)) or not isinstance(
            facility_ids, Sequence
        ):
            raise QueryError(
                f"facility_ids must be a list of integers, got "
                f"{facility_ids!r}"
            )
        selected: List[FacilityRoute] = []
        seen: set = set()
        for fid in facility_ids:
            if isinstance(fid, bool) or not isinstance(fid, int):
                raise QueryError(
                    f"facility_ids must be integers, got {fid!r}"
                )
            if fid in seen:
                raise QueryError(
                    f"facility_ids must be distinct, got {fid} more than once"
                )
            seen.add(fid)
            selected.append(self.facility(set_name, fid))
        return tuple(selected)

    # ------------------------------------------------------------------
    # introspection (GET /catalog)
    # ------------------------------------------------------------------
    @property
    def tree_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._trees))

    @property
    def facility_set_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._facility_sets))

    def describe(self) -> dict:
        """The JSON-ready shape ``GET /catalog`` returns."""
        return {
            "spec": self.spec,
            "trees": {
                name: {
                    "n_trajectories": tree.n_trajectories,
                    "height": tree.height(),
                    "source": self._tree_sources[name],
                }
                for name, tree in sorted(self._trees.items())
            },
            "facility_sets": {
                name: {
                    "n_facilities": len(routes),
                    "facility_ids": [f.facility_id for f in routes],
                    "total_stops": sum(f.n_stops for f in routes),
                    "source": self._facility_sources[name],
                }
                for name, routes in sorted(self._facility_sets.items())
            },
        }


def _check_name(name: str) -> None:
    if not isinstance(name, str) or not name:
        raise CatalogError(f"resource name must be a non-empty string, got {name!r}")


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def build_demo_catalog(
    n_users: int = 2_000,
    n_facilities: int = 32,
    n_stops: int = 24,
    seed: int = 7,
    size: float = 10_000.0,
    beta: int = 32,
    name: str = "demo",
) -> Catalog:
    """A self-contained synthetic deployment: one city, one indexed
    taxi workload, one bus network — both registered under ``name``."""
    city = CityModel.generate(seed=seed, size=size)
    users = generate_taxi_trips(n_users, city, seed=seed + 1)
    routes = generate_bus_routes(n_facilities, city, seed=seed + 2, n_stops=n_stops)
    catalog = Catalog()
    catalog.add_tree(
        name,
        build_tq_zorder(users, beta=beta),
        source=f"synthetic taxi trips (n={n_users}, seed={seed})",
    )
    catalog.add_facility_set(
        name,
        routes,
        source=(
            f"synthetic bus routes (n={n_facilities}, stops={n_stops}, "
            f"seed={seed})"
        ),
    )
    return catalog


def catalog_from_spec(spec: str) -> Catalog:
    """Resolve a CLI catalog spec (grammar in the module docstring).
    The returned catalog remembers the spec on ``.spec``."""
    catalog = _catalog_from_spec(spec)
    catalog.spec = spec
    return catalog


def _catalog_from_spec(spec: str) -> Catalog:
    parts = spec.split(":")
    kind = parts[0]
    if kind == "demo":
        defaults = (2_000, 32, 24, 7)
        args = list(defaults)
        if len(parts) - 1 > len(defaults):
            raise CatalogError(
                f"demo spec takes at most {len(defaults)} parameters "
                f"(n_users:n_facilities:n_stops:seed), got {spec!r}"
            )
        for i, raw in enumerate(parts[1:]):
            try:
                args[i] = int(raw)
            except ValueError:
                raise CatalogError(
                    f"demo spec parameter {i + 1} must be an integer, "
                    f"got {raw!r}"
                ) from None
        return build_demo_catalog(*args)
    if kind == "csv":
        if len(parts) not in (3, 4):
            raise CatalogError(
                "csv spec is csv:<users_path>:<facilities_path>[:beta], "
                f"got {spec!r}"
            )
        users_path, facilities_path = parts[1], parts[2]
        beta = 32
        if len(parts) == 4:
            try:
                beta = int(parts[3])
            except ValueError:
                raise CatalogError(
                    f"csv spec beta must be an integer, got {parts[3]!r}"
                ) from None
        users = load_trajectories(users_path)
        routes = load_facilities(facilities_path)
        catalog = Catalog()
        catalog.add_tree(
            "main", build_tq_zorder(users, beta=beta), source=str(users_path)
        )
        catalog.add_facility_set("main", routes, source=str(facilities_path))
        return catalog
    if kind == "store":
        if len(parts) < 2 or not parts[1]:
            raise CatalogError(f"store spec is store:<dir>, got {spec!r}")
        # a path may itself contain ':' (unusual but legal) — rejoin
        store_dir = ":".join(parts[1:])
        from ...core.errors import StoreError

        try:
            return open_store_catalog(store_dir)
        except StoreError as exc:
            # the catalog boundary's error model: a broken resource is a
            # missing resource (404-style CatalogError), not a malformed
            # query and never a raw low-level exception
            raise CatalogError(
                f"cannot open store catalog {store_dir!r}: {exc}"
            ) from exc
    raise CatalogError(
        f"unknown catalog spec {spec!r} (expected 'demo[:...]', "
        "'csv:<users>:<facilities>[:beta]', or 'store:<dir>')"
    )


# ----------------------------------------------------------------------
# store-backed catalogs: offline build and serving-time open
# ----------------------------------------------------------------------
def build_store_catalog(
    out_dir: str,
    source_spec: str = "demo",
    psi_values: Optional[Sequence[float]] = None,
    n_shards: Optional[int] = None,
    beta: int = 32,
) -> Dict:
    """Precompute a store catalog directory from ``source_spec``.

    Resolves the source spec with :func:`catalog_from_spec`, persists
    every resource into ``out_dir`` — trajectory and facility bundles
    and one index file per (facility, psi, tier) named by the exact
    spill-file tokens
    :class:`repro.engine.ShardStore` probes — and returns the manifest
    written to ``<out_dir>/catalog.json``.  A server started with
    ``--catalog store:<out_dir>`` opens those files instead of
    rebuilding.
    """
    # deferred: repro.store pulls the engine in, and the catalog module
    # is imported by lightweight wire/client code too
    from ...core.config import SHARDS_AUTO
    from ...core.errors import StoreError
    from ...engine.cellstring import build_cellstring_index
    from ...engine.shards import (
        ShardedStopGrid,
        cellstring_spill_name,
        grid_spill_name,
    )
    from ...store.catalog import DEFAULT_PSI, MANIFEST_VERSION, write_manifest
    from ...store.codecs import (
        KIND_FACILITIES,
        KIND_TRAJECTORIES,
        save_index,
        save_trajectory_bundle,
    )

    if psi_values is None:
        psi_values = (DEFAULT_PSI,)
    if n_shards is None:
        n_shards = SHARDS_AUTO
    source = catalog_from_spec(source_spec)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise StoreError(f"cannot create store dir {out_dir!r}: {exc}") from exc
    psi_values = [float(p) for p in psi_values]
    manifest: Dict = {
        "manifest_version": MANIFEST_VERSION,
        "source": source_spec,
        "beta": int(beta),
        "psi_values": psi_values,
        "n_shards": int(n_shards),
        "trees": {},
        "facility_sets": {},
        "index_files": [],
    }
    for name in source.tree_names:
        tree = source.tree(name)
        users_file = f"users-{name}.idx"
        users = sorted(tree.trajectories(), key=lambda u: u.traj_id)
        save_trajectory_bundle(
            os.path.join(out_dir, users_file), users, KIND_TRAJECTORIES
        )
        manifest["trees"][name] = {"users": users_file}
    for name in source.facility_set_names:
        routes = source.facility_set(name)
        set_file = f"facilities-{name}.idx"
        save_trajectory_bundle(
            os.path.join(out_dir, set_file), routes, KIND_FACILITIES
        )
        manifest["facility_sets"][name] = {"file": set_file}
        for route in routes:
            coords = route.stop_coords
            for psi in psi_values:
                cs_name = cellstring_spill_name(coords, psi)
                save_index(
                    os.path.join(out_dir, cs_name),
                    build_cellstring_index(coords, psi),
                )
                grid_name = grid_spill_name(coords, psi, n_shards)
                save_index(
                    os.path.join(out_dir, grid_name),
                    ShardedStopGrid(coords, psi, n_shards),
                )
                manifest["index_files"].extend([cs_name, grid_name])
    write_manifest(out_dir, manifest)
    return manifest


def open_store_catalog(store_dir: str) -> Catalog:
    """A live catalog reconstructed from a store directory.

    The serving-time counterpart behind ``--catalog store:<dir>``:
    reads the manifest, rebuilds the trees from the persisted
    trajectory bundles (an older manifest's per-tree ``nodes`` entry is
    ignored), and registers the facility sets.
    The per-facility index files are *not* opened here — the runtime's
    :class:`~repro.engine.ShardStore`, pointed at the same directory via
    :attr:`~repro.core.config.RuntimeConfig.store_dir`, opens each
    lazily on its first cache miss, which is what turns serving
    cold-start from O(rebuild every index) into O(open).
    """
    # deferred, as in build_store_catalog
    from ...core.errors import StoreError
    from ...store.catalog import read_manifest
    from ...store.codecs import (
        KIND_FACILITIES,
        KIND_TRAJECTORIES,
        open_trajectory_bundle,
    )

    manifest = read_manifest(store_dir)
    beta = int(manifest["beta"])
    catalog = Catalog()
    source_label = f"store:{store_dir}"
    for name, files in sorted(manifest["trees"].items()):
        try:
            users_file = files["users"]
        except (TypeError, KeyError) as exc:
            raise StoreError(
                f"manifest tree entry {name!r} is malformed: {exc}"
            ) from exc
        kind, users = open_trajectory_bundle(os.path.join(store_dir, users_file))
        if kind != KIND_TRAJECTORIES:
            raise StoreError(
                f"tree {name!r} users bundle holds {kind!r}, not trajectories"
            )
        catalog.add_tree(name, build_tq_zorder(users, beta=beta), source=source_label)
    for name, entry in sorted(manifest["facility_sets"].items()):
        try:
            set_file = entry["file"]
        except (TypeError, KeyError) as exc:
            raise StoreError(
                f"manifest facility-set entry {name!r} is malformed: {exc}"
            ) from exc
        kind, routes = open_trajectory_bundle(os.path.join(store_dir, set_file))
        if kind != KIND_FACILITIES:
            raise StoreError(
                f"facility set {name!r} bundle holds {kind!r}, not facilities"
            )
        catalog.add_facility_set(name, routes, source=source_label)
    return catalog
