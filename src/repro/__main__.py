"""``python -m repro`` — a 30-second demonstration of both queries.

Generates a small synthetic city, indexes commuter trips in a TQ-tree,
and answers a kMaxRRST and a MaxkCovRST query on one runtime with oracle
verification, then asks the kMaxRRST again on that warm runtime: the
exit status is 1 when a ranked value or the fleet's combined service
differs from the brute-force oracle, or the warm ranking from the cold
one.  For the full evaluation suite use ``python -m repro.bench``.
"""

from __future__ import annotations

import time

from . import (
    CityModel,
    QueryRuntime,
    ServiceModel,
    ServiceSpec,
    brute_force_combined_service,
    brute_force_service,
    build_tq_zorder,
    generate_bus_routes,
    generate_taxi_trips,
    maxkcov_tq,
    top_k_facilities,
)


def main() -> int:
    print("repro: 'The Maximum Trajectory Coverage Query in Spatial Databases'")
    print("       (Ali et al., VLDB 2018) — demo\n")

    city = CityModel.generate(seed=7, size=10_000.0)
    users = generate_taxi_trips(4_000, city, seed=1)
    buses = generate_bus_routes(24, city, seed=2, n_stops=24)
    spec = ServiceSpec(ServiceModel.ENDPOINT, psi=300.0)

    t0 = time.perf_counter()
    tree = build_tq_zorder(users)
    print(f"indexed {len(users):,} trips in {time.perf_counter() - t0:.2f}s "
          f"(TQ-tree height {tree.height()})")

    rt = QueryRuntime()
    t0 = time.perf_counter()
    mismatches = 0
    top = top_k_facilities(tree, buses, 3, spec, runtime=rt)
    dt = (time.perf_counter() - t0) * 1e3
    print(f"\nkMaxRRST (top 3 of {len(buses)} routes, {dt:.0f} ms):")
    for rank, fs in enumerate(top.ranking, 1):
        oracle = brute_force_service(users, fs.facility, spec)
        flag = "ok" if abs(oracle - fs.service) < 1e-9 else "MISMATCH"
        mismatches += flag != "ok"
        print(f"  {rank}. route {fs.facility.facility_id:>2} serves "
              f"{fs.service:,.0f} commuters (oracle {flag})")

    t0 = time.perf_counter()
    fleet = maxkcov_tq(tree, buses, 3, spec, runtime=rt)
    dt = (time.perf_counter() - t0) * 1e3
    print(f"\nMaxkCovRST (greedy fleet of 3, {dt:.0f} ms):")
    oracle = brute_force_combined_service(users, fleet.selection, spec)
    flag = "ok" if abs(oracle - fleet.combined_service) < 1e-9 else "MISMATCH"
    mismatches += flag != "ok"
    print(f"  routes {fleet.facility_ids()} together serve "
          f"{fleet.users_fully_served:,} commuters (oracle {flag})")

    # MaxkCov's shortlist read the answers the kMaxRRST stored; the same
    # question again is answered from them alone
    t0 = time.perf_counter()
    warm = top_k_facilities(tree, buses, 3, spec, runtime=rt)
    dt = (time.perf_counter() - t0) * 1e3
    flag = "ok" if warm.ranking == top.ranking else "MISMATCH"
    mismatches += flag != "ok"
    print(f"\nkMaxRRST again on the warm runtime ({dt:.1f} ms, "
          f"{warm.stats.cache_hits:,} cache hits): ranking {flag}")

    print(
        "\nThese queries are meant to be served, not typed: run the "
        "HTTP front with\n"
        "  python -m repro.serve --catalog demo:4000:24:24\n"
        "and ask the same question over the network:\n"
        "  curl -s localhost:8314/query -d '{\"type\": \"kmaxrrst\", "
        "\"tree\": \"demo\", \"facility_set\": \"demo\", \"k\": 3, "
        "\"spec\": {\"model\": \"endpoint\", \"psi\": 300.0}}'\n"
        "For the paper's full evaluation suite: "
        "python -m repro.bench"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
