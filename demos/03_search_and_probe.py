"""Verification engines: brute-force the single-graph maximum, sweep an
operation bound exhaustively, and probe the disjunction / symmetric
difference bounds with seeded random pairs.  The probe's battery has an
edgeless operand, which attains either bound; no two irregular operands
do, and only how close such pairs come is open.

Run: python3 demos/03_search_and_probe.py
"""

from totirr import (
    ProductKind,
    bound_theorem1,
    probe_open_problem,
    sweep_operation_bounds,
    verify_theorem1,
)

print("Exhaustive maximum of irr_t over all labeled graphs:")
for n in range(4, 8):
    outcome = verify_theorem1(n)
    print(
        f"  n={n}: max = {outcome.max_value} (formula {bound_theorem1(n)}), "
        f"{outcome.cases_examined} graphs, witness {outcome.witness[0]}"
    )

print()
print("Exhaustive sweep of the join bound over all pairs on (4, 3) vertices:")
outcome = sweep_operation_bounds(ProductKind.JOIN, 4, 3)
print(
    f"  {outcome.cases_examined} pairs, min slack {outcome.min_slack} "
    f"at (g, h) = {outcome.witness}"
)

print()
print("Seeded probe of the bounds (the battery's edgeless operand attains them):")
for kind in (ProductKind.DISJUNCTION, ProductKind.SYMDIFF):
    outcome = probe_open_problem(kind, 4, 4, samples=2000, seed=7)
    print(
        f"  {kind.value:12} max actual/bound = {outcome.max_ratio} "
        f"over {outcome.cases_examined} pairs, witness {outcome.witness}"
    )
