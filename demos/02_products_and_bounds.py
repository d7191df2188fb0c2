"""Each binary operation next to its upper bound, on a path and a cycle.

C_4 is regular, and the lexicographic, Cartesian, strong and direct
bounds are attained exactly when an operand is regular, so the slack
column shows zeros on those four rows.

Run: python3 demos/02_products_and_bounds.py
"""

from totirr import (
    ProductKind,
    apply_product,
    evaluate_bound,
    gen_complete,
    gen_cycle,
    gen_path,
    gen_random_tree,
)

p5, c4 = gen_path(5), gen_cycle(4)

print("P_5 with C_4 under every operation:")
print(f"{'operation':14} {'n':>4} {'m':>4} {'actual':>7} {'bound':>7} {'slack':>6} tight")
for kind in ProductKind:
    r = evaluate_bound(kind, p5, c4)
    composite = apply_product(kind, p5, c4)
    print(
        f"{kind.value:14} {composite.n:4d} {composite.m:4d} "
        f"{r.actual:7d} {r.bound:7d} {r.slack:6d} {str(r.tight).lower()}"
    )

print()
print("Join of a random tree with a complete graph is always tight:")
for n1, n2, seed in [(5, 3, 0), (6, 4, 1), (7, 2, 2)]:
    r = evaluate_bound(ProductKind.JOIN, gen_random_tree(n1, seed), gen_complete(n2))
    print(f"  T_{n1} + K_{n2}: actual = bound = {r.actual}")
