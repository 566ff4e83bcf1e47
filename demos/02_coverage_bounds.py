"""Coverage radii and the two generalization bound values.

The classical bound charges every area the worst-case radius delta; the
tightened one charges each area its own mean radial distance. The demo shows
the gap between the two and how the confidence term decays with n.
"""

import numpy as np

from denscore import (
    BoundParams,
    GeneratorSpec,
    assign_coverage,
    bound_report,
    generate,
    hoeffding_term,
    k_center_greedy,
)

spec = GeneratorSpec(
    kind="gaussian-mixture",
    seed=3,
    means=((0.0, 0.0), (5.0, 5.0), (10.0, 0.0)),
    sigmas=(0.4, 1.2, 2.5),
    counts=(200, 200, 100),
)
dataset = generate(spec)
state = k_center_greedy(dataset.points, None, 12)

params = BoundParams(
    lambda_l=1.0, lambda_eta=1.0, loss_bound=1.0,
    num_classes=dataset.num_classes, confidence=0.05,
)
coverage = assign_coverage(dataset.points, state.selected)
report = bound_report(coverage, params)

print(f"n={report.n} selected={report.num_selected}")
print(f"delta (covering radius)      : {report.delta:.4f}")
print(f"max per-area mean radial     : {report.max_radial:.4f}")
print(f"confidence term (Hoeffding)  : {report.hoeffding:.4f}")
print(f"classical bound              : {report.classical_bound_value:.4f}")
print(f"tightened bound              : {report.tight_bound_value:.4f}")
ratio = report.tight_bound_value / report.classical_bound_value
print(f"tightened / classical        : {ratio:.3f}")

# per-area mean radial distances, worst areas first
worst = sorted(report.radial.items(), key=lambda kv: -kv[1])[:5]
print("\nworst areas by mean radial distance:")
for center, value in worst:
    print(f"  center {center:3d}: {value:.4f}")

# the confidence term only depends on (loss_bound, confidence, n)
print("\nHoeffding term vs n (loss_bound=1, confidence=0.05):")
for n in (100, 1000, 10000, 100000):
    print(f"  n={n:>6d}: {hoeffding_term(1.0, 0.05, n):.5f}")

# more selection budget never hurts either radius statistic; each larger
# greedy run extends the smaller one's picks, so its assignment extends too
print("\nbudget sweep (delta / max mean radial):")
coverage = None
for budget in (4, 8, 16, 32):
    st = k_center_greedy(dataset.points, None, budget)
    coverage = assign_coverage(dataset.points, st.selected, previous=coverage)
    rep = bound_report(coverage, params)
    print(f"  b={budget:2d}: {rep.delta:.4f} / {rep.max_radial:.4f}")
