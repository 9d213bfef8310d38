"""Walk through every guarantee the sparse construction is supposed to satisfy.

Each step checks one piece of the argument on a concrete instance:

1. the relaxed distance interleaves the metric within factor 1/(1 - 2 eps),
2. thresholding deletion times yields nets that cover and pack,
3. dropping deleted points does not change homology ranks at any scale,
4. the sparse filtration has the same persistence diagram as the relaxed
   filtration on all points,
5. and that diagram multiplicatively approximates the true Rips diagram.
"""

import numpy as np

import sparse_rips as sr

rng = np.random.default_rng(3)
m = sr.from_points(rng.random((24, 2)))
epsilon = 0.25
print(f"n = {m.n}, epsilon = {epsilon}, factor c = {1 / (1 - 2 * epsilon):.3g}\n")

ctx = sr.WeightContext.build(m, epsilon)

# 1. interleaving, verified in exact rational arithmetic
print(sr.check_interleaving(m, ctx, n_pairs=100,
                            rng=np.random.default_rng(1)).line())

# 2. net covering and packing at sampled scales
print(sr.check_nets(m, ctx, samples=16, rng=np.random.default_rng(2)).line())
rep = sr.check_net_conditions(m, ctx.schedule, alpha=0.8)
print(f"  e.g. at alpha=0.8: worst cover distance {rep.worst_cover:.4f}, "
      f"closest net pair {rep.worst_pack:.4f}, bound {rep.bound:.4f}")

# 3. homology ranks survive sparsification
print(sr.check_betti(m, ctx, k=2, samples=8,
                     rng=np.random.default_rng(3)).line())

# 4. diagram equality against the relaxed filtration
print(sr.check_diagram_equality(m, ctx, k=2).line())

# 5. multiplicative approximation of the true Rips diagram
print(sr.check_c_approximation(m, ctx, k=2).line())

# the same battery is available in one call (and via the CLI verify command)
print("\nrun_battery:")
for result in sr.run_battery(m, epsilon, k=2, samples=8, seed=0):
    print(" ", result.line())
