"""Run a small benchmark grid comparing maxent and raking.

The maxent arm is fitted once per problem and sampled per (size, seed)
cell.  The raking arm is record-level generalized raking, run per cell:
a pool of n candidate records drawn from the unary max-ent distribution
has its weights raked toward the constraints it can carry, and n
individuals are drawn i.i.d. from the raked weights.  The pool, its
size, the number of passes and the i.i.d. integerization are this
project's choices; the paper's abstract does not give them.  Every
population is scored by mean relative constraint error over all
constraints.  The summary reports the per-(problem, size) winner and
the gap, defined as the relative reduction over the weaker method.

Run:  python3 demos/05_benchmark_grid.py
"""

import popmaxent as pm
from popmaxent.synthetic import mixture_population, parity_chain_population

problems = []
for name, pop in [
    ("mixture6", mixture_population(6, 3000, seed=31)),
    ("parity8", parity_chain_population(8, 3000, seed=32, flip=0.08)),
]:
    cs = pm.extract_constraints(pop, pm.ExtractionBudget.full())
    problems.append(pm.BenchmarkProblem(name, cs))
    print(f"{name}: K={cs.schema.k}, |X|={cs.schema.n_cells}, "
          f"{cs.m} atomic constraints")

grid = pm.BenchmarkGrid(
    problems=tuple(problems),
    sizes=(100, 10_000),
    seeds=(1, 2, 3, 4, 5),
    rake_iterations=1000,
    rake_tol=1e-12,   # stop raking passes early once they change nothing
)
report = pm.run_benchmark(grid)

print(f"\n{len(report.rows)} result rows "
      f"(2 problems x 2 sizes x 2 methods x 5 seeds)")
print(pm.summary_table(report))

print("first rows of the flat results table:")
for line in pm.results_table(report).splitlines()[:6]:
    print(f"  {line}")
