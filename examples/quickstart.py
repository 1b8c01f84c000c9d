#!/usr/bin/env python3
"""Quickstart: how hard does the bandwidth wall bite?

Builds the paper's Niagara2-like baseline (8 cores + 8 CEAs of L2 on a
16-CEA die, alpha = 0.5) and asks the model the paper's two headline
questions:

1. With twice the transistors next generation, how many cores fit under
   a constant memory-traffic budget?  (11, not 16.)
2. Four generations out (16x transistors), how far can cores scale?
   (24, not 128 — with 90% of the die spent on cache.)
"""

from repro import ChipDesign, PowerLawMissModel, paper_baseline_model


def main() -> None:
    model = paper_baseline_model()
    baseline = model.baseline
    print(f"baseline: {baseline.num_cores:.0f} cores, "
          f"{baseline.cache_ceas:.0f} CEAs of cache "
          f"({baseline.cache_bytes() / 2**20:.0f} MB), alpha={model.alpha}")

    # --- question 1: the next generation --------------------------------
    next_gen = model.supportable_cores(32)
    print(f"\nnext generation (32 CEAs), constant traffic:")
    print(f"  supportable cores : {next_gen.cores} "
          f"(proportional would be 16)")
    print(f"  cache per core    : {next_gen.effective_cache_per_core:.2f} "
          "CEAs")

    relaxed = model.supportable_cores(32, traffic_budget=1.5)
    print(f"  with +50% bandwidth: {relaxed.cores} cores")

    # --- why: the traffic decomposition of Equation 5 -------------------
    today, reallocated = ChipDesign(16, 8), ChipDesign(16, 12)
    core_factor = reallocated.num_cores / today.num_cores
    cache_factor = PowerLawMissModel(alpha=model.alpha).traffic_ratio(
        reallocated.cache_per_core, today.cache_per_core
    )
    print(f"\nreallocating 4 cache CEAs to cores on today's die:")
    print(f"  traffic grows {core_factor * cache_factor:.1f}x "
          f"({core_factor:.2f}x from cores, "
          f"{cache_factor:.2f}x from smaller caches)")

    # --- question 2: four generations out -------------------------------
    print("\nscaling under constant traffic:")
    print(f"  {'gen':>5} {'CEAs':>6} {'cores':>6} {'ideal':>6} "
          f"{'die share':>10}")
    for point in model.generation_study():
        solution = point.solution
        print(f"  {point.area_factor:>4.0f}x "
              f"{solution.design.total_ceas:>6.0f} "
              f"{point.cores:>6d} {point.ideal_cores:>6.0f} "
              f"{solution.core_area_share:>9.1%}")
    print("\nthe bandwidth wall: 24 cores instead of 128 at 16x.")


if __name__ == "__main__":
    main()
