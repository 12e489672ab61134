"""Multistart search over the structured extremal family.

The candidates are products of Blaschke factors and outer-type powers
determined by k points in the disc.  A Nelder-Mead exploration, which
moves every start of every zero count in lockstep, feeds a lockstep SQP
polish on exact gradients; agreement with the closed form for k = 1, and
the series/quadrature double-check inside the solver, guard the result.
"""

from hardyx import (
    SolveConfig,
    alpha_p,
    beta_of_alpha,
    maximize_phik,
    phi1,
    sandwich_check,
    t_p,
)


def main():
    # --- k = 1 against the closed form -----------------------------------
    print("k = 1 solves vs phi1:")
    for p, t in ((2.0, 0.6), (1.0, 0.3), (0.5, 0.81)):
        sol = maximize_phik(SolveConfig(k=1, p=p, t=t, starts=24))
        print(f"  p={p:<4g} t={t:<5g} solver {sol.value:.10f}  "
              f"closed {phi1(p, t).value:.10f}  l={sol.l_used}")

    # --- the non-unique point --------------------------------------------
    # at t = t_p(p) (p < 1) two genuinely different shapes tie for the
    # maximum: one with a zero in the disc, one zero-free
    p = 0.4
    tp = t_p(p)
    sol = maximize_phik(SolveConfig(k=1, p=p, t=tp))
    print(f"\nnon-uniqueness at p={p}, t=t_p={tp:.9f}:")
    print(f"  solver value      {sol.value:.10f}")
    print(f"  solution clusters {sol.cluster_count}")
    print(f"  expected params   lambda = {-alpha_p(p):.6f} (with zero)  "
          f"or {-beta_of_alpha(p, alpha_p(p)):.6f} (zero-free)")
    for l in (1, 0):
        forced = maximize_phik(SolveConfig(k=1, p=p, t=tp, l_range=(l,)))
        lam = forced.best.lambdas[0]
        print(f"  forced l={l}: lambda = {lam.real:+.6f}{lam.imag:+.6f}j  "
              f"value = {forced.value:.10f}")

    # --- k = 2 in the quasi-Banach range ---------------------------------
    # here the k = 1 curve only brackets the answer; the solver decides
    # where inside the band the true value sits, and how many zeros the
    # winner carries
    p = 0.5
    print(f"\nk = 2, p = {p}:")
    counts = {}
    for t in (0.3, 0.7, 0.9):
        rep = sandwich_check(2, p, t, starts=24)
        print(f"  t={t:<4g} band [{rep.lower:.8f}, {rep.upper:.8f}]  "
              f"solved {rep.solved:.8f}")
        counts[t] = rep.l_used
    print(f"  winning zero counts: {counts}")


if __name__ == "__main__":
    main()
