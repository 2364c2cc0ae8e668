"""Synthetic ``ReducedTest`` corpora for the dedup-at-scale benchmark.

Real campaigns produce findings whose transformation-type sets cluster
heavily: a handful of root causes each spray thousands of near-identical
reduced tests, with a long tail of rarer families, occasional flaky
(nondeterministic) verdicts, and the odd empty-type test.  The generator
reproduces that shape deterministically (``random.Random(seed)``, no
wall-clock anywhere) so benchmark runs and property tests are
repeatable byte-for-byte.
"""

from __future__ import annotations

import random

from repro.core.dedup import ReducedTest

__all__ = ["synthetic_reduced_tests"]


def synthetic_reduced_tests(
    count: int,
    *,
    families: int = 400,
    type_universe: int = 1200,
    min_types: int = 1,
    max_types: int = 6,
    mutate_fraction: float = 0.10,
    nondet_fraction: float = 0.05,
    empty_fraction: float = 0.01,
    seed: int = 0,
) -> list[ReducedTest]:
    """*count* findings drawn from *families* skewed type-set clusters.

    Family popularity follows a cubed-uniform skew (a few families
    dominate, as real dedup corpora do); ``mutate_fraction`` of the
    draws perturb their family's set by one type, producing
    near-identical neighbours.
    """
    rng = random.Random(seed)
    names = [f"T{i:04d}" for i in range(type_universe)]
    pool: list[frozenset[str]] = []
    for _ in range(families):
        size = rng.randint(min_types, max_types)
        pool.append(frozenset(rng.sample(names, size)))
    tests: list[ReducedTest] = []
    for i in range(count):
        if rng.random() < empty_fraction:
            types: frozenset[str] = frozenset()
        else:
            family = pool[min(families - 1, int(families * rng.random() ** 3))]
            if rng.random() < mutate_fraction and family:
                mutated = set(family)
                if rng.random() < 0.5 and len(mutated) > 1:
                    mutated.discard(rng.choice(sorted(mutated)))
                else:
                    mutated.add(rng.choice(names))
                types = frozenset(mutated)
            else:
                types = family
        tests.append(
            ReducedTest(
                test_id=f"s{i:07d}",
                types=types,
                nondeterministic=rng.random() < nondet_fraction,
            )
        )
    return tests
