"""Serializers of qirank's outputs, shared by the benchmark's scripts.

The anchors in ``anchors.json`` are digests of these forms, so every script
that makes or checks one uses this module.  It imports nothing, so the
measuring process can use it without loading more than qirank does.
"""


def hit_rows(hits) -> list:
    """``[a, b, k, [[re, im] x 4]]`` for each hit, in the order given."""
    return [[h.beta.re, h.beta.im, h.k, [[p.re, p.im] for p in h.primes]]
            for h in hits]


def census_dict(stats) -> dict:
    """A ``prime_density_stats`` result as plain JSON values."""
    return {
        "total_primes": stats.total_primes,
        "class_counts": sorted([list(c) + [n] for c, n in stats.class_counts.items()]),
        "target_class": list(stats.target_class),
    }
