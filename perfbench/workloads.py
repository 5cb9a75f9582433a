"""Workload definitions: input shape, CLI calls per sentence, reference bound.

Each workload draws `pool` sentences of one shape per seed and runs each
through its `commands`; a run cycles through these ops.  `ref_bound` is
the largest universe the reference checker searches.  Each shape is
narrow enough in per-op cost that runs on ten seeds agree within the
metric bounds; the reasons are recorded in BENCHMARK.json and below.
"""

_SMALL_SIGS = ([], [("P", 1)], [("R", 2)], [("P", 1), ("R", 2)])

WORKLOADS = {
    # Corpus-scale sentences: per-call fixed costs (argument parsing,
    # load_sentence, certificate self-check, JSON, staged model) dominate.
    "check-small": {
        "shape": {"ys": (0, 2), "explicit_z": 0.7, "signatures": _SMALL_SIGS,
                  "atoms": (1, 6)},
        "commands": (("check", "--json"), ("model", "--depth", "3")),
        "pool": 300,
        "ref_bound": 3,
    },
    # Four unary relations, all used: 16 one-types, so the plain witness
    # search and the fixpoint rounds are most of the work.  Six relations
    # with two trailing existentials gave single sentences of 1-8 s, so
    # ten seeds disagreed on ops_per_s by far more than any bound.
    "gfp-wide": {
        "shape": {"ys": (1, 1), "explicit_z": 1.0,
                  "signatures": ([(n, 1) for n in "PQST"],),
                  "atoms": (4, 7), "every_relation": True},
        "commands": (("check", "--json"),),
        "pool": 1300,
        "ref_bound": 2,
    },
    # Two trailing existentials over one binary relation: the extended
    # search.  With three, or with a unary P beside R, single sentences
    # took 0.5-9 s, with the same effect.
    "extended-deep": {
        "shape": {"ys": (2, 2), "explicit_z": 1.0,
                  "signatures": ([("R", 2)],), "atoms": (4, 7)},
        "commands": (("check", "--method", "extended", "--json"),),
        "pool": 2500,
        "ref_bound": 3,
    },
    # Sentences using both P and R with no model of size 3 or less,
    # through diff: the brute-force oracle must exhaust every structure,
    # so it dominates.  Drawing from check-small's distribution at
    # --max-size 4 let single sentences take 15-18 s.
    "verify": {
        "shape": {"ys": (0, 1), "explicit_z": 0.7,
                  "signatures": ([("P", 1), ("R", 2)],), "atoms": (2, 6),
                  "every_relation": True},
        "commands": (("diff", "--max-size", "3"),),
        "pool": 300,
        "ref_bound": 3,
        "only_without_model": True,
    },
}
