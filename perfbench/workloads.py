"""Seeded task lists for the three workloads.

A task is a plain dict, so the list can be printed, compared and handed
to the measuring process as JSON.  The workload seed fixes the task
order and every generated input; the package sees only these inputs.

Why these workloads:
  * seed    -- almost all time is tree expansion in `seeds`; p = 23 proves
               a 4^11 space empty (the hardest case run), and the workers=2
               task exercises the parallel path beside its serial partner.
  * even    -- `evensearch` and `sequences.paf` do the work and `seeds` does
               none; the two complete l = 10 runs stress different stages
               (the join, and rotation minimality in A enumeration).
  * certify -- no search: long sequences verified a few times, int64 Gram
               products up to order 332 and text matrix files written.
"""
from __future__ import annotations

import random
import statistics

import oracle

WORKLOADS = ("seed", "even", "certify")

# the task whose median time is reported as key_task_s
KEY_TASK = {"seed": "seed_p23", "even": "even_all_l10", "certify": "cli_hadamard_l82"}

# genuine corpus certifications per pass: with the run's pass count this
# keeps well over 100 certify samples, so the 90th percentile has at
# least ten samples beyond it
CERTIFY_ROUNDS = 7

# l = 12 threefold seeds with 9,216 decompressions each; the seed picks one
DECOMPRESS_SEEDS = ("[0,-2,2]", "[0,2,-2]", "[0,-2i,2i]", "[0,2i,-2i]")

_OTHER_UNITS = {"1": ("i", "-1", "-i"), "i": ("1", "-1", "-i"),
                "-1": ("1", "i", "-i"), "-i": ("1", "i", "-1")}


def seed_tasks(rng: random.Random) -> list[dict]:
    tasks = [
        {"name": f"seed_p{p}", "kind": "seed_search", "p": p, "first_only": False, "workers": 1}
        for p in (13, 19, 23)
    ]
    tasks.append({"name": "seed_p19_first", "kind": "seed_search", "p": 19,
                  "first_only": True, "workers": 1})
    tasks.append({"name": "seed_p23_w2", "kind": "seed_search", "p": 23,
                  "first_only": False, "workers": 2})
    rng.shuffle(tasks)
    return tasks


def even_tasks(rng: random.Random) -> list[dict]:
    tasks = [
        {"name": "even_all_l8", "kind": "search_even", "length": 8, "mode": "all"},
        {"name": "even_all_l10", "kind": "search_even", "length": 10, "mode": "all"},
        {"name": "even_red_l10", "kind": "search_even", "length": 10, "mode": "red"},
        {"name": "even_first_l10", "kind": "cli_search_even", "length": 10},
    ]
    rng.shuffle(tasks)
    return tasks


def perturb(rng: random.Random, text: str) -> str:
    """Replace one seeded entry of a unit sequence by another unit."""
    ent = text[1:-1].split(",")
    j = rng.randrange(len(ent))
    ent[j] = rng.choice(_OTHER_UNITS[ent[j]])
    return "[" + ",".join(ent) + "]"


def certify_tasks(rng: random.Random) -> list[dict]:
    corpus = oracle.load_corpus()
    items = []
    for _ in range(CERTIFY_ROUNDS):
        for d in corpus:
            label = f"{d['family']}-{d['param']}"
            items.append({"name": "certify", "kind": "certify", "label": label,
                          "a": d["A"], "b": d["B"]})
            a, b = d["A"], d["B"]
            if rng.random() < 0.5:
                a = perturb(rng, a)
            else:
                b = perturb(rng, b)
            items.append({"name": "verify_perturbed", "kind": "certify",
                          "label": label + "-perturbed", "a": a, "b": b})
    for item, is_pair in zip(items, oracle.pair_flags([(t["a"], t["b"]) for t in items])):
        item["is_pair"] = is_pair
    fixed = [
        {"name": "corpus_load", "kind": "corpus_load"},
        {"name": "cli_corpus_check", "kind": "cli_corpus_check"},
        {"name": "decompress_l12", "kind": "decompress",
         "compressed": rng.choice(DECOMPRESS_SEEDS), "ratio": 4},
    ]
    for d in corpus:
        if d["family"] == "seed":
            p = d["param"]
            half = "[" + ",".join(d["B"][1:-1].split(",")[1:(p - 1) // 2 + 1]) + "]"
            fixed.append({"name": "identity_report", "kind": "identity_report",
                          "p": p, "half": half})
    big = next(d for d in corpus if (d["family"], d["param"]) == ("seed", 41))
    fixed.append({"name": "cli_hadamard_l82", "kind": "cli_hadamard",
                  "a": big["A"], "b": big["B"]})
    rng.shuffle(items)
    for task in fixed:
        items.insert(rng.randrange(len(items) + 1), task)
    return items


def more_passes(walls: list[float], seconds: float, minimum: int) -> bool:
    """Whether another pass fits in the run's seconds (judged by the median
    pass so far), or the minimum number of passes is not reached yet."""
    return len(walls) < minimum or sum(walls) + statistics.median(walls) <= seconds


def build(workload: str, seed: int) -> list[dict]:
    """The task list of one pass; equal (workload, seed) give equal lists."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "seed":
        return seed_tasks(rng)
    if workload == "even":
        return even_tasks(rng)
    if workload == "certify":
        return certify_tasks(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
