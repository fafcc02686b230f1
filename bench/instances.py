"""Seeded problem files for the benchmark workloads.

The generator is keyed by a string (workload name, seed and instance index)
hashed with SHA-256, so a seed gives byte-identical problem files on every
Python version and platform; it does not use the `random` module.

Each workload is a fixed ladder of (k, n, p) points, shapes and objectives;
the seed picks only the entries (and the linear costs of `check50`). Keeping the
ladder fixed keeps the work per pass close across seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import product

ORACLE_CMD = ["python3", "bench/oracle.py"]

# Size points per workload, one command each; see bench/README.md for why.
# One size class holds most commands of a workload, so the median and the
# tail stay inside a class whatever the sample count of a run. In `oracle`,
# five p = 3 and three p = 4 commands put the median inside the first class
# and the p79 tail near the middle of the second; with two p = 4 commands the
# tail was the second-fastest of them. Every point has k = 1 in `oracle`: the
# generic partitions of n points on a line depend only on n and p, so the work
# of a pass hardly moves with the seed.
SPLIT2_POINTS = [(2, 11), (2, 11), (3, 10), (2, 11), (2, 11), (2, 11)]
HULL3_POINTS = [(2, 7), (2, 7), (3, 6), (2, 7), (2, 7), (3, 6)]
ORACLE_POINTS = [(1, 9, 3), (1, 4, 4), (1, 9, 3), (1, 9, 3), (1, 4, 4), (1, 9, 3),
                 (1, 4, 4), (1, 9, 3)]
CHECK_COUNT = 50

WORKLOADS = ("split2", "hull3", "oracle", "check50")


class Stream:
    """Deterministic integers from SHA-256 of `key/counter`."""

    def __init__(self, key: str):
        self.key = key
        self.counter = 0

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection sampling."""
        limit = (1 << 64) - (1 << 64) % bound
        while True:
            digest = hashlib.sha256(f"{self.key}/{self.counter}".encode()).digest()
            self.counter += 1
            x = int.from_bytes(digest[:8], "big")
            if x < limit:
                return x % bound

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def pick(self, items):
        return items[self.below(len(items))]


@dataclass(frozen=True)
class Instance:
    """One benchmark command: the problem document and the CLI verb run on it."""

    name: str
    command: str  # "vertices", "solve" or "check"
    doc: dict

    def text(self) -> str:
        return json.dumps(self.doc, sort_keys=True) + "\n"


def _compositions(n: int, p: int):
    return [c for c in product(range(n + 1), repeat=p) if sum(c) == n]


def _rational_matrix(rng: Stream, k: int, n: int) -> list[list]:
    rows = []
    for _ in range(k):
        row = []
        for _ in range(n):
            a, b = rng.between(-50, 50), rng.between(1, 7)
            row.append(a if b == 1 else f"{a}/{b}")
        rows.append(row)
    return rows


def _integer_matrix(rng: Stream, k: int, n: int) -> list[list[int]]:
    return [[rng.between(-5, 5) for _ in range(n)] for _ in range(k)]


def _check_doc(rng: Stream, index: int) -> dict:
    """An instance as `shapedparts check --random` draws it: k <= 2, n <= 7, p <= 3.

    The sizes are stratified rather than drawn: index i takes p from
    (1, 2, 2, 3, 3)[i % 5], k alternating, and n rotating through 2..7, so
    every seed gets the same multiset of (k, n, p) with the generator's
    proportions. At p = 3, n stops at 6 for k = 1 and at 4 for k = 2: the
    k = 2 p = 3 commands at n = 5..7 took up to half of a pass, and their
    work moved twofold with the entries. A shape list always holds two shapes and
    bounds are one wide on each side, for the same reason. Drawn sizes made
    one pass range from 6 s to 11 s across seeds.
    """
    cell, row = index % 5, index // 5
    p = (1, 2, 2, 3, 3)[cell]
    k = 1 + row % 2
    n_max = 7 if p < 3 else 8 - 2 * k
    n = 2 + (row // 2 + cell) % (n_max - 1)
    kind = ("all", "list", "bounds")[index % 3]
    shapes_all = _compositions(n, p)
    # The shapes and the objective kind follow the index, not the seed: with
    # drawn shapes, the same command walked up to five times more partitions
    # from one seed to the next.
    if kind == "all":
        shapes: dict = {"type": "all"}
    elif kind == "list":
        first = (7 * index) % len(shapes_all)
        chosen = sorted({shapes_all[first], shapes_all[(first + len(shapes_all) // 2)
                                                      % len(shapes_all)]})
        shapes = {"type": "list", "shapes": [list(s) for s in chosen]}
    else:
        base = shapes_all[(5 * index) % len(shapes_all)]
        shapes = {
            "type": "bounds",
            "lower": [max(0, x - 1) for x in base],
            "upper": [x + 1 for x in base],
        }
    doc = {"matrix": _integer_matrix(rng, k, n), "p": p, "shapes": shapes}
    if index % 2 == 0:
        doc["objective"] = {
            "type": "linear",
            "cost": [[rng.between(-5, 5) for _ in range(p)] for _ in range(k)],
        }
    else:
        doc["objective"] = {"type": "sum_column_norm_pow", "q": (2, 4)[index // 2 % 2]}
    return doc


def workload_instances(workload: str, seed: int) -> list[Instance]:
    """The commands of one pass over `workload`, generated from `seed`."""
    out = []

    def stream(index: int) -> Stream:
        return Stream(f"shapedparts-bench/{workload}/{seed}/{index}")

    if workload == "split2":
        for i, (k, n) in enumerate(SPLIT2_POINTS):
            doc = {"matrix": _rational_matrix(stream(i), k, n), "p": 2, "shapes": {"type": "all"}}
            out.append(Instance(f"split2-{i:02d}-k{k}n{n}p2", "vertices", doc))
    elif workload == "hull3":
        for i, (k, n) in enumerate(HULL3_POINTS):
            doc = {"matrix": _integer_matrix(stream(i), k, n), "p": 3, "shapes": {"type": "all"}}
            out.append(Instance(f"hull3-{i:02d}-k{k}n{n}p3", "vertices", doc))
    elif workload == "oracle":
        for i, (k, n, p) in enumerate(ORACLE_POINTS):
            doc = {
                "matrix": _integer_matrix(stream(i), k, n),
                "p": p,
                "shapes": {"type": "all"},
                "objective": {"type": "external", "cmd": ORACLE_CMD},
            }
            out.append(Instance(f"oracle-{i:02d}-k{k}n{n}p{p}", "solve", doc))
    elif workload == "check50":
        for i in range(CHECK_COUNT):
            doc = _check_doc(stream(i), i)
            k, n = len(doc["matrix"]), len(doc["matrix"][0])
            out.append(Instance(f"check50-{i:02d}-k{k}n{n}p{doc['p']}", "check", doc))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return out


def write_instances(instances: list[Instance], directory) -> list[str]:
    """Write one problem file per instance; returns the paths in order."""
    paths = []
    for inst in instances:
        path = f"{directory}/{inst.name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(inst.text())
        paths.append(path)
    return paths
