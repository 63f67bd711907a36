"""Seeded benchmark inputs, drawn with numpy alone.

Nothing here calls into ``hierdp``: the inputs must stay the same when
the program's own synthesis or release code changes, so that two
commits are always measured on identical bytes.

Trees are complete three-level count trees in the CLI's CSV schema
(``node_id,parent_id,level,count``). Ids are zero-padded per level, so
the rows of each level are already in the sorted-id order the program
uses, and children of one parent are contiguous.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CSV_HEADER = "node_id,parent_id,level,count"

# one independent numpy stream per generated artefact
STREAM_TREE = 1
STREAM_PRIOR_NOISE = 2
STREAM_BLOCKS = 3


@dataclass
class Tree:
    """Level-major ids, parent ids and counts of a complete tree."""

    fanouts: tuple[int, ...]
    ids: list[list[str]]
    parents: list[list[str]]
    counts: list[np.ndarray]

    @property
    def nodes(self) -> int:
        return sum(len(level) for level in self.ids)

    def distinct_per_level(self) -> list[int]:
        return [int(np.unique(c).size) for c in self.counts]

    def row_prefixes(self) -> list[str]:
        """``node_id,parent_id,level`` of every row, in file order."""
        return [
            f"{i},{p},{lv}"
            for lv, (ids, parents) in enumerate(zip(self.ids, self.parents), start=1)
            for i, p in zip(ids, parents)
        ]

    def with_counts(self, counts: list[np.ndarray]) -> "Tree":
        return Tree(self.fanouts, self.ids, self.parents, counts)

    def to_csv(self, integer: bool) -> str:
        fmt = (lambda v: str(int(v))) if integer else repr
        lines = [CSV_HEADER]
        for prefix, value in zip(
            self.row_prefixes(), np.concatenate(self.counts).tolist()
        ):
            lines.append(f"{prefix},{fmt(value)}")
        return "\n".join(lines) + "\n"


def tree(fanouts: tuple[int, ...], seed: int, leaf_mu: float = 3.0,
         leaf_sigma: float = 1.2) -> Tree:
    """Census-shaped tree: heavy-tailed integer leaves (rounded
    log-normal), internal counts summed bottom-up."""
    rng = np.random.default_rng([seed, STREAM_TREE])
    ids = [["r"]]
    parents = [[""]]
    for fan in fanouts:
        width = len(str(fan))
        suffixes = [f"-{j:0{width}d}" for j in range(1, fan + 1)]
        ids.append([p + s for p in ids[-1] for s in suffixes])
        parents.append([p for p in ids[-2] for _ in suffixes])
    leaves = np.rint(rng.lognormal(leaf_mu, leaf_sigma, len(ids[-1])))
    counts = [leaves]
    for fan in reversed(fanouts):
        counts.insert(0, counts[0].reshape(-1, fan).sum(axis=1))
    return Tree(tuple(fanouts), ids, parents, counts)


def noisy_prior(base: Tree, seed: int, scale: float = 1.0) -> Tree:
    """A previously released version of ``base``: unit-scale Laplace
    noise clamped at zero, so the counts are real-valued and almost all
    distinct."""
    rng = np.random.default_rng([seed, STREAM_PRIOR_NOISE])
    return base.with_counts(
        [np.maximum(0.0, c + rng.laplace(0.0, scale, c.size)) for c in base.counts]
    )


def tract_blocks(seed: int, n_large: int = 6, n_small: int = 4) -> list[int]:
    """Skewed block populations of one tract: a few log-normal blocks of
    at least 2 people and several tiny ones of 0 to 5, largest first.
    The tract is small enough that its noisy total sometimes clamps to
    zero, so the program must exclude some replicates."""
    rng = np.random.default_rng([seed, STREAM_BLOCKS])
    large = 2 + np.rint(rng.lognormal(1.0, 0.7, n_large))
    small = rng.integers(0, 6, n_small)
    return sorted((int(x) for x in np.concatenate([large, small])), reverse=True)


def write(path: Path, text: str) -> dict:
    """Write ``text`` and describe it for the result record."""
    data = text.encode("utf-8")
    path.write_bytes(data)
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
