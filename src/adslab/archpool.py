"""Heterogeneous architecture population generator.

Produces pools of fully-connected architectures spanning five topological
categories (uniform, increasing, decreasing, bottleneck, spindle, random),
deduplicated by (depth, width vector) and fully determined by the config
seed. Pools serialize to a plain text manifest.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .files import check_fields, write_atomic
from .nncore import TOPOLOGY_TAGS, ArchitectureSpec

# capped at width 1024 / depth 10; large enough for 35 unique specs per
# category across three depths
DESK_DEPTHS = (3, 5, 10)
DESK_WIDTHS = (32, 48, 64, 96, 128, 160, 192, 256, 320, 384, 512, 768, 1024)

MAX_ATTEMPTS_PER_SPEC = 500


def _default_counts() -> dict:
    return _category_counts(35)


def _category_counts(per_category: int) -> dict:
    # five categories at equal count; "monotonic" is one category whose
    # budget is split across the increasing/decreasing tags
    return {
        "uniform": per_category,
        "increasing": (per_category + 1) // 2,
        "decreasing": per_category // 2,
        "bottleneck": per_category,
        "spindle": per_category,
        "random": per_category,
    }


@dataclass(frozen=True)
class PoolConfig:
    depths: tuple[int, ...] = DESK_DEPTHS
    width_candidates: tuple[int, ...] = DESK_WIDTHS
    per_category_counts: dict = field(default_factory=_default_counts)
    seed: int = 0
    input_dim: int = 784
    output_dim: int = 10

    def __post_init__(self):
        check_fields(self)
        if not self.width_candidates:
            raise ValueError("width candidate pool must be non-empty")
        # no count_<tag> key is saved for an empty dict, so it would load as the default
        if not self.per_category_counts:
            raise ValueError("per_category_counts must name at least one category")
        for tag, count in self.per_category_counts.items():
            if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 0:
                raise ValueError(f"count_{tag} must be an integer >= 0, got {count!r}")
        if self.seed < 0:
            raise ValueError(f"pool seed must be >= 0, got {self.seed}")
        unknown = [f"count_{tag}" for tag in self.per_category_counts if tag not in TOPOLOGY_TAGS]
        if unknown:
            raise ValueError(f"unknown category in {', '.join(unknown)}; the categories are "
                             f"{', '.join(TOPOLOGY_TAGS)}")
        for name, values in (("depths", self.depths), ("widths", self.width_candidates),
                             ("input_dim", (self.input_dim,)), ("output_dim", (self.output_dim,))):
            if any(v < 1 for v in values):
                raise ValueError(f"{name} must be >= 1, got {values}")
        object.__setattr__(self, "depths", tuple(sorted(self.depths)))
        object.__setattr__(self, "width_candidates", tuple(sorted(self.width_candidates)))


# ---------------------------------------------------------------------------
# per-category shape predicates (non-strict monotonicity)
# ---------------------------------------------------------------------------

def is_increasing(widths) -> bool:
    return all(a <= b for a, b in zip(widths, widths[1:]))


def is_decreasing(widths) -> bool:
    return all(a >= b for a, b in zip(widths, widths[1:]))


def is_bottleneck(widths) -> bool:
    m = min(widths)
    p = widths.index(m)
    return (
        0 < p < len(widths) - 1
        and widths[0] > m and widths[-1] > m
        and is_decreasing(widths[: p + 1])
        and is_increasing(widths[p:])
    )


def is_spindle(widths) -> bool:
    m = max(widths)
    p = widths.index(m)
    return (
        0 < p < len(widths) - 1
        and widths[0] < m and widths[-1] < m
        and is_increasing(widths[: p + 1])
        and is_decreasing(widths[p:])
    )


def _multiset_count(n_candidates: int, length: int) -> int:
    # number of non-decreasing length-k sequences over n symbols
    return math.comb(n_candidates + length - 1, length)


def category_capacity(category: str, depths, candidates) -> int | None:
    """Upper bound on distinct width vectors for a category; None = effectively unbounded."""
    n = len(candidates)
    if category == "uniform":
        return n * len(depths)
    if category in ("increasing", "decreasing"):
        return sum(_multiset_count(n, d) for d in depths)
    return None


def _draw_widths(category: str, depth: int, candidates: tuple[int, ...],
                 rng: np.random.Generator) -> tuple[int, ...] | None:
    if category == "uniform":
        w = int(rng.choice(candidates))
        return (w,) * depth
    if category in ("increasing", "decreasing"):
        ws = sorted(int(w) for w in rng.choice(candidates, size=depth, replace=True))
        if category == "decreasing":
            ws.reverse()
        return tuple(ws)
    if category in ("bottleneck", "spindle"):
        if depth < 3:
            return None
        ws = sorted(int(w) for w in rng.choice(candidates, size=depth, replace=True))
        turn = int(rng.integers(1, depth - 1))  # interior position, 0-indexed
        if category == "bottleneck":
            low, rest = ws[0], ws[1:]
            left = sorted(rest[:turn], reverse=True)
            right = sorted(rest[turn:])
            cand = tuple(left + [low] + right)
            return cand if is_bottleneck(cand) else None
        high, rest = ws[-1], ws[:-1]
        left = sorted(rest[:turn])
        right = sorted(rest[turn:], reverse=True)
        cand = tuple(left + [high] + right)
        return cand if is_spindle(cand) else None
    if category == "random":
        return tuple(int(w) for w in rng.choice(candidates, size=depth, replace=True))
    raise ValueError(f"unknown category {category!r}")


def generate_pool(cfg: PoolConfig) -> list[ArchitectureSpec]:
    """Generate the deduplicated architecture pool described by the config.

    Specs come out grouped by category in TOPOLOGY_TAGS order, cycling through
    the configured depths; identical (depth, widths) pairs are rejected
    globally. Raises when a category cannot supply the requested number of
    unique specs.
    """
    rng = np.random.default_rng(cfg.seed)
    seen: set[tuple] = set()
    pool: list[ArchitectureSpec] = []
    for category in TOPOLOGY_TAGS:
        count = cfg.per_category_counts.get(category, 0)
        if count == 0:
            continue
        depths = [d for d in cfg.depths if d >= 3] if category in ("bottleneck", "spindle") else list(cfg.depths)
        if not depths:
            raise ValueError(f"category {category!r} needs depth >= 3, none configured")
        capacity = category_capacity(category, depths, cfg.width_candidates)
        if capacity is not None and count > capacity:
            raise ValueError(
                f"category {category!r}: requested {count} unique specs but only "
                f"{capacity} are possible with {len(cfg.width_candidates)} width "
                f"candidates and depths {tuple(depths)}"
            )
        made = 0
        attempts = 0
        depth_idx = 0
        while made < count:
            attempts += 1
            if attempts > MAX_ATTEMPTS_PER_SPEC * count:
                raise ValueError(
                    f"category {category!r}: exhausted attempts after {made}/{count} specs"
                )
            depth = depths[depth_idx % len(depths)]
            widths = _draw_widths(category, depth, cfg.width_candidates, rng)
            if widths is None:
                continue
            key = (depth, widths)
            if key in seen:
                continue
            seen.add(key)
            depth_idx += 1
            made += 1
            pool.append(ArchitectureSpec(
                depth=depth,
                widths=(cfg.input_dim,) + widths + (cfg.output_dim,),
                topology_tag=category,
            ))
    return pool


# ---------------------------------------------------------------------------
# manifest serialization
# ---------------------------------------------------------------------------

def pool_entries(pool: list[ArchitectureSpec]) -> list[tuple[str, ArchitectureSpec]]:
    """(arch_id, spec) pairs, numbered in pool order as the manifest numbers them."""
    return [(f"arch{i:04d}", spec) for i, spec in enumerate(pool)]


def pool_to_manifest(pool: list[ArchitectureSpec], seed: int = 0) -> str:
    lines = ["# arch pool manifest v1", f"# seed={seed}"]
    for arch_id, spec in pool_entries(pool):
        widths = ",".join(str(w) for w in spec.widths)
        lines.append(f"{arch_id}\t{spec.depth}\t{widths}\t{spec.topology_tag}")
    return "\n".join(lines) + "\n"


def manifest_to_pool(text: str) -> list[tuple[str, ArchitectureSpec]]:
    """Parse a manifest into (arch_id, spec) pairs; a bad line or a repeated
    arch id raises ValueError naming the line."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split("\t")
        try:
            if len(cells) != 4:
                raise ValueError(f"{len(cells)} tab-separated fields, expected 4 "
                                 "(arch_id, depth, widths, tag)")
            arch_id, depth_s, widths_s, tag = cells
            if arch_id in out:
                raise ValueError("the arch id repeats an earlier entry")
            out[arch_id] = ArchitectureSpec(int(depth_s),
                                            tuple(int(w) for w in widths_s.split(",")), tag)
        except ValueError as exc:
            raise ValueError(f"manifest line {lineno}, entry {cells[0]}: {exc}") from None
    return list(out.items())


def save_manifest(pool: list[ArchitectureSpec], path, seed: int = 0) -> None:
    write_atomic(path, lambda fh: fh.write(pool_to_manifest(pool, seed)))


def load_manifest(path) -> list[tuple[str, ArchitectureSpec]]:
    with open(path) as fh:
        text = fh.read()
    try:
        return manifest_to_pool(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
