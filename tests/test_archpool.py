"""Pool generation: category shapes, uniqueness, determinism, manifest."""

import numpy as np
import pytest

from adslab import archpool
from adslab.archpool import (
    PoolConfig,
    _category_counts,
    generate_pool,
    load_manifest,
    manifest_to_pool,
    pool_to_manifest,
    save_manifest,
)
from adslab.nncore import ArchitectureSpec


def hidden(spec):
    return spec.hidden_widths


def pool_config(per_category, seed, **kw):
    return PoolConfig(per_category_counts=_category_counts(per_category), seed=seed, **kw)


class TestGeneratePool:
    def test_desk_default_yields_175_unique(self):
        pool = generate_pool(pool_config(per_category=35, seed=1))
        assert len(pool) == 175
        keys = {(s.depth, s.widths) for s in pool}
        assert len(keys) == 175

    def test_uniform_capacity_error_names_category(self):
        cfg = PoolConfig(
            depths=(3,), width_candidates=(256, 512),
            per_category_counts={"uniform": 3}, seed=0,
        )
        with pytest.raises(ValueError, match="uniform"):
            generate_pool(cfg)

    def test_uniform_exhaustive_small_pool(self):
        cfg = PoolConfig(
            depths=(3,), width_candidates=(256, 512),
            per_category_counts={"uniform": 2}, seed=0,
        )
        pool = generate_pool(cfg)
        assert len(pool) == 2
        assert {hidden(s) for s in pool} == {(256,) * 3, (512,) * 3}

    def test_category_predicates_hold(self):
        pool = generate_pool(pool_config(per_category=20, seed=3))
        for spec in pool:
            widths = list(hidden(spec))
            if spec.topology_tag == "uniform":  # drawn as one width: the program has no predicate
                holds = len(set(widths)) == 1
            else:
                holds = (spec.topology_tag == "random"
                         or getattr(archpool, f"is_{spec.topology_tag}")(widths))
            assert holds, (
                spec.topology_tag, hidden(spec))

    def test_bottleneck_turning_point_interior(self):
        cfg = pool_config(per_category=25, seed=5)
        pool = [s for s in generate_pool(cfg) if s.topology_tag == "bottleneck"]
        assert pool
        for spec in pool:
            ws = list(hidden(spec))
            p = ws.index(min(ws))
            assert 0 < p < len(ws) - 1
            assert all(a >= b for a, b in zip(ws[: p + 1], ws[1: p + 1]))
            assert all(a <= b for a, b in zip(ws[p:], ws[p + 1:]))

    def test_deterministic_per_seed(self):
        a = generate_pool(pool_config(per_category=15, seed=11))
        b = generate_pool(pool_config(per_category=15, seed=11))
        assert [(s.depth, s.widths, s.topology_tag) for s in a] == \
               [(s.depth, s.widths, s.topology_tag) for s in b]
        c = generate_pool(pool_config(per_category=15, seed=12))
        assert [(s.depth, s.widths) for s in a] != [(s.depth, s.widths) for s in c]

    def test_head_dims_from_config(self):
        cfg = pool_config(per_category=4, seed=0, input_dim=64, output_dim=5)
        for spec in generate_pool(cfg):
            assert spec.input_dim == 64 and spec.output_dim == 5


class TestValidateSpec:
    def test_ok(self):
        assert ArchitectureSpec(1, (784, 256, 10)).widths == (784, 256, 10)

    def test_zero_width(self):
        with pytest.raises(ValueError, match="width must be >= 1, got 0 at position 1"):
            ArchitectureSpec(1, (784, 0, 10))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="widths length must be depth"):
            ArchitectureSpec(2, (784, 256, 10))


class TestManifest:
    def test_round_trip(self, tmp_path):
        pool = generate_pool(pool_config(per_category=6, seed=2))
        path = tmp_path / "pool.manifest"
        save_manifest(pool, path, seed=2)
        loaded = load_manifest(path)
        assert len(loaded) == len(pool)
        for (arch_id, spec), orig in zip(loaded, pool):
            assert spec.depth == orig.depth
            assert spec.widths == orig.widths
            assert spec.topology_tag == orig.topology_tag
        ids = [a for a, _ in loaded]
        assert ids == sorted(ids)  # stable ids in pool order

    def test_manifest_rejects_bad_entry(self):
        text = "arch0\t1\t784,0,10\tuniform\n"
        with pytest.raises(ValueError, match="arch0"):
            manifest_to_pool(text)
