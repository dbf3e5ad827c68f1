"""The experiment directory's file formats: a config or profile that builds
reads back equal, and manifests, records and profiles round-trip exactly."""

import typing
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adslab.archpool import PoolConfig, load_manifest, pool_entries, save_manifest
from adslab.calib import CalibrationParams, load_profile, save_profile
from adslab.clrun import LayerTrace, RunRecord, append_records, read_records
from adslab.datasets import ScenarioSpec
from adslab.files import field_types, write_atomic
from adslab.harness import ExperimentConfig, _drop_torn_tail, load_config, save_config
from adslab.nncore import TOPOLOGY_TAGS, ArchitectureSpec

SPEC = ScenarioSpec("s", "transfer", src="cifar10", dst="mnist", dataset="fashion_mnist",
                    classes_a=(1, 3), classes_b=(0, 2), angle_a=15.0, angle_b=350.5,
                    eval_fraction=0.25, calib_fraction=0.125)
POOL = PoolConfig(depths=(2, 7), width_candidates=(16, 40),
                  per_category_counts={"uniform": 3, "spindle": 1}, seed=9, input_dim=64,
                  output_dim=5)
CONFIG = ExperimentConfig(scenarios=(SPEC,), pool=POOL, seeds=(4, 11), out_dir="runs/x",
                          data_root="d", calib_fractions=(0.25,), n_perm=1999)
PARAMS = CalibrationParams(0.2, -0.4, 2.0, 0.5, 0.9, 0.8, 50, source="mf@0.3",
                           params_id="mf_f030")

# text that configparser strips or splits, beside text it keeps
TEXT = st.text(max_size=6) | st.sampled_from([" a", "a ", "\t", "a\nb", "\r", "a\rb", "100%", ""])
INTS = (st.integers(0, 3000) | st.integers() | st.integers(0, 2**63 - 1).map(np.int64)
        | st.floats() | st.booleans())
# ints past 2**53 that no float holds, and past the float range
FLOATS = st.floats() | st.integers() | st.integers(-2**1100, 2**1100) | st.booleans()


def values(tp):
    """Values of every kind for a field annotated ``tp``, most of them wrong for it."""
    if typing.get_origin(tp) is tuple:
        return st.lists(values(typing.get_args(tp)[0]), max_size=3)
    return {int: INTS, float: FLOATS, str: TEXT}[tp]


@st.composite
def changes(draw, base):
    """Up to two of ``base``'s int, float, str or tuple-of-scalar fields, set anew."""
    hints = field_types(type(base))
    names = [n for n, tp in hints.items()
             if tp in (int, float, str) or typing.get_args(tp)[:1] in ((int,), (float,))]
    chosen = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    return {name: draw(values(hints[name])) for name in chosen}


def same(a, b) -> bool:
    """``a == b``, where a NaN equals a NaN: a NaN field reads back as another NaN."""
    if is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                          for f in fields(a))
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same, a, b))
    return a == b or (a != a and b != b)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


# ---------------------------------------------------------------------------
# a config or profile that builds reads back equal
# ---------------------------------------------------------------------------

COUNTS = st.dictionaries(st.sampled_from(TOPOLOGY_TAGS) | TEXT, INTS, max_size=3)


@settings(max_examples=400)
@given(kind=st.sampled_from(["transfer", "split", "rotated"]), data=st.data())
def test_a_config_that_builds_reloads_equal(scratch, kind, data):
    # one of the three dataclasses, or the pool's counts, is changed at a time
    bases = {"spec": SPEC, "pool": POOL, "cfg": CONFIG}
    part = data.draw(st.sampled_from([*bases, "counts"]))
    change = dict.fromkeys(bases, {})
    if part == "counts":
        change["pool"] = {"per_category_counts": data.draw(COUNTS)}
    else:
        change[part] = data.draw(changes(bases[part]))
    try:
        config = replace(CONFIG, scenarios=[replace(SPEC, kind=kind, **change["spec"])],
                         pool=replace(POOL, **change["pool"]), **change["cfg"])
    except (ValueError, TypeError):
        return
    path = scratch / "experiment.ini"
    save_config(config, path)
    assert same(load_config(path), config)


@given(change=changes(PARAMS))
def test_a_profile_that_builds_reloads_equal(scratch, change):
    try:
        params = replace(PARAMS, **change)
    except ValueError:
        return
    path = scratch / "p.profile"
    save_profile(params, path)
    assert same(load_profile(path), params)


@pytest.mark.parametrize("field, build", [
    ("n_perm", lambda: replace(CONFIG, n_perm=999.0)),
    ("seeds", lambda: replace(CONFIG, seeds=(0.0,))),
    ("eval_cap", lambda: replace(CONFIG, eval_cap=True)),
    ("lr", lambda: replace(CONFIG, lr=True)),
    pytest.param("lr", lambda: replace(CONFIG, lr=10**23),  # would reload as 1e+23
                 id="lr-10**23"),
    pytest.param("lr", lambda: replace(CONFIG, lr=2**53 + 1), id="lr-2**53+1"),
    pytest.param("lr", lambda: replace(CONFIG, lr=np.int64(2**53 + 1)),
                 id="lr-np.int64(2**53+1)"),
    pytest.param("lr", lambda: replace(CONFIG, lr=10**400),  # would reload as inf
                 id="lr-10**400"),
    ("out_dir", lambda: replace(CONFIG, out_dir=" a")),
    ("data_root", lambda: replace(CONFIG, data_root="a\nb")),
    ("src", lambda: replace(SPEC, src="\r")),
    ("count_uniform", lambda: replace(POOL, per_category_counts={"uniform": 2.0})),
    ("per_category_counts", lambda: replace(POOL, per_category_counts={})),
    ("n_layer_records", lambda: replace(PARAMS, n_layer_records=0.0)),
    ("params_id", lambda: replace(PARAMS, params_id=" ")),
])
def test_a_value_that_would_not_reload_refused_when_built(field, build):
    with pytest.raises(ValueError, match=rf"^{field} "):
        build()


def test_numpy_numbers_pass():
    cfg = replace(CONFIG, seeds=(np.int64(4), 11), n_perm=np.int32(1999), lr=np.float64(0.0125))
    assert (cfg.seeds, cfg.n_perm, cfg.lr) == ((4, 11), 1999, 0.0125)


def test_a_write_that_raises_leaves_the_file_and_no_temp_file(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("old\n")

    def torn(fh):
        fh.write("new, half")
        raise OSError("no space left on device")

    with pytest.raises(OSError, match="no space left"):
        write_atomic(path, torn)
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
    assert path.read_text() == "old\n"


# ---------------------------------------------------------------------------
# manifests, records and profiles round-trip exactly
# ---------------------------------------------------------------------------

ARCHS = st.integers(1, 4).flatmap(lambda depth: st.builds(
    ArchitectureSpec, st.just(depth),
    st.lists(st.integers(1, 10**6), min_size=depth + 2, max_size=depth + 2).map(tuple),
    st.sampled_from(TOPOLOGY_TAGS)))


@given(pool=st.lists(ARCHS, max_size=6), seed=st.integers(0, 2**63))
def test_manifest_round_trips_exactly(scratch, pool, seed):
    path = scratch / "pool.manifest"
    save_manifest(pool, path, seed=seed)
    assert load_manifest(path) == pool_entries(pool)


ANY_FLOAT = st.floats()
TRACES = st.builds(LayerTrace, st.integers(1, 20), ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT,
                   ANY_FLOAT, ANY_FLOAT, st.integers(1, 4096), st.integers(1, 4096), ANY_FLOAT)
RECORDS = st.builds(RunRecord, st.text(max_size=8), st.text(max_size=8), st.integers(0, 2**40),
                    ANY_FLOAT, st.lists(TRACES, max_size=3), ANY_FLOAT, ANY_FLOAT, ANY_FLOAT,
                    ANY_FLOAT, ANY_FLOAT, st.booleans(), st.text(max_size=8))


@given(rec=RECORDS)
def test_record_json_round_trips_exactly(rec):
    # repr shows every float's shortest round-trip digits, -0.0, NaN and ±inf included
    assert repr(RunRecord.from_json(rec.to_json())) == repr(rec)


@given(records=st.lists(RECORDS, min_size=1, max_size=4), data=st.data())
def test_a_torn_tail_drops_exactly_the_partial_line(scratch, records, data):
    path = scratch / "records.jsonl"
    path.write_bytes(b"")
    append_records(path, records)
    whole = path.read_bytes()
    prefix = whole[:data.draw(st.integers(0, len(whole)))]
    path.write_bytes(prefix)
    kept = prefix[:prefix.rfind(b"\n") + 1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _drop_torn_tail(path)
    assert path.read_bytes() == kept
    assert len(caught) == (kept != prefix)
    assert [r.to_json() for r in read_records(path)] == [
        r.to_json() for r in records[:kept.count(b"\n")]]


EXTREME = st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                           1.7976931348623157e308, -1.7976931348623157e308, -0.0, 0.0])
FINITE = EXTREME | st.floats(allow_nan=False, allow_infinity=False)


@given(values=st.tuples(FINITE, FINITE, FINITE, FINITE, st.floats(), st.floats()))
def test_profile_round_trips_extreme_floats_exactly(scratch, values):
    params = CalibrationParams(*values, n_layer_records=7, source="mf@0.3", params_id="p")
    path = scratch / "extreme.profile"
    save_profile(params, path)
    assert repr(load_profile(path)) == repr(params)

