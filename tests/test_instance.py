import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couponcascade.instance import (
    Instance,
    InstanceFormatError,
    InstanceValidationError,
    from_dict,
    generate_random,
    load_instance,
    save_instance,
)


def test_minimal_file_roundtrip(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "n": 2, "m": 1, "coupon_values": [1.0],
        "adoption": [[0.5], [0.5]], "budget_B": 1.0,
    }))
    inst = load_instance(path)
    assert inst.n == 2 and inst.m == 1
    assert inst.p(1, 1) == 0.5
    assert inst.budget_K is None


def test_save_load_identity(tmp_path):
    inst = generate_random(4, 2, seed=3, extension=True)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_roundtrip_preserves_edge_order(tmp_path):
    inst = generate_random(5, 2, edge_density=0.8, seed=9)
    assert len(inst.edges) > 2
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path).edges == inst.edges


def test_table_roundtrip(tmp_path):
    inst = generate_random(3, 2, model="TABLE", epsilon=0.1, seed=4)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_save_to_unwritable_path(tmp_path):
    inst = generate_random(2, 1, seed=0)
    with pytest.raises(OSError):
        save_instance(inst, tmp_path / "missing_dir" / "inst.json")


def test_zero_adoption_rejected():
    with pytest.raises(InstanceValidationError, match="adoption probability out of"):
        Instance(n=1, m=1, coupon_values=[1.0], adoption=[[0.0]], budget_B=1.0)


def test_unallocatable_user_rejected():
    with pytest.raises(InstanceValidationError, match="never allocatable"):
        Instance(n=1, m=1, coupon_values=[1.0], adoption=[[0.5]],
                 dist_cost=[5.0], budget_B=1.0, budget_K=3.0)


def test_nonincreasing_coupon_values_rejected():
    with pytest.raises(InstanceValidationError, match="strictly increasing"):
        Instance(n=1, m=2, coupon_values=[2.0, 2.0], adoption=[[0.5, 0.5]], budget_B=1.0)


def test_unknown_keys_rejected():
    with pytest.raises(InstanceFormatError, match="unknown keys"):
        from_dict({"n": 1, "m": 1, "coupon_values": [1.0],
                   "adoption": [[0.5]], "budget_B": 1.0, "bogus": 1})


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError):
        load_instance(path)


def test_gamma_table_requires_table_model():
    with pytest.raises(InstanceValidationError, match="only allowed with model TABLE"):
        Instance(n=1, m=1, coupon_values=[1.0], adoption=[[0.5]],
                 budget_B=1.0, model="IC", gamma_table={frozenset(): 0.0})


def test_generate_deterministic():
    a = generate_random(3, 2, seed=7)
    b = generate_random(3, 2, seed=7)
    assert a == b
    assert a != generate_random(3, 2, seed=8)


def test_generate_density_extremes():
    empty = generate_random(3, 1, edge_density=0.0, seed=1)
    assert empty.edges == ()
    full = generate_random(3, 1, edge_density=1.0, seed=1)
    assert len(full.edges) == 6


def test_generate_degenerate_rejected():
    with pytest.raises(InstanceValidationError):
        generate_random(0, 1, seed=0)
    with pytest.raises(InstanceValidationError):
        generate_random(1, 0, seed=0)


def test_generate_extension_valid():
    inst = generate_random(3, 2, seed=5, extension=True)
    assert inst.budget_K is not None
    assert np.all(inst.dist_cost <= inst.budget_K)


def test_lt_weights_rescaled():
    inst = generate_random(5, 1, edge_density=1.0, model="LT", seed=2)
    in_sum = np.zeros(6)
    for _, v, w in inst.edges:
        in_sum[v] += w
    assert np.all(in_sum <= 1.0)


def test_lt_heavy_in_weights_rejected_at_the_boundary():
    edges = ((1, 2, 0.7), (3, 2, 0.5))
    with pytest.raises(InstanceValidationError, match="user 2 sum above 1"):
        Instance(n=3, m=1, coupon_values=[1.0], adoption=[[0.5]] * 3, budget_B=1.0,
                 model="LT", edges=edges)
    # the same weights are fine under IC, where they are independent probabilities
    Instance(n=3, m=1, coupon_values=[1.0], adoption=[[0.5]] * 3, budget_B=1.0, edges=edges)


@pytest.mark.parametrize("seed", range(5))
def test_generated_lt_instances_load(tmp_path, seed):
    inst = generate_random(6, 2, edge_density=1.0, model="LT", seed=seed, extension=seed % 2 == 1)
    save_instance(inst, tmp_path / "lt.json")
    assert load_instance(tmp_path / "lt.json") == inst


def test_digest_stable_and_distinct():
    a = generate_random(3, 2, seed=7)
    assert a.digest() == generate_random(3, 2, seed=7).digest()
    assert a.digest() != generate_random(3, 2, seed=8).digest()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                   max_size=4),
    max_leaves=12,
)
GOOD = {"n": 2, "m": 1, "coupon_values": [1.0], "adoption": [[0.5], [0.5]],
        "budget_B": 1.0, "model": "TABLE",
        "gamma_table": {"": 0.0, "1": 1.0, "2": 1.0, "1,2": 1.5}}


@given(st.dictionaries(st.sampled_from(sorted(GOOD) + ["dist_cost", "budget_K", "edges",
                                                       "epsilon", "perturb_seed"]),
                       JSON_VALUES, max_size=6))
@settings(max_examples=300, deadline=None)
def test_from_dict_raises_only_instance_errors(changes):
    try:
        from_dict({**GOOD, **changes})
    except (InstanceFormatError, InstanceValidationError):
        pass


INTEGER_FIELD = (st.integers(-1, 4) | st.integers(-1, 4).map(float) | st.floats(-1, 4)
                 | st.sampled_from([float("nan"), float("inf")]))


def _trunc_or_one(x):
    return math.trunc(x) if math.isfinite(x) else 1


@given(n=INTEGER_FIELD, m=INTEGER_FIELD, seed=INTEGER_FIELD, u=INTEGER_FIELD, v=INTEGER_FIELD)
@settings(max_examples=300, deadline=None)
def test_from_dict_keeps_integer_fields_exact(n, m, seed, u, v):
    # adoption is sized as if n and m were truncated, so truncation would load
    rows, cols = _trunc_or_one(n), _trunc_or_one(m)
    doc = {"n": n, "m": m, "coupon_values": [float(d) for d in range(1, cols + 1)],
           "adoption": [[0.5] * cols for _ in range(rows)], "budget_B": 1.0,
           "perturb_seed": seed, "edges": [[u, v, 0.5]]}
    try:
        inst = from_dict(doc)
    except (InstanceFormatError, InstanceValidationError):
        return
    assert (inst.n, inst.m, inst.perturb_seed) == (n, m, seed)
    assert inst.edges == ((u, v, 0.5),)
    assert all(type(x) is int for x in (inst.n, inst.m, inst.perturb_seed, *inst.edges[0][:2]))


@pytest.mark.parametrize("change,message", [
    ({"n": "abc"}, "malformed instance data"),
    ({"n": 1e300}, "adoption matrix must be n x m"),
    ({"budget_B": 10 ** 400}, "malformed instance data"),
    ({"coupon_values": [float("inf")]}, "coupon_values must be finite"),
    ({"dist_cost": [0.5, float("nan")]}, "dist_cost must be finite"),
    ({"epsilon": 1.0}, "epsilon must lie in"),
    ({"epsilon": float("nan")}, "epsilon must lie in"),
    ({"gamma_table": {"": 0.0, "1": 1.0, "1,2": 1.5}}, r"must list all 2\^2 subsets"),
    ({"gamma_table": {"": "x"}}, "malformed instance data"),
    ({"n": 2.7, "model": "IC", "gamma_table": None}, "n must be an integer"),
    ({"n": 2.0, "model": "IC", "gamma_table": None, "edges": [[1.9, 2, 0.5]]},
     "edge endpoint must be an integer"),
    ({"perturb_seed": True}, "perturb_seed must be an integer"),
])
def test_boundary_rejects(change, message):
    with pytest.raises((InstanceFormatError, InstanceValidationError), match=message):
        from_dict({**GOOD, **change})


def _construct(**kw):
    return Instance(n=2, m=1, coupon_values=[1.0], adoption=[[0.5], [0.5]], budget_B=1.0, **kw)


@pytest.mark.parametrize("change,message", [
    ({"edges": ((1.9, 2, 0.5),)}, "edge endpoint must be an integer, got 1.9"),
    ({"edges": ((1, True, 0.5),)}, "edge endpoint must be an integer, got True"),
    ({"perturb_seed": 2.5}, "perturb_seed must be an integer, got 2.5"),
    ({"perturb_seed": "7"}, "perturb_seed must be an integer, got '7'"),
])
def test_constructor_rejects_non_integral_fields(change, message):
    with pytest.raises(InstanceValidationError, match=message):
        _construct(**change)


def test_constructor_stores_integral_fields_as_int():
    inst = _construct(edges=((1.0, np.int64(2), 0.5),), perturb_seed=np.float64(2.0))
    assert inst.edges == ((1, 2, 0.5),) and inst.perturb_seed == 2
    assert all(type(x) is int for x in (inst.perturb_seed, *inst.edges[0][:2]))
    assert type(_construct(perturb_seed=np.int64(5)).perturb_seed) is int
