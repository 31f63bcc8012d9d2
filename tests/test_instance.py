import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couponcascade import oracle
from couponcascade.cascade import CascadeUtility, UtilityError, gamma_sampled, make_utility
from couponcascade.greedy import GreedyConfig, GreedyError, approximation_beta, continuous_greedy
from couponcascade.instance import (
    Instance,
    InstanceFormatError,
    InstanceValidationError,
    from_dict,
    generate_random,
    load_instance,
    save_instance,
)
from couponcascade.objective import f_mc, multilinear_F_mc
from couponcascade.rounding import RoundingError, resolve_conflicts_batch, round_partition_batch


def test_minimal_file_roundtrip(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "n": 2, "m": 1, "coupon_values": [1.0],
        "adoption": [[0.5], [0.5]], "budget_B": 1.0,
    }))
    inst = load_instance(path)
    assert inst.n == 2 and inst.m == 1
    assert inst.adoption[0, 0] == 0.5
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


def _table(n, bump=0.0):
    """The cardinality table over users 1..n, with gamma({1}) raised by `bump`."""
    table = {frozenset(v + 1 for v in range(n) if mask >> v & 1): float(bin(mask).count("1"))
             for mask in range(1 << n)}
    table[frozenset({1})] += bump
    return table


_EQ_BASE = dict(n=2, m=2, coupon_values=[1.0, 2.0], adoption=[[0.5, 0.6], [0.4, 0.9]],
                budget_B=2.0, dist_cost=[0.5, 0.2], budget_K=1.0, edges=((1, 2, 0.5),),
                model="TABLE", gamma_table=_table(2), epsilon=0.0, perturb_seed=0)


@pytest.mark.parametrize("field,changes", [
    ("n", dict(n=3, adoption=[[0.5, 0.6], [0.4, 0.9], [0.3, 0.7]], dist_cost=[0.5, 0.2, 0.1],
               gamma_table=_table(3))),
    ("m", dict(m=3, coupon_values=[1.0, 2.0, 3.0], adoption=[[0.5, 0.6, 0.7], [0.4, 0.9, 1.0]])),
    ("coupon_values", dict(coupon_values=[1.0, 3.0])),
    ("adoption", dict(adoption=[[0.5, 0.6], [0.4, 0.8]])),
    ("dist_cost", dict(dist_cost=[0.5, 0.3])),
    ("budget_B", dict(budget_B=3.0)),
    ("budget_K", dict(budget_K=2.0)),
    ("edges", dict(edges=((1, 2, 0.25),))),
    ("model", dict(model="IC", gamma_table=None)),  # only TABLE may carry a gamma_table
    ("gamma_table", dict(gamma_table=_table(2, bump=0.5))),
    ("epsilon", dict(epsilon=0.1)),
    ("perturb_seed", dict(perturb_seed=1)),
])
def test_instances_differing_in_one_field_compare_unequal(field, changes):
    assert field in changes
    base = Instance(**_EQ_BASE)
    other = Instance(**{**_EQ_BASE, **changes})
    assert base != other and other != base
    assert base == Instance(**_EQ_BASE)


def test_equal_instances_built_differently_compare_equal():
    fields = dict(_EQ_BASE, budget_K=None, perturb_seed=2)
    assert Instance(**dict(fields, dist_cost=None)) == Instance(
        **dict(fields, dist_cost=np.zeros(2), perturb_seed=2.0))


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
    for density in (-0.1, 1.5, float("nan")):
        with pytest.raises(InstanceValidationError, match=r"edge_density must be in \[0,1\]"):
            generate_random(3, 1, edge_density=density, seed=0)


def test_generate_extension_valid():
    inst = generate_random(3, 2, seed=5, extension=True)
    assert inst.budget_K is not None
    assert np.all(inst.dist_cost <= inst.budget_K)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_generate_extension_always_allocatable(n, m):
    # K is drawn as a share of the total cost and raised to the largest
    # single cost when the share falls below it; never otherwise.
    raised = 0
    for seed in range(200):
        inst = generate_random(n, m, model="TABLE", seed=seed, extension=True)
        top, total = float(inst.dist_cost.max()), float(inst.dist_cost.sum())
        assert top <= inst.budget_K
        if inst.budget_K == top:
            raised += 1
        else:
            assert 0.6 * total - 1e-6 <= inst.budget_K <= 0.95 * total + 1e-6
    assert raised > 0


# The benchmark ladders' generator arguments (n, m, model, edge_density,
# epsilon, seed, extension) and their digests, from before K was raised to
# the largest cost: every instance that was valid then keeps its contents.
LADDER_DIGESTS = [
    ((3, 3, "TABLE", 0.3, 0.0, 1, False), "aa1cc5a750f323d71befb5c2ac8cfabd83e86842991d2943834ed5823ec31fac"),
    ((4, 3, "TABLE", 0.3, 0.1, 6, True), "971feb2470007a58cce07a0c7725b4c2f714c04048b08e14563ad08541035e5c"),
    ((2, 8, "TABLE", 0.3, 0.1, 7, True), "cf1509d5dd9ea141e38067682683ce50a28581c46a0b00f1e92cb8263a4224d4"),
    ((3, 5, "TABLE", 0.3, 0.0, 4, False), "090879d8df9878e72926a84da448c6277c0e0d49500fc8a7835f2f4a03abeb54"),
    ((5, 3, "TABLE", 0.3, 0.0, 2, True), "fb5d52fd45ec6086eef2280c6be2697294970b7d2d17d49a1e8ee9a97883f7e7"),
    ((4, 4, "TABLE", 0.3, 0.1, 5, False), "cde55907e6854a17226e5f39dfef20c9bc971fa8b2aa6034181f0095fe6683b8"),
    ((6, 2, "TABLE", 0.3, 0.1, 3, False), "ccbf07ce3cdd8883b1d09df1d0225aad4aa435734f9e2eddce3357c6c0987af0"),
    ((4, 3, "IC", 11 / 12, 0.0, 2, False), "c348b5b620ac8fcbc228bbba43bffb02145c48ac7f77ba7be326a91a06a69dd9"),
    ((5, 2, "IC", 0.6, 0.0, 7, True), "81bbeb21f6225e2c70bf6786136ec75c2427e990512f974467a8009b8777cf77"),
    ((4, 4, "IC", 11 / 12, 0.0, 6, True), "15ad340a2fdce5ec018241c6c0742eb724534e4ddafe5736d58f36d7f75f5c58"),
    ((5, 2, "IC", 0.7, 0.0, 3, False), "691f03f30d4052b33bee580460b70c569c6fd776b2c657d704a5aaeabc059aeb"),
    ((6, 2, "IC", 0.4, 0.0, 1, False), "13dff711cfeb38486a7e151394d50db815b42bf062d6d7896c28f8a270734a68"),
    ((4, 10, "TABLE", 0.3, 0.0, 3, False), "a27a23dcd8fd33d4289fea328cd55a9ef8b371ba78861f296ac1dfd5a9990409"),
    ((5, 10, "TABLE", 0.3, 0.0, 5, True), "d745e8f1f404875744f030337348ca19f917331fa49afb443c5c8a9ea6872e25"),
    ((3, 50, "TABLE", 0.3, 0.0, 4, False), "5403374ff858b5076e900709917dcabdec43a6916aa9c4f5217cc89869197200"),
    ((4, 20, "TABLE", 0.3, 0.0, 2, False), "861e305acfcc344d16f544bca185d3b586b46ab579c95f5cbb0c8376cc0a308e"),
    ((3, 100, "TABLE", 0.3, 0.0, 1, False), "6971cc6cbd90881ee2f675288136a035b31c909df22ce1e3fecf172a3fa9eb69"),
]


@pytest.mark.parametrize("args,digest", LADDER_DIGESTS)
def test_valid_generated_instances_keep_their_digests(args, digest):
    n, m, model, density, eps, seed, extension = args
    inst = generate_random(n, m, edge_density=density, model=model, epsilon=eps,
                           seed=seed, extension=extension)
    assert inst.digest() == digest


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
    ({"coupon_values": [1.0, 2.0]}, "coupon_values must have length m"),
    ({"coupon_values": [0.0]}, "coupon values must be strictly positive"),
    ({"coupon_values": [-1.0]}, "coupon values must be strictly positive"),
    ({"dist_cost": [0.5, -0.1]}, "distribution costs must be nonnegative"),
    ({"budget_B": 0.0}, "budget_B must be finite and positive"),
    ({"budget_B": -1.0}, "budget_B must be finite and positive"),
    ({"budget_K": 0.0}, "budget_K must be finite and positive"),
    ({"budget_K": -2.0}, "budget_K must be finite and positive"),
    ({"edges": [[1, 2, 1.5]]}, r"edge weight 1.5 out of \(0,1\]"),
    ({"edges": [[1, 2, 0.0]]}, r"edge weight 0.0 out of \(0,1\]"),
    ({"gamma_table": None}, "model TABLE requires gamma_table"),
    ({"gamma_table": {"": 0.0, "1": 1.0, "3": 1.0, "1,3": 1.5}},
     "gamma_table key references an unknown user"),
    ({"gamma_table": {"": 0.0, "1": -1.0, "2": 1.0, "1,2": 1.5}},
     "gamma_table values must be finite and nonnegative"),
])
def test_boundary_rejects(change, message):
    with pytest.raises((InstanceFormatError, InstanceValidationError), match=message):
        from_dict({**GOOD, **change})


@pytest.mark.parametrize("doc,message", [
    ([GOOD], "instance file must contain a JSON object"),
    ("GOOD", "instance file must contain a JSON object"),
    (None, "instance file must contain a JSON object"),
] + [({k: v for k, v in GOOD.items() if k != key}, f"missing required key '{key}'")
     for key in ("n", "m", "coupon_values", "adoption", "budget_B")])
def test_boundary_rejects_whole_documents(doc, message):
    with pytest.raises(InstanceFormatError, match=message):
        from_dict(doc)


def _library_call(name):
    """One library call with an out-of-range argument, by name."""
    base = generate_random(3, 2, model="TABLE", seed=1)
    lt = generate_random(3, 1, model="LT", seed=1, edge_density=0.5)
    rng = np.random.default_rng(0)
    return {
        "step of delta 0": lambda: GreedyConfig(delta=0).step(base),
        "negative epsilon": lambda: approximation_beta(-0.1, 3),
        "f_mc without samples": lambda: f_mc(base, make_utility(base), [1, 0, 2], 0, rng),
        "F_mc without samples": lambda: multilinear_F_mc(
            base, make_utility(base), np.full((3, 2), 0.25), 0, rng),
        "gamma_sampled without samples": lambda: gamma_sampled(3, lt.edges, "IC", 0, rng),
        "unknown utility kind": lambda: CascadeUtility("XX", 2),
        "f_exact on LT": lambda: oracle.f_exact(lt, make_utility(lt)),
        "resolution without K": lambda: resolve_conflicts_batch(np.ones((2, 3), int), base),
        "negative rounding entry": lambda: round_partition_batch([[-0.1, 0.2]], 10, rng),
    }[name]


@pytest.mark.parametrize("name,error,message", [
    ("step of delta 0", GreedyError, r"step size must lie in \(0,1\]"),
    ("negative epsilon", GreedyError, "epsilon must be nonnegative"),
    ("f_mc without samples", UtilityError, "need at least one sample"),
    ("F_mc without samples", UtilityError, "need at least one sample"),
    ("gamma_sampled without samples", UtilityError, "need at least one sample"),
    ("unknown utility kind", UtilityError, "unknown utility kind 'XX'"),
    ("f_exact on LT", UtilityError, "f_exact needs an exactly evaluable utility"),
    ("resolution without K", RoundingError, "conflict resolution needs a distribution budget"),
    ("negative rounding entry", RoundingError, "negative fractional entry"),
])
def test_library_guards(name, error, message):
    # the library's own entry points refuse what the loader cannot catch
    call = _library_call(name)
    with pytest.raises(error, match=message):
        call()


def _construct(**kw):
    return Instance(**{**dict(n=2, m=1, coupon_values=[1.0], adoption=[[0.5], [0.5]],
                              budget_B=1.0), **kw})


@pytest.mark.parametrize("change,message", [
    ({"edges": ((1.9, 2, 0.5),)}, "edge endpoint must be an integer, got 1.9"),
    ({"edges": ((1, True, 0.5),)}, "edge endpoint must be an integer, got True"),
    ({"perturb_seed": 2.5}, "perturb_seed must be an integer, got 2.5"),
    ({"perturb_seed": "7"}, "perturb_seed must be an integer, got '7'"),
    ({"n": 2.5}, "n must be an integer, got 2.5"),
    ({"n": True}, "n must be an integer, got True"),
    ({"m": 1.5}, "m must be an integer, got 1.5"),
])
def test_constructor_rejects_non_integral_fields(change, message):
    with pytest.raises(InstanceValidationError, match=message):
        _construct(**change)


def test_constructor_stores_integral_fields_as_int():
    inst = _construct(edges=((1.0, np.int64(2), 0.5),), perturb_seed=np.float64(2.0))
    assert inst.edges == ((1, 2, 0.5),) and inst.perturb_seed == 2
    assert all(type(x) is int for x in (inst.perturb_seed, *inst.edges[0][:2]))
    assert type(_construct(perturb_seed=np.int64(5)).perturb_seed) is int


def test_constructor_stores_float_sizes_as_int():
    inst = _construct(n=2.0, m=np.float64(1.0))
    assert type(inst.n) is int and type(inst.m) is int
    assert inst == _construct() and inst.digest() == _construct().digest()
    trace = continuous_greedy(inst, make_utility(inst), GreedyConfig())
    assert trace.final.shape == (2, 1)


def test_table_past_twelve_users_roundtrips(tmp_path):
    inst = generate_random(13, 1, model="TABLE", seed=1)
    path = tmp_path / "table13.json"
    save_instance(inst, path)
    assert load_instance(path) == inst
    gamma = make_utility(inst).gamma_vector()
    assert np.array_equal(gamma, [inst.gamma_table[frozenset(v + 1 for v in range(13)
                                                              if mask >> v & 1)]
                                  for mask in range(1 << 13)])
