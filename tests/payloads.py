"""Hypothesis strategies for JSON payloads: the encoders' output on random
objects from the property-suite generators, and mutations of such payloads
that break them at one or two spots."""

import copy
import random

from hypothesis import strategies as st

from rispace import XiWeight, halfline, jsonio
from rispace.properties import (
    gen_fn,
    gen_normspec,
    gen_phi,
    gen_set,
    gen_space,
    gen_symbol,
    gen_weight,
)

# what a mutation may put in place of a value: wrong JSON types, a boolean
# for an integer, a non-integer, and number strings off the schemas' spelling
BAD_VALUES = (True, False, None, 2.5, -1, 0, "1/0", "inf", "-inf", " 1", "1_0", "3\n",
              "x", [], {}, [0, 1, 2])


def _spots(x, path=()):
    """(path, value) for the value and everything nested in it."""
    yield path, x
    if isinstance(x, dict):
        for key, v in x.items():
            yield from _spots(v, path + (key,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _spots(v, path + (i,))


@st.composite
def mutation(draw, obj):
    """A copy of obj with one spot broken: a key dropped or added, a value
    replaced by one of BAD_VALUES, or an item appended to an array (a third
    item for a pair)."""
    obj = copy.deepcopy(obj)
    path, value = draw(st.sampled_from(list(_spots(obj))))
    how = draw(st.sampled_from(("drop", "add", "replace", "append")))
    if how == "add" and isinstance(value, dict):
        value[draw(st.sampled_from(("extra", "kind", "n", "p", "values", "shift")))] = 1
        return obj
    if how == "append" and isinstance(value, list):
        value.append(value[-1] if value else 0)
        return obj
    new = draw(st.sampled_from(BAD_VALUES))
    if not path:
        return new
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    if how == "drop" and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return obj


def mutated(obj):
    """obj broken at one or two spots."""
    return mutation(obj).flatmap(lambda once: st.one_of(st.just(once), mutation(once)))


def wire(obj):
    """obj as it reads back from its JSON text."""
    return jsonio.loads(jsonio.dumps(obj))


def _rng(seed: int):
    return random.Random(seed), seed % 3 + 1


def measfn(seed: int):
    rng, size = _rng(seed)
    return gen_fn(rng, size, gen_space(rng, size), compact=rng.random() < 0.7)


def normspec(seed: int):
    rng, size = _rng(seed)
    return gen_normspec(rng, size, gen_space(rng, size))


def phi(seed: int):
    rng, size = _rng(seed)
    return gen_phi(rng, size)


def space(seed: int):
    rng, size = _rng(seed)
    return gen_space(rng, size)


def measurable_set(seed: int):
    rng, size = _rng(seed)
    return gen_set(rng, size, gen_space(rng, size))


def symbol(seed: int):
    rng, size = _rng(seed)
    return gen_symbol(rng, size)


def xiweight(seed: int) -> XiWeight:
    rng, size = _rng(seed)
    return XiWeight(gen_weight(rng, size))


def measfn_obj(seed: int) -> dict:
    return jsonio.measfn_to_obj(measfn(seed))


def normspec_obj(seed: int) -> dict:
    return jsonio.normspec_to_obj(normspec(seed))


def symbol_obj(seed: int) -> dict:
    return jsonio.symbol_to_obj(symbol(seed))


def xiweight_obj(seed: int) -> dict:
    return jsonio.xiweight_to_obj(xiweight(seed))


def eval_payload(operation: str, seed: int) -> dict:
    """A valid ``rispace eval`` payload for the operation."""
    rng, size = _rng(seed)
    if operation in ("rearrange", "norm"):
        sp = gen_space(rng, size)
        out = {"function": jsonio.measfn_to_obj(gen_fn(rng, size, sp))}
        if operation == "norm":
            out["spec"] = jsonio.normspec_to_obj(gen_normspec(rng, size, sp))
        return out
    if operation == "xi":
        return {"weight": jsonio.measfn_to_obj(gen_weight(rng, size)),
                "function": jsonio.measfn_to_obj(gen_fn(rng, size, halfline()))}
    sym = gen_symbol(rng, size, exact_only=True)
    out = {"symbol": jsonio.symbol_to_obj(sym)}
    if operation == "analyze-symbol":
        out["horizon"] = rng.randint(1, 3)
        return out
    out["function"] = jsonio.measfn_to_obj(gen_fn(rng, size, sym.space))
    if operation == "cesaro":
        out["n"] = rng.randint(1, 3)
    if operation == "maximal":
        out["K"] = rng.randint(1, 3)
    return out
