import copy
import json
import pickle
import random
from fractions import Fraction

import pytest

from rispace import (PROPERTIES, AtomSeq, Lorentz, LogClip, Lp, MarcStrong, MarcWeak, Power, WeakLp, atomic_finite,
                     atomic_n, atomic_z, halfline, interval, jsonio, line, norm_eval, properties, verify_suite)

from .oracles import gen_seq_oracle, gen_step_oracle, gen_weight_oracle, nonincreasing_step_oracle


def test_registry_names_are_unique_and_substantial():
    names = [p.name for p in PROPERTIES]
    assert len(names) == len(set(names))
    assert len(names) >= 30


def test_small_suite_passes():
    suite = verify_suite(seed=7, trials=30)
    assert suite.ok
    assert len(suite.results) == len(PROPERTIES)
    for r in suite.results:
        assert r.passed and r.trials == 30 and r.failures == 0
        assert r.line() == f"PASS {r.name} (30/30)"


def test_suite_is_deterministic_per_seed():
    a = verify_suite(seed=11, trials=10)
    b = verify_suite(seed=11, trials=10)
    assert [r.line() for r in a.results] == [r.line() for r in b.results]


def test_injected_failure_is_caught_and_shrunk():
    suite = verify_suite(seed=42, trials=20, inject_failure=True)
    assert not suite.ok
    bad = [r for r in suite.results if not r.passed]
    assert [r.name for r in bad] == ["injected-violation"]
    ce = bad[0].counterexample
    assert ce["property"] == "injected-violation"
    assert ce["size"] >= 1
    assert "data" in ce
    assert "FAIL injected-violation" in bad[0].line()


def test_every_counterexample_encodes(monkeypatch):
    # payloads are encoded only when a property fails, so force the failures:
    # a value type missing from jsonio.to_obj would surface here
    for name in ("_eq", "_leq", "hlp_leq", "pointwise_leq"):
        monkeypatch.setattr(properties, name, lambda *args: False)
    failing = set()
    for prop in (*PROPERTIES, properties.INJECTED):
        for seed in range(3):
            ce = properties._run_property(prop, seed, 3).counterexample
            if ce is None:
                continue
            text = jsonio.dumps(ce)
            assert json.loads(text) == ce
            assert jsonio.loads(text)["property"] == prop.name
            failing.add(prop.name)
    assert len(failing) >= 20


def test_name_filter():
    suite = verify_suite(seed=3, trials=15, names=["hardy-littlewood", "json-roundtrip"])
    assert [r.name for r in suite.results] == ["hardy-littlewood", "json-roundtrip"]
    assert suite.ok


def test_input_validation():
    with pytest.raises(ValueError):
        verify_suite(trials=0)
    with pytest.raises(ValueError):
        verify_suite(names=["no-such-property"])


@pytest.mark.parametrize("seed", range(40))
def test_shuffled_copy_moves_only_finite_pieces(seed):
    import random
    from collections import Counter

    from rispace import INF, NEG_INF, equimeasurable
    from rispace.properties import _shuffled_copy, gen_fn
    from rispace.space import halfline, interval, line

    sp = (line(), halfline(), interval(5))[seed % 3]
    rng = random.Random(seed)
    f = gen_fn(rng, 6, sp, compact=False)
    before = rng.getstate()
    g = _shuffled_copy(rng, f)

    def finite(h):
        return Counter((b - a, v) for a, b, v in h.pieces() if a != NEG_INF and b != INF)

    assert finite(g) == finite(f)
    for i in (0, -1):  # a ray keeps its value
        if sp.domain[i] in (NEG_INF, INF):
            assert g.vals[i] == f.vals[i]
    assert equimeasurable(f, g)
    # the draws are one shuffle of a list as long as the finite pieces
    replay = random.Random()
    replay.setstate(before)
    replay.shuffle(list(finite(f).elements()))
    assert replay.getstate() == rng.getstate()


def test_sorted_cuts_draws_what_a_fraction_pool_draws():
    import random
    from fractions import Fraction

    from rispace.properties import _DEN, _sorted_cuts

    def by_pool(rng, size, lo, hi):
        pool = [Fraction(i, _DEN) for i in range(int(lo * _DEN) + 1, int(hi * _DEN))]
        k = min(len(pool), rng.randint(0, size + 1))
        return sorted(rng.sample(pool, k))

    bounds = [(Fraction(0), Fraction(4)), (Fraction(0), Fraction(6)), (Fraction(-3), Fraction(3)),
              (Fraction(-5, 3), Fraction(7, 2)), (Fraction(0), Fraction(1, 8)), (Fraction(1), Fraction(1))]
    for seed in range(2000):
        size = seed % 9
        lo, hi = bounds[seed % len(bounds)]
        a, b = random.Random(seed), random.Random(seed)
        assert _sorted_cuts(a, size, lo, hi) == by_pool(b, size, lo, hi)
        assert a.random() == b.random()


# ---------------------------------------------------------------------------
# The generators build their results from their own int draws
# ---------------------------------------------------------------------------

_GEN_SPACES = (
    halfline(), line(), interval(1), interval(4), interval(Fraction(1, 3)), interval(Fraction(7, 3)), interval(2.5),
    atomic_n(), atomic_n(Fraction(1, 2)), atomic_n(2), atomic_z(), atomic_z(Fraction(1, 2)), atomic_z(2),
    atomic_finite(5), atomic_finite(3, Fraction(1, 2)), atomic_finite(6, 2),
)


def _norm_specs(sp):
    return (Lp(sp, 1), Lorentz(sp, 2, 1), WeakLp(sp, 2), MarcWeak(sp, Power(Fraction(1, 2))), MarcStrong(sp, LogClip()))


def _built_from_draws(seed, sp):
    """(generator, oracle) pairs of the seed on sp, each a function of an rng;
    the seed picks the size and both flags."""
    size, nonneg, compact = seed % 6, bool(seed & 1), bool(seed & 2)
    if sp.is_atomic:
        fn = (lambda r: properties.gen_seq(r, size, sp, nonneg=nonneg),
              lambda r: gen_seq_oracle(r, size, sp, nonneg=nonneg))
    else:
        fn = (lambda r: properties.gen_step(r, size, sp, nonneg=nonneg, compact=compact),
              lambda r: gen_step_oracle(r, size, sp, nonneg=nonneg, compact=compact))
    return [fn,
            (lambda r: properties.gen_weight(r, size), lambda r: gen_weight_oracle(r, size)),
            (lambda r: properties._nonincreasing_step(r, size, halfline()),
             lambda r: nonincreasing_step_oracle(r, size, halfline()))]


@pytest.mark.parametrize("sp", _GEN_SPACES, ids=repr)
def test_generators_build_what_step_and_seq_built_from_the_same_draws(sp):
    # 64 seeds per space, 1,024 in all, each with every flag setting 16 times
    for seed in range(64):
        for new, old in _built_from_draws(seed, sp):
            a, b = random.Random(f"{seed}:{sp!r}"), random.Random(f"{seed}:{sp!r}")
            got, want = new(a), old(b)
            assert a.getstate() == b.getstate()
            if not isinstance(got.space.domain[1], float):  # an exact end: built from the view alone
                fields = {"space", "tail", "_view"} if isinstance(got, AtomSeq) else {"space", "_view"}
                assert set(got.__dict__) == fields, (seed, got.__dict__)
            for spec in _norm_specs(got.space):
                assert repr(norm_eval(spec, got)) == repr(norm_eval(spec, want)), (seed, spec)
            assert got == want and want == got and not got != want
            assert hash(got) == hash(want) and repr(got) == repr(want)
            for copied in (pickle.loads(pickle.dumps(got)), copy.deepcopy(got)):
                assert copied == want and repr(copied) == repr(want)
            obj = jsonio.to_obj(got)
            assert jsonio.dumps(obj) == jsonio.dumps(jsonio.to_obj(want))
            assert jsonio.measfn_from_obj(jsonio.loads(jsonio.dumps(obj))) == want


_GENERATOR_ORACLES = (("gen_step", gen_step_oracle), ("gen_seq", gen_seq_oracle), ("gen_weight", gen_weight_oracle),
                      ("_nonincreasing_step", nonincreasing_step_oracle))


@pytest.mark.parametrize("seed", range(5))
def test_suite_gives_the_same_results_with_the_generators_built_through_step(seed, monkeypatch):
    want = verify_suite(seed, 20)
    with monkeypatch.context() as m:
        for name, oracle in _GENERATOR_ORACLES:
            m.setattr(properties, name, oracle)
        got = verify_suite(seed, 20)
    assert got == want


def test_counterexamples_are_the_same_with_the_generators_built_through_step(monkeypatch):
    # every check forced to fail, so each property reports the inputs it drew
    for name in ("_eq", "_leq", "hlp_leq", "pointwise_leq"):
        monkeypatch.setattr(properties, name, lambda *args: False)
    def counterexamples():
        return [properties._run_property(prop, seed, 3).counterexample for prop in PROPERTIES for seed in range(2)]

    want = counterexamples()
    for name, oracle in _GENERATOR_ORACLES:
        monkeypatch.setattr(properties, name, oracle)
    assert jsonio.dumps(counterexamples()) == jsonio.dumps(want)
    assert len({ce["property"] for ce in want if ce is not None}) >= 20
