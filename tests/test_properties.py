import json

import pytest

from rispace import PROPERTIES, jsonio, properties, verify_suite


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
