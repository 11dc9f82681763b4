import random
import sys
import threading
from fractions import Fraction
from math import factorial

import pytest

from dendrimag.scalars import bernoulli, bernoulli_weight, rational_str


def test_bernoulli_base_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)


def test_generating_series_coefficients():
    # the z, z^2, z^4 coefficients of z/(exp(z)-1)
    assert bernoulli_weight(1) == Fraction(-1, 2)
    assert bernoulli_weight(2) == Fraction(1, 12)
    assert bernoulli_weight(4) == Fraction(-1, 720)
    assert bernoulli_weight(0) == 1


@pytest.mark.parametrize("m", range(11))
def test_odd_bernoulli_vanish(m):
    assert bernoulli(2 * m + 3) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_thread_safety():
    # concurrent cache growth must agree with a fresh sequential run
    results = {}

    def worker(start):
        results[start] = [bernoulli(m) for m in range(start, start + 40)]

    threads = [threading.Thread(target=worker, args=(s,)) for s in (0, 10, 25, 40)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for start, values in results.items():
        for offset, value in enumerate(values):
            assert value == bernoulli(start + offset)


def test_bernoulli_cold_cache_threads_agree():
    # eight threads fill an emptied memo at once, each in its own order
    bernoulli.cache_clear()
    orders = [list(range(61)) for _ in range(8)]
    for i, order in enumerate(orders):
        random.Random(i).shuffle(order)
    results = [None] * len(orders)
    barrier = threading.Barrier(len(orders))

    def worker(i):
        barrier.wait()
        results[i] = {m: bernoulli(m) for m in orders[i]}

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert all(r == results[0] for r in results)
    assert results[0][20] == Fraction(-174611, 330)
    assert results[0][30] == Fraction(8615841276005, 14322)


def test_bernoulli_weight_is_scaled_bernoulli():
    for m in range(21):
        assert bernoulli_weight(m) == bernoulli(m) / factorial(m)
        # (z/(e^z - 1)) * ((e^z - 1)/z) = 1, coefficient by coefficient
        assert sum(bernoulli_weight(j) / factorial(m - j + 1) for j in range(m + 1)) == (m == 0)


def test_rational_arithmetic_is_exact(rng):
    for _ in range(300):
        a, c = rng.randint(-80, 80), rng.randint(-80, 80)
        b, d = rng.randint(1, 60), rng.randint(1, 60)
        s = Fraction(a, b) + Fraction(c, d)
        assert s * d * b == a * d + c * b


def test_rational_str_roundtrip(rng):
    assert rational_str(Fraction(3, 1)) == "3"
    assert rational_str(Fraction(-7, 2)) == "-7/2"
    for _ in range(100):
        x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert Fraction(rational_str(x)) == x
