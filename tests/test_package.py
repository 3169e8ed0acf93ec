from fractions import Fraction

import numpy as np
import pytest

import walshlab


def test_public_names_resolve():
    # An export left behind by a deleted name would only show at import time.
    names = walshlab.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(walshlab, name)] == []
    namespace = {}
    exec("from walshlab import *", namespace)
    assert set(names) <= set(namespace)


# Every entry point that takes a spectral order, scale or exponent as an integer.
_F = walshlab.DyadicFunction.from_values(3, np.arange(8.0))
_ORDER_CALLS = {
    "walsh": lambda n: walshlab.walsh(n, 3),
    "walsh_rows": lambda n: walshlab.spectral.walsh_rows(0, n, 3),
    "rademacher": lambda k: walshlab.rademacher(k, 3),
    "index_stats": walshlab.index_stats,
    "dirichlet_direct": lambda n: walshlab.dirichlet_direct(n, 3),
    "dirichlet_dyadic": lambda n: walshlab.dirichlet_dyadic(n, 3),
    "dirichlet_fast": lambda n: walshlab.dirichlet_fast(n, 3),
    "partial_sum": lambda n: walshlab.partial_sum(_F, n),
    "probe_index": lambda n: walshlab.probe_index(5, n),
    "counterexample_fn": lambda n: walshlab.counterexample_fn(n, 8),
    "WeightScheme.at": lambda n: walshlab.RhoWeight(walshlab.PExponent.parse("1/2")).at(n),
    "Subsequence": lambda n: walshlab.Subsequence((n, 4)),
}


@pytest.mark.parametrize("entry", sorted(_ORDER_CALLS))
def test_non_integer_orders_raise_value_error(entry):
    call = _ORDER_CALLS[entry]
    call(1)  # an integer order passes
    call(np.int64(1))  # so does a numpy integer
    for bad in (1.5, 2.0, True, Fraction(3, 2), "2"):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)
