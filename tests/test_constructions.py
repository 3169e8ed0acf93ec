import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from walshlab import constructions
from walshlab.analysis import PExponent, atom_sup_bound, hardy_quasinorm, validate_atom
from walshlab.constructions import (
    GENERATORS,
    AtomRecipe,
    counterexample_fn,
    make_atom,
    probe_index,
)
from walshlab.functions import values_equal
from walshlab.group import GroupPoint, interval
from walshlab.spectral import (
    dirichlet_direct,
    dirichlet_dyadic,
    fwht_forward,
    index_stats,
    partial_sum,
)

P_HALF = PExponent.parse("1/2")


# -- atoms --------------------------------------------------------------------


def test_haar_pair_values():
    atom = make_atom(AtomRecipe(2, 0, P_HALF, "haar-pair", 0), 4, "exact")
    bound = 16  # (2^-2)^(-2)
    assert atom.values.values.tolist() == [bound, bound, -bound, -bound] + [0] * 12


def test_every_generator_emits_valid_atoms():
    for gen in GENERATORS:
        for seed in range(300):
            atom = make_atom(AtomRecipe(2, 0, P_HALF, gen, seed), 5, "exact")
            rep = validate_atom(atom)
            assert rep.passed and rep.worst_violation == 0.0, (gen, seed)


def test_float_atoms_also_exact_zero_mean():
    for gen in GENERATORS:
        for seed in range(100):
            atom = make_atom(AtomRecipe(3, 0, PExponent.parse("3/4"), gen, seed), 6)
            rep = validate_atom(atom)
            assert rep.passed and rep.worst_violation == 0.0, (gen, seed)


def test_atom_mean_exact_zero():
    atom = make_atom(AtomRecipe(2, 0, P_HALF, "random-bounded", 7), 6, "exact")
    sup = atom.support
    assert sum(atom.values.values[sup.start : sup.stop].tolist(), Fraction(0)) == 0


def test_atom_reproducible_and_seed_sensitive():
    a = make_atom(AtomRecipe(3, 0, P_HALF, "random-signs", 5), 6)
    b = make_atom(AtomRecipe(3, 0, P_HALF, "random-signs", 5), 6)
    c = make_atom(AtomRecipe(3, 0, P_HALF, "random-signs", 6), 6)
    assert np.array_equal(a.values.values, b.values.values)
    assert not np.array_equal(a.values.values, c.values.values)


def test_atom_off_zero_base():
    atom = make_atom(AtomRecipe(2, 8, P_HALF, "haar-pair", 0), 4, "exact")
    assert atom.support.start == 8 and atom.support.stop == 12
    assert all(v == 0 for v in atom.values.values[:8])


def test_recipe_fields_take_any_integer_but_bool():
    recipe = AtomRecipe(np.int64(2), np.uint8(8), P_HALF, "haar-pair", np.uint64(1 << 63))
    assert recipe == AtomRecipe(2, 8, P_HALF, "haar-pair", 1 << 63)
    assert all(type(v) is int for v in (recipe.support_level, recipe.base, recipe.seed))
    for level, base, seed in ((2.5, 0, 1), (True, 0, 1), (2, 8.0, 1), (2, 0, 1.0), (2, 0, False)):
        with pytest.raises(ValueError, match="must be an integer"):
            AtomRecipe(level, base, P_HALF, "haar-pair", seed)


def _grid_atom_reference(recipe, m, mode):
    """The recipe's atom drawn straight onto the 2^m grid, one recipe at a time."""
    iv = interval(GroupPoint(m, recipe.base), recipe.support_level)
    bound = atom_sup_bound(recipe.support_level, recipe.p, mode)
    rng = constructions._rng_for(recipe, m)
    if recipe.generator == "random-bounded":
        draws = rng.integers(-(1 << 12), (1 << 12) + 1, iv.size)
        units = iv.size * draws - draws.sum()
        top = int(np.abs(units).max())
        scale = Fraction(2) ** constructions._power_of_two_fit(top, bound) if top else 1
    else:
        units = np.repeat(np.array([1, -1], dtype=np.int64), iv.size // 2)
        if recipe.generator == "random-signs":
            units = rng.permutation(units)
        scale = bound
    if mode == "exact":
        values = np.zeros(1 << m, dtype=object)
        values[iv.start : iv.stop] = units.astype(object) * scale
    else:
        values = np.zeros(1 << m)
        values[iv.start : iv.stop] = units * float(scale)
    return iv, values.tolist()


@pytest.mark.parametrize("mode, p_str", [("float64", "1/2"), ("float64", "3/4"), ("exact", "1/2"), ("exact", "1/3")])
def test_grid_atom_is_its_cells_placed_at_base(mode, p_str):
    # make_atom places the cells builder's row at recipe.base; the rows of one
    # batch are each recipe's own draws, whatever else the batch holds.
    p = PExponent.parse(p_str)
    for m in (2, 5, 8, 10):
        for level in sorted({1, m // 2, m - 1}):
            recipes = [
                AtomRecipe(level, base, p, gen, seed)
                for gen in GENERATORS
                for base, seed in ((0, 7), (1 << (m - level), 8), ((1 << m) - 1, 9), (5 % (1 << m), 1 << 63))
            ]
            rows = constructions._atom_cells(recipes[::-1], m, mode)[::-1]
            for recipe, row in zip(recipes, rows):
                iv, want = _grid_atom_reference(recipe, m, mode)
                atom = make_atom(recipe, m, mode)
                assert atom.support == iv
                assert atom.values.values.tolist() == want
                assert list(map(type, atom.values.values.tolist())) == list(map(type, want))
                assert row.tolist() == want[iv.start : iv.stop]
                assert list(map(type, row.tolist())) == list(map(type, want[iv.start : iv.stop]))


def test_atom_cells_share_one_level_and_exponent():
    with pytest.raises(ValueError, match="share"):
        constructions._atom_cells([AtomRecipe(2, 0, P_HALF, "haar-pair", 0), AtomRecipe(3, 0, P_HALF, "haar-pair", 0)], 5)
    with pytest.raises(ValueError, match="share"):
        constructions._atom_cells(
            [AtomRecipe(2, 0, P_HALF, "haar-pair", 0), AtomRecipe(2, 0, PExponent.parse("1/3"), "haar-pair", 0)], 5
        )


def test_single_cell_support_errors():
    with pytest.raises(ValueError):
        make_atom(AtomRecipe(4, 0, P_HALF, "haar-pair", 0), 4)
    with pytest.raises(ValueError):
        make_atom(AtomRecipe(5, 0, P_HALF, "random-bounded", 0), 4)


def test_exact_atom_requires_integral_reciprocal():
    with pytest.raises(ValueError):
        make_atom(AtomRecipe(2, 0, PExponent.parse("3/4"), "haar-pair", 0), 4, "exact")


# -- sharpness sequence -----------------------------------------------------------


def test_counterexample_small_case():
    f = counterexample_fn(1, 2)
    assert f.values.tolist() == [2, -2, 0, 0]
    assert values_equal(f, dirichlet_direct(4, 2) - dirichlet_direct(2, 2))


def test_counterexample_is_kernel_difference():
    for m in (4, 6):
        for n in range(1, m):
            f = counterexample_fn(n, m)
            diff = dirichlet_dyadic(n + 1, m) - dirichlet_dyadic(n, m)
            assert values_equal(f, diff)


def test_counterexample_spectrum_is_block_indicator():
    for m in range(2, 11):
        for n in range(1, m):
            coeffs = fwht_forward(counterexample_fn(n, m)).coeffs
            expected = [1 if (1 << n) <= k < (1 << (n + 1)) else 0 for k in range(1 << m)]
            assert coeffs.tolist() == expected, (m, n)


def test_counterexample_magnitude_profile():
    f = counterexample_fn(3, 6)
    absf = [abs(v) for v in f.values]
    assert absf == [8] * 8 + [0] * 56


def test_counterexample_hardy_norm():
    for n in range(1, 6):
        assert hardy_quasinorm(counterexample_fn(n, 8), P_HALF) == Fraction(1, 1 << n)


def test_counterexample_modes_hold_their_own_types():
    exact = counterexample_fn(2, 4)
    assert exact.values.dtype == object
    assert {type(v) for v in exact.values.tolist()} == {int}
    floats = counterexample_fn(2, 4, "float64")
    assert floats.values.dtype == np.float64
    assert floats.values.tolist() == exact.values.tolist()


def test_counterexample_traced_peak_is_its_output():
    # The float64 output is 4 MiB at m = 19; an int64 array copied by astype made it 8 MiB.
    tracemalloc.start()
    try:
        f = counterexample_fn(18, 19, "float64")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.values[0] == 2.0**18
    assert peak < 5 << 20


def test_counterexample_range_checks():
    with pytest.raises(ValueError):
        counterexample_fn(0, 4)
    with pytest.raises(ValueError):
        counterexample_fn(4, 4)


# -- probe orders -------------------------------------------------------------------


def test_probe_index_examples():
    pr = probe_index(4, 1)
    assert pr.q == 18 and index_stats(18).rho == 3
    pr = probe_index(3, 0)
    assert pr.q == 9
    st = index_stats(9)
    assert st.low == 0 and st.high == 3
    with pytest.raises(ValueError):
        probe_index(2, 2)


def test_probe_index_invariants_sweep():
    for n in range(1, 21):
        for s in range(n):
            pr = probe_index(n, s)
            st = index_stats(pr.q)
            assert (1 << n) < pr.q < (1 << (n + 1))
            assert st.low == s and st.high == n and st.rho == n - s


def test_probe_partial_sum_is_dyadic_kernel_in_magnitude():
    for m in (5, 8):
        for n in range(1, m):
            for s in range(n):
                sp = partial_sum(counterexample_fn(n, m), probe_index(n, s).q)
                dk = dirichlet_dyadic(s, m)
                assert np.all(np.abs(sp.values) == dk.values), (m, n, s)


def test_probe_partial_sum_lower_bound_on_pinned_interval():
    # On the interval pinned by bit s the magnitude is exactly 2^s, so the
    # quarter lower bound holds with ratio 1.
    m = 7
    for n in range(2, m):
        for s in range(n):
            sp = partial_sum(counterexample_fn(n, m), probe_index(n, s).q)
            block = [abs(v) for v in sp.values[1 << (m - s - 1) : 1 << (m - s)]]
            assert min(block) == 1 << s
            assert 4 * min(block) >= 1 << s


def test_partial_sum_trichotomy():
    # Below the block: zero.  Inside: kernel difference.  Above: the function.
    m = 7
    for n in range(1, m):
        f = counterexample_fn(n, m)
        for q in range(1, (1 << m) + 1):
            sq = partial_sum(f, q)
            if q <= (1 << n):
                assert all(v == 0 for v in sq.values), (n, q)
            elif q >= (1 << (n + 1)):
                assert values_equal(sq, f), (n, q)
            else:
                diff = dirichlet_direct(q, m) - dirichlet_direct(1 << n, m)
                assert values_equal(sq, diff), (n, q)
