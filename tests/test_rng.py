import pytest

from ramseylb.errors import ParameterError
from ramseylb.rng import derive_seed, make_rng, pair_coin


def test_seed_range_ends_are_accepted_and_distinct():
    top = 2**64 - 1
    assert derive_seed(0, "x") != derive_seed(top, "x")
    assert pair_coin(top, "a|b") in (0, 1)
    assert make_rng(top).random() != make_rng(0).random()


@pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
def test_seeds_outside_64_bits_are_rejected(seed):
    with pytest.raises(ParameterError):
        derive_seed(seed, "x")
    with pytest.raises(ParameterError):
        pair_coin(seed, "a|b")
    with pytest.raises(ParameterError):
        make_rng(seed)
