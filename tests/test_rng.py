import hashlib

import pytest

from ramseylb import rng
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


@pytest.mark.parametrize("seed", [1.0, 1.5, float("nan"), "1", None])
def test_seeds_that_are_not_ints_are_rejected(seed):
    with pytest.raises(ParameterError):
        derive_seed(seed, "x")
    with pytest.raises(ParameterError):
        make_rng(seed)
    # A cached coin state for the int 1 must not answer for the float 1.0.
    pair_coin(1, "a|b")
    with pytest.raises(ParameterError):
        pair_coin(seed, "a|b")


def test_bool_seeds_stay_ints():
    assert pair_coin(True, "a|b") == pair_coin(1, "a|b")
    assert derive_seed(False, "x") == derive_seed(0, "x")


def reference_pair_coin(seed, identity):
    """A fresh keyed hash per coin, as before the keyed state was cached."""
    h = hashlib.blake2b(
        identity.encode(), digest_size=1, key=seed.to_bytes(8, "big"), person=b"rlb-coin"
    )
    return h.digest()[0] & 1


def test_pair_coin_matches_a_fresh_keyed_hash():
    """Seeds come back after more distinct seeds than the cache holds, so
    both cached and rebuilt states are compared, each on many identities."""
    seeds = [0, 1, 2**64 - 1] + [derive_seed(7, "other", k) for k in range(6)]
    identities = [f"{i % 11} {i // 11}|{i * 31 % 997} 2" for i in range(900)]
    assert len(set(identities)) == 900
    for _ in range(2):
        for seed in seeds:
            for ident in identities:
                assert pair_coin(seed, ident) == reference_pair_coin(seed, ident)
    assert rng._coin_state.cache_info().currsize <= 4
