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
    # The kept coin state for the int 1 must not answer for the float 1.0.
    pair_coin(1, "a|b")
    with pytest.raises(ParameterError):
        pair_coin(seed, "a|b")


def test_bool_seeds_are_rejected():
    """A seed is written into certificates and provenance lines, where
    True would read seed=True, so a bool is refused like any non-int."""
    for seed in (True, False):
        message = f"^seed={seed} must be an int$"
        with pytest.raises(ParameterError, match=message):
            derive_seed(seed, "x")
        with pytest.raises(ParameterError, match=message):
            make_rng(seed)
        # The kept coin state for the int 1 or 0 must not answer for the bool.
        pair_coin(int(seed), "a|b")
        with pytest.raises(ParameterError, match=message):
            pair_coin(seed, "a|b")


def reference_pair_coin(seed, identity):
    """A fresh keyed hash per coin, as before the keyed state was cached."""
    h = hashlib.blake2b(
        identity.encode(), digest_size=1, key=seed.to_bytes(8, "big"), person=b"rlb-coin"
    )
    return h.digest()[0] & 1


def test_pair_coin_matches_a_fresh_keyed_hash():
    """Seeds come back after other seeds, so both kept and rebuilt keyed
    states are compared, each on many identities."""
    seeds = [0, 1, 2**64 - 1] + [derive_seed(7, "other", k) for k in range(6)]
    identities = [f"{i % 11} {i // 11}|{i * 31 % 997} 2" for i in range(900)]
    assert len(set(identities)) == 900
    for _ in range(2):
        for seed in seeds:
            for ident in identities:
                assert pair_coin(seed, ident) == reference_pair_coin(seed, ident)
    # The module holds one keyed state, the last seed's, and no cache.
    last, state = rng._last_coin
    assert last is seeds[-1]
    assert state.digest() == hashlib.blake2b(
        digest_size=1, key=last.to_bytes(8, "big"), person=b"rlb-coin"
    ).digest()
    assert not any(hasattr(v, "cache_info") for v in vars(rng).values())


def test_pair_coin_under_seeds_that_alternate_call_by_call():
    """Each call takes another seed than the last one, so no call reuses
    the last seed's keyed state."""
    seeds = [0, 1, 2**64 - 1] + [derive_seed(9, "alternate", k) for k in range(5)]
    for i in range(400):
        ident = f"{i % 7} {i // 7}|{i * 13 % 101} 1"
        for seed in seeds:
            assert pair_coin(seed, ident) == reference_pair_coin(seed, ident)


def test_pair_coin_under_equal_ints_that_are_distinct_objects():
    a = derive_seed(11, "twin")
    b = int(str(a))
    assert a == b and a is not b
    for i in range(50):
        ident = f"{i} 0|0 {i}"
        want = reference_pair_coin(a, ident)
        assert pair_coin(a, ident) == want
        assert pair_coin(b, ident) == want
        assert pair_coin(b, ident) == want


@pytest.mark.parametrize("bad", [-1, 1.0, "1"])
def test_a_rejected_seed_between_calls_under_an_accepted_one(bad):
    for good in (1, derive_seed(13, "good")):
        assert pair_coin(good, "a|b") == reference_pair_coin(good, "a|b")
        for _ in range(2):
            with pytest.raises(ParameterError):
                pair_coin(bad, "a|b")
        assert pair_coin(good, "c|d") == reference_pair_coin(good, "c|d")
