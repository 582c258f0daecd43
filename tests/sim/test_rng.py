"""Tests for the named random-stream registry."""

from repro.sim.rng import RngRegistry, derive_seed


def test_same_seed_same_stream_sequence():
    a = RngRegistry(42).stream("mac")
    b = RngRegistry(42).stream("mac")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_give_independent_streams():
    reg = RngRegistry(42)
    mac = [reg.stream("mac").random() for _ in range(5)]
    mobility = [reg.stream("mobility").random() for _ in range(5)]
    assert mac != mobility


def test_stream_is_cached():
    reg = RngRegistry(42)
    assert reg.stream("x") is reg.stream("x")


def test_draws_on_one_stream_do_not_disturb_another():
    """The property that keeps A/B scheme comparisons honest."""
    reg1 = RngRegistry(7)
    reg2 = RngRegistry(7)
    # reg1 burns a thousand draws on the 'mac' stream first.
    for _ in range(1000):
        reg1.stream("mac").random()
    seq1 = [reg1.stream("mobility").random() for _ in range(10)]
    seq2 = [reg2.stream("mobility").random() for _ in range(10)]
    assert seq1 == seq2


def test_different_seeds_differ():
    a = RngRegistry(1).stream("s")
    b = RngRegistry(2).stream("s")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_derive_seed_fits_63_bits():
    for name in ("a", "b", "c", "long-stream-name:42"):
        assert 0 <= derive_seed(123456789, name) < 2**63
