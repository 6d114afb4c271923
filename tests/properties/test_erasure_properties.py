"""Property tests: the erasure codec reconstructs from any k shards,
and its shards are exactly the code's (cold records and EC shards
written by an earlier codec must still decode)."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from repro.rados.erasure import ErasureCodec, gf_inv, gf_mul

profiles = st.sampled_from([(2, 1), (3, 1), (2, 2), (4, 2), (3, 3)])
payloads = st.binary(min_size=0, max_size=300)


def _reference_encode(k, m, data):
    """Byte-at-a-time statement of the code: parity ``j`` is the XOR
    over data shards ``i`` of ``3^(i*j) * byte`` in GF(256)."""
    size = -(-len(data) // k)
    padded = data.ljust(size * k, b"\x00")
    shards = [padded[i * size:(i + 1) * size] for i in range(k)]
    for j in range(m):
        parity = bytearray(size)
        for i in range(k):
            coeff = 1
            for _ in range(i * j):
                coeff = gf_mul(coeff, 3)
            for n, byte in enumerate(shards[i]):
                parity[n] ^= gf_mul(coeff, byte)
        shards.append(bytes(parity))
    return shards


@given(st.one_of(st.tuples(profiles, payloads),
                 st.tuples(st.just((2, 1)), st.binary(max_size=4096))))
@settings(max_examples=200, deadline=None)
def test_encode_is_exactly_the_code_and_any_k_shards_decode(case):
    (k, m), data = case
    codec = ErasureCodec(k, m)
    shards = codec.encode(data)
    assert shards == _reference_encode(k, m, data)
    for subset in combinations(range(k + m), k):
        have = {i: shards[i] for i in subset}
        assert codec.decode(have, len(data)) == data


@given(profiles, payloads)
@settings(max_examples=200, deadline=None)
def test_decode_from_all_shards(profile, data):
    k, m = profile
    codec = ErasureCodec(k, m)
    shards = codec.encode(data)
    assert len(shards) == k + m
    assert codec.decode(dict(enumerate(shards)), len(data)) == data


@given(profiles, payloads, st.data())
@settings(max_examples=200, deadline=None)
def test_decode_survives_m_data_losses(profile, data, draw):
    k, m = profile
    codec = ErasureCodec(k, m)
    shards = dict(enumerate(codec.encode(data)))
    # Drop up to m *data* shards (parity all present: always decodable).
    missing = draw.draw(st.lists(st.integers(0, k - 1), max_size=m,
                                 unique=True))
    for i in missing:
        del shards[i]
    assert codec.decode(shards, len(data)) == data


@given(st.sampled_from([(2, 1), (3, 1), (5, 1)]), payloads,
       st.integers(0, 100))
@settings(max_examples=200, deadline=None)
def test_single_parity_tolerates_any_one_loss(profile, data, which):
    k, m = profile
    codec = ErasureCodec(k, m)
    shards = dict(enumerate(codec.encode(data)))
    del shards[which % (k + 1)]
    assert codec.decode(shards, len(data)) == data


@given(st.integers(1, 255), st.integers(1, 255))
@settings(max_examples=300, deadline=None)
def test_gf256_field_axioms(a, b):
    assert gf_mul(a, b) == gf_mul(b, a)
    assert gf_mul(a, 1) == a
    assert gf_mul(a, gf_inv(a)) == 1


def test_decode_needs_k_shards():
    import pytest

    from repro.errors import InvalidArgument

    codec = ErasureCodec(3, 2)
    shards = dict(enumerate(codec.encode(b"hello world")))
    del shards[0]
    del shards[1]
    del shards[3]
    with pytest.raises(InvalidArgument):
        codec.decode(shards, 11)
