"""Unit + property tests for delta-network tag routing."""

import pytest
from hypothesis import given, strategies as st

from repro.network.routing import delta_path, mixed_radix_digits, stage_radices


class TestStageRadices:
    def test_cedar_32_port_network_is_8x4(self):
        assert stage_radices(32) == [8, 4]

    def test_64_ports(self):
        assert stage_radices(64) == [8, 8]

    def test_8_ports_single_stage(self):
        assert stage_radices(8) == [8]

    def test_product_recovers_port_count(self):
        for n in (2, 4, 8, 12, 16, 24, 32, 48, 64, 128, 256):
            rads = stage_radices(n)
            prod = 1
            for r in rads:
                prod *= r
            assert prod == n

    def test_prime_beyond_radix_rejected(self):
        with pytest.raises(ValueError):
            stage_radices(11)

    def test_single_port(self):
        assert stage_radices(1) == [1]


class TestMixedRadixDigits:
    def test_known_value(self):
        assert mixed_radix_digits(13, [8, 4]) == [3, 1]

    def test_round_trip(self):
        radices = [8, 4]
        for v in range(32):
            d = mixed_radix_digits(v, radices)
            assert d[0] * 4 + d[1] == v

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mixed_radix_digits(32, [8, 4])
        with pytest.raises(ValueError):
            mixed_radix_digits(-1, [8, 4])


class TestDeltaPath:
    def test_final_stage_is_destination(self):
        for src in range(32):
            for dst in range(32):
                assert delta_path(src, dst, [8, 4])[-1] == dst

    def test_unique_path_property(self):
        # Lawrie routing gives exactly one path: same (src, dst) -> same path
        assert delta_path(3, 17, [8, 4]) == delta_path(3, 17, [8, 4])

    def test_stage0_mixes_destination_msd_with_source_lsd(self):
        # src=5 (digits [1,1]), dst=13 (digits [3,1]) -> stage0 port has
        # dst digit 3 and src digit 1: 3*4+1 = 13
        assert delta_path(5, 13, [8, 4]) == [13, 13]

    def test_conflict_structure(self):
        # Two sources sharing low digits conflict at stage 0 when heading
        # to destinations sharing the top digit.
        p1 = delta_path(1, 0, [8, 4])
        p2 = delta_path(1, 3, [8, 4])
        assert p1[0] == p2[0]  # same stage-0 output port => conflict
        p3 = delta_path(2, 3, [8, 4])
        assert p2[0] != p3[0]

    @given(
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=31),
    )
    def test_path_values_in_range(self, src, dst):
        for port in delta_path(src, dst, [8, 4]):
            assert 0 <= port < 32

    @given(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    )
    def test_distinct_destinations_diverge_before_arrival(self, s1, d1, s2, d2):
        """Once two paths merge at some stage, they stay merged through
        the remaining stages iff destinations agree on remaining digits —
        in particular paths to different destinations must differ at the
        last stage."""
        radices = [8, 8]
        p1 = delta_path(s1, d1, radices)
        p2 = delta_path(s2, d2, radices)
        if d1 != d2:
            assert p1[-1] != p2[-1]
        else:
            assert p1[-1] == p2[-1]


def test_memoized_paths_equal_fresh_ones():
    """Every port pair's memoized path, for each radix tuple a machine
    uses, is the path computed afresh, and callers get their own list."""
    from repro.network.routing import _delta_path

    for radices in ([8, 4], [4, 4, 2], [2, 2, 2, 2]):
        ports = 1
        for radix in radices:
            ports *= radix
        for src in range(ports):
            for dst in range(ports):
                fresh = list(_delta_path.__wrapped__(src, dst, tuple(radices)))
                assert delta_path(src, dst, radices) == fresh
                assert delta_path(src, dst, radices) == fresh
    path = delta_path(3, 17, [8, 4])
    path.append(99)
    assert delta_path(3, 17, [8, 4]) == path[:-1]
