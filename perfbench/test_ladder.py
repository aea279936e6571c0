"""Checks of the benchmark's seeded ladder generator."""

import pytest

import ffheflow as ff
from ladder import (ID_STRIDE, TILES, LadderError, check_ladder,
                    draw_targets, ladder_devices, tile_case)
from scenarios import SSSC_TARGETS


@pytest.fixture(scope="module")
def base():
    return ff.load_bundled_case()


def test_ladder_is_valid_and_converges(base):
    net = tile_case(ff, base)
    assert net.n_bus == TILES * base.n_bus
    check_ladder(ff, net)     # one slack, connected, device-free NR converges


def test_missing_tie_lines_disconnect_the_ladder(base):
    net = tile_case(ff, base)
    cut = tuple(br for br in net.branches
                if br.from_bus // ID_STRIDE == br.to_bus // ID_STRIDE)
    broken = ff.Network(buses=net.buses, branches=cut,
                        base_mva=net.base_mva)
    with pytest.raises(LadderError, match="unreachable"):
        check_ladder(ff, broken)


def test_targets_are_seeded_draws_of_the_sssc_targets(base):
    labels = draw_targets(7)
    assert labels == draw_targets(7)
    assert len(labels) == TILES and set(labels) <= set(SSSC_TARGETS)
    devices = ladder_devices(ff, labels)
    assert [d.branch[0] // ID_STRIDE for d in devices] == list(range(TILES))
