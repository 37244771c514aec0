from qlzero.characters import (
    character_check,
    display_degree,
    display_oracle,
    graded_character,
    oracle_dimension,
    partitions,
    partitions_max_parts,
    sector_count,
    sector_model_check,
    sector_quotient_counts,
)
from qlzero.kernel import EXCHANGE, KernelTable, kernel_build


def test_partition_counting():
    assert [partitions(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert partitions_max_parts(5, 2) == 3   # 5, 4+1, 3+2
    assert partitions_max_parts(4, 1) == 1
    assert partitions_max_parts(0, 0) == 1


def test_oracle_pinned_values():
    # two highest weight vectors at degree zero
    assert sum(display_oracle(0, w) for w in range(-9, 10)) == 2
    # the vacuum-module triple at degree one
    assert [display_oracle(1, w) for w in (-2, 0, 2)] == [1, 1, 1]
    # charged module: exactly one top at degree zero
    assert display_oracle(0, 1) == 1 and display_oracle(0, -1) == 0


def test_internal_oracle_matches_display_relabeling():
    for e in range(7):
        for w in range(-6, 7):
            d = display_degree(e, w)
            if d >= 0:
                assert oracle_dimension(e, w) == display_oracle(d, w), (e, w)
    # spot values in the internal grading
    assert oracle_dimension(0, 0) == 1
    assert oracle_dimension(1, -2) == 0
    assert oracle_dimension(2, -2) == 1


def test_sector_counts_engine_verified():
    for N in (1, 2):
        rep = sector_model_check(N, kernel_build(N, 4, EXCHANGE))
        assert rep.ok, rep.lines()


def test_sector_count_first_values():
    # single spinon: one state per degree and sign
    assert [sector_count(1, e, 1) for e in range(4)] == [1, 1, 1, 1]
    assert [sector_count(1, e, -1) for e in range(4)] == [0, 1, 1, 1]
    # two spinons, balanced: e states at energy e
    assert [sector_count(2, e, 0) for e in range(5)] == [0, 1, 2, 3, 4]


def test_pure_sector_quotient_shapes():
    got = sector_quotient_counts(2, kernel_build(2, 3, EXCHANGE))
    assert got[(1, 0)] == 1 and got[(2, 0)] == 2


def test_table_matches_oracle_small():
    res = graded_character(4, 10)
    assert res["agree"] and not res["truncated"]
    assert sum(v for (d, w), v in res["table"].items() if d == 0) == 2


def test_truncation_detected():
    res = graded_character(6, 3)
    assert res["truncated"] or not res["agree"]


def test_character_check_report():
    rep = character_check(KernelTable())
    assert rep.ok, rep.lines()
