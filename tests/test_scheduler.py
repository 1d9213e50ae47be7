import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtpretrain import scheduler as sd
from mtpretrain.scheduler import SchedulerError


# ------------------------------------------------------- staged allocation

def test_staged_allocation_four_tasks_200k():
    alloc = sd.cmtl_allocation(4, 200_000)
    assert alloc.chunk == 10_000
    assert alloc.task_major() == [
        [20_000, 10_000, 10_000, 10_000],
        [0, 30_000, 10_000, 10_000],
        [0, 0, 40_000, 10_000],
        [0, 0, 0, 50_000],
    ]
    assert [sum(row) for row in alloc.task_major()] == [50_000] * 4


def test_staged_allocation_three_tasks_10e9():
    alloc = sd.cmtl_allocation(3, 10_000_000_000)
    assert alloc.chunk == 833_333_333
    assert alloc.task_major() == [
        [1_666_666_666, 833_333_333, 833_333_333],
        [0, 2_499_999_999, 833_333_333],
        [0, 0, 3_333_333_336],
    ]
    assert sum(map(sum, alloc.task_major())) == 10_000_000_000
    assert alloc.remainder == 4


def test_staged_allocation_batch_alignment():
    alloc = sd.cmtl_allocation(3, 10_000_000_000, batch_tokens=128)
    assert alloc.chunk % 128 == 0
    assert sum(map(sum, alloc.task_major())) == 10_000_000_000


def test_staged_allocation_single_task():
    alloc = sd.cmtl_allocation(1, 1000)
    assert alloc.stage_table == [[1000]]


def test_staged_allocation_too_small():
    with pytest.raises(SchedulerError):
        sd.cmtl_allocation(4, 10)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), total=st.integers(1, 10**12),
       batch=st.integers(1, 4096))
def test_staged_allocation_always_sums_to_total(n, total, batch):
    denom = n * (n + 1)
    if (total // denom) // batch == 0:
        with pytest.raises(SchedulerError):
            sd.cmtl_allocation(n, total, batch)
        return
    alloc = sd.cmtl_allocation(n, total, batch)
    assert sum(map(sum, alloc.task_major())) == total
    lower = [alloc.stage_table[i][j]
             for i in range(n) for j in range(i + 1, n)]
    assert all(v == 0 for v in lower)


# ------------------------------------------------------------- strategies

def test_strategy_aliases():
    assert sd.canonical_strategy("alt+") == "alt_plus"
    assert sd.canonical_strategy("CMTL+") == "cmtl_plus"
    assert sd.canonical_strategy("sum.") == "sum"
    with pytest.raises(SchedulerError):
        sd.canonical_strategy("round_robin")


def test_sum_schedule_every_step_joint():
    sch = sd.make_schedule("sum", ["mlm", "tfidf"], 1000, 100)
    assert len(sch) == 10
    assert all(s.tasks == ("mlm", "tfidf") for s in sch)
    assert all(s.task_id == 0 for s in sch)
    assert sch.total_tokens() == 1000


def test_inc_phases_grow_and_remainder_goes_last():
    sch = sd.make_schedule("inc", ["mlm", "tf", "qt"], 1000, 100)
    sets = [s.tasks for s in sch]
    assert sets[:3] == [("mlm",), ("mlm",), ("mlm",)]
    assert sets[3:6] == [("mlm", "tf")] * 3
    assert sets[6:] == [("mlm", "tf", "qt")] * 4
    sizes = [len(s.tasks) for s in sch]
    assert sizes == sorted(sizes)


def test_alt_single_task_per_step_round_robin():
    sch = sd.make_schedule("alt", ["mlm", "tf", "qt"], 700, 100)
    assert [s.tasks for s in sch] == [
        ("mlm",), ("tf",), ("qt",), ("mlm",), ("tf",), ("qt",), ("mlm",)]
    assert [s.task_id for s in sch] == [0, 1, 2, 0, 1, 2, 0]


def test_alt_allows_jointly_incompatible_singletons():
    sch = sd.make_schedule("alt", ["nsp", "so"], 400, 100)
    assert [s.tasks for s in sch] == [("nsp",), ("so",), ("nsp",), ("so",)]


def test_alt_plus_keeps_mlm_everywhere():
    sch = sd.make_schedule("alt_plus", ["mlm", "tf", "qt"], 600, 100)
    assert [s.tasks for s in sch] == [
        ("mlm", "tf"), ("mlm", "qt")] * 3


def test_alt_plus_requires_mlm():
    with pytest.raises(SchedulerError):
        sd.make_schedule("alt_plus", ["tf", "qt"], 600, 100)
    with pytest.raises(SchedulerError):
        sd.make_schedule("cmtl_plus", ["mlm"], 600, 100)


def test_cmtl_stage_structure():
    sch = sd.make_schedule("cmtl", ["tf", "qt"], 600, 100)
    # chunk 100: stage 1 = 2 steps of tf, stage 2 = 1 tf + 3 qt interleaved
    sets = [s.tasks for s in sch]
    assert sets.count(("tf",)) == 3
    assert sets.count(("qt",)) == 3
    assert sets[:2] == [("tf",), ("tf",)]
    totals = sd.token_accounting(sch)
    assert totals == {"tf": 300, "qt": 300}


def test_cmtl_plus_mlm_in_every_step_and_totals():
    sch = sd.make_schedule("cmtl_plus", ["mlm", "tf", "qt"], 1200, 100)
    assert all("mlm" in s.tasks for s in sch)
    assert all(len(s.tasks) == 2 for s in sch)
    totals = sd.token_accounting(sch)
    assert totals["mlm"] == sch.total_tokens()
    assert totals["tf"] == totals["qt"] == 600


def test_cmtl_totals_within_one_batch_of_allocation():
    sch = sd.make_schedule("cmtl", ["mlm", "tf", "qt"], 100_001, 64)
    alloc = sd.cmtl_allocation(3, 100_001, 64)
    totals = sd.token_accounting(sch)
    for name, want in zip(("mlm", "tf", "qt"),
                          [sum(row) for row in alloc.task_major()]):
        assert abs(totals[name] - want) < 64


def test_interleave_counts_match_budgets():
    order = sd._interleave_stage([1, 3])
    assert order.count(0) == 1 and order.count(1) == 3
    order = sd._interleave_stage([2, 2, 4])
    assert [order.count(j) for j in range(3)] == [2, 2, 4]
    # proportional pacing: no task finishes its budget in the first half
    # while another has not started
    half = order[: len(order) // 2]
    assert all(half.count(j) < order.count(j) + 1 for j in range(3))


def test_task_ids_by_first_appearance():
    sch = sd.make_schedule("inc", ["mlm", "tf"], 400, 100)
    assert [s.task_id for s in sch] == [0, 0, 1, 1]


def test_conflicting_sum_set_rejected():
    with pytest.raises(SchedulerError):
        sd.make_schedule("sum", ["so", "nsp"], 1000, 100)
    with pytest.raises(SchedulerError):
        sd.make_schedule("sum", ["nsp", "qt"], 1000, 100)


def test_duplicate_and_empty_task_lists_rejected():
    with pytest.raises(SchedulerError):
        sd.make_schedule("sum", ["mlm", "mlm"], 1000, 100)
    with pytest.raises(SchedulerError):
        sd.make_schedule("sum", [], 1000, 100)


def test_materialization_guard():
    with pytest.raises(SchedulerError):
        sd.make_schedule("sum", ["mlm"], 10**9, 1)


@settings(max_examples=30, deadline=None)
@given(strategy=st.sampled_from(["sum", "inc", "alt"]),
       n_steps=st.integers(1, 60), batch=st.integers(1, 256))
def test_total_tokens_equals_steps_times_batch(strategy, n_steps, batch):
    names = ["mlm", "tf", "qt"]
    sch = sd.make_schedule(strategy, names, n_steps * batch, batch)
    assert len(sch) == n_steps
    assert sch.total_tokens() == n_steps * batch
    acct = sd.token_accounting(sch)
    if strategy == "alt":
        assert sum(acct.values()) == sch.total_tokens()
