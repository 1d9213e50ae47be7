"""Task scheduling: which tasks train at each step, for how many tokens.

Six strategies are supported. "sum" trains the whole set jointly every
step; "inc" introduces tasks in phases; "alt" round-robins one task per
step; "alt_plus" round-robins the auxiliary tasks with the masking task
added to every step; "cmtl" realizes the staged equal-token allocation;
"cmtl_plus" applies that allocation to the auxiliary tasks while the
masking task joins every step.

The staged allocation divides a total budget T over N tasks in N stages
using the chunk C = T / (N (N + 1)): stage i (1-based) gives the newly
introduced task i a budget of C (i + 1) and each previously introduced
task C. Every task's lifetime total is then C (N + 1) = T / N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

from .tasks import TaskError, canonical_task, validate_compatibility

STRATEGIES = ("sum", "inc", "alt", "alt_plus", "cmtl", "cmtl_plus")
_STRATEGY_ALIASES = {"alt+": "alt_plus", "cmtl+": "cmtl_plus",
                     "alt.": "alt", "sum.": "sum", "inc.": "inc"}

# materialized schedules are for desk-scale runs; huge budgets should use
# the closed-form allocation instead
MAX_MATERIALIZED_STEPS = 5_000_000


class SchedulerError(ValueError):
    pass


def parse_budget(raw: str) -> int:
    """A token count, exactly: a whole number, in scientific notation or
    not, no larger than a float can hold."""
    try:
        value = Decimal(raw)
    except InvalidOperation:
        raise ValueError(f"token budget must be a number, got {raw}") from None
    if not math.isfinite(float(value)):
        raise ValueError(f"token budget must be finite, got {raw}")
    if value != value.to_integral_value():
        raise ValueError(f"token budget must be a whole number, got {raw}")
    return int(value)


def canonical_strategy(name: str) -> str:
    key = name.strip().lower()
    key = _STRATEGY_ALIASES.get(key, key)
    if key not in STRATEGIES:
        raise SchedulerError(
            f"unknown strategy {name!r}; known: {', '.join(STRATEGIES)}")
    return key


@dataclass
class CmtlAllocation:
    n_tasks: int
    total_tokens: int
    chunk: int
    stage_table: "list[list[int]]"   # [stage][task]
    remainder: int

    def task_major(self) -> "list[list[int]]":
        """Rows = tasks, columns = stages (the orientation the CLI prints)."""
        return [[self.stage_table[i][j] for i in range(self.n_tasks)]
                for j in range(self.n_tasks)]


def cmtl_allocation(n_tasks: int, total_tokens: int,
                    batch_tokens: int = 1) -> CmtlAllocation:
    """Stage-by-task token budgets with batch-aligned chunk rounding.

    The chunk C is floored to a multiple of batch_tokens; whatever the
    flooring leaves over is appended to the final stage's newest task so
    the table still sums to total_tokens exactly.
    """
    if n_tasks < 1:
        raise SchedulerError("need at least one task")
    if batch_tokens < 1:
        raise SchedulerError("batch_tokens must be positive")
    denom = n_tasks * (n_tasks + 1)
    chunk = (total_tokens // denom) // batch_tokens * batch_tokens
    if chunk < 1:
        raise SchedulerError(
            f"total_tokens {total_tokens} too small for {n_tasks} tasks at "
            f"batch_tokens {batch_tokens} (chunk would be zero)")
    table = [[0] * n_tasks for _ in range(n_tasks)]
    for i in range(n_tasks):
        table[i][i] = chunk * (i + 2)
        for j in range(i):
            table[i][j] = chunk
    remainder = total_tokens - chunk * denom
    table[n_tasks - 1][n_tasks - 1] += remainder
    return CmtlAllocation(n_tasks=n_tasks, total_tokens=total_tokens,
                          chunk=chunk, stage_table=table, remainder=remainder)


@dataclass(frozen=True)
class ScheduleStep:
    index: int
    tasks: "tuple[str, ...]"
    task_id: int


@dataclass
class Schedule:
    strategy: str
    tasks: "tuple[str, ...]"
    batch_tokens: int
    steps: "list[ScheduleStep]" = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def total_tokens(self) -> int:
        return self.batch_tokens * len(self.steps)


def _assign_task_ids(step_sets: "list[tuple[str, ...]]") -> "list[int]":
    ids: "dict[tuple[str, ...], int]" = {}
    out = []
    for s in step_sets:
        if s not in ids:
            ids[s] = len(ids)
        out.append(ids[s])
    return out


def _interleave_stage(budgets: "list[int]") -> "list[int]":
    """Order task indices within a stage proportionally to their budgets.

    Greedy largest-deficit scheduling: at each emission pick the task whose
    emitted count lags its proportional share the most. Deterministic, and
    every task's emission count equals its budget exactly.
    """
    total = sum(budgets)
    emitted = [0] * len(budgets)
    order = []
    for s in range(total):
        best, best_deficit = -1, None
        for j, b in enumerate(budgets):
            if emitted[j] >= b:
                continue
            deficit = b * (s + 1) / total - emitted[j]
            if best_deficit is None or deficit > best_deficit:
                best, best_deficit = j, deficit
        order.append(best)
        emitted[best] += 1
    return order


def task_basis(strategy: str, names) -> "list[str]":
    """The tasks a strategy rotates or stages over: for alt_plus and
    cmtl_plus the auxiliary tasks, each paired with mlm, which joins every
    step; for the others the whole list."""
    if strategy not in ("alt_plus", "cmtl_plus"):
        return list(names)
    if "mlm" not in names:
        raise SchedulerError(f"strategy {strategy} requires mlm in the "
                             f"task list")
    aux = [t for t in names if t != "mlm"]
    if not aux:
        raise SchedulerError(f"strategy {strategy} needs at least one "
                             f"auxiliary task besides mlm")
    return aux


def make_schedule(strategy: str, tasks, total_tokens: int,
                  batch_tokens: int) -> Schedule:
    strategy = canonical_strategy(strategy)
    names = [canonical_task(t) for t in tasks]
    if len(set(names)) != len(names):
        raise SchedulerError("duplicate tasks in list")
    if not names:
        raise SchedulerError("empty task list")
    if batch_tokens < 1:
        raise SchedulerError("batch_tokens must be positive")
    if total_tokens < batch_tokens:
        raise SchedulerError(
            f"total_tokens {total_tokens} below one batch ({batch_tokens})")
    n_steps_cap = total_tokens // batch_tokens
    if n_steps_cap > MAX_MATERIALIZED_STEPS:
        raise SchedulerError(
            f"{n_steps_cap} steps is beyond materialization; use "
            f"cmtl_allocation for closed-form budgets")
    basis = task_basis(strategy, names)

    step_sets: "list[tuple[str, ...]]" = []
    if strategy == "sum":
        joint = tuple(names)
        step_sets = [joint] * n_steps_cap
    elif strategy == "inc":
        base = n_steps_cap // len(names)
        for k, _ in enumerate(names):
            count = base if k < len(names) - 1 \
                else n_steps_cap - base * (len(names) - 1)
            step_sets.extend([tuple(names[:k + 1])] * count)
    elif strategy == "alt":
        step_sets = [(names[s % len(names)],) for s in range(n_steps_cap)]
    elif strategy == "alt_plus":
        step_sets = [("mlm", basis[s % len(basis)])
                     for s in range(n_steps_cap)]
    elif strategy in ("cmtl", "cmtl_plus"):
        alloc = cmtl_allocation(len(basis), total_tokens, batch_tokens)
        for stage in alloc.stage_table:
            counts = [b // batch_tokens for b in stage]
            for j in _interleave_stage(counts):
                if strategy == "cmtl_plus":
                    step_sets.append(("mlm", basis[j]))
                else:
                    step_sets.append((basis[j],))

    for distinct in dict.fromkeys(step_sets):
        try:
            validate_compatibility(distinct)
        except TaskError as exc:
            raise SchedulerError(str(exc)) from exc

    ids = _assign_task_ids(step_sets)
    steps = [ScheduleStep(index=i, tasks=s, task_id=t)
             for i, (s, t) in enumerate(zip(step_sets, ids))]
    return Schedule(strategy=strategy, tasks=tuple(names),
                    batch_tokens=batch_tokens, steps=steps)


def token_accounting(schedule: Schedule) -> "dict[str, int]":
    totals = {t: 0 for t in schedule.tasks}
    for step in schedule.steps:
        for t in step.tasks:
            totals[t] += schedule.batch_tokens
    return totals

