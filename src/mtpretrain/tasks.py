"""The pre-training task names, their input-structure groups and the rules
for combining them.

The fifteen task names are the keys of `model.HEADS`, which holds each
one's head, label key and output width. The groups name what a task
needs from a batch: the pair tasks build each row from two segments with
a pair label, the random-second tasks among them draw the second segment
with randomized provenance, the continuation tasks need the batch's two
row halves to be textual continuations, and the masking and corruption
tasks rewrite the input tokens. `validate_compatibility` refuses the sets
whose structures cannot share one batch.
"""

from __future__ import annotations


class TaskError(ValueError):
    """Unknown task name or an unsatisfiable task combination."""


PAIR_TASKS = frozenset({"nsp", "asp", "so", "sdp"})
RANDOM_SECOND_TASKS = frozenset({"nsp", "asp", "sdp"})
CONTINUATION_TASKS = frozenset({"qt", "fs"})
MASKING_TASKS = frozenset({"mlm", "sbo"})
CORRUPTION_TASKS = frozenset({"tcp", "scp"})

_ALIASES = {"tf-idf": "tfidf", "tf_idf": "tfidf"}


def canonical_task(name: str) -> str:
    # model imports this module, so the task list is read at call time
    from .model import HEADS
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in HEADS:
        raise TaskError(f"unknown task {name!r}; known: {', '.join(HEADS)}")
    return key


def validate_compatibility(task_set) -> None:
    """Reject task sets whose input structures cannot coexist in one batch.

    Rules:
    - so rearranges adjacent text while nsp/asp/sdp randomize what the
      second segment is, so so cannot join any of them.
    - nsp, asp, sdp each impose their own second-segment sampling protocol,
      so at most one of them per set.
    - qt/fs need the two batch halves to be exact continuations, which the
      randomized second segments of nsp/asp/sdp destroy.
    """
    names = sorted(canonical_task(t) for t in task_set)
    if not names:
        raise TaskError("empty task set")
    randomized = [n for n in names if n in RANDOM_SECOND_TASKS]
    if "so" in names and randomized:
        raise TaskError(
            f"incompatible tasks: so with {randomized[0]} (segment order vs "
            f"randomized second segment)")
    if len(randomized) > 1:
        raise TaskError(
            f"incompatible tasks: {randomized[0]} with {randomized[1]} "
            f"(conflicting second-segment sampling protocols)")
    contin = [n for n in names if n in CONTINUATION_TASKS]
    if randomized and contin:
        raise TaskError(
            f"incompatible tasks: {randomized[0]} with {contin[0]} "
            f"(continuation-paired halves vs randomized second segment)")
