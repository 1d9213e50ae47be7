"""Registry of the pre-training tasks and their input-structure rules.

Each task records its class count (the output width of a classification
head; its head lives in `model.HEADS`) and its structural requirement:
some tasks need the batch's two row halves to be textual continuations,
some need a second segment drawn with randomized provenance, and some
only need adjacent text.
"""

from __future__ import annotations

from dataclasses import dataclass


class TaskError(ValueError):
    """Unknown task name or an unsatisfiable task combination."""


@dataclass(frozen=True)
class TaskSpec:
    name: str
    num_classes: int      # 0 where not a classification
    structure: str        # "adjacent" or "random_second"
    description: str


_SPECS = [
    TaskSpec("mlm", 0, "adjacent",
             "recover the original token at hidden positions"),
    TaskSpec("tf", 0, "adjacent",
             "regress each token's scaled in-document frequency"),
    TaskSpec("tfidf", 0, "adjacent",
             "regress each token's scaled frequency-times-rarity score"),
    TaskSpec("sbo", 0, "adjacent",
             "recover a hidden token from its neighbors' representations"),
    TaskSpec("tgs", 6, "adjacent",
             "identify which of the 6 permutations scrambled a trigram"),
    TaskSpec("tcp", 2, "adjacent",
             "flag tokens that were inserted, replaced, or permuted"),
    TaskSpec("cap", 2, "adjacent",
             "flag tokens whose source word was capitalized"),
    TaskSpec("tlp", 0, "adjacent", "regress each token's character length"),
    TaskSpec("nsp", 2, "random_second",
             "decide if segment B truly continues segment A"),
    TaskSpec("asp", 3, "random_second",
             "decide if B follows A, precedes A, or is foreign"),
    TaskSpec("so", 2, "adjacent",
             "decide if two adjacent segments were swapped"),
    TaskSpec("sdp", 3, "random_second",
             "decide if B is adjacent, same-document distant, or foreign"),
    TaskSpec("scp", 2, "adjacent",
             "decide if any token in the row was corrupted"),
    TaskSpec("qt", 0, "adjacent",
             "match each row to its continuation by [CLS] cosine energy"),
    TaskSpec("fs", 0, "adjacent",
             "pull a row's [CLS] toward its continuation's token states"),
]

TASKS: "dict[str, TaskSpec]" = {s.name: s for s in _SPECS}
TASK_ORDER: "list[str]" = [s.name for s in _SPECS]

PAIR_TASKS = frozenset({"nsp", "asp", "so", "sdp"})
CONTINUATION_TASKS = frozenset({"qt", "fs"})
MASKING_TASKS = frozenset({"mlm", "sbo"})
CORRUPTION_TASKS = frozenset({"tcp", "scp"})
RANDOM_SECOND_TASKS = frozenset(
    s.name for s in _SPECS if s.structure == "random_second")

_ALIASES = {"tf-idf": "tfidf", "tf_idf": "tfidf"}


def canonical_task(name: str) -> str:
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in TASKS:
        raise TaskError(f"unknown task {name!r}; known: {', '.join(TASK_ORDER)}")
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
