import pytest

from mtpretrain import tasks
from mtpretrain.model import HEADS


def test_registry_has_fifteen_tasks():
    assert list(HEADS) == [
        "mlm", "sbo", "tf", "tfidf", "tlp", "cap", "tcp", "tgs",
        "nsp", "asp", "so", "sdp", "scp", "qt", "fs",
    ]


def test_structure_groups():
    assert tasks.PAIR_TASKS == {"nsp", "asp", "so", "sdp"}
    assert tasks.RANDOM_SECOND_TASKS == {"nsp", "asp", "sdp"}
    assert tasks.CONTINUATION_TASKS == {"qt", "fs"}
    assert tasks.MASKING_TASKS == {"mlm", "sbo"}
    assert tasks.CORRUPTION_TASKS == {"tcp", "scp"}


def test_canonical_task_aliases_and_case():
    assert tasks.canonical_task("TF-IDF") == "tfidf"
    assert tasks.canonical_task("tf_idf") == "tfidf"
    assert tasks.canonical_task(" MLM ") == "mlm"
    with pytest.raises(tasks.TaskError, match=r"'mlmx'; known: mlm, sbo, "):
        tasks.canonical_task("mlmx")


def test_so_rejects_every_randomized_pair_task():
    for other in ("nsp", "asp", "sdp"):
        with pytest.raises(tasks.TaskError):
            tasks.validate_compatibility(("so", other))


def test_randomized_pair_tasks_mutually_exclusive():
    for a, b in (("nsp", "asp"), ("nsp", "sdp"), ("asp", "sdp")):
        with pytest.raises(tasks.TaskError):
            tasks.validate_compatibility((a, b))


def test_randomized_pair_tasks_reject_continuation():
    for a in ("nsp", "asp", "sdp"):
        for b in ("qt", "fs"):
            with pytest.raises(tasks.TaskError):
                tasks.validate_compatibility((a, b))


def test_final_model_set_accepted():
    tasks.validate_compatibility(("mlm", "qt", "so", "tfidf"))


def test_singletons_all_accepted():
    for name in HEADS:
        tasks.validate_compatibility((name,))


def test_large_compatible_set_accepted():
    tasks.validate_compatibility(
        ("mlm", "tf", "tfidf", "sbo", "tgs", "tcp", "cap", "tlp", "scp",
         "so", "qt", "fs"))


def test_empty_set_rejected():
    with pytest.raises(tasks.TaskError):
        tasks.validate_compatibility(())
