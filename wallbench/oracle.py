"""Correctness checks that do not rest on a stored copy of answers.

* **Gold-perception oracle.**  Scene graphs are built straight from the
  generator's own objects and relations (``SyntheticScene.objects`` /
  ``.relations``), merged with ``DataAggregator.merge`` and installed
  with ``SVQA.adopt_merged``.  With perfect perception, a wrong answer
  can only come from the parser, the executor or the ground truth, so
  every miss must be attributed: either the question carries a rare
  word the parser is designed to reject (``exotic``, the paper's
  "canis" case of Fig. 8a) or it is a known fault of the program
  (:func:`known_fault`).
* **Answer form.**  Every answer's value must fit its question's type.
"""

from __future__ import annotations

#: misses under gold perception that are faults of the program, not of
#: perception, keyed by question text.  A fix of the fault removes its
#: entry; a miss that is neither known (:func:`known_fault`) nor
#: ``exotic`` fails the run.
KNOWN_FAULTS: dict[str, str] = {
    "Does the man that is most frequently walking on the grass appear "
    "in front of the horse?":
        "executor: judgment over a most-frequently clause answers yes, "
        "ground truth says no",
}

#: a known fault that is a class of questions, not one question: a
#: kinds-of count over a three-clause chain undercounts ("How many kinds
#: of people are watching the dog that is most frequently carrying the
#: toy that is on the girl?" answers 0, ground truth 3).  A fix of the
#: fault removes this attribution.
KINDS_OF_CHAIN_FAULT = "executor: kinds-of count over a three-clause chain"


def known_fault(question) -> str | None:
    """The known fault a gold-perception miss of ``question`` is, or
    ``None``."""
    if question.text in KNOWN_FAULTS:
        return KNOWN_FAULTS[question.text]
    if question.question_type.value == "counting" \
            and question.clause_count == 3 and "kinds of" in question.text:
        return KINDS_OF_CHAIN_FAULT
    return None


def gold_scene_graphs(scenes: list) -> list:
    """One perfect scene graph per scene: every object, every relation."""
    import numpy as np

    from repro.vision.detector import Detection
    from repro.vision.features import FEATURE_DIM, FeatureMap
    from repro.vision.scene_graph import PredictedRelation, SceneGraphResult

    features = FeatureMap(np.zeros(FEATURE_DIM, dtype=np.float32))
    return [
        SceneGraphResult(
            scene.image_id,
            [Detection(obj.index, obj.box, features, obj.category, 1.0,
                       obj.depth) for obj in scene.objects],
            [PredictedRelation(rel.src, rel.dst, rel.predicate, 1.0)
             for rel in scene.relations],
        )
        for scene in scenes
    ]


def gold_answers(dataset) -> list[str]:
    """Answer every question of ``dataset`` under gold perception."""
    from repro.core.aggregator import DataAggregator
    from repro.core.pipeline import SVQA, SVQAConfig

    merged = DataAggregator(dataset.kg).merge(
        gold_scene_graphs(dataset.scenes))
    svqa = SVQA(dataset.scenes, dataset.kg, SVQAConfig())
    svqa.adopt_merged(merged)
    answers = svqa.answer_many([q.text for q in dataset.questions],
                               workers=1)
    return [answer.value for answer in answers]


def check_gold(dataset) -> dict[str, object]:
    """Run the gold-perception oracle and attribute every miss.

    Returns ``{"ok", "misses", "exotic", "known_faults",
    "unattributed"}``; ``ok`` is false when any miss is unattributed.
    """
    from repro.eval.accuracy import answers_match

    exotic: list[str] = []
    known: list[str] = []
    unattributed: list[str] = []
    for question, value in zip(dataset.questions, gold_answers(dataset)):
        if answers_match(value, question.answer, question.question_type):
            continue
        if question.exotic:
            exotic.append(question.text)
        elif known_fault(question) is not None:
            known.append(question.text)
        else:
            unattributed.append(
                f"{question.text!r}: expected {question.answer!r}, "
                f"got {value!r}")
    return {
        "ok": not unattributed,
        "misses": len(exotic) + len(known) + len(unattributed),
        "exotic": len(exotic),
        "known_faults": len(known),
        "unattributed": unattributed,
    }


def form_error(question_type: str, exotic: bool, value: str,
               reported_type: str) -> str | None:
    """Why an answer does not fit its question's type, or ``None``.

    ``question_type`` is the generator's type and ``reported_type``
    the one the program answered with.  A question the parser rejects
    by design (``exotic``) may come back as ``unknown`` of any type;
    every other answer must carry the generator's type and a value of
    that type's form: ``yes``/``no`` for judgment, a whole number for
    counting, a label (not a number, not yes/no) for reasoning.
    """
    if exotic and value == "unknown":
        return None
    if reported_type != question_type:
        return f"type {reported_type!r}, expected {question_type!r}"
    if question_type == "judgment":
        ok = value in ("yes", "no")
    elif question_type == "counting":
        ok = value.isdigit()
    else:
        ok = bool(value.strip()) and not value.isdigit() \
            and value not in ("yes", "no")
    return None if ok else f"{question_type} answer {value!r}"


def answer_accuracy(expected: list[tuple[str, str]],
                    values: list[str | None]) -> float:
    """Share of answers matching the generator's ground truth, scored
    with the paper's rule (``eval.accuracy.answers_match``).

    ``expected`` holds ``(answer, question type)`` per question; a
    ``None`` value (no answer came back) counts as wrong.
    """
    from repro.core.spoc import QuestionType
    from repro.eval.accuracy import answers_match

    correct = sum(
        value is not None
        and answers_match(value, answer, QuestionType(question_type))
        for (answer, question_type), value in zip(expected, values)
    )
    return correct / len(expected)
