"""The predictor reproduces its committed golden digests exactly.

``data/predict_golden.json`` was generated by ``make_golden.py`` from
the per-instruction analyzer; the table-driven one must give the same
answer in every field, every float bit and every dict order.
"""

import json

import pytest

from repro.predict.analyzer import predict_program
from tests.predict.make_golden import GOLDEN, cases, prediction_digest

EXPECTED = json.loads(GOLDEN.read_text())
CASES = {case: (program, model) for case, program, model in cases()}


def test_golden_covers_every_case():
    assert sorted(CASES) == sorted(EXPECTED)
    assert len(EXPECTED) >= 15 + 1 + 15


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_prediction_matches_golden(case):
    program, model = CASES[case]
    got = prediction_digest(predict_program(program, model=model))
    assert got == EXPECTED[case]
