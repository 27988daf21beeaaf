"""Regenerate the committed static-predictor golden digests.

Run after an *intentional* change to the analytical model:

    PYTHONPATH=src python tests/predict/make_golden.py

Writes ``tests/predict/data/predict_golden.json``: for every case -- the
15 kernels, the ``tests/fuzz_corpus/`` programs (and the recipes they
were shrunk from), five sampled synth recipes, and every kernel again
under one ``sabotage()``d port model -- the block count and a sha256
digest over every :class:`~repro.predict.analyzer.BlockPrediction`
field, floats taken by ``repr`` so a change in the last bit shows.

``tests/predict/test_golden.py`` recomputes the digests and fails on
any drift, so a refactor of the predictor must reproduce today's
answers exactly, not approximately.
"""

import hashlib
import json
from pathlib import Path

from repro.fuzz.corpus import load_corpus
from repro.isa.opcodes import OpClass
from repro.predict.analyzer import predict_program
from repro.predict.ports import PortModel
from repro.workloads import WORKLOAD_NAMES, build
from repro.workloads.synth import Recipe, build_from_recipe

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "predict_golden.json"

#: Scale the programs are built at (the predictor reads no trip counts,
#: only immediates change with scale).
SCALE = 0.05

#: The deliberately wrong FU table the sabotaged cases use.
SABOTAGE = {OpClass.FP_MUL: 1, OpClass.LOAD: 9, OpClass.INT_MUL: 7}


def _bound_fields(bound) -> list:
    return [bound.name, bound.kind, repr(bound.cycles), bound.detail,
            list(bound.insts)]


def block_fields(block) -> list:
    """Every field of one block prediction, floats by ``repr``; dicts
    keep their insertion order."""
    return [
        block.leader,
        block.end,
        block.function,
        block.size,
        block.is_loop,
        [_bound_fields(bound) for bound in block.bounds],
        _bound_fields(block.binding),
        repr(block.cycles),
        repr(block.cpi),
        [[queue, repr(value)] for queue, value in
         block.queue_pressure.items()],
        repr(block.critical_path),
        repr(block.recurrence),
        [[state, repr(value)] for state, value in block.states.items()],
    ]


def prediction_digest(prediction) -> dict:
    """Block count and sha256 over every block, in ``blocks`` order."""
    digest = hashlib.sha256()
    for leader, block in prediction.blocks.items():
        digest.update(json.dumps([leader, block_fields(block)]).encode())
        digest.update(b"\n")
    return {"blocks": len(prediction.blocks), "sha256": digest.hexdigest()}


def cases():
    """``(case name, program, model or None)`` for every golden case."""
    sabotaged = PortModel().sabotage(SABOTAGE)
    for name in WORKLOAD_NAMES:
        yield name, build(name, scale=SCALE).program, None
    recipes = []
    for path, entry in load_corpus():
        recipes.append((f"corpus:{path.stem}", entry.recipe))
        if entry.shrunk_from is not None:
            recipes.append((f"corpus:{path.stem}:shrunk_from",
                            Recipe(**entry.shrunk_from)))
    recipes += [(f"synth:{seed}", Recipe.sample(seed))
                for seed in range(1, 6)]
    for case, recipe in recipes:
        yield case, build_from_recipe(recipe, scale=SCALE).program, None
    for name in WORKLOAD_NAMES:
        yield (f"sabotaged:{name}", build(name, scale=SCALE).program,
               sabotaged)


def golden_doc() -> dict:
    return {
        case: prediction_digest(predict_program(program, model=model))
        for case, program, model in cases()
    }


def main() -> None:
    DATA.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_doc(), indent=2) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
