#!/usr/bin/env python3
"""The consistency algorithm, class-ification, and the span check.

The consistency algorithm is the library's independent ground truth:
it takes its brackets from the base tensor f, never from the extended
symplectic matrices, yet on every model here it spans exactly the same
constraint surface as the chain.
"""

from pathlib import Path

from symchain import (
    classify,
    compare_spans,
    consistency_algorithm,
    load_model,
    run_chain,
)

model = load_model(Path(__file__).resolve().parent.parent / "models" / "example2.model")

# -- the consistency algorithm ------------------------------------------

oracle = consistency_algorithm(model)
print("consistency algorithm:")
for c in oracle.constraints:
    print(f"  level {c.level}: {c.raw}")
for mc in oracle.multiplier_conditions:
    print(f"  multiplier fixed: consistency of {mc.constraint.expr} "
          f"requires {mc.condition} = 0")
print()

# -- classification ------------------------------------------------------

cm = classify(model, oracle.constraints)
print("mutual-bracket matrix:")
for row in cm.matrix:
    print(" ".join(str(x) for x in row))
if not cm.first_class and cm.rank == len(oracle.constraints):
    print(f"rank {cm.rank}: all {cm.rank} constraints are "
          f"second-class; det = {cm.determinant}")
else:
    print(f"rank {cm.rank} of {len(oracle.constraints)} constraints: "
          f"{len(cm.first_class)} first-class")
print()

# -- and the cross-check against the chain --------------------------------

report = run_chain(model)
print("chain vs oracle spans:", compare_spans(report, oracle.constraints).describe())
print("chain span fingerprint: ", report.span_fingerprint())
print("oracle span fingerprint:", oracle.span_fingerprint())
