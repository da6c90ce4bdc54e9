# Generating a balanced question-answer dataset from ground-truth tables.
#
# Three question tasks over three numeric categories:
#   fv  - fact verification, answered yes/no, always created in
#         original/contrapositive pairs with opposite answers
#   ni  - numeric inference, answered with a number
#   pm  - multiple choice (produced by the rewrite track, see demo 04)
# plus a chain-of-thought variant whose answer is a short reasoning chain.
#
#     python3 demos/03_generate_dataset.py

import numpy as np

from sceneqa import (
    assemble_dataset,
    extract_ngt,
    generate_rule_dataset,
    generate_synthetic_scene,
    random_indoor_spec,
    RulegenConfig,
)
from sceneqa.rulegen import balance_violations

# ---------------------------------------------------------------------------
# Inputs: a few extracted tables
# ---------------------------------------------------------------------------

tables = []
for i in range(3):
    rng = np.random.default_rng(1000 + i)
    scene, _ = generate_synthetic_scene(
        random_indoor_spec(f"demo{i:04d}", rng), seed=2000 + i)
    tables.append(extract_ngt(scene))

# ---------------------------------------------------------------------------
# Configuration: totals per stratum, balance knobs
# ---------------------------------------------------------------------------
# Counts are totals across all scenes.  Fact-verification counts must be
# even because records come in original/contrapositive pairs.  A 0.5
# chain-of-thought fraction gives every second record a reasoning twin.

cfg = RulegenConfig(
    fv_quantity=40, fv_distance=40, fv_volume=40,
    ni_quantity=20, ni_distance=20, ni_volume=20,
    cot_fraction=0.5,
    ambiguity_margin=0.05,   # skip comparisons closer than 5%
    approx_band_in=0.10,     # "approximately equal" means ratio >= 0.90
    approx_band_out=0.30,    # "clearly different" means ratio < 0.70
)

records = generate_rule_dataset(tables, cfg, master_seed=20240817)
records, report = assemble_dataset([records])
print("records generated:", len(records))

# ---------------------------------------------------------------------------
# Every record carries its provenance
# ---------------------------------------------------------------------------

fv = next(r for r in records if r.task == "fv" and r.variant == "plain")
print("\nan original fact-verification record")
print("  qa_id:    ", fv.qa_id)
print("  question: ", fv.question)
print("  answer:   ", fv.answer)
print("  cp_link:  ", fv.cp_link)
print("  referents:", fv.referents)
print("  template: ", fv.template_id)

by_id = {r.qa_id: r for r in records}
partner = by_id[fv.cp_link]
print("\nits contrapositive (inverted question, opposite answer)")
print("  question: ", partner.question)
print("  answer:   ", partner.answer)

cot = next(r for r in records if r.task == "ni" and r.variant == "cot")
print("\na chain-of-thought numeric record stores the whole chain")
print("  question:", cot.question)
print("  answer:  ", cot.answer)
print("  (the final token is what a prediction is scored against)")

# ---------------------------------------------------------------------------
# Balance is engineered, not sampled
# ---------------------------------------------------------------------------
# Answers follow global index schedules, so yes/no counts differ by at most
# one in every stratum — overall AND separately among originals and
# contrapositives — and all ten templates per stratum are used within one
# of each other.  The balance report makes that auditable.

print("\nper-stratum balance")
for key in sorted(report.strata):
    s = report.strata[key]
    print(f"  {key:24s} total={s.total:4d} answers={dict(sorted(s.answers.items()))}")

problems = balance_violations(report)
print("\nbalance violations:", problems if problems else "none")
assert problems == []

# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
# The same tables and seed always produce the identical dataset, regardless
# of the order the tables are supplied in.

again = generate_rule_dataset(list(reversed(tables)), cfg, master_seed=20240817)
assert [r.to_dict() for r in again] == [r.to_dict() for r in records]
print("\nregenerated from shuffled inputs: identical, record for record")
