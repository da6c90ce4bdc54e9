# Scoring predictions: extraction, threshold accuracy, and consistency.
#
# Model output is free text.  Scoring first extracts a canonical token
# (yes/no, an option letter, or a numeral — the *last* one for
# chain-of-thought output), then compares it with the record's gold token
# (``record.gold``, read from its stored answer by the same extraction):
#   fv/pm  - exact match -> accuracy
#   ni     - relative error -> threshold accuracy TA@5/10/20, where a
#            prediction within t% of the truth counts (strictly within)
# Contrapositive pairs additionally yield a consistency score: a responder
# that understands the question must answer an inverted question oppositely.
#
#     python3 demos/05_score_predictions.py

import numpy as np

from sceneqa import (
    consistency_report,
    extract_answer,
    extract_ngt,
    format_report_table,
    generate_rule_dataset,
    generate_synthetic_scene,
    oracle_responses,
    random_indoor_spec,
    score_records,
    RulegenConfig,
)
from sceneqa.evaluate import ta_hit

# ---------------------------------------------------------------------------
# Token extraction from free text
# ---------------------------------------------------------------------------

print("extraction examples")
print("  fv:", extract_answer("Yes, I believe so.", "fv"))
print("  pm:", extract_answer("The correct option is (C)", "pm"))
print("  ni:", extract_answer("It is roughly 3.81 cubic meters.", "ni"))
print("  cot takes the last token:",
      extract_answer("2.0 times 1.9 gives 3.8, so the answer is 3.8.",
                     "ni", variant="cot"))
# Chatter that merely *contains* a letter is not an answer: "a chair" does
# not parse as option A, and nothing here guesses when extraction fails.
print("  no answer found:", extract_answer("a chair, I suppose", "pm"))

# ---------------------------------------------------------------------------
# Threshold accuracy by hand
# ---------------------------------------------------------------------------
# Ground truth 10, predictions 10.4 / 10.6 / 11.0 / 12.5.  With a strict
# "<" the 11.0 prediction misses TA@10 by a hair, so the three thresholds
# score exactly one, two, and three hits out of four.  ``ta_hit`` is the
# test the scorer applies to each numeric prediction.

gts, preds = [10.0] * 4, [10.4, 10.6, 11.0, 12.5]
for t in (0.05, 0.10, 0.20):
    hits = sum(ta_hit(gt, pred, t) for gt, pred in zip(gts, preds))
    print(f"TA@{int(t * 100):<2d} = {hits / len(gts):.2f}")

# ---------------------------------------------------------------------------
# A dataset and three responders
# ---------------------------------------------------------------------------

tables = {}
for i in range(3):
    rng = np.random.default_rng(3000 + i)
    scene, _ = generate_synthetic_scene(
        random_indoor_spec(f"demo{i:04d}", rng), seed=4000 + i)
    tables[scene.scene_id] = extract_ngt(scene)

cfg = RulegenConfig(fv_quantity=40, fv_distance=40, fv_volume=40,
                    ni_quantity=20, ni_distance=20, ni_volume=20,
                    cot_fraction=0.5)
records = generate_rule_dataset(list(tables.values()), cfg, master_seed=99)

# Responder 1: an oracle that re-derives every answer from the tables.
oracle = oracle_responses(records, tables)

# Responder 2: answers "yes" to every yes/no question (the blind baseline).
blind = {r.qa_id: "yes" for r in records if r.task == "fv"}

# Responder 3: noisy — right answer wrapped in chatter, and half the
# numeric answers perturbed by up to +-15%.
rng = np.random.default_rng(5)
noisy = {}
for r in records:
    token = r.gold
    if r.task == "ni" and rng.random() < 0.5:
        token = f"{float(token) * rng.uniform(0.85, 1.15):.2f}"
    noisy[r.qa_id] = f"Hmm, I would say the answer is {token}."

# ---------------------------------------------------------------------------
# Score them
# ---------------------------------------------------------------------------

for name, responses in (("oracle", oracle), ("constant-yes", blind),
                        ("noisy", noisy)):
    print(f"\n=== {name} responder, plain variant ===")
    print(format_report_table(score_records(records, responses)))
    pairs = consistency_report(records, responses)
    for key in sorted(pairs.strata):
        s = pairs.strata[key]
        print(f"consistency {key:16s} {s.consistency:5.2f}  "
              f"ori {s.original_accuracy:.2f}  cp {s.cp_accuracy:.2f}  "
              f"delta {s.delta:+.2f}")

# The oracle is perfect and perfectly consistent; constant-yes scores one
# half on accuracy and zero on consistency — it answers the question and its
# inversion identically, which the paired design is built to expose.
