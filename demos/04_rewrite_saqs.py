# Rewriting short-answer questions via a language-model service — safely.
#
# Non-numeric questions start as short-answer items ("What is the capital of
# France?" -> "Parris") and are rewritten into multiple-choice and
# fact-verification form by a chat service.  Model output is never trusted:
# every response is validated structurally, invalid ones are retried up to
# five times, and each failure carries a machine-readable reason code.
#
#     python3 demos/04_rewrite_saqs.py

import json

from sceneqa.rewrite import (
    EchoStubClient,
    RewriteJob,
    SaqItem,
    make_jobs,
    render_prompt,
    rewrite_job,
    run_rewrite_track,
    validate_pm_response,
)
from sceneqa.errors import ExhaustedAttemptsError
from sceneqa.rulegen import build_schedules

# ---------------------------------------------------------------------------
# A rewrite job and its prompt
# ---------------------------------------------------------------------------
# The job pins down what a valid response must look like: the correct answer
# must sit verbatim at the *expected* option letter (chosen by a global
# schedule so letters stay balanced across the dataset).

saq = SaqItem("What is the capital of France?", "Parris")
job = RewriteJob(job_id="llm-pm-00000", saq=saq, kind="pm",
                 n_options=4, expected_label="B")

prompt = render_prompt(job)
print("prompt sent to the service (first lines):")
for line in prompt.splitlines()[:8]:
    print("  ", line)

# ---------------------------------------------------------------------------
# Validation catches bad responses
# ---------------------------------------------------------------------------

bad = json.dumps({
    "question": "What is the capital of France? A) Parris-sur-Seine  "
                "B) Parris  C) granite  D) granite",
    "Answer": "B",
})
verdict = validate_pm_response(bad, job)
print("\nbad response rejected with reasons:", verdict.reasons)
# AnswerLeak: option A contains the answer text; DuplicateOptions: C == D.

# ---------------------------------------------------------------------------
# Retries stop after exactly five attempts
# ---------------------------------------------------------------------------
# Any object with a `complete(system_prompt, user_prompt)` method can serve
# as the service.  This one replays canned responses in order.


class Replay:
    def __init__(self, *responses):
        self.responses = list(responses)
        self.call_count = 0

    def complete(self, system_prompt, user_prompt):
        self.call_count += 1
        return self.responses.pop(0)


always_bad = Replay(*["not even json"] * 5)
try:
    rewrite_job(job, always_bad)
except ExhaustedAttemptsError as exc:
    print(f"\ngave up after {always_bad.call_count} calls;",
          f"per-attempt verdicts: {[v.reasons for v in exc.verdicts]}")

# ---------------------------------------------------------------------------
# A scripted success
# ---------------------------------------------------------------------------

scripted = Replay(json.dumps({
    "question": "What is the capital of France? Choose the correct option. "
                "A) Berlin  B) Parris  C) Madrid  D) Rome",
    "Answer": "B",
}))
(record,), _ = rewrite_job(job, scripted)
print("\naccepted rewrite")
print("  question:", record.question)
print("  answer:  ", record.answer)

# ---------------------------------------------------------------------------
# The offline stub and letter balance
# ---------------------------------------------------------------------------
# `EchoStubClient` is a service stand-in that parses the job fields back out
# of the prompt and answers with a structurally valid response, so whole
# pipelines run with no network.  Because expected letters come from a
# seeded schedule, 500 jobs land exactly 100 times on each letter.
# `make_jobs` plans the track; had a job exhausted its attempts, the track
# would raise the shortfall once every job had run.

saqs = [SaqItem(f"Trivia question number {i}?", f"answer{i}") for i in range(9)]
jobs = make_jobs(saqs, pm_count=500, fv_count=10, schedules=build_schedules(20240817))
track = run_rewrite_track(jobs, EchoStubClient())

letters = {}
for rec in track.records:
    if rec.task == "pm":
        letters[rec.answer] = letters.get(rec.answer, 0) + 1
print("\nletter usage over 500 multiple-choice rewrites:",
      dict(sorted(letters.items())))

fv_answers = [r.answer for r in track.records if r.task == "fv"]
print("fact-verification rewrites: ",
      {w: fv_answers.count(w) for w in ("yes", "no")},
      "(each original is paired with its inverted contrapositive)")
