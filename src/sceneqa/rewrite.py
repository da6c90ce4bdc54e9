"""Rewrite track: turning short-answer questions into PM / FV items via a
text-generation service, with strict validation and bounded retries.

A short-answer question (SAQ) plus its answer is sent to the service with a
fixed prompt.  For prompt-matching (PM) the service must return a multiple
choice question whose options embed the original answer verbatim at a
pre-assigned letter; for fact verification (FV) it must return a statement
question and its inverted contrapositive with opposite yes/no answers.  Every
response is validated structurally; invalid responses are regenerated up to
five attempts total per job before :class:`ExhaustedAttemptsError` is raised.

Each job carries the answer its records get: an option letter for PM,
``yes`` or ``no`` for FV.  Both are assigned by the same index-based
schedules used by rule generation, so option letters stay within one of N/5
across any batch.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol, Sequence

from .errors import (
    ExhaustedAttemptsError,
    InsufficientCandidatesError,
    SceneQaError,
    SchemaViolationError,
    ServiceUnavailableError,
)
from .rulegen import (
    ANSWER_NO,
    ANSWER_YES,
    INVERSE_ANSWER,
    OPTION_LETTERS,
    PROVENANCE_LLM,
    QaRecord,
    Schedules,
    VARIANT_PLAIN,
    contrapositive_id,
)
from .templates import CAT_NON_NUMERIC, TASK_FV, TASK_PM
from .util import read_jsonl

PROMPT_VERSION = "1.0.0"

SYSTEM_PROMPT = (
    "You are an AI assistant providing accurate, detailed, and polite "
    "explanations. Your goal is to give clear and helpful responses. "
    "Distances refer to convex hull distances, the shortest distance between "
    "points on the convex hulls of two objects, where a convex hull is the "
    "smallest convex shape enclosing an object. Volumes refer to the space "
    "within an object's minimum axis-aligned bounding box (AABB), a "
    "rectangular box aligned with the coordinate axes. Always use these "
    "definitions for distances and volumes."
)

PM_PROMPT_TEMPLATE = """Please rewrite a Short Answer Question (SAQ) into a Prompt Matching (PM) question with {n_options} options.

Input:
- Original SAQ: {question}
- Original Answer: {answer}
- Expected Correct Option: {label}
- Number of Options: {n_options}

Task Description:
1. Convert the SAQ into a clear and concise PM question.
2. Generate {n_distractors} incorrect options as distractors:
   - Keep distractors in the same category as the correct answer (e.g., if the answer is a noun, all distractors should be nouns).
   - Ensure distractors are plausible but clearly incorrect.
   - Avoid synonyms of the correct answer, overly obvious wrong choices, or options that reveal the correct answer.
3. Place the correct answer exactly as given (including any spelling variations) at the expected correct option.
4. Format the options as: "A) Option A  B) Option B  C) Option C ..." and keep the correct answer at the expected option letter.
5. Include a hint in the question instructing to answer using the correct option letter.

Output Format:
Return only a JSON object with the following keys:
{{
  "question": "The rewritten PM question",
  "Answer": "The correct option letter (e.g., 'A')"
}}
Do not include any additional text or explanations outside this JSON object.

Example Input:
- Original SAQ: What is the capital of France?
- Original Answer: Parris
- Expected Correct Option: B
- Number of Options: 4

Example Output:
{{
  "question": "What is the capital of France? Answer using the correct option letter. A) Berlin  B) Parris  C) London  D) Rome",
  "Answer": "B"
}}"""

FV_PROMPT_TEMPLATE = """Please rewrite a Short Answer Question (SAQ) into a Fact Verification (FV) question together with its contrapositive variant.

Input:
- Original SAQ: {question}
- Original Answer: {answer}
- Boolean Indicator: {indicator}
- Affirmative Word: {affirmative}
- Negative Word: {negative}

Task Description:
1. Turn the SAQ and its answer into a declarative statement.
2. If the Boolean Indicator is true, keep the statement affirmative so the correct reply is "{affirmative}"; if it is false, negate the statement so the correct reply is "{negative}".
3. Produce the contrapositive variant by inverting the statement and the expected reply.
4. End each question with an instruction to answer with "{affirmative}" or "{negative}".

Output Format:
Return only a JSON object with the following keys:
{{
  "question": "The rewritten FV question",
  "Answer": "The expected reply ({affirmative} or {negative})",
  "cp_question": "The inverted FV question",
  "cp_answer": "The opposite reply"
}}
Do not include any additional text or explanations outside this JSON object.

Example Input:
- Original SAQ: Who sits next to Alice?
- Original Answer: Bob
- Boolean Indicator: false
- Affirmative Word: yes
- Negative Word: no

Example Output:
{{
  "question": "Bob does not sit next to Alice. Is this correct? Answer with \\"yes\\" or \\"no\\".",
  "Answer": "no",
  "cp_question": "Bob sits next to Alice. Is this correct? Answer with \\"yes\\" or \\"no\\".",
  "cp_answer": "yes"
}}"""

# validation failure reason codes
NOT_JSON = "NotJson"
MISSING_KEY = "MissingKey"
WRONG_OPTION_COUNT = "WrongOptionCount"
ANSWER_NOT_AT_EXPECTED_LABEL = "AnswerNotAtExpectedLabel"
DUPLICATE_OPTIONS = "DuplicateOptions"
ANSWER_LEAK = "AnswerLeak"
BAD_ANSWER_WORD = "BadAnswerWord"
CP_NOT_INVERTED = "CpNotInverted"


@dataclass(frozen=True)
class SaqItem:
    question: str
    answer: str
    scene_id: str = ""


@dataclass(frozen=True)
class RewriteJob:
    """One SAQ to rewrite as ``kind`` (``TASK_PM`` or ``TASK_FV``);
    ``expected_label`` is the answer of the job's original record, and
    ``n_options`` the option count of a PM question."""

    job_id: str
    saq: SaqItem
    kind: str
    n_options: int = 5
    expected_label: str | None = None

    def __post_init__(self):
        if self.kind == TASK_PM:
            if not 2 <= self.n_options <= 5:
                raise SceneQaError("PM jobs support 2 to 5 options")
            labels = list(OPTION_LETTERS[:self.n_options])
        elif self.kind == TASK_FV:
            labels = [ANSWER_YES, ANSWER_NO]
        else:
            raise SceneQaError(f"unknown rewrite kind {self.kind!r}")
        if self.expected_label not in labels:
            raise SceneQaError(
                f"expected_label must be one of {labels}, got {self.expected_label!r}"
            )


def render_prompt(job: RewriteJob) -> str:
    # str.format ignores the fields a template does not name
    template = PM_PROMPT_TEMPLATE if job.kind == TASK_PM else FV_PROMPT_TEMPLATE
    return template.format(
        question=job.saq.question, answer=job.saq.answer, label=job.expected_label,
        n_options=job.n_options, n_distractors=job.n_options - 1,
        indicator="true" if job.expected_label == ANSWER_YES else "false",
        affirmative=ANSWER_YES, negative=ANSWER_NO,
    )


# ---------------------------------------------------------------------------
# Service clients
# ---------------------------------------------------------------------------


class ServiceClient(Protocol):
    def complete(self, system_prompt: str, user_prompt: str) -> str: ...


_STUB_DISTRACTORS = (
    "granite", "velvet", "copper", "maroon", "juniper", "basalt",
    "saffron", "cobalt", "walnut", "amber", "onyx", "fern",
)


class EchoStubClient:
    """Offline stand-in for the rewrite service.

    Parses the job fields back out of the prompt and emits a structurally
    valid response, so whole pipelines can run without network access.
    """

    @staticmethod
    def _field(user_prompt: str, name: str) -> str:
        match = re.search(rf"^- {re.escape(name)}: (.*)$", user_prompt, re.M)
        if match is None:
            raise SceneQaError(f"stub could not find prompt field {name!r}")
        return match.group(1).strip()

    def complete(self, system_prompt: str, user_prompt: str) -> str:
        question = self._field(user_prompt, "Original SAQ")
        answer = self._field(user_prompt, "Original Answer")
        if "Expected Correct Option" in user_prompt:
            label = self._field(user_prompt, "Expected Correct Option")
            n_options = int(self._field(user_prompt, "Number of Options"))
            distractors = [
                d for d in _STUB_DISTRACTORS
                if answer.lower() not in d.lower() and d.lower() not in answer.lower()
            ][: n_options - 1]
            slot = OPTION_LETTERS.index(label)
            texts = distractors[:slot] + [answer] + distractors[slot:]
            options = [f"{letter}) {t}" for letter, t in zip(OPTION_LETTERS, texts)]
            text = (
                f"{question} Answer using the correct option letter. "
                + "  ".join(options)
            )
            return json.dumps({"question": text, "Answer": label})
        indicator = self._field(user_prompt, "Boolean Indicator") == "true"
        affirmative = self._field(user_prompt, "Affirmative Word")
        negative = self._field(user_prompt, "Negative Word")
        saq = question.rstrip("?. ")
        positive = f"The answer to \"{saq}?\" is {answer}."
        negated = f"The answer to \"{saq}?\" is not {answer}."
        hint = f' Is this correct? Answer with "{affirmative}" or "{negative}".'
        if indicator:
            payload = {
                "question": positive + hint, "Answer": affirmative,
                "cp_question": negated + hint, "cp_answer": negative,
            }
        else:
            payload = {
                "question": negated + hint, "Answer": negative,
                "cp_question": positive + hint, "cp_answer": affirmative,
            }
        return json.dumps(payload)


def _urllib_post(url: str, body: dict, timeout: float, headers: dict) -> tuple[int, str]:
    """POST ``body`` as JSON with the standard library; returns the reply's
    status and text, for an error status too."""
    import urllib.error
    import urllib.request  # not at module level: it slows ``import sceneqa``

    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json", **headers},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            status, raw = reply.status, reply.read()
    except urllib.error.HTTPError as exc:
        status, raw = exc.code, exc.read()
    return status, raw.decode("utf-8", "replace")


# client errors that a retry can fix: request timeout, rate limiting
_RETRIABLE_4XX = (408, 429)
_RETRY_WAIT_S = 1.0  # seconds before each retry


class HttpServiceClient:
    """Chat-completion HTTP client with bounded retries.

    ``transport(url, body, timeout, headers)`` is injectable for tests: it
    sends the request dict ``body`` as JSON and returns the reply's
    ``(status, text)``, or raises when no reply arrives.  Server errors, 408,
    429, transport errors and malformed bodies are retried; other 4xx
    responses fail at once.  Raises :class:`ServiceUnavailableError` once
    retries are exhausted.
    """

    def __init__(self, endpoint: str, model: str, timeout: float = 30.0,
                 retries: int = 2, temperature: float | None = None,
                 max_tokens: int | None = None,
                 headers: dict | None = None,
                 transport: Callable | None = None):
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout
        self.retries = retries
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.headers = dict(headers or {})
        self._post = transport if transport is not None else _urllib_post

    def complete(self, system_prompt: str, user_prompt: str) -> str:
        payload: dict = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": user_prompt},
            ],
        }
        if self.temperature is not None:
            payload["temperature"] = self.temperature
        if self.max_tokens is not None:
            payload["max_tokens"] = self.max_tokens

        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(_RETRY_WAIT_S)
            try:
                status, text = self._post(self.endpoint, payload, self.timeout,
                                          self.headers)
                if status < 400:
                    return json.loads(text)["choices"][0]["message"]["content"]
            except Exception as exc:  # noqa: BLE001 - transport errors and malformed bodies
                last_error = exc
                continue
            if status < 500 and status not in _RETRIABLE_4XX:
                raise ServiceUnavailableError(
                    f"request rejected with {status}: {text[:200]}"
                )
            last_error = ServiceUnavailableError(f"server returned {status}")
        raise ServiceUnavailableError(
            f"service unreachable after {self.retries + 1} attempts: {last_error}"
        ) from last_error


# ---------------------------------------------------------------------------
# Response validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationVerdict:
    ok: bool
    reasons: tuple[str, ...] = ()
    payload: dict | None = None


def extract_json_object(text: str) -> dict | None:
    """First balanced top-level JSON object embedded anywhere in ``text``."""
    decoder = json.JSONDecoder()
    for match in re.finditer(r"\{", text):
        try:
            obj, _ = decoder.raw_decode(text[match.start():])
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict):
            return obj
    return None


_OPTION_MARKER_RE = re.compile(r"(?:(?<=\s)|(?<=^))([A-Z])\)")


def parse_options(question: str) -> tuple[str, list[tuple[str, str]]] | None:
    """Split a PM question into (stem, [(letter, option text), ...]).

    Returns None when no option markers are present.
    """
    markers = list(_OPTION_MARKER_RE.finditer(question))
    if not markers:
        return None
    stem = question[: markers[0].start()].strip()
    options = []
    for i, marker in enumerate(markers):
        end = markers[i + 1].start() if i + 1 < len(markers) else len(question)
        options.append((marker.group(1), question[marker.end():end].strip()))
    return stem, options


def _parse_payload(text: str, keys: tuple[str, ...]) -> dict | ValidationVerdict:
    """The response's JSON object, or the verdict rejecting it when it is
    missing or lacks one of the string ``keys``."""
    payload = extract_json_object(text)
    if payload is None:
        return ValidationVerdict(False, (NOT_JSON,))
    if not all(isinstance(payload.get(k), str) for k in keys):
        return ValidationVerdict(False, (MISSING_KEY,), payload)
    return payload


def validate_pm_response(text: str, job: RewriteJob) -> ValidationVerdict:
    payload = _parse_payload(text, ("question", "Answer"))
    if isinstance(payload, ValidationVerdict):
        return payload

    reasons: list[str] = []
    if payload["Answer"].strip() != job.expected_label:
        reasons.append(ANSWER_NOT_AT_EXPECTED_LABEL)

    parsed = parse_options(payload["question"])
    expected_letters = list(OPTION_LETTERS[:job.n_options])
    if parsed is None:
        return ValidationVerdict(False, tuple(reasons) + (WRONG_OPTION_COUNT,), payload)
    _, options = parsed
    letters = [letter for letter, _ in options]
    if letters != expected_letters or any(not text for _, text in options):
        reasons.append(WRONG_OPTION_COUNT)
    else:
        by_letter = dict(options)
        if by_letter[job.expected_label] != job.saq.answer:
            reasons.append(ANSWER_NOT_AT_EXPECTED_LABEL)
        lowered = [text.lower() for _, text in options]
        if len(set(lowered)) != len(lowered):
            reasons.append(DUPLICATE_OPTIONS)
        answer_low = job.saq.answer.lower()
        for letter, text_opt in options:
            if letter != job.expected_label and answer_low in text_opt.lower():
                reasons.append(ANSWER_LEAK)
                break
    return ValidationVerdict(not reasons, tuple(reasons), payload)


def validate_fv_response(text: str, job: RewriteJob) -> ValidationVerdict:
    payload = _parse_payload(text, ("question", "Answer", "cp_question", "cp_answer"))
    if isinstance(payload, ValidationVerdict):
        return payload

    reasons: list[str] = []
    words = {ANSWER_YES, ANSWER_NO}
    answer = payload["Answer"].strip().lower()
    cp_answer = payload["cp_answer"].strip().lower()
    for value in (answer, cp_answer):
        if value not in words:
            reasons.append(BAD_ANSWER_WORD)
    for name in ("question", "cp_question"):
        low = payload[name].lower()
        if ANSWER_YES not in low or ANSWER_NO not in low:
            reasons.append(BAD_ANSWER_WORD)
    if not reasons:
        if answer != job.expected_label:
            reasons.append(ANSWER_NOT_AT_EXPECTED_LABEL)
        if cp_answer == answer:
            reasons.append(CP_NOT_INVERTED)
    return ValidationVerdict(not reasons, tuple(reasons), payload)


# ---------------------------------------------------------------------------
# Rewrite loop
# ---------------------------------------------------------------------------

MAX_ATTEMPTS = 5


def _records(job: RewriteJob, payload: dict) -> tuple[QaRecord, ...]:
    """The PM record, or the FV original and its contrapositive, from a
    validated reply; validation has matched the FV reply's answers to
    ``expected_label`` and its inverse."""
    if job.kind == TASK_PM:
        rows = [(job.job_id, payload["question"], job.expected_label, None)]
    else:
        cp_id = contrapositive_id(job.job_id)
        rows = [(job.job_id, payload["question"], job.expected_label, cp_id),
                (cp_id, payload["cp_question"], INVERSE_ANSWER[job.expected_label],
                 job.job_id)]
    return tuple(
        QaRecord(
            qa_id=qa_id, scene_id=job.saq.scene_id, task=job.kind,
            category=CAT_NON_NUMERIC, question=question, answer=answer,
            gt_value=None, unit="", cp_link=cp_link, variant=VARIANT_PLAIN,
            provenance=PROVENANCE_LLM, template_id=None, referents=(),
        )
        for qa_id, question, answer, cp_link in rows
    )


def rewrite_job(job: RewriteJob, client: ServiceClient
                ) -> tuple[tuple[QaRecord, ...], list[ValidationVerdict]]:
    """Rewrite one SAQ into its records (the PM record, or the FV original
    and its contrapositive) from the first valid response, with every
    attempt's verdict; raises :class:`ExhaustedAttemptsError` after
    ``MAX_ATTEMPTS`` invalid ones."""
    validate = validate_pm_response if job.kind == TASK_PM else validate_fv_response
    verdicts: list[ValidationVerdict] = []
    for _ in range(MAX_ATTEMPTS):
        text = client.complete(SYSTEM_PROMPT, render_prompt(job))
        verdict = validate(text, job)
        verdicts.append(verdict)
        if verdict.ok:
            return _records(job, verdict.payload), verdicts
    raise ExhaustedAttemptsError(
        f"job {job.job_id}: all {MAX_ATTEMPTS} attempts failed validation "
        f"(last: {verdicts[-1].reasons})",
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# Batch track
# ---------------------------------------------------------------------------


def load_saqs(path: str | Path) -> list[SaqItem]:
    items = []
    for line, row in read_jsonl(path):
        scene_id = row.get("scene_id", "")
        if not all(isinstance(row.get(key), str) for key in ("question", "answer")) \
                or not isinstance(scene_id, str):
            raise SchemaViolationError(
                f"{path}: line {line}: SAQ rows need string 'question' and "
                f"'answer', and a string 'scene_id' if they have one"
            )
        items.append(SaqItem(row["question"], row["answer"], scene_id))
    return items


# records per job, as every stratum counts them: an FV job makes a pair
_RECORDS_PER_JOB = {TASK_PM: 1, TASK_FV: 2}


def make_jobs(saqs: Sequence[SaqItem], pm_count: int, fv_count: int,
              schedules: Schedules, n_options: int = 5) -> list[RewriteJob]:
    """A rewrite track's plan: ``pm_count`` PM jobs, then ``fv_count`` FV
    jobs, cycling the SAQs; the ``k``-th job of a kind takes its answer from
    schedule index ``k``.  No SAQs for a kind asked for is a shortfall."""
    jobs = []
    for kind, count in ((TASK_PM, pm_count), (TASK_FV, fv_count)):
        if count > 0 and not saqs:
            raise InsufficientCandidatesError(
                f"no SAQ items available for {kind.upper()} rewriting",
                shortfalls={f"{kind}/{CAT_NON_NUMERIC}": (_RECORDS_PER_JOB[kind] * count, 0)},
            )
        for k in range(count):
            label = (schedules.pm_letter(k, n_options) if kind == TASK_PM
                     else ANSWER_YES if schedules.fv_indicator(k) else ANSWER_NO)
            jobs.append(RewriteJob(f"llm-{kind}-{k:05d}", saqs[k % len(saqs)], kind,
                                   n_options, label))
    return jobs


@dataclass
class RewriteTrackResult:
    records: list[QaRecord] = field(default_factory=list)
    log_rows: list[dict] = field(default_factory=list)


def run_rewrite_track(jobs: Sequence[RewriteJob], client: ServiceClient
                      ) -> RewriteTrackResult:
    """Run the ``jobs`` :func:`make_jobs` planned, in order, logging each
    one's attempts.  A job that exhausts its attempts does not stop the rest;
    once all have run, :class:`InsufficientCandidatesError` gives each
    stratum's shortfall."""
    result = RewriteTrackResult()
    for job in jobs:
        try:
            records, verdicts = rewrite_job(job, client)
        except ExhaustedAttemptsError as exc:
            records, verdicts = (), exc.verdicts
        result.records.extend(records)
        result.log_rows.append({
            "job_id": job.job_id, "kind": job.kind, "attempts": len(verdicts),
            "ok": bool(records),
            "reasons": sorted({r for v in verdicts for r in v.reasons}),
        })
    if failed := [row["job_id"] for row in result.log_rows if not row["ok"]]:
        requested: Counter[str] = Counter()
        for job in jobs:
            requested[f"{job.kind}/{CAT_NON_NUMERIC}"] += _RECORDS_PER_JOB[job.kind]
        produced = Counter(f"{r.task}/{r.category}" for r in result.records)
        raise InsufficientCandidatesError(
            f"{len(failed)} rewrite jobs exhausted their attempts (first: {failed[0]})",
            shortfalls={key: (n, produced[key]) for key, n in requested.items()
                        if produced[key] < n},
        )
    return result
