"""LLM rewrite track: prompts, response validation, retries, balance."""

from __future__ import annotations

import hashlib
import http.server
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from sceneqa.errors import (
    ExhaustedAttemptsError,
    InsufficientCandidatesError,
    SceneQaError,
    SchemaViolationError,
    ServiceUnavailableError,
)
from sceneqa import rewrite
from sceneqa.rewrite import (
    ANSWER_LEAK,
    ANSWER_NOT_AT_EXPECTED_LABEL,
    BAD_ANSWER_WORD,
    CP_NOT_INVERTED,
    DUPLICATE_OPTIONS,
    MAX_ATTEMPTS,
    MISSING_KEY,
    NOT_JSON,
    SYSTEM_PROMPT,
    WRONG_OPTION_COUNT,
    EchoStubClient,
    HttpServiceClient,
    RewriteJob,
    SaqItem,
    extract_json_object,
    load_saqs,
    make_jobs,
    parse_options,
    render_prompt,
    rewrite_job,
    run_rewrite_track,
    validate_fv_response,
    validate_pm_response,
)
from sceneqa.rulegen import build_schedules
from sceneqa.templates import CAT_NON_NUMERIC, TASK_FV, TASK_PM
from sceneqa.util import write_jsonl

from conftest import MASTER_SEED, ScriptedClient

SRC = Path(__file__).resolve().parents[1] / "src"

SAQ = SaqItem("What is the capital of France?", "Parris", scene_id="sc01")


def pm_job(**overrides) -> RewriteJob:
    fields = dict(job_id="llm-pm-00000", saq=SAQ, kind=TASK_PM,
                  n_options=4, expected_label="B")
    fields.update(overrides)
    return RewriteJob(**fields)


def fv_job(**overrides) -> RewriteJob:
    fields = dict(job_id="llm-fv-00000",
                  saq=SaqItem("Who wrote Hamlet?", "Shakespeare"),
                  kind=TASK_FV, expected_label="yes")
    fields.update(overrides)
    return RewriteJob(**fields)


def pm_response(options: list[str], answer: str = "B",
                stem: str = "What is the capital of France? Pick one.") -> str:
    return json.dumps({"question": f"{stem} " + "  ".join(options),
                       "Answer": answer})


GOOD_PM_OPTIONS = ["A) granite", "B) Parris", "C) velvet", "D) copper"]

GOOD_FV_PAYLOAD = {
    "question": ('The answer to "Who wrote Hamlet?" is Shakespeare. '
                 'Is this correct? Answer with "yes" or "no".'),
    "Answer": "yes",
    "cp_question": ('The answer to "Who wrote Hamlet?" is not Shakespeare. '
                    'Is this correct? Answer with "yes" or "no".'),
    "cp_answer": "no",
}


class TestJobValidation:
    def test_pm_label_must_fit_option_count(self):
        with pytest.raises(SceneQaError, match="expected_label"):
            pm_job(n_options=3, expected_label="D")

    @pytest.mark.parametrize("n", [1, 6])
    def test_pm_option_count_bounds(self, n):
        with pytest.raises(SceneQaError, match="2 to 5 options"):
            pm_job(n_options=n, expected_label="A")

    def test_fv_needs_indicator(self):
        for label in (None, "true", "A"):
            with pytest.raises(SceneQaError,
                               match=r"expected_label must be one of \['yes', 'no'\]"):
                fv_job(expected_label=label)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SceneQaError, match="unknown rewrite kind"):
            RewriteJob(job_id="x", saq=SAQ, kind="essay")


class TestPromptRendering:
    def test_pm_prompt_carries_job_fields(self):
        prompt = render_prompt(pm_job())
        assert "- Original SAQ: What is the capital of France?" in prompt
        assert "- Original Answer: Parris" in prompt
        assert "- Expected Correct Option: B" in prompt
        assert "- Number of Options: 4" in prompt

    def test_fv_prompt_carries_indicator_and_words(self):
        prompt = render_prompt(fv_job(expected_label="no"))
        assert "- Boolean Indicator: false" in prompt
        assert "- Affirmative Word: yes" in prompt
        assert "- Negative Word: no" in prompt
        assert "cp_question" in prompt

    def test_prompts_and_stub_replies_are_pinned(self):
        # sha256 over the PM and FV prompt texts and the stub's reply to
        # each; a change means PROMPT_VERSION needs a bump.
        client = EchoStubClient()
        digest = hashlib.sha256()
        for job in (pm_job(), fv_job()):
            prompt = render_prompt(job)
            digest.update(prompt.encode())
            digest.update(client.complete(SYSTEM_PROMPT, prompt).encode())
        assert digest.hexdigest() == (
            "e344a859f826ccb3f18bd1f58ed49a830ae51e10b4e439483212929e846602e8")


class TestJsonExtraction:
    def test_bare_object(self):
        assert extract_json_object('{"a": 1}') == {"a": 1}

    def test_object_embedded_in_prose(self):
        text = 'Sure! Here you go:\n```json\n{"question": "Q?", "Answer": "A"}\n```'
        assert extract_json_object(text) == {"question": "Q?", "Answer": "A"}

    def test_nested_braces_stay_balanced(self):
        text = 'prefix {"outer": {"inner": 2}} suffix {"second": 3}'
        assert extract_json_object(text) == {"outer": {"inner": 2}}

    def test_non_dict_json_is_skipped(self):
        assert extract_json_object("[1, 2, 3]") is None

    def test_no_json_returns_none(self):
        assert extract_json_object("I cannot answer that.") is None


class TestOptionParsing:
    def test_standard_options(self):
        stem, options = parse_options(
            "Which one? A) granite  B) Parris  C) velvet")
        assert stem == "Which one?"
        assert options == [("A", "granite"), ("B", "Parris"), ("C", "velvet")]

    def test_no_markers(self):
        assert parse_options("Which one of these choices?") is None

    def test_marker_needs_leading_boundary(self):
        # "(B)" and mid-word parentheses are not option markers
        stem, options = parse_options("Pick (ha) one: A) first B) second")
        assert [letter for letter, _ in options] == ["A", "B"]
        assert stem.startswith("Pick (ha) one:")


class TestPmValidation:
    def test_valid_response(self):
        verdict = validate_pm_response(pm_response(GOOD_PM_OPTIONS), pm_job())
        assert verdict.ok and verdict.reasons == ()

    def test_not_json(self):
        verdict = validate_pm_response("no structured output here", pm_job())
        assert verdict.reasons == (NOT_JSON,)

    def test_missing_key(self):
        verdict = validate_pm_response('{"question": "Q?"}', pm_job())
        assert verdict.reasons == (MISSING_KEY,)

    def test_non_string_answer_counts_as_missing(self):
        verdict = validate_pm_response(
            '{"question": "Q? A) x B) y", "Answer": 2}', pm_job())
        assert verdict.reasons == (MISSING_KEY,)

    def test_wrong_option_count(self):
        verdict = validate_pm_response(
            pm_response(["A) granite", "B) Parris", "C) velvet"]), pm_job())
        assert WRONG_OPTION_COUNT in verdict.reasons

    def test_non_sequential_letters(self):
        verdict = validate_pm_response(
            pm_response(["A) granite", "B) Parris", "D) velvet", "E) copper"]),
            pm_job())
        assert WRONG_OPTION_COUNT in verdict.reasons

    def test_no_markers_at_all(self):
        verdict = validate_pm_response(
            json.dumps({"question": "just prose", "Answer": "B"}), pm_job())
        assert WRONG_OPTION_COUNT in verdict.reasons

    def test_answer_key_must_match_label(self):
        verdict = validate_pm_response(
            pm_response(GOOD_PM_OPTIONS, answer="C"), pm_job())
        assert ANSWER_NOT_AT_EXPECTED_LABEL in verdict.reasons

    def test_expected_slot_must_hold_answer_verbatim(self):
        options = ["A) granite", "B) Paris", "C) velvet", "D) copper"]
        verdict = validate_pm_response(pm_response(options), pm_job())
        assert ANSWER_NOT_AT_EXPECTED_LABEL in verdict.reasons

    def test_duplicate_options(self):
        options = ["A) granite", "B) Parris", "C) Granite", "D) copper"]
        verdict = validate_pm_response(pm_response(options), pm_job())
        assert DUPLICATE_OPTIONS in verdict.reasons

    def test_answer_leak_into_distractor(self):
        options = ["A) granite", "B) Parris", "C) parris east", "D) copper"]
        verdict = validate_pm_response(pm_response(options), pm_job())
        assert ANSWER_LEAK in verdict.reasons

    def test_multiple_reasons_reported_together(self):
        options = ["A) parris west", "B) Parris", "C) parris west", "D) copper"]
        verdict = validate_pm_response(pm_response(options), pm_job())
        assert DUPLICATE_OPTIONS in verdict.reasons
        assert ANSWER_LEAK in verdict.reasons


class TestFvValidation:
    def test_valid_response(self):
        verdict = validate_fv_response(json.dumps(GOOD_FV_PAYLOAD), fv_job())
        assert verdict.ok

    def test_bad_answer_word(self):
        payload = dict(GOOD_FV_PAYLOAD, Answer="maybe")
        verdict = validate_fv_response(json.dumps(payload), fv_job())
        assert BAD_ANSWER_WORD in verdict.reasons

    def test_question_must_mention_both_words(self):
        payload = dict(GOOD_FV_PAYLOAD,
                       question="Shakespeare wrote Hamlet. True?")
        verdict = validate_fv_response(json.dumps(payload), fv_job())
        assert BAD_ANSWER_WORD in verdict.reasons

    def test_indicator_fixes_the_expected_answer(self):
        payload = dict(GOOD_FV_PAYLOAD, Answer="no", cp_answer="yes")
        verdict = validate_fv_response(json.dumps(payload), fv_job())
        assert verdict.reasons == (ANSWER_NOT_AT_EXPECTED_LABEL,)

    def test_contrapositive_must_invert(self):
        payload = dict(GOOD_FV_PAYLOAD, cp_answer="yes")
        verdict = validate_fv_response(json.dumps(payload), fv_job())
        assert verdict.reasons == (CP_NOT_INVERTED,)

    def test_missing_cp_keys(self):
        payload = {"question": "Q?", "Answer": "yes"}
        verdict = validate_fv_response(json.dumps(payload), fv_job())
        assert verdict.reasons == (MISSING_KEY,)


class TestRewriteLoop:
    def test_success_first_try(self):
        client = ScriptedClient(pm_response(GOOD_PM_OPTIONS))
        (record,), _ = rewrite_job(pm_job(), client)
        assert client.call_count == 1
        assert record.qa_id == "llm-pm-00000"
        assert record.task == TASK_PM
        assert record.category == CAT_NON_NUMERIC
        assert record.answer == "B"
        assert record.provenance == "llm"
        assert record.scene_id == "sc01"
        assert "B) Parris" in record.question

    def test_recovers_after_invalid_attempts(self):
        client = ScriptedClient("garbage", '{"question": "Q?"}',
                                pm_response(GOOD_PM_OPTIONS))
        (record,), verdicts = rewrite_job(pm_job(), client)
        assert client.call_count == 3
        assert [v.reasons for v in verdicts] == [(NOT_JSON,), (MISSING_KEY,), ()]
        assert record.answer == "B"

    def test_exhaustion_after_exactly_max_attempts(self):
        bad = [
            "not json at all",
            '{"question": "Q?"}',
            pm_response(["A) granite", "B) Parris", "C) velvet"]),
            pm_response(["A) Parris", "B) Parris", "C) velvet", "D) Parris"]),
            pm_response(["A) granite", "B) Parris", "C) parris east", "D) x"]),
        ]
        client = ScriptedClient(*bad, pm_response(GOOD_PM_OPTIONS))
        with pytest.raises(ExhaustedAttemptsError) as exc_info:
            rewrite_job(pm_job(), client)
        assert client.call_count == 5
        verdicts = exc_info.value.verdicts
        assert len(verdicts) == 5
        assert verdicts[0].reasons == (NOT_JSON,)
        assert verdicts[1].reasons == (MISSING_KEY,)
        assert WRONG_OPTION_COUNT in verdicts[2].reasons
        assert DUPLICATE_OPTIONS in verdicts[3].reasons
        assert ANSWER_LEAK in verdicts[4].reasons

    def test_fv_pair_links_and_lowercasing(self):
        payload = dict(GOOD_FV_PAYLOAD, Answer="Yes", cp_answer="No")
        client = ScriptedClient(json.dumps(payload))
        (original, contrapositive), _ = rewrite_job(fv_job(), client)
        assert original.qa_id == "llm-fv-00000"
        assert contrapositive.qa_id == "llm-fv-00000-cp"
        assert original.cp_link == contrapositive.qa_id
        assert contrapositive.cp_link == original.qa_id
        assert (original.answer, contrapositive.answer) == ("yes", "no")
        assert original.task == contrapositive.task == TASK_FV
        assert contrapositive.is_contrapositive
        assert not original.is_contrapositive


class TestEchoStub:
    def test_pm_round_trip(self):
        (record,), _ = rewrite_job(pm_job(), EchoStubClient())
        assert record.answer == "B"
        _, options = parse_options(record.question)
        assert dict(options)["B"] == "Parris"
        assert len(options) == 4

    def test_fv_round_trip(self):
        job = fv_job(expected_label="no")
        (original, contrapositive), _ = rewrite_job(job, EchoStubClient())
        assert original.answer == "no"
        assert contrapositive.answer == "yes"
        assert "is not Shakespeare" in original.question
        assert "is Shakespeare" in contrapositive.question

    def test_letter_balance_over_500_jobs(self):
        saqs = [SaqItem(f"Question number {i}?", f"answer{i}") for i in range(7)]
        jobs = make_jobs(saqs, 500, 0, build_schedules(MASTER_SEED))
        track = run_rewrite_track(jobs, EchoStubClient())
        counts = {ch: 0 for ch in "ABCDE"}
        for record in track.records:
            counts[record.answer] += 1
        assert counts == {ch: 100 for ch in "ABCDE"}

    def test_fv_answer_balance_and_links(self):
        saqs = [SaqItem(f"Question number {i}?", f"answer{i}") for i in range(3)]
        jobs = make_jobs(saqs, 0, 100, build_schedules(MASTER_SEED))
        track = run_rewrite_track(jobs, EchoStubClient())
        records = track.records
        assert len(records) == 200
        answers = [r.answer for r in records]
        assert answers.count("yes") == 100 and answers.count("no") == 100
        by_id = {r.qa_id: r for r in records}
        for record in records:
            assert by_id[record.cp_link].cp_link == record.qa_id

    def test_track_is_deterministic(self):
        saqs = [SaqItem(f"Question number {i}?", f"answer{i}") for i in range(4)]
        a, b = (run_rewrite_track(make_jobs(saqs, 20, 10, build_schedules(MASTER_SEED)),
                                  EchoStubClient()) for _ in range(2))
        assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]
        assert a.log_rows == b.log_rows

    def test_log_rows_one_per_job(self):
        saqs = [SaqItem("Q?", "ans")]
        track = run_rewrite_track(make_jobs(saqs, 3, 2, build_schedules(MASTER_SEED)),
                                  EchoStubClient())
        assert len(track.log_rows) == 5
        assert [row["kind"] for row in track.log_rows] == ["pm"] * 3 + ["fv"] * 2
        assert all(row["ok"] and row["attempts"] == 1 and row["reasons"] == []
                   for row in track.log_rows)

    def test_failed_jobs_do_not_abort_the_track(self):
        jobs = make_jobs([SaqItem("Q?", "ans")], 1, 1, build_schedules(MASTER_SEED))
        good_fv = EchoStubClient().complete("s", render_prompt(jobs[1]))
        client = ScriptedClient(*["garbage"] * MAX_ATTEMPTS, good_fv)
        # one PM job fails every attempt; the FV job still runs, then the
        # track raises the PM shortfall
        with pytest.raises(InsufficientCandidatesError) as excinfo:
            run_rewrite_track(jobs, client)
        assert str(excinfo.value) == \
            "1 rewrite jobs exhausted their attempts (first: llm-pm-00000)"
        assert excinfo.value.shortfalls == {f"{TASK_PM}/{CAT_NON_NUMERIC}": (1, 0)}
        assert client.call_count == MAX_ATTEMPTS + 1


class TestMakeJobs:
    def test_job_list_is_pinned(self):
        saqs = [SaqItem(f"Q{i}?", f"a{i}", f"s{i}") for i in range(3)]
        schedules = build_schedules(MASTER_SEED)
        jobs = make_jobs(saqs, 7, 5, schedules)
        assert [(j.job_id, j.saq, j.kind, j.expected_label, j.n_options)
                for j in jobs] == [
            ("llm-pm-00000", saqs[0], TASK_PM, "B", 5),
            ("llm-pm-00001", saqs[1], TASK_PM, "A", 5),
            ("llm-pm-00002", saqs[2], TASK_PM, "E", 5),
            ("llm-pm-00003", saqs[0], TASK_PM, "C", 5),
            ("llm-pm-00004", saqs[1], TASK_PM, "D", 5),
            ("llm-pm-00005", saqs[2], TASK_PM, "B", 5),
            ("llm-pm-00006", saqs[0], TASK_PM, "A", 5),
            ("llm-fv-00000", saqs[0], TASK_FV, "no", 5),
            ("llm-fv-00001", saqs[1], TASK_FV, "yes", 5),
            ("llm-fv-00002", saqs[2], TASK_FV, "no", 5),
            ("llm-fv-00003", saqs[0], TASK_FV, "yes", 5),
            ("llm-fv-00004", saqs[1], TASK_FV, "no", 5),
        ]

    def test_pm_ids_and_saq_cycling(self):
        saqs = [SaqItem("Q0?", "a0"), SaqItem("Q1?", "a1")]
        schedules = build_schedules(MASTER_SEED)
        jobs = make_jobs(saqs, 5, 0, schedules, n_options=4)
        assert [j.job_id for j in jobs] == [f"llm-pm-{k:05d}" for k in range(5)]
        assert [j.saq.question for j in jobs] == ["Q0?", "Q1?"] * 2 + ["Q0?"]
        assert all(j.n_options == 4 for j in jobs)
        letters = {j.expected_label for j in jobs}
        assert letters <= {"A", "B", "C", "D"}

    def test_fv_indicator_alternates(self):
        saqs = [SaqItem("Q?", "a")]
        schedules = build_schedules(MASTER_SEED)
        jobs = make_jobs(saqs, 0, 6, schedules)
        labels = [j.expected_label for j in jobs]
        assert labels.count("yes") == 3 and labels.count("no") == 3

    def test_empty_saqs_with_positive_count(self):
        schedules = build_schedules(MASTER_SEED)
        with pytest.raises(InsufficientCandidatesError) as pm_exc:
            make_jobs([], 3, 3, schedules)
        assert pm_exc.value.shortfalls == {f"pm/{CAT_NON_NUMERIC}": (3, 0)}
        with pytest.raises(InsufficientCandidatesError) as fv_exc:
            make_jobs([], 0, 3, schedules)
        assert fv_exc.value.shortfalls == {f"fv/{CAT_NON_NUMERIC}": (6, 0)}

    def test_zero_count_needs_no_saqs(self):
        schedules = build_schedules(MASTER_SEED)
        assert make_jobs([], 0, 0, schedules) == []


def chat_body(content: str) -> dict:
    return {"choices": [{"message": {"content": content}}]}


def chat_reply(content: str) -> tuple[int, str]:
    return 200, json.dumps(chat_body(content))


class TestHttpClient:
    @pytest.fixture(autouse=True)
    def no_retry_wait(self, monkeypatch):
        monkeypatch.setattr(rewrite, "_RETRY_WAIT_S", 0.0)

    def make_client(self, transport, retries=2):
        return HttpServiceClient("http://svc.local/v1/chat", "rewriter-1",
                                 retries=retries, temperature=0.2,
                                 transport=transport)

    def test_success_and_payload_shape(self):
        calls = []

        def transport(url, body, timeout, headers):
            calls.append((url, body, timeout, headers))
            return chat_reply("hello")

        client = self.make_client(transport)
        out = client.complete("sys prompt", "user prompt")
        assert out == "hello"
        url, payload, _, _ = calls[0]
        assert url == "http://svc.local/v1/chat"
        assert payload["model"] == "rewriter-1"
        assert payload["temperature"] == 0.2
        assert [m["role"] for m in payload["messages"]] == ["system", "user"]
        assert payload["messages"][0]["content"] == "sys prompt"

    def test_retries_after_connection_errors(self):
        attempts = []

        def transport(*args):
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionError("boom")
            return chat_reply("ok")

        client = self.make_client(transport, retries=2)
        assert client.complete("s", "u") == "ok"
        assert len(attempts) == 3

    def test_server_errors_exhaust_retries(self):
        def transport(*args):
            return 503, ""

        client = self.make_client(transport, retries=1)
        with pytest.raises(ServiceUnavailableError, match="after 2 attempts"):
            client.complete("s", "u")

    def test_client_errors_are_reported(self):
        def transport(*args):
            return 401, "bad key"

        client = self.make_client(transport, retries=0)
        with pytest.raises(ServiceUnavailableError, match="401"):
            client.complete("s", "u")

    def test_malformed_body_is_retried_then_fatal(self):
        def transport(*args):
            return 200, json.dumps({"unexpected": True})

        client = self.make_client(transport, retries=1)
        with pytest.raises(ServiceUnavailableError):
            client.complete("s", "u")

    def test_client_errors_are_not_retried(self):
        calls = []

        def transport(*args):
            calls.append(1)
            return 401, "bad key"

        client = self.make_client(transport, retries=2)
        with pytest.raises(ServiceUnavailableError, match="401"):
            client.complete("s", "u")
        assert len(calls) == 1

    def test_rate_limit_is_retried(self):
        calls = []

        def transport(*args):
            calls.append(1)
            if len(calls) == 1:
                return 429, ""
            return chat_reply("ok")

        client = self.make_client(transport, retries=2)
        assert client.complete("s", "u") == "ok"
        assert len(calls) == 2

    def test_default_transport_over_loopback(self, monkeypatch):
        for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
            monkeypatch.delenv(var, raising=False)
        statuses = [503, 200]
        seen = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                seen.append((self.headers["Authorization"],
                             json.loads(self.rfile.read(length))))
                status = statuses.pop(0)
                body = json.dumps(chat_body("pong") if status == 200 else {})
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body.encode())

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = HttpServiceClient(
                f"http://127.0.0.1:{server.server_port}/v1/chat", "rewriter-1",
                timeout=5.0, retries=1,
                headers={"Authorization": "Bearer k"},
            )
            assert client.complete("sys", "ping") == "pong"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert len(seen) == 2
        assert seen[0][0] == "Bearer k"
        assert seen[1][1]["messages"][1] == {"role": "user", "content": "ping"}

    def test_pipeline_import_leaves_urllib_request_unloaded(self):
        code = ("import sys, sceneqa.pipeline; "
                "sys.exit('urllib.request' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestLoadSaqs:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "saqs.jsonl"
        write_jsonl([
            {"question": "Q0?", "answer": "a0", "scene_id": "s0"},
            {"question": "Q1?", "answer": "a1"},
        ], path)
        saqs = load_saqs(path)
        assert saqs == [SaqItem("Q0?", "a0", "s0"), SaqItem("Q1?", "a1", "")]

    def test_missing_answer_rejected(self, tmp_path):
        path = tmp_path / "saqs.jsonl"
        write_jsonl([{"question": "Q0?"}], path)
        with pytest.raises(SchemaViolationError, match="line 1"):
            load_saqs(path)

    @pytest.mark.parametrize("scene_id", [None, 7, ["s0"]])
    def test_scene_id_must_be_a_string(self, tmp_path, scene_id):
        path = tmp_path / "saqs.jsonl"
        write_jsonl([{"question": "Q0?", "answer": "a0"},
                     {"question": "Q1?", "answer": "a1", "scene_id": scene_id}], path)
        with pytest.raises(SchemaViolationError,
                           match=r"saqs\.jsonl: line 2: .* string 'scene_id'"):
            load_saqs(path)
