"""Pipeline configuration and the command-line interface, end to end."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sceneqa import cli, pipeline, rewrite, rulegen
from sceneqa.cli import main
from sceneqa.errors import ConfigError, InsufficientCandidatesError, SceneQaError
from sceneqa.geometry import hull_distance
from sceneqa.pipeline import (
    PipelineConfig,
    config_from_dict,
    load_config,
    run_extract,
    run_generate,
    run_score,
    run_selfcheck,
    run_synth,
)
from sceneqa.rewrite import EchoStubClient
from sceneqa.rulegen import read_dataset
from sceneqa.scene import load_scene
from sceneqa.util import read_json, write_json, write_jsonl

SEED = 424243


@pytest.fixture
def pool_spy(monkeypatch):
    """Returns the worker count of each pool started."""
    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return started


@pytest.fixture
def pool_starts(monkeypatch, pool_spy):
    """Charge nothing for worker start-up and estimate nothing from scene
    size, so with ``jobs > 1`` the parent runs the first scene and hands two
    or more left to a pool; returns the worker count of each pool."""
    monkeypatch.setattr(pipeline, "_WORKER_START_S", 0.0)
    monkeypatch.setattr(pipeline, "_SYNTH_S_PER_POINT", 0.0)
    monkeypatch.setattr(pipeline, "_EXTRACT_S_PER_BYTE", 0.0)
    return pool_spy


class TestConfig:
    def test_defaults_construct(self):
        cfg = PipelineConfig()
        assert cfg.seed == 0
        assert cfg.excluded_labels == ("item", "object")
        assert cfg.scene_glob.endswith("*.scene.json")
        assert str(cfg.ngt_path) == "out/ngt"
        assert str(cfg.synth_path) == "out/scenes"

    def test_explicit_paths_win(self):
        cfg = PipelineConfig(out_dir="x", scenes="/data/*.json",
                             ngt_dir="/tables", synth_dir="/synth")
        assert cfg.scene_glob == "/data/*.json"
        assert str(cfg.ngt_path) == "/tables"
        assert str(cfg.synth_path) == "/synth"
        assert str(cfg.dataset_path) == "x/dataset.jsonl"
        # extract reads by default what synth wrote
        assert PipelineConfig(synth_dir="/synth").scene_glob == "/synth/*.scene.json"

    def test_unknown_keys_are_named(self):
        with pytest.raises(ConfigError, match="temperatur"):
            config_from_dict({"temperatur": 0.2})

    @pytest.mark.parametrize("data,complaint", [
        ({"seed": -1}, "seed"),
        ({"seed": True}, "seed"),
        ({"jobs": 0}, "jobs"),
        ({"n_options": 9}, "n_options"),
        ({"solver_tol": 0.0}, "solver_tol"),
        ({"rewrite_pm": -1}, "rewrite_pm"),
        ({"excluded_labels": "object"}, "excluded_labels"),
        ({"excluded_labels": {"object"}}, "excluded_labels"),
    ])
    def test_validation(self, data, complaint):
        with pytest.raises(ConfigError, match=complaint):
            config_from_dict(data)

    def test_excluded_labels_normalized(self):
        cfg = config_from_dict({"excluded_labels": ["  Object ", "ITEM"]})
        assert cfg.excluded_labels == ("object", "item")

    def test_bad_rulegen_values_surface_as_config_errors(self):
        with pytest.raises(ConfigError, match="even"):
            PipelineConfig(fv_quantity=3)   # odd: cannot pair with cp

    def test_load_config(self, tmp_path):
        path = tmp_path / "config.json"
        write_json({"seed": 7, "fv_quantity": 4}, path)
        cfg = load_config(path)
        assert cfg.seed == 7 and cfg.fv_quantity == 4
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_overrides(self, tmp_path):
        data = {"seed": 1, "out_dir": "a"}
        cfg = PipelineConfig(**data)
        assert config_from_dict(data, seed=None, out_dir=None) == cfg
        changed = config_from_dict(data, seed=5, jobs=2)
        assert (changed.seed, changed.jobs, changed.out_dir) == (5, 2, "a")
        path = tmp_path / "config.json"
        write_json(data, path)
        assert load_config(path, jobs=2) == dataclasses.replace(cfg, jobs=2)
        assert load_config(seed=5) == PipelineConfig(seed=5)
        assert load_config(seed=None) == load_config() == PipelineConfig()
        with pytest.raises(ConfigError, match="nonsense"):
            config_from_dict(data, nonsense=1)
        with pytest.raises(ConfigError, match="jobs must be"):
            load_config(path, jobs=0)

    def test_echo_omits_execution_keys(self):
        cfg = PipelineConfig(seed=3, out_dir="/somewhere", jobs=4,
                             scenes="/data/*.json", saq_file="/s.jsonl")
        echoed = cfg.echo()
        for key in ("out_dir", "jobs", "scenes", "ngt_dir", "synth_dir",
                    "saq_file"):
            assert key not in echoed
        assert echoed["seed"] == 3
        assert echoed["excluded_labels"] == ["item", "object"]
        assert list(echoed) == sorted(echoed)


@pytest.fixture(scope="session")
def cli_run(tmp_path_factory):
    """One full pipeline run driven through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    saq_file = root / "saqs.jsonl"
    write_jsonl([
        {"question": "What material is the floor?", "answer": "oak"},
        {"question": "What color is the sofa?", "answer": "teal"},
        {"question": "What shape is the rug?", "answer": "oval"},
        {"question": "What is mounted over the desk?", "answer": "a shelf"},
    ], saq_file)
    config = root / "config.json"
    write_json({
        "seed": SEED,
        "synth_scenes": 3,
        "fv_quantity": 20, "fv_distance": 20, "fv_volume": 20,
        "ni_quantity": 10, "ni_distance": 10, "ni_volume": 10,
        "cot_fraction": 0.5,
        "rewrite_pm": 10, "rewrite_fv": 5,
        "stub_llm": True,
        "saq_file": str(saq_file),
    }, config)
    common = ["--config", str(config), "--out", str(out)]
    assert main(["synth", *common]) == 0
    assert main(["extract", *common]) == 0
    assert main(["generate", *common]) == 0
    return {
        "root": root,
        "out": out,
        "config": config,
        "common": common,
        "dataset": out / "dataset.jsonl",
        "manifest": out / "manifest.json",
        "balance": out / "balance_report.json",
        "run_log": out / "run_log.jsonl",
        "ngt_dir": out / "ngt",
        "scenes_dir": out / "scenes",
    }


class TestCliEndToEnd:
    def test_synth_artifacts(self, cli_run):
        scenes = sorted(cli_run["scenes_dir"].glob("*.scene.json"))
        truths = sorted(cli_run["scenes_dir"].glob("*.truth.json"))
        assert len(scenes) == len(truths) == 3

    def test_extract_reads_the_scenes_synth_wrote_to_synth_dir(self, tmp_path, monkeypatch):
        """With only ``synth_dir`` set, extract and generate find what the
        stage before them wrote (out_dir is the default, under the cwd)."""
        monkeypatch.chdir(tmp_path)
        write_json({"synth_dir": "elsewhere", "synth_scenes": 1}, "config.json")
        for command in ("synth", "extract", "generate"):
            assert main([command, "--config", "config.json"]) == 0
        assert [p.name for p in (tmp_path / "out" / "ngt").iterdir()] == ["synth0000.ngt.json"]
        assert (tmp_path / "out" / "dataset.jsonl").is_file()

    def test_an_empty_dataset_says_why(self, cli_run, tmp_path, capsys):
        """No key asks for a question: the run succeeds and says so."""
        assert main(["generate", "--out", str(tmp_path),
                     "--ngt-dir", str(cli_run["ngt_dir"])]) == 0
        assert capsys.readouterr().out == (
            f"wrote 0 records to {tmp_path / 'dataset.jsonl'} (no questions requested: "
            "every fv_*, ni_*, rewrite_pm and rewrite_fv key is 0)\n")
        assert (tmp_path / "dataset.jsonl").read_bytes() == b""

    def test_extract_artifacts(self, cli_run):
        tables = sorted(cli_run["ngt_dir"].glob("*.ngt.json"))
        assert len(tables) == 3

    def test_truth_and_ngt_rows_share_one_layout(self, cli_run):
        truth = read_json(cli_run["scenes_dir"] / "synth0000.truth.json")
        table = read_json(cli_run["ngt_dir"] / "synth0000.ngt.json")
        truth_keys = {tuple(row) for row in truth["instances"]}
        ngt_keys = {tuple(row) for row in table["instances"]}
        assert truth_keys == ngt_keys == {(
            "instance_id", "label", "centroid", "aabb_min", "aabb_max", "dims",
            "volume")}

    def test_generate_artifacts_and_counts(self, cli_run):
        for key in ("dataset", "manifest", "balance", "run_log"):
            assert cli_run[key].is_file(), key
        records = read_dataset(cli_run["dataset"])
        # per category: 20 fv plain + 10 fv cot, 10 ni plain + 5 ni cot;
        # plus 10 PM rewrites and 5 FV rewrite pairs
        assert len(records) == 3 * (20 + 10 + 10 + 5) + 10 + 10
        tasks = {}
        for rec in records:
            tasks[rec.task] = tasks.get(rec.task, 0) + 1
        assert tasks == {"fv": 100, "ni": 45, "pm": 10}

    def test_manifest_contents(self, cli_run):
        manifest = read_json(cli_run["manifest"])
        assert manifest["format_version"] == "1.0.0"
        assert manifest["seed"] == SEED
        assert manifest["scenes"] == ["synth0000", "synth0001", "synth0002"]
        assert manifest["n_records"] == 155
        assert manifest["task_counts"] == {"fv": 100, "ni": 45, "pm": 10}
        assert manifest["artifacts"] == [
            "dataset.jsonl", "balance_report.json", "run_log.jsonl",
        ]
        for key in ("out_dir", "jobs", "saq_file"):
            assert key not in manifest["config"]

    def test_run_log_rows(self, cli_run):
        rows = [json.loads(line) for line in
                cli_run["run_log"].read_text().splitlines()]
        assert len(rows) == 15   # 10 PM + 5 FV rewrite jobs
        assert all(row["ok"] and row["attempts"] == 1 for row in rows)

    def test_balance_report_strata(self, cli_run):
        balance = read_json(cli_run["balance"])
        fv_plain = balance["fv/quantity/plain"]
        assert fv_plain["total"] == 20
        assert fv_plain["answers"] == {"no": 10, "yes": 10}
        assert fv_plain["original_answers"]["yes"] == 5
        pm = balance["pm/non-numeric/plain"]
        assert pm["total"] == 10
        assert all(count == 2 for count in pm["answers"].values())

    def test_selfcheck_passes(self, cli_run, capsys):
        assert main(["selfcheck", *cli_run["common"]]) == 0
        out = capsys.readouterr().out
        assert "selfcheck: PASSED" in out
        assert "gt_agreement: ok" in out

    def test_selfcheck_uses_the_configured_approx_band(self, tmp_path, capsys):
        # approx_band_in 0.25: two volume pairs at seed 1 are "approximately
        # equal" under it but not under the 0.10 default
        config = tmp_path / "config.json"
        write_json({"seed": 1, "synth_scenes": 2, "fv_quantity": 40,
                    "fv_distance": 40, "fv_volume": 40,
                    "approx_band_in": 0.25, "approx_band_out": 0.4}, config)
        common = ["--config", str(config), "--out", str(tmp_path / "out")]
        for stage in ("synth", "extract", "generate"):
            assert main([stage, *common]) == 0
        capsys.readouterr()
        assert main(["selfcheck", *common]) == 0
        assert "gt_agreement: ok" in capsys.readouterr().out

    def test_balance_follows_the_configured_option_count(self, cli_run, tmp_path, capsys):
        # 40 PM rewrites over 4 options use each letter 10 times; a check
        # that assumed 5 options expected 8 +/- 1 and refused the dataset
        config = tmp_path / "config.json"
        write_json({"seed": SEED, "fv_quantity": 4, "n_options": 4,
                    "rewrite_pm": 40, "stub_llm": True,
                    "saq_file": str(cli_run["root"] / "saqs.jsonl")}, config)
        common = ["--config", str(config), "--out", str(tmp_path / "out"),
                  "--ngt-dir", str(cli_run["ngt_dir"])]
        assert main(["generate", *common]) == 0
        pm = read_json(tmp_path / "out" / "balance_report.json")["pm/non-numeric/plain"]
        assert pm["answers"] == {"A": 10, "B": 10, "C": 10, "D": 10}
        capsys.readouterr()
        assert main(["selfcheck", *common]) == 0
        assert "balance: ok" in capsys.readouterr().out

    def test_score_with_gold_predictions(self, cli_run, capsys):
        records = read_dataset(cli_run["dataset"])
        predictions = cli_run["root"] / "predictions.jsonl"
        write_jsonl([
            {"qa_id": r.qa_id, "output": f"The answer is {r.gold}."}
            for r in records
        ], predictions)
        report_path = cli_run["root"] / "report.json"
        code = main(["score", *cli_run["common"],
                     "--predictions", str(predictions),
                     "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[variant: plain]" in out and "[variant: cot]" in out
        assert "0.00%" not in out.replace("100.00%", "")
        payload = read_json(report_path)
        assert payload["scores"]["strata"]["fv/quantity/plain"]["accuracy"] == 1.0
        consistency = payload["consistency"]["strata"]["quantity/plain"]
        assert consistency["consistency"] == 1.0
        assert consistency["delta"] == 0.0


class TestOnePassStages:
    """score and selfcheck read the dataset once, a line at a time, so the
    order of its rows changes nothing they report."""

    @pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "dangling-cp-link"])
    def test_shuffled_dataset_scores_and_audits_the_same(self, cli_run, tmp_path, corrupt):
        rows = [json.loads(line) for line in cli_run["dataset"].read_text().splitlines()]
        if corrupt:
            victim = next(r for r in rows if r["task"] == "fv" and "-cp" not in r["qa_id"])
            victim["cp_link"] = "s9-fv-quantity-99999-cp"
        shuffled = list(rows)
        random.Random(SEED).shuffle(shuffled)
        predictions = tmp_path / "predictions.jsonl"
        # right, wrong and missing answers
        write_jsonl([{"qa_id": r["qa_id"], "output": r["answer"] if i % 3 else "yes"}
                     for i, r in enumerate(rows) if i % 7], predictions)
        outcomes = []
        for name, dataset_rows in (("ordered", rows), ("shuffled", shuffled)):
            dataset, report = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.report.json"
            write_jsonl(dataset_rows, dataset)
            run_score(dataset, predictions, out_path=report)
            audit = run_selfcheck(dataset, ngt_dir=cli_run["ngt_dir"])
            outcomes.append((report.read_bytes(), {check: sorted(failures) for check, failures
                                                   in audit.checks.items()}))
        assert outcomes[1] == outcomes[0]
        report, checks = json.loads(outcomes[0][0]), outcomes[0][1]
        if corrupt:
            assert report["consistency"]["orphans"] == [victim["qa_id"]]
            assert checks["cp_involution"] == sorted([
                f"{victim['qa_id']}: cp_link 's9-fv-quantity-99999-cp' not in dataset",
                f"{victim['qa_id']}-cp: link not mutual "
                f"({victim['qa_id']} -> 's9-fv-quantity-99999-cp')",
            ])
        else:
            assert report["consistency"]["orphans"] == []
            assert not any(checks.values()), checks

    def test_score_names_the_line_of_a_record_of_an_unknown_task(self, cli_run, tmp_path,
                                                                   capsys):
        rows = [json.loads(text) for text in
                cli_run["dataset"].read_text().splitlines()[:3]]
        rows[1]["task"] = "truthiness"
        dataset, predictions = tmp_path / "dataset.jsonl", tmp_path / "predictions.jsonl"
        write_jsonl(rows, dataset)
        write_jsonl([], predictions)
        assert main(["score", "--dataset", str(dataset), "--predictions", str(predictions)]) == 3
        assert (f"{dataset}: line 2: {rows[1]['qa_id']}: unknown task 'truthiness'"
                in capsys.readouterr().err)


class TestDeterminism:
    def run_pipeline(self, cli_run, tmp_path_factory, jobs: str | None):
        out = tmp_path_factory.mktemp("rerun")
        args = ["--config", str(cli_run["config"]), "--out", str(out)]
        if jobs is not None:
            args += ["--jobs", jobs]
        assert main(["synth", *args]) == 0
        assert main(["extract", *args]) == 0
        assert main(["generate", *args]) == 0
        return out

    def test_rerun_and_jobs_are_byte_identical(self, cli_run, tmp_path_factory):
        rerun = self.run_pipeline(cli_run, tmp_path_factory, jobs=None)
        parallel = self.run_pipeline(cli_run, tmp_path_factory, jobs="2")
        for name in ("dataset.jsonl", "manifest.json", "balance_report.json",
                     "run_log.jsonl"):
            original = (cli_run["out"] / name).read_bytes()
            assert (rerun / name).read_bytes() == original, name
            assert (parallel / name).read_bytes() == original, name
        for table in sorted(cli_run["ngt_dir"].glob("*.ngt.json")):
            assert (parallel / "ngt" / table.name).read_bytes() == table.read_bytes()

    def test_scene_stages_are_byte_identical_for_any_jobs(self, tmp_path, pool_starts):
        # 3 scenes: the parent runs the first and hands the other two to a
        # pool of 2, whether 2 or 4 workers are allowed.
        outputs = {}
        pools = {}
        for jobs in (1, 2, 4):
            pool_starts.clear()
            cfg = PipelineConfig(seed=SEED, out_dir=str(tmp_path / f"jobs{jobs}"),
                                 jobs=jobs, synth_scenes=3, synth_boxes=14,
                                 synth_points_per_box=30)
            scenes = run_synth(cfg)
            tables = run_extract(cfg)
            assert [p.name for p in scenes] == [
                f"synth{i:04d}.scene.json" for i in range(3)]
            assert [p.name for p in tables] == [
                f"synth{i:04d}.ngt.json" for i in range(3)]
            out = Path(cfg.out_dir)
            outputs[jobs] = {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*.json"))
            }
            pools[jobs] = list(pool_starts)
        assert pools == {1: [], 2: [2, 2], 4: [2, 2]}   # one pool per stage
        assert len(outputs[1]) == 9   # scene, truth and table per scene
        assert outputs[2] == outputs[1]
        assert outputs[4] == outputs[1]

    @pytest.mark.parametrize("jobs", [2, 8])
    def test_two_small_scenes_start_no_pool(self, tmp_path, monkeypatch, jobs):
        # Their size says they take milliseconds, and after the first scene
        # one is left, so there is nothing to split.
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool was started for two small scenes")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        cfg = PipelineConfig(seed=SEED, out_dir=str(tmp_path), jobs=jobs,
                             synth_scenes=2, synth_boxes=14, synth_points_per_box=30)
        assert len(run_synth(cfg)) == 2
        assert len(run_extract(cfg)) == 2

    def test_scene_size_can_start_a_pool_before_any_scene_runs(
            self, tmp_path, monkeypatch, pool_spy):
        # Priced at a second per point and per byte, two scenes are worth a
        # pool of two from the start, which measured time never chooses.
        monkeypatch.setattr(pipeline, "_SYNTH_S_PER_POINT", 1.0)
        monkeypatch.setattr(pipeline, "_EXTRACT_S_PER_BYTE", 1.0)
        outputs = {}
        for jobs in (1, 2):
            cfg = PipelineConfig(seed=SEED, out_dir=str(tmp_path / f"jobs{jobs}"),
                                 jobs=jobs, synth_scenes=2, synth_boxes=14,
                                 synth_points_per_box=30)
            run_synth(cfg)
            run_extract(cfg)
            out = Path(cfg.out_dir)
            outputs[jobs] = {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*.json"))
            }
        assert pool_spy == [2, 2]   # none at jobs=1, one per stage at jobs=2
        assert outputs[2] == outputs[1]

    # sha256 of each generate artifact for the run below.  A change here
    # means the records, their order or the RNG draw order moved: the
    # other determinism tests only compare a run with itself.
    PINNED = {
        "dataset.jsonl":
            "36017929cc1e245132f905ff6338a3261e92e0f7d65e72c7dd1e6ff7c80abbdd",
        "manifest.json":
            "291608a87e27e13c4044ee77069c060992cbb14bd921adb343a8f152a435ce8f",
        "balance_report.json":
            "4d62a1fe9dd27f231f6953aaf7866bade55508eca1b5300f8ce11022322b0479",
        "run_log.jsonl":
            "a8328fb500e27c4d68b2ff50882c0ab4d715cdc5523297dd509d7836cc7d0c51",
        # Scene files store points as base64 float64 (``points_b64``) rather
        # than [x, y, z] text, so these two digests were re-pinned for that
        # layout; the coordinates are the same bits, and every digest below
        # them stayed as it was.
        "scenes/synth0000.scene.json":
            "f9d4eafa1826f9877a9510f240ca63063c956f932420f56cfe25683a832fa413",
        "scenes/synth0001.scene.json":
            "d0e36a004ac506d645da43bb0d79b11ff000adaf2874b3e2849067f2c3bf31fc",
        "scenes/synth0000.truth.json":
            "f1178fc09d43aad7d05b5deb3fbfc523277f0c2e564fc459d60b86a51eb8af56",
        "scenes/synth0001.truth.json":
            "98330ac1ab415bfe5c952b17703df41eea91429a314a774c4a10958ca4055ac7",
        "ngt/synth0000.ngt.json":
            "68881886359bdf6a86765d8330490a688f26d93ad3da35557b5c7e04d68533a5",
        "ngt/synth0001.ngt.json":
            "32ba011c9296e42ee0d183267c33434617a2130158546bbd28f3fdb924b3e85c",
    }

    def test_generate_artifacts_match_pinned_digests(self, tmp_path):
        saq_file = tmp_path / "saqs.jsonl"
        write_jsonl([
            {"question": "What material is the floor?", "answer": "oak",
             "scene_id": "synth0000"},
            {"question": "What color is the sofa?", "answer": "teal",
             "scene_id": "synth0000"},
            {"question": "What shape is the rug?", "answer": "oval",
             "scene_id": "synth0001"},
            {"question": "What is mounted over the desk?", "answer": "a shelf",
             "scene_id": "synth0001"},
            {"question": "Which lamp is switched on?",
             "answer": "the reading lamp", "scene_id": "synth0001"},
        ], saq_file)
        cfg = PipelineConfig(
            seed=SEED, out_dir=str(tmp_path / "out"), synth_scenes=2,
            fv_quantity=40, fv_distance=40, fv_volume=40,
            ni_quantity=16, ni_distance=16, ni_volume=16, cot_fraction=0.5,
            rewrite_pm=20, rewrite_fv=10, stub_llm=True, saq_file=str(saq_file),
        )
        run_synth(cfg)
        run_extract(cfg)
        run_generate(cfg)
        digests = {
            name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in self.PINNED
        }
        assert digests == self.PINNED

    def test_solver_work_on_pinned_scenes(self, tmp_path):
        """Pair count, summed GJK iterations and summed distances (in pair
        order) over every instance pair of the two scenes pinned above.
        The values were computed before the solver's set-up was reworked; a
        change means the solver now takes other steps or returns other bits.
        """
        cfg = PipelineConfig(seed=SEED, out_dir=str(tmp_path), synth_scenes=2)
        pairs = iterations = 0
        distance = 0.0
        for path in run_synth(cfg):
            instances = sorted(load_scene(path).instances, key=lambda i: i.instance_id)
            for a, b in itertools.combinations(instances, 2):
                result = hull_distance(a.points, b.points)
                pairs += 1
                iterations += result.iterations
                distance += result.distance
        assert (pairs, iterations, distance) == (1640, 3690, 10546.21536436673)


def _no_service_call(self, system, user):
    raise AssertionError("the rewrite service was called")


def _rule_shortfall(monkeypatch, config):
    # the rewrite track runs only after the rule stream, so it is never asked
    monkeypatch.setattr(EchoStubClient, "complete", _no_service_call)
    config.update(ni_distance=4, min_display_value=1000.0)


def _rewrite_exhausted(monkeypatch, config):
    monkeypatch.setattr(EchoStubClient, "complete", lambda self, system, user: "no")


def _balance_breach(monkeypatch, config):
    monkeypatch.setattr(rulegen, "balance_violations",
                        lambda report, n_options=5: ["forced breach"])


def _duplicate_id(monkeypatch, config):
    # a chain-of-thought twin that keeps its plain record's id
    monkeypatch.setattr(rulegen, "gen_cot_variant", lambda record, table, cfg: record)


class TestFailedGenerateCommitsNothing:
    """``generate`` streams its records into a temporary file, so a run that
    fails after records have been written leaves its output directory as it
    found it: no temporary file, and an earlier run's artifacts byte for
    byte."""

    ARTIFACTS = ("balance_report.json", "dataset.jsonl", "manifest.json", "run_log.jsonl")

    @pytest.mark.parametrize("fail,code,complaint", [
        (_rule_shortfall, 4, "generation shortfall (ni/distance: 0/4)"),
        (_rewrite_exhausted, 4, "3 rewrite jobs exhausted their attempts"),
        (_balance_breach, 1, "balance tolerances breached: forced breach"),
        (_duplicate_id, 3, "duplicate qa_id"),
    ], ids=["rule-shortfall", "rewrite-exhausted", "balance-breach", "duplicate-id"])
    def test_a_failed_generate_leaves_the_directory_as_it_was(
            self, cli_run, tmp_path, capsys, monkeypatch, fail, code, complaint):
        monkeypatch.chdir(tmp_path)
        write_jsonl([{"question": "What color is the sofa?", "answer": "teal"}],
                    "saqs.jsonl")
        config = {"seed": SEED, "fv_quantity": 4, "ni_quantity": 2, "cot_fraction": 0.5,
                  "rewrite_pm": 2, "rewrite_fv": 1, "saq_file": "saqs.jsonl",
                  "stub_llm": True}

        def generate(out: str, data: dict) -> int:
            write_json(data, "config.json")
            return main(["generate", "--config", "config.json", "--out", out,
                         "--ngt-dir", str(cli_run["ngt_dir"])])

        assert generate("out", config) == 0
        before = {name: (tmp_path / "out" / name).read_bytes() for name in self.ARTIFACTS}
        capsys.readouterr()
        with monkeypatch.context() as patch:
            failing = dict(config)
            fail(patch, failing)
            assert generate("fresh", failing) == code
            assert generate("out", failing) == code
        assert capsys.readouterr().err.count(complaint) == 2
        assert list(tmp_path.glob("fresh/*")) == []
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == list(self.ARTIFACTS)
        assert {name: (tmp_path / "out" / name).read_bytes()
                for name in self.ARTIFACTS} == before


def _summary_sections(out: str) -> dict[str, list[str]]:
    """The lines of a selfcheck summary, grouped under the check they report."""
    sections: dict[str, list[str]] = {}
    for line in out.splitlines():
        if not line.startswith("  - "):
            check = line.split(":", 1)[0]
        sections.setdefault(check, []).append(line)
    return sections


class TestCliErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("key,value", [
        *[(f"{task}_{cat}", value) for task in ("fv", "ni")
          for cat in ("quantity", "distance", "volume") for value in (4.0, True)],
        *[(key, value) for key in ("rewrite_pm", "rewrite_fv", "n_options", "jobs",
                                   "synth_scenes", "synth_boxes", "synth_points_per_box",
                                   "service_retries", "service_max_tokens")
          for value in (2.5, 3.0, True, False, "3")],
    ])
    def test_integer_keys_refuse_other_values(self, tmp_path, capsys, key, value):
        """Counts must be JSON integers: a float, even a whole one, and
        true/false are refused naming the key (exit 2), before any stage runs."""
        config = tmp_path / "config.json"
        write_json({"seed": SEED, key: value}, config)
        code = main(["synth", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", [
        "cot_fraction", "ambiguity_margin", "approx_band_in", "approx_band_out",
        "min_display_value", "solver_tol", "service_timeout", "service_temperature"])
    @pytest.mark.parametrize("value", ["1e400", "NaN", '"x"', "true"])
    def test_float_keys_refuse_other_values(self, tmp_path, capsys, key, value):
        """Float keys must be finite JSON numbers: an overflowing literal,
        NaN, a string and true are refused naming the key (exit 2), before
        any scene is written."""
        config = tmp_path / "config.json"
        config.write_text(f'{{"seed": {SEED}, "synth_scenes": 1, "{key}": {value}}}')
        code = main(["synth", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.scene.json"))

    @pytest.mark.parametrize("value", ["-1.0", "0.0", "0"])
    def test_service_timeout_must_be_positive(self, tmp_path, capsys, value):
        """A timeout of zero or less is refused naming the key (exit 2),
        not found out as an unreachable service after every retry."""
        config = tmp_path / "config.json"
        config.write_text(f'{{"seed": {SEED}, "synth_scenes": 1, "service_timeout": {value}}}')
        code = main(["synth", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "service_timeout must be positive" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.scene.json"))

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "config.json"
        write_json({"sede": 1}, config)
        assert main(["generate", "--config", str(config)]) == 2

    def test_rewrite_without_saq_file(self, cli_run, tmp_path, capsys):
        config = tmp_path / "config.json"
        write_json({"seed": SEED, "fv_quantity": 4, "rewrite_pm": 2}, config)
        code = main(["generate", "--config", str(config),
                     "--out", str(tmp_path),
                     "--ngt-dir", str(cli_run["ngt_dir"])])
        assert code == 2
        assert "rewriting needs saq_file" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(PipelineConfig)])
    def test_every_key_refuses_a_value_of_the_wrong_kind(self, tmp_path, capsys,
                                                         monkeypatch, key):
        """Each key's annotation is its type: a value of another kind is
        refused naming the key (exit 2) before any file is written, the
        output directory included (so no --out: ``out_dir`` is a key too)."""
        value = {"int": "3", "int | None": 2.5, "float": "x", "float | None": "x",
                 "str": 5, "bool": "false", "tuple[str, ...]": "object",
                 }[PipelineConfig.__dataclass_fields__[key].type]
        monkeypatch.chdir(tmp_path)
        write_json({"seed": SEED, "synth_scenes": 1, key: value}, tmp_path / "config.json")
        assert main(["synth", "--config", "config.json"]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("key,value", [("stub_llm", "false"), ("saq_file", 1)])
    def test_generate_refuses_a_rewrite_key_of_the_wrong_kind(self, cli_run, tmp_path,
                                                              capsys, key, value):
        write_jsonl([{"question": "What color is the sofa?", "answer": "teal"}],
                    tmp_path / "saqs.jsonl")
        config = tmp_path / "config.json"
        write_json({"seed": SEED, "fv_quantity": 4, "rewrite_pm": 2,
                    "saq_file": str(tmp_path / "saqs.jsonl"), key: value}, config)
        code = main(["generate", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--ngt-dir", str(cli_run["ngt_dir"])])
        assert code == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out" / "dataset.jsonl").exists()

    def test_no_scenes_matched(self, tmp_path):
        assert main(["extract", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("scene_id", ["../escaped", "a/b", "a\\b", "nul\x00", ".", ".."])
    def test_extract_rejects_a_scene_id_that_is_not_a_file_name(self, tmp_path, scene_id,
                                                                 capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        write_json({"scene_id": scene_id, "instances": [
            {"instance_id": "a", "label": "chair", "points": [[0.0, 0.0, 0.0]]}]},
            scenes / "evil.scene.json")
        out = tmp_path / "out"
        code = main(["extract", "--out", str(out), "--scenes", str(scenes / "*.scene.json")])
        assert code == 3
        assert "evil.scene.json" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.ngt.json"))

    def test_pooled_scene_with_a_bad_scene_id_exits_3(self, tmp_path, capsys, pool_starts):
        """The pool-side case of the test above: the second of three scenes
        runs in a worker, and its error still reaches the exit code."""
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for name, scene_id in (("a", "a"), ("b", "../escaped"), ("c", "c")):
            write_json({"scene_id": scene_id, "instances": [
                {"instance_id": "x", "label": "chair", "points": [[0.0, 0.0, 0.0]]},
                {"instance_id": "y", "label": "table", "points": [[1.0, 0.0, 0.0]]}]},
                scenes / f"{name}.scene.json")
        out = tmp_path / "out"
        code = main(["extract", "--out", str(out), "--jobs", "2",
                     "--scenes", str(scenes / "*.scene.json")])
        assert code == 3
        assert pool_starts == [2]
        assert "b.scene.json" in capsys.readouterr().err
        # The parent wrote scene a's table before the pool started; no table
        # is written for the bad scene, inside the table directory or out of it.
        tables = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.ngt.json")}
        assert tables <= {"out/ngt/a.ngt.json", "out/ngt/c.ngt.json"}

    def test_extract_scene_emptied_by_label_exclusion(self, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        write_json({"scene_id": "clutter", "instances": [
            {"instance_id": "a", "label": "object", "points": [[0.0, 0.0, 0.0]]},
            {"instance_id": "b", "label": "Item", "points": [[1.0, 0.0, 0.0]]}]},
            scenes / "clutter.scene.json")
        code = main(["extract", "--out", str(tmp_path / "out"),
                     "--scenes", str(scenes / "*.scene.json")])
        assert code == 3
        assert "'clutter'" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.ngt.json"))

    def test_synth_rejects_an_odd_fv_count_before_writing(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        write_json({"seed": SEED, "synth_scenes": 1, "fv_quantity": 3}, config)
        code = main(["synth", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "fv_quantity must be even" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.scene.json"))

    @pytest.mark.parametrize("setting", [
        {"synth_points_per_box": 4}, {"synth_boxes": 5}, {"synth_boxes": 60},
    ], ids=["4-points", "5-boxes", "60-boxes"])
    def test_an_out_of_range_synth_setting_exits_2_before_any_directory(
            self, tmp_path, capsys, setting):
        config = tmp_path / "config.json"
        write_json({"seed": SEED, "synth_scenes": 2, **setting}, config)
        code = main(["synth", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        (key,) = setting
        assert capsys.readouterr().err.startswith(f"error: {key}: synth0000: ")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_selfcheck_rejects_bands_that_do_not_nest(self, cli_run, tmp_path, capsys):
        config = tmp_path / "config.json"
        write_json({"approx_band_in": 0.5, "approx_band_out": 0.3}, config)
        code = main(["selfcheck", "--config", str(config), "--out", str(cli_run["out"])])
        assert code == 2
        assert "approx_band_in < approx_band_out" in capsys.readouterr().err

    def test_generation_shortfall(self, cli_run, tmp_path):
        config = tmp_path / "config.json"
        write_json({"seed": SEED, "fv_quantity": 4, "ni_distance": 4,
                    "min_display_value": 1000.0}, config)
        code = main(["generate", "--config", str(config),
                     "--out", str(tmp_path),
                     "--ngt-dir", str(cli_run["ngt_dir"])])
        assert code == 4
        # the FV records streamed before the shortfall was known are not kept
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("extra,code,complaint", [
        ({}, 2, "rewriting needs saq_file"),
        ({"saq_file": "saqs.jsonl"}, 2, "rewriting needs service_endpoint"),
        ({"saq_file": "missing.jsonl", "stub_llm": True}, 3, "missing.jsonl"),
        ({"saq_file": "bad.jsonl", "stub_llm": True}, 3, "SAQ rows need"),
        ({"saq_file": "empty.jsonl", "stub_llm": True}, 4,
         "no SAQ items available for PM rewriting"),
    ])
    def test_rewrite_settings_are_checked_before_any_rule(
            self, cli_run, tmp_path, capsys, monkeypatch, extra, code, complaint):
        def never(*args, **kwargs):
            raise AssertionError("a rule record was generated")

        monkeypatch.setattr(rulegen, "gen_fv_numeric", never)
        monkeypatch.chdir(tmp_path)
        write_jsonl([{"question": "What color is the sofa?", "answer": "teal"}],
                    "saqs.jsonl")
        write_jsonl([{"question": "What color is the sofa?"}], "bad.jsonl")
        write_jsonl([], "empty.jsonl")
        write_json({"seed": SEED, "fv_quantity": 4, "rewrite_pm": 2, **extra},
                   "config.json")
        assert main(["generate", "--config", "config.json", "--out", "out",
                     "--ngt-dir", str(cli_run["ngt_dir"])]) == code
        assert complaint in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_selfcheck_fails_on_corrupted_dataset(self, cli_run, tmp_path, capsys):
        rows = [json.loads(line) for line in
                cli_run["dataset"].read_text().splitlines()]
        victim = next(r for r in rows if r["task"] == "fv"
                      and r["variant"] == "plain")
        victim["answer"] = "no" if victim["answer"] == "yes" else "yes"
        corrupted = tmp_path / "dataset.jsonl"
        write_jsonl(rows, corrupted)
        code = main(["selfcheck", "--dataset", str(corrupted),
                     "--ngt-dir", str(cli_run["ngt_dir"])])
        assert code == 5
        assert "selfcheck: FAILED" in capsys.readouterr().out

    def test_selfcheck_names_a_scene_without_a_table(self, cli_run, tmp_path, capsys):
        """A table directory that lacks a scene's table is an input error
        (exit 3) naming the scene."""
        tables = sorted(cli_run["ngt_dir"].glob("*.ngt.json"))
        partial = tmp_path / "ngt"
        partial.mkdir()
        for path in tables[1:]:
            (partial / path.name).write_bytes(path.read_bytes())
        missing = tables[0].name.removesuffix(".ngt.json")
        code = main(["selfcheck", "--dataset", str(cli_run["dataset"]),
                     "--ngt-dir", str(partial)])
        assert code == 3
        assert f"no ground-truth table for scenes: [{missing!r}]" in capsys.readouterr().err

    def test_selfcheck_reports_a_numeric_record_without_ground_truth(
            self, cli_run, tmp_path, capsys):
        """A numeric record with no gt_value and an answer that is not a
        number is reported (exit 5), not scored into a crash."""
        rows = [json.loads(line) for line in
                cli_run["dataset"].read_text().splitlines()]
        victim = next(r for r in rows if r["task"] == "ni"
                      and r["variant"] == "plain")
        victim.update(gt_value=None, answer="about 3")
        corrupted = tmp_path / "dataset.jsonl"
        write_jsonl(rows, corrupted)
        assert main(["selfcheck", "--dataset", str(corrupted)]) == 5
        sections = _summary_sections(capsys.readouterr().out)
        assert any(victim["qa_id"] in line for line in sections["schema"])
        assert any(victim["qa_id"] in line for line in sections["self_scoring"])

    def test_selfcheck_reports_a_referent_missing_from_the_scene(
            self, cli_run, tmp_path, capsys):
        """A rule record naming a label its scene's table lacks is listed
        under gt_agreement (exit 5), not a traceback."""
        rows = [json.loads(line) for line in
                cli_run["dataset"].read_text().splitlines()]
        victim = next(r for r in rows if r["task"] == "fv"
                      and r["category"] == "quantity" and r["variant"] == "plain")
        victim["referents"][0] = "unicorn"
        corrupted = tmp_path / "dataset.jsonl"
        write_jsonl(rows, corrupted)
        code = main(["selfcheck", "--dataset", str(corrupted),
                     "--ngt-dir", str(cli_run["ngt_dir"])])
        assert code == 5
        sections = _summary_sections(capsys.readouterr().out)
        assert any(victim["qa_id"] in line and "unicorn" in line
                   for line in sections["gt_agreement"])

    @pytest.mark.parametrize("command,target,line", [
        ("selfcheck", "dataset", {"gt_value": "abc"}),
        ("selfcheck", "dataset", {"gt_value": True}),
        ("selfcheck", "dataset", [1, 2]),
        ("score", "dataset", {"gt_value": "abc"}),
        ("score", "predictions", [1, 2, 3]),
        ("score", "predictions", {"qa_id": "x", "output": 7}),
        ("generate", "saqs", [1, 2]),
        ("generate", "saqs", {"answer": None}),
        ("generate", "saqs", {"scene_id": None}),
        ("selfcheck", "dataset", {"gt_value": float("nan")}),
        ("score", "dataset", {"gt_value": 10 ** 400}),
    ], ids=["gt-string", "gt-bool", "dataset-list", "score-gt-string", "prediction-list",
            "prediction-number", "saq-list", "saq-null-answer", "saq-null-scene-id", "gt-nan",
            "score-gt-401-digits"])
    def test_malformed_rows_exit_3_naming_file_and_line(self, cli_run, tmp_path,
                                                        capsys, command, target, line):
        """A bad row in the second line of a dataset, predictions or SAQ file
        is an input error (exit 3) whose message names the file and line."""
        dataset = [json.loads(text) for text in
                   cli_run["dataset"].read_text().splitlines()[:3]]
        files = {
            "dataset": dataset,
            "predictions": [{"qa_id": row["qa_id"], "output": "yes"} for row in dataset],
            "saqs": [{"question": "What color is the sofa?", "answer": "teal"}] * 3,
        }
        rows = files[target]
        rows[1] = {**rows[1], **line} if isinstance(line, dict) else line
        for name, content in files.items():
            write_jsonl(content, tmp_path / f"{name}.jsonl")
        config = tmp_path / "config.json"
        write_json({"seed": SEED, "fv_quantity": 4, "rewrite_pm": 2, "stub_llm": True,
                    "saq_file": str(tmp_path / "saqs.jsonl")}, config)
        args = {
            "selfcheck": ["--dataset", str(tmp_path / "dataset.jsonl")],
            "score": ["--dataset", str(tmp_path / "dataset.jsonl"),
                      "--predictions", str(tmp_path / "predictions.jsonl")],
            "generate": ["--out", str(tmp_path / "out"),
                         "--ngt-dir", str(cli_run["ngt_dir"])],
        }[command]
        assert main([command, "--config", str(config), *args]) == 3
        err = capsys.readouterr().err
        assert f"{target}.jsonl" in err
        assert f"{target}.jsonl: line 2:" in err

    @pytest.mark.parametrize("kind", ["directory", "byte-ff", "dangling-link"])
    @pytest.mark.parametrize("command,target,code", [
        ("score", "predictions", 3),
        ("score", "dataset", 3),
        ("selfcheck", "dataset", 3),
        ("generate", "saqs", 3),
        ("extract", "scene", 3),
        ("synth", "config", 2),
    ])
    def test_an_unreadable_input_file_exits_with_its_code_naming_it(
            self, cli_run, tmp_path, capsys, command, target, code, kind):
        """An input that is a directory, a link to nothing, or that holds a
        byte that is not UTF-8, is an input error (exit 3; 2 for the config
        file) whose message names the file, and for a JSONL file the line."""
        dataset = [json.loads(text) for text in
                   cli_run["dataset"].read_text().splitlines()[:3]]
        write_jsonl(dataset, tmp_path / "dataset.jsonl")
        write_jsonl([{"qa_id": row["qa_id"], "output": "yes"} for row in dataset],
                    tmp_path / "predictions.jsonl")
        write_jsonl([{"question": "What color is the sofa?", "answer": "teal"}] * 3,
                    tmp_path / "saqs.jsonl")
        (tmp_path / "scenes").mkdir()
        write_json({"seed": SEED, "fv_quantity": 4, "rewrite_pm": 2, "stub_llm": True,
                    "saq_file": str(tmp_path / "saqs.jsonl")}, tmp_path / "config.json")
        bad = {"predictions": tmp_path / "predictions.jsonl",
               "dataset": tmp_path / "dataset.jsonl",
               "saqs": tmp_path / "saqs.jsonl",
               "scene": tmp_path / "scenes" / "bad.scene.json",
               "config": tmp_path / "config.json"}[target]
        if kind == "directory":
            bad.unlink(missing_ok=True)
            bad.mkdir()
        elif kind == "dangling-link":
            bad.unlink(missing_ok=True)
            bad.symlink_to(tmp_path / "nowhere")
        elif bad.suffix == ".jsonl":
            lines = bad.read_bytes().splitlines(keepends=True)
            lines[1] = lines[1][:1] + b"\xff" + lines[1][1:]
            bad.write_bytes(b"".join(lines))
        else:
            bad.write_bytes(b'{"scene_id": "bad",\n "instances": "\xff"}\n')
        config = ["--config", str(tmp_path / "config.json")]
        args = {
            "score": ["--dataset", str(tmp_path / "dataset.jsonl"),
                      "--predictions", str(tmp_path / "predictions.jsonl")],
            "selfcheck": ["--dataset", str(tmp_path / "dataset.jsonl")],
            "generate": ["--out", str(tmp_path / "out"), "--ngt-dir", str(cli_run["ngt_dir"])],
            "extract": ["--out", str(tmp_path / "out"),
                        "--scenes", str(tmp_path / "scenes" / "*.scene.json")],
            "synth": ["--out", str(tmp_path / "out"), "--count", "1"],
        }[command]
        assert main([command, *config, *args]) == code
        err = capsys.readouterr().err
        assert str(bad) in err
        if kind == "byte-ff" and bad.suffix == ".jsonl":
            assert f"{bad}: line 2:" in err
        if kind == "directory":
            assert "not found" not in err

    @pytest.mark.parametrize("command", ["synth", "score"])
    def test_an_output_that_cannot_be_written_exits_1_naming_it(self, cli_run, tmp_path,
                                                                 command):
        """``synth --out <a regular file>`` and ``score --report <a
        directory>``: one line naming the path, exit 1, no traceback, and no
        temporary file left."""
        if command == "synth":
            target = tmp_path / "out-file"
            target.write_text("")
            args = ["synth", "--out", str(target), "--count", "1"]
        else:
            target = tmp_path / "report-dir"
            target.mkdir()
            predictions = tmp_path / "predictions.jsonl"
            write_jsonl([], predictions)
            args = ["score", "--dataset", str(cli_run["dataset"]),
                    "--predictions", str(predictions), "--report", str(target)]
        src = Path(pipeline.__file__).parents[1]
        proc = subprocess.run([sys.executable, "-m", "sceneqa.cli", *args], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert str(target) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.rglob("*.tmp"))

    def test_two_scene_files_of_one_scene_id_exit_3_naming_both(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), "--count", "2"]) == 0
        scenes = out / "scenes"
        shutil.copy(scenes / "synth0000.scene.json", scenes / "copy.scene.json")
        assert main(["extract", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(scenes / "copy.scene.json") in err
        assert str(scenes / "synth0000.scene.json") in err

    def test_score_names_a_numeric_record_without_ground_truth(self, cli_run, tmp_path,
                                                               capsys):
        row = next(row for row in map(json.loads, cli_run["dataset"].read_text().splitlines())
                   if row["task"] == "ni" and row["variant"] == "plain")
        row.update(gt_value=None, answer="n/a")
        dataset, predictions = tmp_path / "dataset.jsonl", tmp_path / "predictions.jsonl"
        write_jsonl([row], dataset)
        write_jsonl([{"qa_id": row["qa_id"], "output": "2"}], predictions)
        assert main(["score", "--dataset", str(dataset), "--predictions", str(predictions)]) == 3
        assert (f"{dataset}: line 1: {row['qa_id']}: numeric record lacks a parseable "
                "ground truth" in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["selfcheck", "score"])
    @pytest.mark.parametrize("changes,problem", [
        ({"variant": "sketch"}, "unknown variant 'sketch'"),
        ({"task": "essay"}, "unknown task 'essay'"),
        ({"provenance": "human"}, "unknown provenance 'human'"),
        ({"task": "pm", "category": "quantity"}, "unknown category 'quantity'"),
    ], ids=["variant", "task", "provenance", "pm-category"])
    def test_a_row_outside_the_vocabulary_exits_3(self, cli_run, tmp_path, capsys,
                                                  command, changes, problem):
        """selfcheck and score refuse the same rows, naming file and line."""
        rows = [json.loads(text) for text in
                cli_run["dataset"].read_text().splitlines()[:3]]
        rows[1].update(changes)
        dataset, predictions = tmp_path / "dataset.jsonl", tmp_path / "predictions.jsonl"
        write_jsonl(rows, dataset)
        write_jsonl([{"qa_id": row["qa_id"], "output": "yes"} for row in rows], predictions)
        args = ["--predictions", str(predictions)] if command == "score" else []
        assert main([command, "--dataset", str(dataset), *args]) == 3
        assert (f"{dataset}: line 2: {rows[1]['qa_id']}: {problem}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("predicted", [True, False], ids=["predicted", "unpredicted"])
    def test_score_refuses_a_record_of_an_unknown_task(self, cli_run, tmp_path,
                                                       capsys, predicted):
        """A dataset record of an unknown task is an input error (exit 3)
        naming the dataset file and the record, with or without a
        prediction for it; it never becomes a stratum of the report."""
        rows = [json.loads(text) for text in
                cli_run["dataset"].read_text().splitlines()[:3]]
        rows[1]["task"] = "truthiness"
        dataset, predictions = tmp_path / "dataset.jsonl", tmp_path / "predictions.jsonl"
        write_jsonl(rows, dataset)
        write_jsonl([{"qa_id": row["qa_id"], "output": "yes"} for row in rows
                     if predicted or row is not rows[1]], predictions)
        report = tmp_path / "report.json"
        code = main(["score", "--dataset", str(dataset), "--predictions", str(predictions),
                     "--report", str(report)])
        assert code == 3
        err = capsys.readouterr().err
        assert "dataset.jsonl" in err and rows[1]["qa_id"] in err
        assert "unknown task 'truthiness'" in err
        assert not report.exists()

    def test_missing_dataset_for_score(self, cli_run, tmp_path):
        predictions = tmp_path / "predictions.jsonl"
        write_jsonl([{"qa_id": "a", "output": "yes"}], predictions)
        code = main(["score", "--dataset", str(tmp_path / "none.jsonl"),
                     "--predictions", str(predictions)])
        assert code == 3

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliFlags:
    """Each override flag sets the configuration key of the same meaning."""

    @pytest.mark.parametrize("argv,key,value", [
        (["synth", "--out", "elsewhere"], "out_dir", "elsewhere"),
        (["synth", "--count", "7"], "synth_scenes", 7),
        (["synth", "--seed", "5"], "seed", 5),
        (["extract", "--jobs", "3"], "jobs", 3),
        (["extract", "--scenes", "scans/*.json"], "scenes", "scans/*.json"),
        (["extract", "--ngt-dir", "tables"], "ngt_dir", "tables"),
        (["generate", "--ngt-dir", "tables"], "ngt_dir", "tables"),
        (["generate", "--stub-llm"], "stub_llm", True),
    ])
    def test_each_flag_sets_its_key_alone(self, monkeypatch, argv, key, value):
        seen = []

        def stage(cfg):
            seen.append(cfg)
            raise SceneQaError("stage reached")

        monkeypatch.setattr(cli, f"run_{argv[0]}", stage)
        assert main(argv) == SceneQaError.exit_code
        assert seen == [dataclasses.replace(PipelineConfig(), **{key: value})]

    @pytest.fixture
    def rewrite_config(self, tmp_path):
        write_jsonl([{"question": "What color is the sofa?", "answer": "teal"}],
                    tmp_path / "saqs.jsonl")
        config = tmp_path / "config.json"
        write_json({"seed": SEED, "fv_quantity": 4, "rewrite_pm": 2, "rewrite_fv": 1,
                    "saq_file": str(tmp_path / "saqs.jsonl")}, config)
        return config

    def test_stub_llm_flag_stands_in_for_a_service(self, cli_run, tmp_path, capsys,
                                                   rewrite_config):
        args = ["generate", "--config", str(rewrite_config), "--out", str(tmp_path),
                "--ngt-dir", str(cli_run["ngt_dir"])]
        assert main(args) == 2
        assert "service_endpoint" in capsys.readouterr().err
        assert main([*args, "--stub-llm"]) == 0
        assert read_json(tmp_path / "manifest.json")["task_counts"]["pm"] == 2

    def test_the_service_keys_reach_each_request(self, cli_run, tmp_path, monkeypatch,
                                                  rewrite_config):
        """Without the stub, generate sends every request with the service_*
        settings; answered with the stub's replies after three failures (one
        per allowed retry), it writes the stub run's dataset."""
        stub, requests = EchoStubClient(), []

        def post(url, body, timeout, headers):
            requests.append((url, body, timeout))
            if len(requests) <= 3:
                return 503, "busy"
            reply = stub.complete(*(message["content"] for message in body["messages"]))
            return 200, json.dumps({"choices": [{"message": {"content": reply}}]})

        monkeypatch.setattr(rewrite, "_urllib_post", post)
        monkeypatch.setattr(rewrite, "_RETRY_WAIT_S", 0.0)
        service = {"service_endpoint": "http://localhost:9/v1/chat/completions",
                   "service_model": "rewriter-1", "service_timeout": 7.5,
                   "service_retries": 3, "service_temperature": 0.25,
                   "service_max_tokens": 64}
        config = tmp_path / "service.json"
        write_json({**read_json(rewrite_config), **service}, config)
        ngt = ["--ngt-dir", str(cli_run["ngt_dir"])]
        assert main(["generate", "--config", str(rewrite_config), "--stub-llm",
                     "--out", str(tmp_path / "stub"), *ngt]) == 0
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "service"), *ngt]) == 0
        assert ((tmp_path / "service" / "dataset.jsonl").read_bytes()
                == (tmp_path / "stub" / "dataset.jsonl").read_bytes())
        assert len(requests) > 3
        for url, body, timeout in requests:
            assert url == service["service_endpoint"]
            assert timeout == service["service_timeout"]
            assert body["model"] == service["service_model"]
            assert body["temperature"] == service["service_temperature"]
            assert body["max_tokens"] == service["service_max_tokens"]

    def test_every_rewrite_attempt_failing_is_a_shortfall(self, cli_run, tmp_path, capsys,
                                                          monkeypatch, rewrite_config):
        monkeypatch.setattr(EchoStubClient, "complete", lambda self, system, user: "no")
        args = ["generate", "--config", str(rewrite_config), "--out", str(tmp_path),
                "--ngt-dir", str(cli_run["ngt_dir"]), "--stub-llm"]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "3 rewrite jobs exhausted their attempts (first: llm-pm-00000)" in err
        assert not (tmp_path / "dataset.jsonl").exists()
        with pytest.raises(InsufficientCandidatesError) as excinfo:
            run_generate(load_config(rewrite_config, out_dir=str(tmp_path),
                                     ngt_dir=str(cli_run["ngt_dir"]), stub_llm=True))
        assert excinfo.value.shortfalls == {"pm/non-numeric": (2, 0), "fv/non-numeric": (2, 0)}
