"""End-to-end tests for the command line."""
import hashlib
import json
from pathlib import Path

import pytest

from vrident import cli
from vrident.classifiers import Classifier
from vrident.cli import UsageError, load_run_config, main
from vrident.features import TRAFFIC_FEATURE_NAMES
from vrident.ingest import GameProfile, generate_synthetic_cohort, write_cohort


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cohort")
    assert run_cli("synth", "--users", 4, "--minutes", 3, "--seed", 5, "--out", out) == 0
    return out


def write_config(path: Path, cohort: Path, **overrides) -> Path:
    cfg = {
        "manifest": str(cohort / "manifest.json"),
        "feature_sets": ["traffic"],
        "model_kinds": ["logistic"],
        "seeds": [0],
        "train_s": 120,
        "test_s": 60,
        "out_dir": str(path.parent / "reports"),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


# ---- synth ---------------------------------------------------------------------


def test_synth_writes_csv_pairs_and_manifest(cohort_dir):
    names = sorted(p.name for p in cohort_dir.iterdir())
    assert "manifest.json" in names
    assert sum(n.endswith("_movement.csv") for n in names) == 4
    assert sum(n.endswith("_traffic.csv") for n in names) == 4


def test_synth_is_deterministic_across_directories(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("synth", "--users", 3, "--minutes", 1, "--seed", 2, "--out", out) == 0
    assert dir_digest(a) == dir_digest(b)


def test_synth_rejects_single_user(tmp_path, capsys):
    code = run_cli("synth", "--users", 1, "--out", tmp_path / "x")
    assert code == 2
    assert "at least 2 users" in capsys.readouterr().err


@pytest.mark.parametrize("minutes", ["inf", "nan"])
def test_synth_rejects_non_finite_minutes(tmp_path, capsys, minutes):
    code = run_cli("synth", "--users", 2, "--minutes", minutes, "--out", tmp_path / "x")
    assert code == 2
    assert f"minutes must be a finite positive number, got {minutes}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_synth_unwritable_output_is_exit_two(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    code = run_cli("synth", "--users", 2, "--minutes", 1, "--out", blocker / "sub")
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


# ---- featurize -----------------------------------------------------------------


def test_featurize_writes_a_matrix_per_game(cohort_dir, tmp_path, capsys):
    out = tmp_path / "feats"
    code = run_cli(
        "featurize", "--manifest", cohort_dir / "manifest.json",
        "--feature-set", "traffic", "--out", out,
    )
    assert code == 0
    lines = (out / "features_game_a.csv").read_text().splitlines()
    assert lines[0] == "user_id,game_id,window_index," + ",".join(TRAFFIC_FEATURE_NAMES)
    # 4 users x 18 windows of a 3-minute trace
    assert len(lines) == 1 + 4 * 18
    assert "72 rows x (3 id cols + 28 features)" in capsys.readouterr().out


@pytest.fixture(scope="module")
def small_cohort_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("small_cohort")
    assert run_cli("synth", "--users", 3, "--minutes", 1, "--seed", 13, "--out", out) == 0
    return out


@pytest.mark.parametrize(
    "feature_set, sha256",
    [
        ("combined", "864f951a21d94055de09f3aef34f1c552faf2a55641fe1731fbca1cd6e2428eb"),
        (
            "movement_norm_height",
            "715cd02f3a44b1fa9441da725834695d4ab18337a337f57db00d074847357976",
        ),
        ("traffic", "38dd1621551dd4f094ea0d004b39ee8d096caeff617bdd36800e6c9a277e5fdc"),
    ],
)
def test_featurize_csv_bytes_are_pinned(small_cohort_dir, tmp_path, feature_set, sha256):
    out = tmp_path / "feats"
    code = run_cli(
        "featurize", "--manifest", small_cohort_dir / "manifest.json",
        "--feature-set", feature_set, "--out", out,
    )
    assert code == 0
    data = (out / "features_game_a.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == sha256


def test_featurize_ignores_the_manifest_trace_order(small_cohort_dir, tmp_path):
    manifest = json.loads((small_cohort_dir / "manifest.json").read_text())
    manifest["traces"].reverse()
    reversed_manifest = small_cohort_dir / "manifest_reversed.json"
    reversed_manifest.write_text(json.dumps(manifest))
    try:
        for name, path in (("given", "manifest.json"), ("reversed", reversed_manifest.name)):
            code = run_cli(
                "featurize", "--manifest", small_cohort_dir / path,
                "--feature-set", "combined", "--out", tmp_path / name,
            )
            assert code == 0
    finally:
        reversed_manifest.unlink()
    given = (tmp_path / "given" / "features_game_a.csv").read_bytes()
    assert (tmp_path / "reversed" / "features_game_a.csv").read_bytes() == given


@pytest.mark.parametrize("flag", ["--window", "--bin"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_featurize_rejects_non_finite_lengths(cohort_dir, tmp_path, capsys, flag, value):
    out = tmp_path / "feats"
    code = run_cli(
        "featurize", "--manifest", cohort_dir / "manifest.json", flag, value, "--out", out
    )
    assert code == 2
    assert f"{flag} must be a finite positive number, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("feature_set", ["traffic", "combined"])
def test_featurize_rejects_a_bin_that_does_not_divide_the_window(
    cohort_dir, tmp_path, monkeypatch, capsys, feature_set
):
    loads = []
    monkeypatch.setattr("vrident.cli.load_dataset", lambda path: loads.append(path))
    out = tmp_path / "feats"
    code = run_cli(
        "featurize", "--manifest", cohort_dir / "manifest.json", "--feature-set", feature_set,
        "--window", 10, "--bin", 3, "--out", out,
    )
    assert code == 2
    assert "bin_s=3.0 does not evenly divide window_s=10.0" in capsys.readouterr().err
    assert not loads
    assert not out.exists()


def test_featurize_missing_manifest_is_exit_two(tmp_path, capsys):
    code = run_cli("featurize", "--manifest", tmp_path / "nope.json")
    assert code == 2
    assert "file not found" in capsys.readouterr().err


def test_featurize_parse_failure_names_file_and_line(cohort_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    for src in cohort_dir.iterdir():
        (broken / src.name).write_bytes(src.read_bytes())
    victim = broken / "user01_game_a_traffic.csv"
    rows = victim.read_text().splitlines()
    rows[2] = "not,a,row"
    victim.write_text("\n".join(rows) + "\n")
    code = run_cli("featurize", "--manifest", broken / "manifest.json", "--out", tmp_path / "f")
    assert code == 2
    err = capsys.readouterr().err
    assert "user01_game_a_traffic.csv" in err and "line 3" in err


def test_featurize_normalize_height_switches_the_set(cohort_dir, tmp_path):
    plain, norm = tmp_path / "plain", tmp_path / "norm"
    for out, feature_set in ((plain, "movement"), (norm, "movement_norm_height")):
        assert run_cli(
            "featurize", "--manifest", cohort_dir / "manifest.json",
            "--feature-set", feature_set, "--out", out,
        ) == 0
    a = (plain / "features_game_a.csv").read_text()
    b = (norm / "features_game_a.csv").read_text()
    assert a.splitlines()[0] == b.splitlines()[0]
    assert a != b


# ---- config --------------------------------------------------------------------


def test_config_rejects_unknown_keys(tmp_path, cohort_dir):
    path = write_config(tmp_path / "cfg.json", cohort_dir, wavelets=True)
    with pytest.raises(UsageError, match="unknown config keys.*wavelets"):
        load_run_config(str(path))


def test_config_requires_core_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"manifest": "m.json"}))
    with pytest.raises(UsageError, match="missing config keys"):
        load_run_config(str(path))


def test_config_validates_values(tmp_path, cohort_dir):
    cases = [
        ({"feature_sets": ["wavelets"]}, "unknown feature set"),
        ({"model_kinds": ["svm"]}, "unknown model kind"),
        ({"vote_k": [2]}, "must be odd"),
        ({"seeds": [-1]}, "integers >= 0"),
        ({"train_s": 0}, "positive number"),
        ({"model_params": {"svm": {}}}, "unknown model kind"),
        ({"model_params": {"logistic": 3}}, "must be an object"),
        ({"shapley_permutations": 0}, "positive integer"),
        ({"subset_sizes": [5, 7]}, r"multiples of 5, got \[7\]"),
        ({"subset_sizes": [5, 5]}, "'subset_sizes' lists 5 more than once"),
        ({"vote_k": [1, 1]}, "'vote_k' lists 1 more than once"),
        ({"seeds": [0, 1, 0]}, "'seeds' lists 0 more than once"),
        ({"feature_sets": ["traffic", "traffic"]}, "'feature_sets' lists 'traffic' more"),
        ({"model_kinds": ["qda", "logistic", "qda"]}, "'model_kinds' lists 'qda' more"),
        ({"games": ["game_a", "game_a"]}, "'games' lists 'game_a' more"),
        ({"window_s": float("nan")}, "'window_s' must be a finite positive number, got nan"),
        ({"bin_s": float("inf")}, "'bin_s' must be a finite positive number, got inf"),
        ({"bin_s": 3}, r"bin_s=3\.0 does not evenly divide window_s=10\.0"),
        (
            {"feature_sets": ["movement", "combined"], "window_s": 5, "bin_s": 2},
            r"bin_s=2\.0 does not evenly divide window_s=5\.0",
        ),
        ({"train_s": float("-inf")}, "'train_s' must be a finite positive number, got -inf"),
        ({"test_s": float("inf")}, "'test_s' must be a finite positive number, got inf"),
        ({"test_s": 10**400}, "'test_s' must be a finite positive number"),
        (
            {"model_params": {"logistic": {"bogus": 1}}},
            r"'model_params'\['logistic'\] has unknown parameter 'bogus'; "
            "logistic takes lam, max_iter, tol",
        ),
        (
            {"model_params": {"extra_trees": {"bootstrap": True}}},
            r"'model_params'\['extra_trees'\] has unknown parameter 'bootstrap'",
        ),
        (
            {"model_params": {"qda": {"seed": 3}}},
            r"'model_params'\['qda'\] has unknown parameter 'seed'; qda takes ridge",
        ),
        (
            {"model_params": {"ensemble": {"members": [1, 2]}}},
            r"'model_params'\['ensemble'\] has unknown parameter 'members'; "
            "ensemble takes no parameters",
        ),
        (
            {"model_params": {"gbm": {"learning_rate": float("inf")}}},
            r"'model_params'\['gbm'\]\['learning_rate'\] must be a finite number, got inf",
        ),
        (
            {"model_params": {"qda": {"ridge": 10**400}}},
            r"'model_params'\['qda'\]\['ridge'\] must be a finite number",
        ),
        (
            {"model_params": {"random_forest": {"max_features": False}}},
            r"'max_features'\] must be an integer or null, got False",
        ),
    ]
    for overrides, match in cases:
        path = write_config(tmp_path / "cfg.json", cohort_dir, **overrides)
        with pytest.raises(UsageError, match=match):
            load_run_config(str(path))


def test_config_bin_s_is_free_without_traffic(tmp_path, cohort_dir):
    path = write_config(tmp_path / "cfg.json", cohort_dir, feature_sets=["movement"], bin_s=3)
    assert load_run_config(str(path)).bin_s == 3.0


def test_config_model_params_of_the_hinted_types_load(tmp_path, cohort_dir):
    params = {
        "logistic": {"lam": 1, "tol": 1e-4, "max_iter": 5},
        "random_forest": {"n_trees": 3, "bootstrap": False, "max_features": None},
        "extra_trees": {"max_features": 2},
        "gbm": {"learning_rate": 0.5, "min_leaf": 2},
    }
    path = write_config(tmp_path / "cfg.json", cohort_dir, model_params=params)
    assert load_run_config(str(path)).model_params == params


def test_config_invalid_json_names_the_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    with pytest.raises(UsageError, match="invalid JSON"):
        load_run_config(str(path))


def test_config_defaults_are_applied(tmp_path, cohort_dir):
    path = write_config(tmp_path / "cfg.json", cohort_dir)
    cfg = load_run_config(str(path))
    assert cfg.window_s == 10.0 and cfg.bin_s == 1.0
    assert cfg.vote_k == (1,) and cfg.seeds == (0,)
    assert cfg.shapley_permutations == 200 and cfg.shapley_instances == 50


# ---- evaluate --------------------------------------------------------------------


def test_evaluate_writes_one_cell_per_matrix_entry(cohort_dir, tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", cohort_dir,
        model_kinds=["logistic", "qda"], vote_k=[1, 3],
    )
    assert run_cli("evaluate", "--config", cfg) == 0
    out = tmp_path / "reports"
    report = json.loads((out / "report.json").read_text())
    assert report["toolkit_version"]
    assert report["config"]["manifest"].endswith("manifest.json")
    assert len(report["cells"]) == 2
    for cell in report["cells"]:
        assert cell["status"] == "ok"
        assert cell["vote_curve"][0] == [1, cell["accuracy"]]
        assert len(cell["vote_curve"]) == 2
    assert (out / "summary_s0.csv").exists()
    assert (out / "confusion_game_a.traffic.logistic.s0.csv").exists()
    assert (out / "voting_game_a.traffic.qda.s0.csv").exists()
    assert "2/2 cells completed" in capsys.readouterr().out


def test_evaluate_malformed_config_does_no_work(cohort_dir, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", cohort_dir, bogus=1)
    assert run_cli("evaluate", "--config", cfg) == 2
    assert not (tmp_path / "reports").exists()
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "importance"])
@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"test_s": float("inf")}, "'test_s' must be a finite positive number, got inf"),
        ({"window_s": float("nan")}, "'window_s' must be a finite positive number, got nan"),
        ({"bin_s": 3}, "bin_s=3.0 does not evenly divide window_s=10.0"),
        (
            {"model_params": {"logistic": {"bogus": 1}}},
            "'model_params'['logistic'] has unknown parameter 'bogus'",
        ),
        (
            {"model_params": {"ensemble": {"members": [1, 2]}}},
            "'model_params'['ensemble'] has unknown parameter 'members'",
        ),
        (
            {"model_params": {"random_forest": {"n_trees": "10"}}},
            "'model_params'['random_forest']['n_trees'] must be an integer, got '10'",
        ),
        (
            {"model_params": {"gbm": {"max_leaves": True}}},
            "'model_params'['gbm']['max_leaves'] must be an integer, got True",
        ),
        (
            {"model_params": {"logistic": {"lam": float("nan")}}},
            "'model_params'['logistic']['lam'] must be a finite number, got nan",
        ),
        (
            {"model_params": {"logistic": {"max_iter": 1.5}}},
            "'model_params'['logistic']['max_iter'] must be an integer, got 1.5",
        ),
        (
            {"model_params": {"random_forest": {"bootstrap": "no"}}},
            "'model_params'['random_forest']['bootstrap'] must be true or false, got 'no'",
        ),
        (
            {"model_params": {"extra_trees": {"max_features": 2.0}}},
            "'model_params'['extra_trees']['max_features'] must be an integer or null, got 2.0",
        ),
        (
            {"model_params": {"random_forest": {"n_trees": 0}, "gbm": {"max_leaves": 1}}},
            "'model_params'['random_forest']: n_trees must be >= 1, got 0",
        ),
        (
            {"model_params": {"gbm": {"max_leaves": 1}}},
            "'model_params'['gbm']: max_leaves must be >= 2, got 1",
        ),
        (
            {"model_params": {"qda": {"ridge": -1.0}}},
            "'model_params'['qda']: ridge must be positive, got -1.0",
        ),
        (
            {"model_params": {"logistic": {"lam": -0.5}}},
            "'model_params'['logistic']: lam must be >= 0, got -0.5",
        ),
    ],
    ids=[
        "test_s_inf", "window_s_nan", "bin_s_not_dividing", "logistic_bogus", "ensemble_members",
        "n_trees_string", "max_leaves_bool", "lam_nan", "max_iter_float", "bootstrap_string",
        "max_features_float", "n_trees_zero", "max_leaves_one", "ridge_negative", "lam_negative",
    ],
)
def test_bad_config_numbers_and_params_stop_before_loading(
    cohort_dir, tmp_path, monkeypatch, capsys, command, overrides, message
):
    loads = []
    monkeypatch.setattr("vrident.cli.load_dataset", lambda path: loads.append(path))
    cfg = write_config(tmp_path / "cfg.json", cohort_dir, **overrides)
    assert run_cli(command, "--config", cfg) == 2
    assert message in capsys.readouterr().err
    assert not loads
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_evaluate_cell_failure_exits_one_but_finishes_the_rest(cohort_dir, tmp_path, capsys, jobs):
    # one training window per user: logistic fits it, QDA needs two
    cfg = write_config(
        tmp_path / "cfg.json", cohort_dir, model_kinds=["logistic", "qda"], train_s=10
    )
    assert run_cli("evaluate", "--config", cfg, "--jobs", jobs) == 1
    captured = capsys.readouterr()
    assert "[FAIL] game_a.traffic.qda.s0" in captured.err
    report = json.loads((tmp_path / "reports" / "report.json").read_text())
    statuses = {c["spec"]["model_kind"]: c["status"] for c in report["cells"]}
    assert statuses == {"logistic": "ok", "qda": "error"}


def test_evaluate_is_byte_deterministic(cohort_dir, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", cohort_dir, model_kinds=["random_forest"],
                       model_params={"random_forest": {"n_trees": 10}})
    assert run_cli("evaluate", "--config", cfg) == 0
    first = (tmp_path / "reports" / "report.json").read_bytes()
    assert run_cli("evaluate", "--config", cfg) == 0
    assert (tmp_path / "reports" / "report.json").read_bytes() == first


def test_evaluate_parallel_jobs_match_serial(cohort_dir, tmp_path):
    serial_cfg = write_config(tmp_path / "a.json", cohort_dir, model_kinds=["logistic", "qda"],
                              out_dir=str(tmp_path / "serial"))
    parallel_cfg = write_config(tmp_path / "b.json", cohort_dir, model_kinds=["logistic", "qda"],
                                out_dir=str(tmp_path / "parallel"))
    assert run_cli("evaluate", "--config", serial_cfg) == 0
    assert run_cli("evaluate", "--config", parallel_cfg, "--jobs", 2) == 0
    a = json.loads((tmp_path / "serial" / "report.json").read_text())
    b = json.loads((tmp_path / "parallel" / "report.json").read_text())
    assert a["cells"] == b["cells"]


def test_evaluate_env_overrides_output_dir_and_jobs(cohort_dir, tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json", cohort_dir)
    moved = tmp_path / "elsewhere"
    monkeypatch.setenv("VRIDENT_OUT_DIR", str(moved))
    monkeypatch.setenv("VRIDENT_JOBS", "2")
    assert run_cli("evaluate", "--config", cfg) == 0
    assert (moved / "report.json").exists()
    assert not (tmp_path / "reports").exists()


def test_evaluate_bad_jobs_env_is_exit_two(cohort_dir, tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "cfg.json", cohort_dir)
    monkeypatch.setenv("VRIDENT_JOBS", "lots")
    assert run_cli("evaluate", "--config", cfg) == 2
    assert "VRIDENT_JOBS" in capsys.readouterr().err


@pytest.fixture(scope="module")
def ten_user_cohort(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("ten")
    assert run_cli("synth", "--users", 10, "--minutes", 3, "--seed", 4, "--out", out) == 0
    return out


@pytest.mark.parametrize(
    "users, overrides, message",
    [
        (4, {"subset_sizes": [5]}, "game 'game_a' has 4 users, not divisible by the subset unit 5"),
        (10, {"subset_sizes": [5, 15]}, "game 'game_a' has 10 users, fewer than subset size 15"),
        (4, {"vote_k": [1, 3], "test_s": 10}, "vote_k 3 exceeds the 1 test windows of test_s=10.0"),
    ],
)
def test_evaluate_rejects_unusable_curves_before_fitting(
    cohort_dir, ten_user_cohort, tmp_path, monkeypatch, capsys, users, overrides, message
):
    fits = []
    monkeypatch.setattr(Classifier, "fit", lambda self, X, y: fits.append(self))
    cohort = cohort_dir if users == 4 else ten_user_cohort
    cfg = write_config(tmp_path / "cfg.json", cohort, **overrides)
    assert run_cli("evaluate", "--config", cfg) == 2
    assert message in capsys.readouterr().err
    assert not fits
    assert not (tmp_path / "reports").exists()


def test_evaluate_runs_subset_curves_when_configured(ten_user_cohort, tmp_path, monkeypatch):
    fits = []
    fit = Classifier.fit
    monkeypatch.setattr(Classifier, "fit", lambda self, X, y: fits.append(len(y)) or fit(self, X, y))
    monkeypatch.delenv("VRIDENT_JOBS", raising=False)
    cfg = write_config(tmp_path / "cfg.json", ten_user_cohort, subset_sizes=[5, 10])
    assert run_cli("evaluate", "--config", cfg) == 0
    # the all-users group reuses the identification fit: 10 users, then 5 + 5
    assert fits == [10 * 12, 5 * 12, 5 * 12]
    out = tmp_path / "reports"
    curve = (out / "subsets_game_a.traffic.logistic.s0.csv").read_text().splitlines()
    assert curve[0] == "users,accuracy"
    assert [row.split(",")[0] for row in curve[1:]] == ["5", "10"]
    report = json.loads((out / "report.json").read_text())
    assert report["cells"][0]["subsets"]["sizes"] == [5, 10]


# ---- importance -------------------------------------------------------------------


def test_importance_writes_top_rows_per_game(cohort_dir, tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", cohort_dir,
        shapley_permutations=20, shapley_instances=2,
    )
    assert run_cli("importance", "--config", cfg, "--top", 3) == 0
    out = tmp_path / "reports"
    top = (out / "importance_top.csv").read_text().splitlines()
    assert top[0] == "game,rank,feature,mean_shapley"
    assert len(top) == 1 + 3
    assert [row.split(",")[1] for row in top[1:]] == ["1", "2", "3"]
    ranking = (out / "attribution_game_a.csv").read_text().splitlines()
    assert len(ranking) == 1 + len(TRAFFIC_FEATURE_NAMES)
    meta = json.loads((out / "importance.json").read_text())
    assert meta["cell"] == {"feature_set": "traffic", "model_kind": "logistic", "seed": 0}
    assert meta["games"]["game_a"]["status"] == "ok"
    assert len(meta["games"]["game_a"]["top"]) == 3


def test_importance_ignores_the_jobs_env(cohort_dir, tmp_path, monkeypatch):
    jobs = []
    run_matrix = cli.run_matrix

    def counted(specs, dataset, n, cell):
        jobs.append(n)
        return run_matrix(specs, dataset, n, cell)

    monkeypatch.setattr(cli, "run_matrix", counted)
    monkeypatch.setenv("VRIDENT_JOBS", "2")
    cfg = write_config(tmp_path / "cfg.json", cohort_dir, shapley_permutations=2, shapley_instances=1)
    assert run_cli("importance", "--config", cfg, "--top", 1) == 0
    assert jobs == [1]


# sha256 of the outputs below, captured with numpy 2.4.6 on x86-64; extra_trees
# outputs do not depend on the BLAS thread count
GOLDEN_IMPORTANCE_SHA256 = {
    "importance.json": "0f7d4deac3a862429dd0f57a2d1b1d916866711c2ca13ed2e5aece20906baa2f",
    "importance_top.csv": "8b490330ab859a86b74f89b3d462f2588f64bd8553a80c6c4ebf517e7422c813",
}


def test_importance_failing_game_is_isolated(tmp_path, monkeypatch, capsys):
    games = (GameProfile("game_a", "fast"), GameProfile("game_b", "slow"))
    write_cohort(generate_synthetic_cohort(3, minutes=1, seed=3, games=games), tmp_path / "cohort")
    manifest = tmp_path / "cohort" / "manifest.json"
    obj = json.loads(manifest.read_text())
    for entry in obj["traces"]:
        if entry["game_id"] == "game_b":
            entry["duration_s"] = 50.0  # below train_s + test_s: the split fails
    manifest.write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)  # relative paths keep tmp_path out of the bytes
    cfg = {
        "manifest": "cohort/manifest.json", "feature_sets": ["traffic"],
        "model_kinds": ["extra_trees"], "model_params": {"extra_trees": {"n_trees": 5}},
        "train_s": 40, "test_s": 20, "shapley_permutations": 4, "shapley_instances": 1,
        "out_dir": "reports",
    }
    Path("cfg.json").write_text(json.dumps(cfg))
    assert run_cli("importance", "--config", "cfg.json", "--top", 3) == 1
    assert "[FAIL] game_b" in capsys.readouterr().err
    out = tmp_path / "reports"
    assert (out / "attribution_game_a.csv").exists()
    assert not (out / "attribution_game_b.csv").exists()
    rows = (out / "importance_top.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["game_a"] * 3
    meta = json.loads((out / "importance.json").read_text())
    assert meta["games"]["game_b"]["status"] == "error"
    for name, digest in GOLDEN_IMPORTANCE_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_importance_top_bounds_are_usage_errors(cohort_dir, tmp_path, monkeypatch, capsys):
    loads = []
    monkeypatch.setattr("vrident.cli.load_dataset", lambda path: loads.append(path))
    cfg = write_config(tmp_path / "cfg.json", cohort_dir)
    assert run_cli("importance", "--config", cfg, "--top", 0) == 2
    assert "--top must be >= 1, got 0" in capsys.readouterr().err
    assert run_cli("importance", "--config", cfg, "--top", 29) == 2
    assert "--top 29 exceeds the 28 features of 'traffic'" in capsys.readouterr().err
    assert not loads
    assert not (tmp_path / "reports").exists()


# ---- parser ------------------------------------------------------------------------


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag_prints_and_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "vrident" in capsys.readouterr().out
