"""The benchmark's three workloads.

Each workload builds its input cohort from the seed in ``setup`` (the untimed
phase), runs one operation through a public entry point of the program in
``run``, and checks that operation's outputs in ``check``. Every operation
starts from the inputs alone: it reads the cohort from disk or takes the
in-memory cohort, and writes into an emptied output directory.

Sizes are chosen so that one run of ``--seconds 25`` repeats each operation
several times on a 2-core machine; the shares of time between layers follow
the full-size runs they stand in for (see README.md).
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from pathlib import Path

import vrident.cli
import vrident.evaluation
import vrident.ingest
from vrident.features import COMBINED_FEATURE_NAMES

WINDOW_S = 10.0
GAME = "game_a"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _in_unit(x) -> bool:
    return isinstance(x, float) and 0.0 <= x <= 1.0


class Workload:
    """One workload; ``params`` are its input sizes. ``expected`` holds
    recorded output digests, or None where there are none to compare against."""

    name = ""
    params: dict = {}

    def __init__(self, seed: int, workdir: Path, expected: dict | None = None) -> None:
        self.seed = seed
        self.expected = expected
        self.workdir = workdir
        self.cohort_dir = workdir / "cohort"
        self.out_dir = workdir / "out"

    def _synth(self):
        p = self.params
        return vrident.ingest.generate_synthetic_cohort(p["users"], minutes=p["minutes"], seed=self.seed)

    def _write_config(self, config: dict) -> None:
        # paths relative to the work directory, so report bytes do not depend
        # on where the checkout lives
        config = {"manifest": "cohort/manifest.json", "out_dir": "out", **config}
        (self.workdir / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")

    def setup(self) -> None:
        """Untimed phase: synthesize the cohort and write it to disk."""
        shutil.rmtree(self.cohort_dir, ignore_errors=True)
        vrident.ingest.write_cohort(self._synth(), self.cohort_dir)

    def prepare(self) -> None:
        """Untimed, before each operation: empty the output directory."""
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _cli(self, argv: list[str]):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = vrident.cli.main(argv)
        return code, sink.getvalue()

    def check(self, output) -> tuple[dict, list[str]]:
        """(digest, problems) of one operation's output; no problems means correct."""
        raise NotImplementedError

    def _compare(self, digest: dict, problems: list[str]) -> None:
        if self.expected is not None:
            for key, value in self.expected.items():
                if digest.get(key) != value:
                    problems.append(f"{key} is {digest.get(key)!r}, recorded {value!r}")


class EvaluateMatrix(Workload):
    name = "evaluate_matrix"
    params = dict(users=10, minutes=0.5, train_s=20.0, test_s=10.0, vote_k=[1], trees=(20, 40))
    feature_sets = ("movement", "traffic", "combined")
    model_kinds = ("logistic", "qda", "random_forest", "extra_trees")

    def setup(self) -> None:
        super().setup()
        p = self.params
        rf, et = p["trees"]
        self._write_config(
            {
                "feature_sets": list(self.feature_sets),
                "model_kinds": list(self.model_kinds),
                "train_s": p["train_s"],
                "test_s": p["test_s"],
                "vote_k": p["vote_k"],
                "subset_sizes": [5, 10],
                "model_params": {"random_forest": {"n_trees": rf}, "extra_trees": {"n_trees": et}},
            }
        )

    def run(self):
        return self._cli(["evaluate", "--config", "config.json", "--jobs", "1"])

    def check(self, output):
        code, log = output
        if code != 0:
            return {}, [f"vrident evaluate exited {code}: {log.strip()[-500:]}"]
        report_path = self.out_dir / "report.json"
        digest = {"report_sha256": sha256_file(report_path)}
        problems: list[str] = []
        self._compare(digest, problems)
        p = self.params
        report = json.loads(report_path.read_text(encoding="utf-8"))
        cells = report["cells"]
        if len(cells) != len(self.feature_sets) * len(self.model_kinds):
            problems.append(f"{len(cells)} cells in report.json")
        n_train = p["users"] * int(p["train_s"] / WINDOW_S)
        n_test = p["users"] * int(p["test_s"] / WINDOW_S)
        for cell in cells:
            spec = cell.get("spec", {})
            slug = f"{GAME}.{spec.get('feature_set')}.{spec.get('model_kind')}.s0"
            if cell["status"] != "ok":
                problems.append(f"{slug}: {cell.get('error')}")
                continue
            if (cell["n_train_windows"], cell["n_test_windows"]) != (n_train, n_test):
                problems.append(f"{slug}: windows {cell['n_train_windows']}/{cell['n_test_windows']}")
            scores = [cell["accuracy"], cell["macro_f1"], cell["vote_accuracy"]]
            scores += [acc for _, acc in cell["vote_curve"]]
            scores += list(cell["subsets"]["mean_accuracy"].values())
            if not all(_in_unit(x) for x in scores):
                problems.append(f"{slug}: a score outside [0, 1]")
            if [k for k, _ in cell["vote_curve"]] != p["vote_k"]:
                problems.append(f"{slug}: vote curve at {cell['vote_curve']}")
            for prefix in ("confusion", "voting", "subsets"):
                if not (self.out_dir / f"{prefix}_{slug}.csv").is_file():
                    problems.append(f"{prefix}_{slug}.csv missing")
        return digest, problems


class IdentifyGbm(Workload):
    name = "identify_gbm"
    params = dict(users=10, minutes=5.0, train_s=240.0, test_s=60.0, n_rounds=4)

    def setup(self) -> None:
        """Untimed phase: the cohort stays in memory; nothing is written."""
        p = self.params
        self.dataset = self._synth()
        self.spec = vrident.evaluation.ExperimentSpec(
            game_id=GAME,
            feature_set="combined",
            model_kind="gbm",
            train_s=p["train_s"],
            test_s=p["test_s"],
            model_params={"n_rounds": p["n_rounds"]},
        )

    def prepare(self) -> None:
        pass

    def run(self):
        return vrident.evaluation.run_identification(self.spec, self.dataset)

    def check(self, report):
        text = json.dumps(vrident.evaluation.report_to_dict(report), sort_keys=True)
        digest = {
            "accuracy": report.accuracy,
            "macro_f1": report.macro_f1,
            "report_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        }
        problems: list[str] = []
        self._compare(digest, problems)
        p = self.params
        if not (_in_unit(report.accuracy) and _in_unit(report.macro_f1)):
            problems.append(f"accuracy {report.accuracy!r} or macro-F1 {report.macro_f1!r} outside [0, 1]")
        if len(report.labels) != p["users"]:
            problems.append(f"{len(report.labels)} labels for {p['users']} users")
        if set(report.train_counts.values()) != {int(p["train_s"] / WINDOW_S)}:
            problems.append(f"train windows per user {sorted(set(report.train_counts.values()))}")
        if set(report.test_counts.values()) != {int(p["test_s"] / WINDOW_S)}:
            problems.append(f"test windows per user {sorted(set(report.test_counts.values()))}")
        return digest, problems


class ImportanceForest(Workload):
    name = "importance_forest"
    params = dict(users=4, minutes=3.0, train_s=120.0, test_s=60.0, trees=100, permutations=24, instances=5)
    top = 3

    def setup(self) -> None:
        super().setup()
        p = self.params
        self._write_config(
            {
                "feature_sets": ["combined"],
                "model_kinds": ["extra_trees"],
                "train_s": p["train_s"],
                "test_s": p["test_s"],
                "model_params": {"extra_trees": {"n_trees": p["trees"]}},
                "shapley_permutations": p["permutations"],
                "shapley_instances": p["instances"],
            }
        )

    def run(self):
        return self._cli(["importance", "--config", "config.json", "--top", str(self.top)])

    def check(self, output):
        code, log = output
        if code != 0:
            return {}, [f"vrident importance exited {code}: {log.strip()[-500:]}"]
        attribution = self.out_dir / f"attribution_{GAME}.csv"
        summary = self.out_dir / "importance.json"
        digest = {"attribution_sha256": sha256_file(attribution), "importance_sha256": sha256_file(summary)}
        problems: list[str] = []
        self._compare(digest, problems)
        with attribution.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        names = [row["feature"] for row in rows]
        if sorted(names) != sorted(COMBINED_FEATURE_NAMES):
            problems.append(f"attribution ranks {len(names)} names, not each of the 511 features once")
        if [int(row["rank"]) for row in rows] != list(range(1, len(rows) + 1)):
            problems.append("attribution ranks are not 1..n in order")
        game = json.loads(summary.read_text(encoding="utf-8"))["games"][GAME]
        if game["status"] != "ok" or [t["feature"] for t in game["top"]] != names[: self.top]:
            problems.append(f"importance.json top-{self.top} disagrees with the attribution ranking")
        return digest, problems


WORKLOADS = {w.name: w for w in (EvaluateMatrix, IdentifyGbm, ImportanceForest)}
