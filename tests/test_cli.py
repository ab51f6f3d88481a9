import json

import numpy as np
import pytest

from jointdag.cli import main, parse_config, run
from jointdag.errors import ConfigError
from jointdag.sampler import ChainControl
from jointdag.simdata import save_matrix_csv


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config(mode="simulate")
        assert cfg.a == 2.75 and cfg.b == 0.5
        assert cfg.a0 == 0.1 and cfg.b0 == 0.01
        assert cfg.tau2 == 1.0 and cfg.q == 0.005
        assert cfg.alpha_offset == 10.0
        assert cfg.iters == 10000 and cfg.burnin == 5000
        assert cfg.sigma2 is None and cfg.R is None

    def test_file_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nb=0\nseed=9\nscenario=2\n")
        cfg = parse_config(str(path), mode="simulate")
        assert cfg.b == 0.0 and cfg.seed == 9 and cfg.scenario == 2

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=9\n")
        cfg = parse_config(str(path), {"seed": 4}, mode="simulate")
        assert cfg.seed == 4

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("qq=0.2\n")
        with pytest.raises(ConfigError, match="qq"):
            parse_config(str(path), mode="simulate")

    def test_type_error_names_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("iters=ten\n")
        with pytest.raises(ConfigError, match="iters"):
            parse_config(str(path), mode="simulate")

    @pytest.mark.parametrize(
        "key,value",
        [
            ("q", 1.5),
            ("tau2", 0.0),
            ("a", 0.0),
            ("b", -0.5),
            ("sigma2", 0.0),
            ("a0", 0.0),
            ("b0", -1.0),
            ("alpha_offset", 2.0),
            ("R", -1),
            ("R", 0),
            ("iters", 100),
        ],
    )
    def test_constraint_error_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            parse_config(None, {key: value}, mode="simulate")

    def test_missing_file_for_fit(self, tmp_path):
        with pytest.raises(ConfigError, match="'x'"):
            parse_config(None, {"x": str(tmp_path / "no.csv"), "y": str(tmp_path / "no2.csv")}, mode="fit")

    def test_sigma2_none_literal(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sigma2=none\n")
        assert parse_config(str(path), mode="simulate").sigma2 is None


def _simulate_small(tmp_path, scenario=3, seed=5, n=40):
    out = tmp_path / "sim"
    cfg = parse_config(
        None,
        {"scenario": scenario, "setting": 1, "seed": seed, "n": n, "n_test": 20, "out": str(out)},
        mode="simulate",
    )
    assert run(cfg) == 0
    return out


class TestSimulate:
    def test_writes_artifacts(self, tmp_path):
        out = _simulate_small(tmp_path)
        for name in ("X.csv", "Y.csv", "X_test.csv", "Y_test.csv", "truth.json", "manifest.json"):
            assert (out / name).exists()
        X = np.loadtxt(out / "X.csv", delimiter=",")
        assert X.shape == (40, 150)
        truth = json.loads((out / "truth.json").read_text())
        assert truth["gamma0"].count("1") == 10

    def test_manifest_echoes_config(self, tmp_path):
        out = _simulate_small(tmp_path)
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["scenario"] == 3
        assert doc["seed"] == 5
        assert "runtime_s" in doc and "version" in doc


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    n, p = 60, 6
    X = rng.standard_normal((n, p))
    X[:, 0] += 0.8 * X[:, 1]
    beta = np.array([1.4, -1.1, 0.9, 0, 0, 0])
    Y = X @ beta + rng.standard_normal(n)
    Xt = rng.standard_normal((20, p))
    Yt = Xt @ beta + rng.standard_normal(20)
    save_matrix_csv(tmp / "X.csv", X)
    save_matrix_csv(tmp / "Y.csv", Y[:, None])
    save_matrix_csv(tmp / "X_test.csv", Xt)
    save_matrix_csv(tmp / "Y_test.csv", Yt[:, None])
    from jointdag.simdata import GroundTruth

    truth = GroundTruth(
        beta0=beta,
        gamma0=(beta != 0).astype(np.int8),
        dag0=None,
        chol0=None,
        Sigma0=np.eye(p),
        sigma_eps2=1.0,
        seed=0,
    )
    (tmp / "truth.json").write_text(truth.to_json())
    return tmp


class TestFitEvaluate:
    def _fit(self, sim, out, **over):
        overrides = {
            "x": str(sim / "X.csv"),
            "y": str(sim / "Y.csv"),
            "iters": 3000,
            "burnin": 500,
            "seed": 11,
            "out": str(out),
        } | over
        cfg = parse_config(None, overrides, mode="fit")
        assert run(cfg) == 0

    def test_fit_writes_summary_and_selection(self, sim, tmp_path):
        out = tmp_path / "fit"
        self._fit(sim, out)
        doc = json.loads((out / "summary.json").read_text())
        assert len(doc["inclusion_probs"]) == 6
        assert set(doc["selected_gamma"]) <= {"0", "1"}
        assert (out / "selected_gamma.txt").read_text().strip() == doc["selected_gamma"]
        assert (out / "selected_edges.csv").exists()

    def test_fit_rerun_byte_identical(self, sim, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            self._fit(sim, out, iters=500, burnin=100)
            blobs.append((out / "summary.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_fit_manifest_reports_memo_entries(self, sim, tmp_path):
        out = tmp_path / "memo"
        self._fit(sim, out, iters=200, burnin=50)
        entries = json.loads((out / "manifest.json").read_text())["memo_entries"]
        assert set(entries) == {"normalizer", "marginal"}
        assert all(isinstance(v, int) and v > 0 for v in entries.values())
        assert "memo_entries" not in (out / "summary.json").read_text()

    def test_fit_trace(self, sim, tmp_path):
        out = tmp_path / "tr"
        self._fit(sim, out, trace="trace.jsonl", iters=100, burnin=10)
        assert len((out / "trace.jsonl").read_text().splitlines()) == 100

    def test_evaluate(self, sim, tmp_path):
        out = tmp_path / "full"
        self._fit(sim, out)
        cfg = parse_config(
            None,
            {
                "summary": str(out / "summary.json"),
                "truth": str(sim / "truth.json"),
                "x": str(sim / "X.csv"),
                "y": str(sim / "Y.csv"),
                "x_test": str(sim / "X_test.csv"),
                "y_test": str(sim / "Y_test.csv"),
                "out": str(out),
            },
            mode="evaluate",
        )
        assert run(cfg) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert tuple(report) == ("auc", "mcc", "mspe", "n_error", "sens", "spec")
        assert report["sens"] >= 2 / 3  # strong signals recovered on this data

    def test_evaluate_dimension_mismatch(self, sim, tmp_path):
        out = tmp_path / "dim"
        self._fit(sim, out)
        bad = tmp_path / "bad_truth.json"
        doc = json.loads((sim / "truth.json").read_text())
        doc["p"] = 5
        doc["beta0"] = doc["beta0"][:5]
        doc["gamma0"] = doc["gamma0"][:5]
        bad.write_text(json.dumps(doc))
        cfg = parse_config(
            None,
            {
                "summary": str(out / "summary.json"),
                "truth": str(bad),
                "x": str(sim / "X.csv"),
                "y": str(sim / "Y.csv"),
                "x_test": str(sim / "X_test.csv"),
                "y_test": str(sim / "Y_test.csv"),
                "out": str(out),
            },
            mode="evaluate",
        )
        from jointdag.errors import DimensionError

        with pytest.raises(DimensionError):
            run(cfg)

    def _evaluate_main(self, sim, tmp_path, selected, x):
        summary = tmp_path / "summary.json"
        probs = [0.9, 0.8, 0.7, 0.2, 0.1, 0.1]
        summary.write_text(json.dumps({"selected_gamma": selected, "inclusion_probs": probs}))
        argv = ["evaluate", "--summary", str(summary), "--truth", str(tmp_path / "truth.json")]
        argv += ["--x", str(x), "--y", str(sim / "Y.csv")]
        argv += ["--x-test", str(sim / "X_test.csv"), "--y-test", str(sim / "Y_test.csv")]
        return main(argv + ["--out", str(tmp_path / "out")])

    def test_evaluate_duplicate_selected_columns_exits_2(self, sim, tmp_path, capsys):
        X = np.loadtxt(sim / "X.csv", delimiter=",")
        X[:, 0] = X[:, 1]
        save_matrix_csv(tmp_path / "X_dup.csv", X)
        (tmp_path / "truth.json").write_text((sim / "truth.json").read_text())
        assert self._evaluate_main(sim, tmp_path, "110000", tmp_path / "X_dup.csv") == 2
        assert capsys.readouterr().err.startswith("error: selected Gram matrix is singular")

    def test_evaluate_all_zero_truth_exits_2(self, sim, tmp_path, capsys):
        doc = json.loads((sim / "truth.json").read_text())
        doc["gamma0"] = "0" * 6
        doc["beta0"] = [0.0] * 6
        (tmp_path / "truth.json").write_text(json.dumps(doc))
        assert self._evaluate_main(sim, tmp_path, "100000", sim / "X.csv") == 2
        assert capsys.readouterr().err.startswith("error: truth labels are all equal")


class TestReplicate:
    def test_small_replicate_table(self, tmp_path):
        out = tmp_path / "rep"
        cfg = parse_config(
            None,
            {
                "scenario": 3,
                "setting": 1,
                "reps": 2,
                "seed": 3,
                "iters": 400,
                "burnin": 100,
                "n": 30,
                "n_test": 15,
                "out": str(out),
            },
            mode="replicate",
        )
        assert run(cfg) == 0
        lines = (out / "table.csv").read_text().splitlines()
        assert lines[0] == "method,sens,spec,auc,mcc,n_error,mspe"
        methods = [ln.split(",")[0] for ln in lines[1:]]
        assert methods == ["joint_b0.5", "joint_b0"]
        per_rep = (out / "replicates.csv").read_text().splitlines()
        assert len(per_rep) == 1 + 2 * 2

    def test_aggregate_is_exact_mean_of_replicates(self, tmp_path):
        out = tmp_path / "agg"
        cfg = parse_config(
            None,
            {
                "scenario": 3,
                "setting": 1,
                "reps": 3,
                "seed": 8,
                "iters": 300,
                "burnin": 50,
                "n": 30,
                "n_test": 15,
                "b": 0.0,
                "out": str(out),
            },
            mode="replicate",
        )
        assert run(cfg) == 0
        rep_rows = [ln.split(",") for ln in (out / "replicates.csv").read_text().splitlines()[1:]]
        table_rows = {
            ln.split(",")[0]: ln.split(",")[1:]
            for ln in (out / "table.csv").read_text().splitlines()[1:]
        }
        assert list(table_rows) == ["joint_b0"]
        for k, key in enumerate(("sens", "spec", "auc", "mcc", "n_error", "mspe")):
            vals = [float(r[2 + k]) for r in rep_rows if r[1] == "joint_b0"]
            assert float(table_rows["joint_b0"][k]) == float(np.mean(vals)), key

    def test_replicate_parallel_matches_serial(self, tmp_path):
        outs = []
        for w, name in ((1, "serial"), (2, "par")):
            out = tmp_path / name
            cfg = parse_config(
                None,
                {
                    "scenario": 3,
                    "setting": 1,
                    "reps": 2,
                    "seed": 4,
                    "iters": 200,
                    "burnin": 50,
                    "n": 25,
                    "n_test": 10,
                    "workers": w,
                    "out": str(out),
                },
                mode="replicate",
            )
            assert run(cfg) == 0
            outs.append((out / "replicates.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_each_chain_built_through_cli_chaincontrol(self, tmp_path, monkeypatch):
        # The benchmark's traced batch swaps cli.ChainControl to give every
        # replicate chain a trace file, and only those chains may use it.
        from jointdag import cli

        traces = []

        def with_trace(**kw):
            traces.append(tmp_path / f"chain-{len(traces)}.jsonl")
            return ChainControl(**kw, trace=str(traces[-1]))

        monkeypatch.setattr(cli, "ChainControl", with_trace)
        argv = ["replicate", "--scenario", "3", "--reps", "2", "--n", "25", "--n-test", "10"]
        assert main(argv + ["--iters", "30", "--burnin", "10", "--out", str(tmp_path / "o")]) == 0
        assert len(traces) == 4
        assert all(len(t.read_text().splitlines()) == 30 for t in traces)

    def test_replicate_chains_share_one_engine(self, tmp_path, monkeypatch):
        from jointdag import cli

        engines = []
        run_chain = cli.run_chain

        def recording(data, hyper, control, engine=None):
            engines.append(engine)
            return run_chain(data, hyper, control, engine)

        monkeypatch.setattr(cli, "run_chain", recording)
        argv = ["replicate", "--scenario", "3", "--reps", "2", "--n", "25", "--n-test", "10"]
        assert main(argv + ["--iters", "30", "--burnin", "10", "--out", str(tmp_path / "o")]) == 0
        assert len(engines) == 4
        assert engines[0] is engines[1] and engines[2] is engines[3]
        assert engines[0] is not engines[2]

    def test_baseline_merge(self, tmp_path):
        base = tmp_path / "lasso.txt"
        sel = "1" * 10 + "0" * 140
        base.write_text(sel + "\n" + sel + "\n")
        out = tmp_path / "repb"
        cfg = parse_config(
            None,
            {
                "scenario": 3,
                "setting": 1,
                "reps": 2,
                "seed": 3,
                "iters": 200,
                "burnin": 50,
                "n": 30,
                "n_test": 15,
                "baseline": (f"lasso={base}",),
                "out": str(out),
            },
            mode="replicate",
        )
        assert run(cfg) == 0
        lines = (out / "table.csv").read_text().splitlines()
        lasso = [ln for ln in lines if ln.startswith("lasso,")]
        assert len(lasso) == 1
        cells = lasso[0].split(",")
        assert cells[3] == ""  # no AUC for point selections
        assert float(cells[1]) == 1.0  # those replicates' truth is the first 10


class TestMain:
    def test_cli_simulate_roundtrip(self, tmp_path):
        out = tmp_path / "m"
        rc = main(
            [
                "simulate",
                "--scenario",
                "3",
                "--setting",
                "1",
                "--seed",
                "2",
                "--n",
                "25",
                "--n-test",
                "10",
                "--out",
                str(out),
            ]
        )
        assert rc == 0 and (out / "X.csv").exists()

    def test_cli_error_status(self, tmp_path, capsys):
        rc = main(["fit", "--x", str(tmp_path / "nope.csv"), "--y", str(tmp_path / "nope.csv")])
        assert rc == 2
        assert "config key" in capsys.readouterr().err

    def _fit_bad_x(self, tmp_path, x_text):
        (tmp_path / "X.csv").write_text(x_text)
        (tmp_path / "Y.csv").write_text("1\n2\n3\n")
        argv = ["fit", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv")]
        return main(argv + ["--iters", "20", "--burnin", "5", "--out", str(tmp_path / "out")])

    def test_cli_ragged_csv_exits_2(self, tmp_path, capsys):
        assert self._fit_bad_x(tmp_path, "1,2\n3\n5,6\n") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "X.csv" in err and "row" in err

    def test_cli_nan_csv_exits_2(self, tmp_path, capsys):
        assert self._fit_bad_x(tmp_path, "1,2\n3,nan\n5,6\n") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "X.csv" in err and "row 2" in err

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main(
                [
                    "simulate",
                    "--scenario",
                    "3",
                    "--setting",
                    "1",
                    "--seed",
                    "2",
                    "--n",
                    "25",
                    "--n-test",
                    "10",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            outs.append((out / "X.csv").read_bytes() + (out / "truth.json").read_bytes())
        assert outs[0] == outs[1]
