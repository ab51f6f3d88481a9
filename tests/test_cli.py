import json
from dataclasses import fields

import numpy as np
import pytest

from jointdag.cli import RunConfig, main, parse_config, run
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

    def test_unreadable_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no.cfg: cannot read config file"):
            parse_config(str(tmp_path / "no.cfg"), mode="simulate")

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
            ("R", 2.5),
            ("iters", 100),
            ("seed", -1),
            ("n", 0),
            ("n", -1),
            ("n_test", 0),
        ],
    )
    def test_constraint_error_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            parse_config(None, {key: value}, mode="simulate")

    def test_missing_file_for_fit(self, tmp_path):
        with pytest.raises(ConfigError, match="'x'"):
            parse_config(None, {"x": str(tmp_path / "no.csv"), "y": str(tmp_path / "no2.csv")}, mode="fit")

    @pytest.mark.parametrize(
        "argv,key",
        [(["fit", "--x", "{d}", "--y", "{d}"], "x"), (["replicate", "--baseline", "lasso={d}"], "baseline")],
    )
    def test_directory_for_file_key_exits_2(self, tmp_path, capsys, argv, key):
        argv = [arg.format(d=tmp_path) for arg in argv]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: config key '{key}': ")

    def test_sigma2_none_literal(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sigma2=none\n")
        assert parse_config(str(path), mode="simulate").sigma2 is None

    @pytest.mark.parametrize("key,raw,value", [("R", "", None), ("R", "None", None), ("baseline", "", ())])
    def test_unset_values(self, tmp_path, key, raw, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={raw}\n")
        assert getattr(parse_config(str(path), mode="simulate"), key) == value

    @pytest.mark.parametrize("line", ["iters=", "seed=", "reps=none", "b=none", "out=none", "init="])
    def test_required_key_without_value_exits_2(self, tmp_path, capsys, line):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        key = line.split("=")[0]
        assert capsys.readouterr().err.startswith(f"error: config key '{key}': ")

    @pytest.mark.parametrize("flag,value", [("--seed", "abc"), ("--iters", "1e4"), ("--init", "warm")])
    def test_bad_flag_value_exits_2(self, tmp_path, capsys, flag, value):
        assert main(["simulate", flag, value, "--out", str(tmp_path / "o")]) == 2
        key = flag[2:]
        assert capsys.readouterr().err.startswith(f"error: config key '{key}': ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("over", [{}, {"sigma2": 1.5, "R": 7, "trace": "t.jsonl"}])
    def test_manifest_echo_round_trips(self, tmp_path, over):
        # Every annotation RunConfig uses, read back from the file format.
        out = tmp_path / "o"
        over = {"scenario": 3, "n": 20, "n_test": 5, "out": str(out)} | over
        over["baseline"] = ("lasso=l.txt", "enet=e.txt")
        cfg = parse_config(None, over, mode="simulate")
        assert run(cfg) == 0
        echo = json.loads((out / "manifest.json").read_text())["config"]
        assert set(echo) == {f.name for f in fields(RunConfig)}
        lines = []
        for key, value in echo.items():
            text = ",".join(value) if isinstance(value, list) else str(value)
            lines.append(f"{key}={'none' if value is None else text}")
        path = tmp_path / "echo.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert parse_config(str(path)) == cfg


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

    PROBS = [0.9, 0.8, 0.7, 0.2, 0.1, 0.1]

    def _evaluate_main(self, sim, tmp_path, selected, x, probs=PROBS, truth=None):
        summary = tmp_path / "summary.json"
        doc = {"selected_gamma": selected} | ({} if probs is None else {"inclusion_probs": probs})
        summary.write_text(json.dumps(doc))
        truth = tmp_path / "truth.json" if truth is None else truth
        argv = ["evaluate", "--summary", str(summary), "--truth", str(truth)]
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

    @pytest.mark.parametrize(
        "gamma0,selected,probs,truth_name,bad_file,message",
        [
            ("11x000", "110000", PROBS, "truth.json", "truth.json", "gamma0 must be"),
            (None, "110000", None, "truth.json", "summary.json", "missing key 'inclusion_probs'"),
            (None, "110000", PROBS, "X.csv", "X.csv", "not JSON"),
            (None, "120000", PROBS, "truth.json", "summary.json", "selected_gamma must be"),
        ],
        ids=["truth-gamma0-x", "summary-no-probs", "truth-is-csv", "selected-gamma-2"],
    )
    def test_evaluate_malformed_json_exits_2(
        self, sim, tmp_path, capsys, gamma0, selected, probs, truth_name, bad_file, message
    ):
        doc = json.loads((sim / "truth.json").read_text())
        doc["gamma0"] = gamma0 or doc["gamma0"]
        (tmp_path / "truth.json").write_text(json.dumps(doc))
        (tmp_path / "X.csv").write_text((sim / "X.csv").read_text())
        code = self._evaluate_main(sim, tmp_path, selected, sim / "X.csv", probs, tmp_path / truth_name)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / bad_file}: ") and message in err


    @pytest.mark.parametrize(
        "file,key,value,message",
        [
            ("truth.json", "sigma_eps2", "abc", "sigma_eps2 must be a finite number"),
            ("truth.json", "sigma_eps2", float("inf"), "sigma_eps2 must be a finite number"),
            ("truth.json", "p", 6.5, "p must be an integer"),
            ("truth.json", "seed", None, "seed must be a finite number"),
            ("truth.json", "beta0", [1.0, float("nan")] + [0.0] * 4, "beta0 must be a list"),
            ("truth.json", "beta0", [1.0, 0.5], "beta0 has 2 entries but p = 6"),
            ("truth.json", "gamma0", "11000", "gamma0 has 5 entries but p = 6"),
            ("truth.json", "edges", [[3, 7]], "edges must be a list of [child, parent]"),
            ("truth.json", "edges", [["a", 1]], "edges must be a list of [child, parent]"),
            ("truth.json", "edges", [[2, 1]], "edges must be a list of [child, parent]"),
            ("truth.json", "edges", [[1, 2, 3]], "edges must be a list of [child, parent]"),
            ("truth.json", "edges", "1-2", "edges must be a list of [child, parent]"),
            ("summary.json", "inclusion_probs", [2.0] + PROBS[1:], "inclusion_probs must lie in [0, 1]"),
            ("summary.json", "inclusion_probs", [float("nan")] + PROBS[1:], "inclusion_probs must be a list"),
            ("summary.json", "inclusion_probs", 0.5, "inclusion_probs must be a list"),
        ],
        ids=["sigma-abc", "sigma-inf", "p-fraction", "seed-null", "beta0-nan",
             "beta0-short", "gamma0-short", "edge-out-of-range", "edge-not-int",
             "edge-child-above-parent", "edge-triple", "edges-string",
             "probs-2", "probs-nan", "probs-scalar"],
    )
    def test_evaluate_bad_number_exits_2(self, sim, tmp_path, capsys, file, key, value, message):
        doc = json.loads((sim / "truth.json").read_text())
        probs = self.PROBS
        if file == "truth.json":
            doc[key] = value
        else:
            probs = value
        (tmp_path / "truth.json").write_text(json.dumps(doc))
        assert self._evaluate_main(sim, tmp_path, "110000", sim / "X.csv", probs) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / file}: {message}")


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

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1" * 150 + "\n", "has 1 selection lines for 2 replicates"),
            ("1" * 150 + "\n" + "1" * 149 + "x\n", "replicate 2's selection"),
        ],
        ids=["short", "bad-char"],
    )
    def test_bad_baseline_refused_before_chains(self, tmp_path, monkeypatch, capsys, text, message):
        from jointdag import cli

        def no_chain(*args, **kw):
            raise AssertionError("a chain ran before the baseline file was checked")

        monkeypatch.setattr(cli, "run_chain", no_chain)
        base = tmp_path / "lasso.txt"
        base.write_text(text)
        argv = ["replicate", "--scenario", "3", "--reps", "2", "--n", "25", "--n-test", "10"]
        argv += ["--baseline", f"lasso={base}", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'baseline': ") and message in err


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

    def _fit_csv(self, tmp_path, x_text, y_text="1\n2\n3\n"):
        (tmp_path / "X.csv").write_text(x_text)
        (tmp_path / "Y.csv").write_text(y_text)
        argv = ["fit", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "Y.csv")]
        return main(argv + ["--iters", "20", "--burnin", "5", "--out", str(tmp_path / "out")])

    def test_cli_ragged_csv_exits_2(self, tmp_path, capsys):
        assert self._fit_csv(tmp_path, "1,2\n3\n5,6\n") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "X.csv" in err and "row" in err

    def test_cli_nan_csv_exits_2(self, tmp_path, capsys):
        assert self._fit_csv(tmp_path, "1,2\n3,nan\n5,6\n") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "X.csv" in err and "row 2" in err

    def test_cli_short_y_exits_2(self, tmp_path, capsys):
        assert self._fit_csv(tmp_path, "1,2\n3,4\n5,6\n", y_text="1\n2\n") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "one entry per row of X" in err

    def test_cli_two_column_y_exits_2(self, tmp_path, capsys):
        assert self._fit_csv(tmp_path, "1,2\n3,4\n5,6\n", y_text="1,0\n2,0\n3,0\n") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Y.csv" in err and "one column" in err

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
