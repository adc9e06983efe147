import collections
import csv
import gc
import glob
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from heatlab import (
    ModelSpec,
    NotApplicableError,
    apply_semigroup,
    build_model,
    checks,
    cli,
    metric,
)
from heatlab.cli import (
    CampaignConfig,
    ConfigError,
    default_config,
    emit_plot_data,
    load_config_file,
    main,
    parse_config_text,
    run_campaign,
    validate_config,
)
from heatlab.reports import MarginReport, Tolerance, compare_digests, run_digest

SMALL_CFG = os.path.join(os.path.dirname(__file__), "..", "scripts", "configs",
                         "small.cfg")
SPHERE_CFG = os.path.join(os.path.dirname(__file__), "..", "bench",
                          "sphere_refine.cfg")
MINI_CFG = ("models.t.kind = torus\n"
            "models.t.dim = 1\n"
            "models.t.resolution = 32\n"
            "models.t.spectral_k = 32\n"
            "checks.ax.check = operator-axioms\n"
            "checks.ax.model = t\n")


def test_parse_dotted_config():
    cfg = parse_config_text("""
# a comment
seed = 7
output_dir = somewhere
models.t.kind = torus
models.t.dim = 1
models.t.resolution = 16
checks.ax.check = operator-axioms
checks.ax.model = t
""")
    assert cfg["seed"] == 7
    assert cfg["models"]["t"]["kind"] == "torus"
    assert cfg["checks"]["ax"]["model"] == "t"
    with pytest.raises(ConfigError):
        parse_config_text("not a key value line")


def test_json_config(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 9, "models": {}, "checks": {}}))
    assert load_config_file(str(path))["seed"] == 9


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="unknown check id"):
        CampaignConfig.from_dict({"checks": {"x": {"check": "bogus"}}})
    with pytest.raises(ConfigError, match="undefined model"):
        CampaignConfig.from_dict({
            "models": {"t": {"kind": "torus", "dim": 1, "resolution": 16}},
            "checks": {"x": {"check": "operator-axioms", "model": "nope"}}})
    with pytest.raises(ConfigError, match=r"checks\.x\.tol_abs"):
        CampaignConfig.from_dict({
            "models": {"t": {"kind": "torus", "dim": 1, "resolution": 16}},
            "checks": {"x": {"check": "operator-axioms", "model": "t",
                             "tol_abs": -1.0}}})
    with pytest.raises(ConfigError, match="models.bad"):
        CampaignConfig.from_dict({"models": {"bad": {"kind": "nonsense"}},
                                  "checks": {}})


def _mini_config(tmp_path, seed=11):
    cfg = CampaignConfig.from_dict({
        "seed": seed,
        "models": {
            "t": {"kind": "torus", "dim": 1, "resolution": 32,
                  "spectral_k": 32},
        },
        "checks": {
            "ax": {"check": "operator-axioms", "model": "t"},
            "laws": {"check": "kernel-laws", "model": "t"},
            "spec": {"check": "spectrum", "model": "t", "count": 5,
                     "rtol": 0.02},
        },
    })
    cfg.output_dir = os.path.join(tmp_path, "out")
    cfg.cache_dir = os.path.join(tmp_path, "cache")
    return cfg


def _read_all(out):
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


def test_mini_campaign_rerun_is_byte_identical(tmp_path):
    cfg = _mini_config(str(tmp_path))
    assert run_campaign(cfg, log=lambda *a: None) == 0
    out = os.listdir(cfg.output_dir)
    assert "summary.csv" in out and "ax.json" in out
    rep = MarginReport.load(os.path.join(cfg.output_dir, "ax.json"))
    assert rep.passed
    # a rerun into the same directory computes every report again and
    # writes the same bytes
    before = _read_all(cfg.output_dir)
    lines = []
    assert run_campaign(cfg, log=lines.append) == 0
    assert len(lines) == len(cfg.checks)
    assert _read_all(cfg.output_dir) == before


def test_campaign_failure_exit_code(tmp_path):
    cfg = _mini_config(str(tmp_path))
    cfg.checks["spec"]["rtol"] = 1e-9        # unattainably tight
    assert run_campaign(cfg, log=lambda *a: None) == 1


def test_campaign_reruns_on_config_change(tmp_path):
    # the sandwich's node pairs are drawn from the seed
    dumps = []
    for seed in (11, 12):                     # same dirs, new seed
        cfg = _mini_config(str(tmp_path), seed=seed)
        cfg.checks["pairs"] = {"check": "distance-sandwich", "model": "t", "n_pairs": 8}
        assert run_campaign(cfg, log=lambda *a: None) == 0
        dumps.append(MarginReport.load(os.path.join(cfg.output_dir, "pairs.json")).dumps())
    assert dumps[0] != dumps[1]


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("checks.x.check = bogus\n")
    assert main(["campaign", "--config", str(bad)]) == 2

    cfgfile = tmp_path / "mini.cfg"
    cfgfile.write_text(MINI_CFG)
    out = str(tmp_path / "o")
    cache = str(tmp_path / "c")
    assert main(["campaign", "--config", str(cfgfile), "--out", out,
                 "--cache", cache]) == 0
    assert main(["check", "--check", "ax", "--config", str(cfgfile),
                 "--out", out, "--cache", cache]) == 0
    assert main(["build", "--model", "t", "--config", str(cfgfile),
                 "--cache", cache]) == 0


def test_command_line_overrides_are_validated(tmp_path):
    # an override passes the same checks as the config key it replaces
    cfgfile = tmp_path / "mini.cfg"
    cfgfile.write_text(MINI_CFG)
    out = tmp_path / "o"
    assert main(["campaign", "--config", str(cfgfile), "--out", str(out),
                 "--cache", str(tmp_path / "c"), "--seed", "-1000"]) == 2
    assert not out.exists()
    with pytest.raises(ConfigError, match="seed"):
        CampaignConfig.from_dict({"seed": -1})


@pytest.mark.parametrize("value", ["2", "0", "true"])
def test_workers_other_than_one_exit_2(tmp_path, capsys, value):
    # campaigns run on one thread: 1 is the only accepted worker count
    cfgfile = tmp_path / "w.cfg"
    cfgfile.write_text(MINI_CFG + f"workers = {value}\n")
    out = tmp_path / "o"
    assert main(["campaign", "--config", str(cfgfile), "--out", str(out),
                 "--cache", str(tmp_path / "c")]) == 2
    assert "configuration error: workers:" in capsys.readouterr().err
    assert not out.exists()


def test_workers_option_is_gone(tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as info:
        main(["campaign", "--workers", "2", "--out", str(out)])
    assert info.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_build_fills_the_cache_the_campaign_reads(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "laws.cfg"
    cfgfile.write_text(MINI_CFG + "checks.laws.check = kernel-laws\n"
                                  "checks.laws.model = t\n")
    args = ["--config", str(cfgfile), "--cache", str(tmp_path / "c")]
    assert main(["build", "--model", "t", *args]) == 0
    assert [p.name for p in (tmp_path / "c").glob("*.spec")] == ["t-k32.spec"]

    def no_solve(*a, **kw):
        raise AssertionError("the campaign missed the cache that build filled")
    monkeypatch.setattr("heatlab.semigroup.spectral_decompose", no_solve)
    assert main(["campaign", *args, "--out", str(tmp_path / "o")]) == 0

    with pytest.raises(SystemExit) as info:       # the size comes from the config
        main(["build", "--model", "t", "-k", "8", *args])
    assert info.value.code == 2
    capsys.readouterr()
    for k, message in (("0", "at least 1"), ("999", "at most the 32 nodes")):
        cfgfile.write_text(MINI_CFG.replace("spectral_k = 32", f"spectral_k = {k}"))
        assert main(["build", "--model", "t", *args]) == 2
        assert (f"configuration error: models.t.spectral_k: must be {message}"
                in capsys.readouterr().err)


def test_small_campaign_independent_of_cache(tmp_path, monkeypatch):
    # a cold run, then a warm rerun on its cache into a new output directory
    outs = []
    for run in range(2):
        if run == 1:
            def no_solve(*args, **kwargs):
                raise AssertionError("warm rerun recomputed a spectrum")
            monkeypatch.setattr("heatlab.semigroup.spectral_decompose", no_solve)
        cfg = CampaignConfig.from_dict(load_config_file(SMALL_CFG))
        cfg.output_dir = str(tmp_path / f"out{run}")
        cfg.cache_dir = str(tmp_path / "cache")
        assert run_campaign(cfg, log=lambda *a: None) == 0
        outs.append(cfg.output_dir)
    names = sorted(os.listdir(outs[0]))
    assert "summary.csv" in names and len(names) == len(cfg.checks) + 2
    for other in outs[1:]:
        assert sorted(os.listdir(other)) == names
        for name in names:
            with open(os.path.join(outs[0], name), "rb") as a, \
                    open(os.path.join(other, name), "rb") as b:
                assert a.read() == b.read(), f"{other}/{name} differs"


def test_small_campaign_runs_each_dijkstra_once(tmp_path, monkeypatch):
    # every graph distance of a cold campaign comes from one Dijkstra run
    # per (model, source), whichever checks ask for it
    runs = collections.Counter()
    real = metric.graph_distance

    def counted(model, source):
        runs[model.model_id, int(source)] += 1
        return real(model, source)
    monkeypatch.setattr(metric, "graph_distance", counted)
    cfg = CampaignConfig.from_dict(load_config_file(SMALL_CFG))
    cfg.output_dir = str(tmp_path / "out")
    cfg.cache_dir = str(tmp_path / "cache")
    assert run_campaign(cfg, log=lambda *a: None) == 0
    assert len(runs) == 19
    assert max(runs.values()) == 1


def test_small_campaign_independent_of_blas_threads(tmp_path):
    # the same campaign at one and at two BLAS threads, each in a fresh
    # interpreter, since the thread count is read when numpy loads
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = str(tmp_path / f"out{threads}")
        run = subprocess.run([sys.executable, "-m", "heatlab.cli", "campaign",
                              "--config", SMALL_CFG, "--out", out,
                              "--cache", str(tmp_path / f"cache{threads}")],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        digests.append(run_digest(out))
    rows = compare_digests(*digests)
    assert len(rows) == len(load_config_file(SMALL_CFG)["checks"])
    moved = [row for row in rows if row[1] != row[2] or not row[3] <= 1e-12]
    assert not moved, f"(report, verdict at 1, verdict at 2, move / scale): {moved}"


def test_spectral_k_beyond_node_count_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "big-k.cfg"
    cfgfile.write_text(MINI_CFG.replace("spectral_k = 32", "spectral_k = 999"))
    out = tmp_path / "o"
    assert main(["campaign", "--config", str(cfgfile), "--out", str(out),
                 "--cache", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "models.t.spectral_k: must be at most the 32 nodes" in err
    assert not out.exists()


def test_partial_run_keeps_the_summaries(tmp_path):
    cfgfile = tmp_path / "two.cfg"
    cfgfile.write_text(MINI_CFG + "checks.laws.check = kernel-laws\n"
                                  "checks.laws.model = t\n")
    args = ["--config", str(cfgfile), "--out", str(tmp_path / "o"),
            "--cache", str(tmp_path / "c")]
    assert main(["campaign", *args]) == 0
    summaries = {name: (tmp_path / "o" / name).read_bytes()
                 for name in ("summary.csv", "summary.txt")}
    assert b"laws" in summaries["summary.csv"]
    assert main(["check", "--check", "ax", *args]) == 0
    for name, data in summaries.items():
        assert (tmp_path / "o" / name).read_bytes() == data, name


def test_each_check_logs_before_the_next_starts(tmp_path, monkeypatch):
    cfg = _mini_config(str(tmp_path))
    events = []
    for cid, runner in list(cli.CHECK_RUNNERS.items()):
        def started(ctxs, spec, cfg, name, runner=runner):
            events.append(("start", name))
            return runner(ctxs, spec, cfg, name)
        monkeypatch.setitem(cli.CHECK_RUNNERS, cid, started)
    assert run_campaign(cfg, log=lambda line: events.append(
        ("log", line.split()[1]))) == 0
    assert events == [(kind, name) for name in cfg.checks
                      for kind in ("start", "log")]


def _interleaved_config(out):
    cfg = CampaignConfig.from_dict({
        "models": {"t": {"kind": "torus", "dim": 1, "resolution": 32,
                         "spectral_k": 32},
                   "b": {"kind": "euclidean", "dim": 2, "resolution": 12,
                         "extent": 1.0}},
        "checks": {"ax-t": {"check": "operator-axioms", "model": "t"},
                   "ax-b": {"check": "operator-axioms", "model": "b"},
                   "laws-t": {"check": "kernel-laws", "model": "t"}}})
    cfg.output_dir, cfg.cache_dir = os.path.join(out, "out"), os.path.join(out, "cache")
    return cfg


def test_checks_run_grouped_by_model_and_each_model_is_dropped(tmp_path, monkeypatch):
    cfg = _interleaved_config(str(tmp_path / "all"))
    started, models, dead_at_b = [], {}, []
    for cid, runner in list(cli.CHECK_RUNNERS.items()):
        def wrapped(ctxs, spec, cfg, name, runner=runner):
            model_name = spec["model"]
            if model_name == "b" and not dead_at_b:
                dead_at_b.append(models["t"]() is None)
            started.append((name, list(ctxs)))
            rep = runner(ctxs, spec, cfg, name)
            models[model_name] = weakref.ref(ctxs[model_name].model)
            return rep
        monkeypatch.setitem(cli.CHECK_RUNNERS, cid, wrapped)
    gc.disable()          # freed by reference counts alone, not by a collection
    try:
        assert run_campaign(cfg, log=lambda *a: None) == 0
    finally:
        gc.enable()
    # run order, each runner given its own model's context only
    assert started == [("ax-t", ["t"]), ("laws-t", ["t"]), ("ax-b", ["b"])]
    assert dead_at_b == [True]
    with open(os.path.join(cfg.output_dir, "summary.csv"), newline="") as fh:
        assert [row[0] for row in csv.reader(fh)][1:] == list(cfg.checks)
    with open(os.path.join(cfg.output_dir, "summary.txt")) as fh:
        assert [line.split()[0] for line in fh] == list(cfg.checks)
    for name in cfg.checks:
        alone = _interleaved_config(str(tmp_path / name))
        assert run_campaign(alone, only={name}, log=lambda *a: None) == 0
        with open(os.path.join(alone.output_dir, f"{name}.json"), "rb") as fh:
            with open(os.path.join(cfg.output_dir, f"{name}.json"), "rb") as gh:
                assert fh.read() == gh.read(), name


def test_hand_edited_report_is_overwritten_on_rerun(tmp_path):
    # a report file on disk never stands in for the check: a rerun into the
    # same directory computes it again and replaces the edited file
    cfg = CampaignConfig.from_dict(load_config_file(SMALL_CFG))
    cfg.output_dir = str(tmp_path / "out")
    cfg.cache_dir = str(tmp_path / "cache")
    assert run_campaign(cfg, log=lambda *a: None) == 0
    before = _read_all(cfg.output_dir)
    path = os.path.join(cfg.output_dir, "gap-sphere.json")
    edited = MarginReport.load(path)
    edited.min_margin = -1.0
    edited.save(path)
    assert not MarginReport.load(path).passed
    lines = []
    assert run_campaign(cfg, log=lines.append) == 0
    assert not any("FAILED" in line for line in lines)
    assert _read_all(cfg.output_dir) == before


def test_plot_emission(tmp_path, sphere):
    import numpy as np

    from heatlab.checks import check_li_yau, check_volume_regularity
    from heatlab.suites import positive_fields
    from heatlab.models import node_nearest

    model, oracle, spectral = sphere
    suite = positive_fields(model, spectral)[:2]
    rep = check_li_yau(model, oracle, suite, [0.25, 0.5],
                       mode="general-alpha", alpha=1.0)
    files = emit_plot_data(rep, "li-yau", str(tmp_path), "li-yau-sphere")
    assert os.path.basename(files[0]) == "li-yau-sphere-li-yau.csv"
    header = open(files[0]).readline().strip().split(",")
    assert header == ["t", "node", "lhs", "rhs", "margin"]
    assert open(files[1]).read().startswith("<svg")

    pole = node_nearest(model, [0, 0, 1])
    vol = check_volume_regularity(model, oracle, [pole], [0.35, 0.5, 0.7])
    dfiles = emit_plot_data(vol, "doubling", str(tmp_path), "volume-sphere")
    rows = [r.split(",") for r in open(dfiles[0]).read().splitlines()]
    assert rows[0] == ["r", "ratio", "monotone_r"]
    assert all(r[2] == "1" for r in rows[1:])

    # the Li-Yau rows are read from the samples, not from a copy of them;
    # reports that still carry one (as metadata.series), and doubling series
    # of (r, ratio) rows, give the same CSV through `heatlab report`
    assert "series" not in rep.metadata
    columns = ["t", "node", "lhs", "rhs", "margin"]
    rep.metadata.update(series_columns=columns, series=[
        [s[c] for c in columns] for s in rep.samples if "t" in s])
    vol.metadata.update(series_columns=["r", "ratio"], series=[
        [r, ratio] for x, r, v_r, v_2r, ratio in vol.metadata["series"]])
    # `heatlab report` names the files after the report file, the check's
    # config name in a campaign's output
    for old, kind, new in ((rep, "li-yau", files[0]), (vol, "doubling", dfiles[0])):
        name = os.path.basename(new)[:-len(f"-{kind}.csv")]
        path = str(tmp_path / "old" / f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        old.save(path)
        out = tmp_path / f"old-{kind}"
        assert main(["report", "--report", path, "--kind", kind, "--out", str(out)]) == 0
        assert (out / os.path.basename(new)).read_bytes() == open(new, "rb").read()

    with pytest.raises(ValueError):
        emit_plot_data(rep, "histogram", str(tmp_path), "li-yau-sphere")


def test_margins_report_csv(tmp_path, capsys):
    rep = MarginReport("demo", "m1", [
        {"x": 1, "margin": 0.1, "lhs": 1 / 3},
        {"margin": -2.5e-17, "ys": [3, 1], "extra": {"b": 1, "a": 2}},
    ], min_margin=-2.5e-17, tolerance=Tolerance(1e-12))
    # sample keys in the order they first appear, floats by repr, lists and
    # dicts as sorted-key JSON, absent keys empty
    assert rep.csv_rows() == [
        ["check_id", "model_id", "x", "margin", "lhs", "ys", "extra"],
        ["demo", "m1", 1, "0.1", "0.3333333333333333", None, None],
        ["demo", "m1", None, "-2.5e-17", None, "[3, 1]", '{"a": 2, "b": 1}'],
    ]
    # the command line reads the saved report, whose samples have sorted keys
    path = tmp_path / "demo.json"
    rep.save(str(path))
    assert main(["report", "--report", str(path), "--kind", "margins",
                 "--out", str(tmp_path / "plots")]) == 0
    base = tmp_path / "plots" / "demo-margins"
    assert capsys.readouterr().out.split() == [f"{base}.csv", f"{base}.svg"]
    with open(f"{base}.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["check_id", "model_id", "lhs", "margin", "x", "extra", "ys"],
        ["demo", "m1", "0.3333333333333333", "0.1", "1", "", ""],
        ["demo", "m1", "", "-2.5e-17", "", '{"a": 2, "b": 1}', "[3, 1]"],
    ]


def test_entropy_plot_slope_consistency(tmp_path, sphere):
    from heatlab.checks import check_log_sobolev
    from heatlab.suites import positive_fields

    model, oracle, spectral = sphere
    suite = positive_fields(model, spectral)
    rep = check_log_sobolev(model, oracle, suite)
    files = emit_plot_data(rep, "entropy", str(tmp_path), "log-sobolev-sphere")
    lines = open(files[0]).read().splitlines()
    slope_header = float(lines[0].split("=")[1])
    data = np.array([[float(a) for a in ln.split(",")] for ln in lines[2:]])
    refit = np.polyfit(data[:, 0], data[:, 1], 1)[0]
    assert refit == pytest.approx(slope_header, abs=1e-9)
    assert refit == pytest.approx(rep.metadata["entropy_slope"], abs=1e-12)


def test_featured_plots_get_distinct_paths(tmp_path):
    # volume-heis and volume-euclid2 are both volume-doubling reports: each
    # featured plot is named after its check, so none overwrites another
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "run_default_campaign.py")
    spec = importlib.util.spec_from_file_location("run_default_campaign", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    reports = {
        "li-yau": MarginReport("li-yau", "m", [
            {"t": 0.1, "node": 3, "lhs": 0.5, "rhs": 1.0, "margin": 0.5}],
            min_margin=0.5, tolerance=Tolerance(1e-12)),
        "doubling": MarginReport("volume-doubling", "m", [], min_margin=0.0,
                                 tolerance=Tolerance(1e-12), metadata={
            "series_columns": ["x", "r", "volume_r", "volume_2r", "ratio"],
            "series": [[0, 0.1, 1.0, 4.0, 4.0], [0, 0.2, 4.0, 15.0, 3.75]]}),
        "entropy": MarginReport("log-sobolev", "m", [], min_margin=0.0,
                                tolerance=Tolerance(1e-12), metadata={
            "entropy_series": [[0.1, -1.0], [0.2, -2.0]], "entropy_slope": -10.0}),
    }
    for name, kind in script.PLOTS:
        reports[kind].save(str(tmp_path / f"{name}.json"))
    written = script.emit_featured_plots(str(tmp_path))
    assert len(written) == 2 * len(script.PLOTS) == len(set(written))
    assert all(os.path.exists(p) for p in written)
    assert str(tmp_path / "plots" / "volume-heis-doubling.csv") in written


def test_config_from_dict_leaves_input_intact():
    data = load_config_file(SMALL_CFG)
    first = CampaignConfig.from_dict(data)
    second = CampaignConfig.from_dict(data)
    expected = {"torus": 64, "box": 300, "sphere": 200}
    assert first.spectral_k == expected
    assert second.spectral_k == expected
    assert data["models"]["torus"]["spectral_k"] == 64
    assert "spectral_k" not in second.models["torus"].options


def test_default_config_is_valid():
    cfg = default_config()
    assert len(cfg.checks) >= 30
    # every check id resolves and every referenced model exists
    for name, spec in cfg.checks.items():
        assert spec["check"] in cli.CHECK_RUNNERS
        assert spec["model"] in cfg.models
    validate_config(cfg)


def test_every_default_model_evolves_by_the_exact_flow(tmp_path):
    # the flow takes the blocks route exactly on the models that carry a
    # structure marker, and every grid and sphere carries one: one that fell
    # back to the Chebyshev series would fail here
    cfg = default_config()
    for name, spec in cfg.models.items():
        ctx = cli.ModelContext(name, spec, str(tmp_path), cfg.seed,
                               k=cfg.spectral_k.get(name))
        model = ctx.model
        apply_semigroup(model, model.constant(1.0), 1e-3)
        marked = "structure" in model.meta
        assert marked == (model.kind in ("euclidean", "torus", "sphere")), name
        key, other = ("_blocks", "_chebyshev") if marked else ("_chebyshev", "_blocks")
        assert key in model.derived and other not in model.derived, name
        # the model keeps the flow's state, so a second evolve reuses it
        state = model.derived[key]
        apply_semigroup(model, model.constant(1.0), 2e-3)
        assert model.derived[key] is state, name


def _reports_at_seeds_42_and_43(tmp_path, name):
    reports = []
    for seed in ("42", "43"):
        out = tmp_path / seed
        assert main(["check", "--check", name, "--seed", seed, "--out", str(out),
                     "--cache", str(tmp_path / f"cache{seed}")]) == 0
        reports.append((out / f"{name}.json").read_bytes())
    return reports


@pytest.mark.parametrize("name", ["neumann-square", "neumann-cap-sphere",
                                  "ball-poincare-heis", "neumann-interval"])
def test_eigensolve_reports_do_not_follow_the_seed(tmp_path, name):
    # the first three solve their submodel by eigsh, the last by the dense
    # solver; no start vector is drawn from the seed, so the bytes agree
    reports = _reports_at_seeds_42_and_43(tmp_path, name)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name", ["axioms-torus1", "axioms-euclid1", "axioms-euclid2",
                                  "axioms-euclid3", "axioms-sphere", "axioms-heis",
                                  "kernel-laws-torus1", "kernel-laws-sphere"])
def test_probe_reports_do_not_follow_the_seed(tmp_path, name):
    # the random fields and probe nodes of these checks test identities of
    # the code and are drawn from PROBE_SEED, so the bytes agree
    reports = _reports_at_seeds_42_and_43(tmp_path, name)
    assert reports[0] == reports[1]


# reports whose only random draw is their suite
SUITE_REPORTS = ["cd-sphere", "cd-scan-heis", "cd-generalized-heis", "gradient-bound-sphere",
                 "li-yau-euclid2", "li-yau-sphere-alpha1", "bakry-qian-sphere",
                 "li-yau-exponential-sphere", "li-yau-heis", "log-sobolev-sphere",
                 "sobolev-embedding-euclid3", "sobolev-sharp-sphere"]


@pytest.fixture(scope="module")
def suite_reports_at_seeds_42_and_43(tmp_path_factory):
    # one partial default campaign per seed, so each model is built once
    tmp = tmp_path_factory.mktemp("suites")
    runs = []
    for seed in (42, 43):
        cfg = default_config()
        cfg.seed, cfg.output_dir, cfg.cache_dir = seed, str(tmp / str(seed)), str(tmp / "c")
        assert run_campaign(cfg, only=set(SUITE_REPORTS), log=lambda *a: None) == 0
        runs.append({name: (tmp / str(seed) / f"{name}.json").read_bytes()
                     for name in SUITE_REPORTS})
    return runs


@pytest.mark.parametrize("name", SUITE_REPORTS)
def test_suite_reports_do_not_follow_the_seed(suite_reports_at_seeds_42_and_43, name):
    # a suite is a function of the model: its random members are drawn
    # from PROBE_SEED, so the bytes agree
    at42, at43 = suite_reports_at_seeds_42_and_43
    assert at42[name] == at43[name]


@pytest.mark.parametrize("argv", [["refinement_study.py"], ["memory_trace.py", SMALL_CFG]],
                         ids=lambda argv: argv[0])
def test_scripts_exit_0(tmp_path, argv):
    # the scripts call the library directly, so a changed signature breaks them
    scripts = os.path.join(os.path.dirname(__file__), "..", "scripts")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    run = subprocess.run([sys.executable, os.path.join(scripts, argv[0]), *argv[1:]],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert not os.listdir(tmp_path)


SHIPPED_CFGS = sorted(glob.glob(os.path.join(os.path.dirname(SMALL_CFG), "*.cfg")))


@pytest.mark.parametrize("path", SHIPPED_CFGS + [SPHERE_CFG],
                         ids=os.path.basename)
def test_shipped_configs_parse(path):
    # every shipped config passes the key, type and choice checks, so a key
    # removed from the grammar cannot strand one of them
    assert CampaignConfig.from_dict(load_config_file(path)).checks


SPECTRUM_CFG = MINI_CFG + ("checks.sp.check = spectrum\n"
                           "checks.sp.model = t\n")


TYPOS = [
    (MINI_CFG + "models.t.resolutoin = 48\n", "models.t.resolutoin"),
    (MINI_CFG + "models.t.options.perod = 6.0\n", "models.t.options.perod"),
    (MINI_CFG + "models.t.options.z_extent = 0.1\n", "models.t.options.z_extent"),
    (MINI_CFG + "models.t.dim = two\n", "models.t.dim"),
    (MINI_CFG + "models.t.extent = 3.0\n", "models.t.extent"),
    ("models.s.kind = sphere\nmodels.s.extent = 5.0\n"
     "checks.ax.check = operator-axioms\nchecks.ax.model = s\n", "models.s.extent"),
    ("models.s.kind = sphere\nmodels.s.dim = 3\n"
     "checks.ax.check = operator-axioms\nchecks.ax.model = s\n", "models.s.dim"),
    ("models.s.kind = sphere\nmodels.s.options.mesh = icosahedral\n"
     "checks.ax.check = operator-axioms\nchecks.ax.model = s\n",
     "models.s.options.mesh"),
    (SPECTRUM_CFG + "checks.sp.cuont = 9\n", "checks.sp.cuont"),
    (SPECTRUM_CFG + 'checks.sp.count = "nine"\n', "checks.sp.count"),
    (SPECTRUM_CFG + "checks.sp.rtol = [0.02]\n", "checks.sp.rtol"),
    (MINI_CFG + "checks.c.check = cd\nchecks.c.model = t\n"
     "checks.c.mode = riemanian\n", "checks.c.mode"),
    (MINI_CFG + "checks.c.check = cd\nchecks.c.model = t\n"
     "checks.c.suite = eigne\n", "checks.c.suite"),
    (MINI_CFG + "checks.h.check = harnack\nchecks.h.model = t\n"
     "checks.h.distance = graph\n", "checks.h.distance"),
    (MINI_CFG + "checks.v.check = volume-doubling\nchecks.v.model = t\n"
     "checks.v.distance = graph\n", "checks.v.distance"),
    (MINI_CFG + "checks.v.check = volume-doubling\nchecks.v.model = t\n"
     "checks.v.radii = [0.1, 0.2]\nchecks.v.shell_radii = [3, 4]\n", "checks.v"),
    *[(MINI_CFG + f"checks.{kind}.check = {kind}\nchecks.{kind}.model = t\n"
       f"checks.{kind}.t_grid = [0.0, 0.1]\n", f"checks.{kind}.t_grid")
      for kind in ("li-yau", "gradient-bound", "completeness", "kernel-bounds")],
    # a count of 0 (or less) would leave a check with no sample to gate
    (MINI_CFG + "checks.ds.check = distance-sandwich\nchecks.ds.model = t\n"
     "checks.ds.n_pairs = 0\n", "checks.ds.n_pairs"),
    (MINI_CFG + "checks.h.check = harnack\nchecks.h.model = t\n"
     "checks.h.n_pairs = -3\n", "checks.h.n_pairs"),
    (MINI_CFG + "checks.sq.check = spectrum\nchecks.sq.model = t\n"
     "checks.sq.count = 0\n", "checks.sq.count"),
    (MINI_CFG + "checks.v.check = volume-doubling\nchecks.v.model = t\n"
     "checks.v.radii = [-0.1, 0.2]\n", "checks.v.radii"),
    (MINI_CFG + "checks.v.check = volume-doubling\nchecks.v.model = t\n"
     "checks.v.shell_radii = [-1, 2]\n", "checks.v.shell_radii"),
    (MINI_CFG + "checks.k.check = kernel-bounds\nchecks.k.model = t\n"
     "checks.k.radii = [0.0, 0.2]\n", "checks.k.radii"),
    # s = 0 divides by zero and a gap of 0 makes s = t; li-yau needs a
    # positive suite, which eps_shift cannot make of an eigenfield or a
    # coordinate
    (MINI_CFG + "checks.h.check = harnack\nchecks.h.model = t\n"
     "checks.h.s_grid = [-0.1]\n", "checks.h.s_grid"),
    (MINI_CFG + "checks.h.check = harnack\nchecks.h.model = t\n"
     "checks.h.gap_grid = [0.0]\n", "checks.h.gap_grid"),
    *[(MINI_CFG + f"checks.{name}.check = li-yau\nchecks.{name}.model = t\n"
       f"checks.{name}.suite = {suite}\n", f"checks.{name}.suite")
      for name, suite in (("le", "eigen"), ("lc", "coordinate"))],
    (MINI_CFG + "workers = many\n", "workers"),
    (MINI_CFG + "seed = 1.5\n", "seed"),
    (MINI_CFG + "sede = 3\n", "sede"),
]

# a key set twice is named like a typo of it; the ids say "twice" so that
# they do not clash with the typo cases of the same key
REPEATED_KEYS = [
    (MINI_CFG + "seed = 1\nseed = 7\n", "seed"),
    ("models.a.kind = sphere\nmodels.a = 3\n", "models.a"),
]


@pytest.mark.parametrize("text, field", TYPOS + REPEATED_KEYS,
                         ids=[f for _, f in TYPOS]
                         + [f"{f}-twice" for _, f in REPEATED_KEYS])
def test_config_typos_exit_2_and_write_nothing(tmp_path, capsys, text, field):
    cfgfile = tmp_path / "typo.cfg"
    cfgfile.write_text(text)
    out = tmp_path / "o"
    assert main(["campaign", "--config", str(cfgfile), "--out", str(out),
                 "--cache", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {field}:" in err, err
    assert not out.exists()


def test_config_key_given_twice_names_both_lines():
    with pytest.raises(ConfigError, match="^seed: line 3 sets it again; line 1 sets it$"):
        parse_config_text("seed = 1\n# seven\nseed = 7\n")
    with pytest.raises(ConfigError, match="^models.a: line 2 sets it again; "
                       "line 1 opens a table$"):
        parse_config_text("models.a.kind = sphere\nmodels.a = 3\n")
    with pytest.raises(ConfigError, match="^models.a.kind: line 2 nests under the "
                       "scalar models.a of line 1$"):
        parse_config_text("models.a = 3\nmodels.a.kind = sphere\n")


def test_distance_is_an_unknown_key_and_radii_take_one_form():
    # a model has one distance, so no check takes a distance route
    for kind, accepted in (
            ("harnack", "mode, suite, n_pairs, s_grid, gap_grid"),
            ("volume-doubling", "radii, shell_radii, centers, ratio_window, "
                                "monotone_upper, tol_rel")):
        data = parse_config_text(MINI_CFG + f"checks.x.check = {kind}\n"
                                 "checks.x.model = t\nchecks.x.distance = graph\n")
        with pytest.raises(ConfigError) as info:
            CampaignConfig.from_dict(data)
        assert str(info.value) == (f"checks.x.distance: unknown key "
                                   f"(accepted: check, model, {accepted})")
    # shell_radii would replace radii without a word
    data = parse_config_text(MINI_CFG + "checks.v.check = volume-doubling\n"
                             "checks.v.model = t\nchecks.v.radii = [0.1, 0.2]\n"
                             "checks.v.shell_radii = [3, 4]\n")
    with pytest.raises(ConfigError, match="^checks.v: radii and shell_radii both set; "
                       "give one of them$"):
        CampaignConfig.from_dict(data)
    data = parse_config_text(MINI_CFG + "checks.c.check = completeness\n"
                             "checks.c.model = t\nchecks.c.t_grid = [1.0, -0.5]\n")
    with pytest.raises(ConfigError, match="^checks.c.t_grid: must be a list of "
                       "positive times$"):
        CampaignConfig.from_dict(data)


def test_kernel_bounds_t_grid_beyond_the_interior_is_not_applicable():
    model, _ = build_model(ModelSpec("euclidean", dim=2, resolution=16, extent=1.0))
    ctx = collections.namedtuple("Ctx", "model")(model)
    with pytest.raises(NotApplicableError, match="^t_grid: "):
        cli._bind_kernel_bounds(ctx, {"t_grid": [1.0]}, np.random.default_rng(0))


BOX16 = ("models.b.kind = euclidean\nmodels.b.dim = 2\nmodels.b.resolution = 16\n"
         "models.b.extent = {extent}\n")
SPHERE16 = "models.s.kind = sphere\nmodels.s.resolution = 16\n"
SPHERE8 = "models.s.kind = sphere\nmodels.s.resolution = 8\n"
TORUS = "models.s.kind = torus\nmodels.s.dim = {dim}\nmodels.s.resolution = {res}\n"
HEIS9 = "models.h.kind = heisenberg\nmodels.h.dim = 3\nmodels.h.resolution = 9\n"
HARNACK_FAST = (BOX16.format(extent=1.5) + "checks.h.check = harnack\nchecks.h.model = b\n"
                "checks.h.s_grid = [0.001]\nchecks.h.gap_grid = [0.001]\n")
# (config, the one line on stderr after "configuration error: ")
NOT_APPLICABLE = [
    (BOX16.format(extent=1.0) + "models.b.spectral_k = 50\n"
     "checks.k.check = kernel-bounds\nchecks.k.model = b\nchecks.k.t_grid = [1.0]\n",
     "checks.k: t_grid: no interior node lies 2.4 sqrt(t) from the boundary at t = 1"),
    (BOX16.format(extent=1.5) + "checks.v.check = volume-doubling\nchecks.v.model = b\n"
     "checks.v.radii = [0.8]\n",
     "checks.v: radii reach the truncation boundary (safe range 1.3125)"),
    (BOX16.format(extent=1.5) + "checks.l.check = li-yau\nchecks.l.model = b\n"
     "checks.l.suite = delta\nchecks.l.t_grid = [0.001]\n",
     "checks.l: P_t point-source not positive on the interior at t = 0.001"),
    (SPHERE16 + "checks.l.check = li-yau\nchecks.l.model = s\n"
     "checks.l.mode = bakry-qian\nchecks.l.t_grid = [0.5]\n",
     "checks.l: t_grid: bakry-qian mode needs t >= 2/rho = 2, got 0.5"),
    (HEIS9 + "checks.l.check = li-yau\nchecks.l.model = h\n"
     "checks.l.mode = sub-riemannian\nchecks.l.suite = sub-riemannian\n",
     "checks.l: alpha: sub-riemannian mode needs alpha > 2, got None"),
    # the Gaussian factor exp(d^2 / (4 (t - s))) overflows at t - s = 0.001
    (HARNACK_FAST,
     "checks.h: harnack-riemannian sample field=bump-183, x=154, s=0.001, y=51, "
     "t=0.002, d=1.7286645857424163 is not finite: rhs=inf, margin=nan"),
    # P_t of the point source rounds below 0 far from it
    (HARNACK_FAST + "checks.h.suite = delta\n",
     "checks.h: P_t point-source not positive at x = 221 at t = 0.001"),
    # the cap is centred at the pole (0, 0, 1), a point of no flat chart
    (BOX16.format(extent=1.5) + "checks.n.check = neumann-poincare\nchecks.n.model = b\n"
     "checks.n.domain = cap\n",
     "checks.n: point [0.0, 0.0, 1.0] has 3 coordinates; the chart of model "
     "'euclidean2d-m16-a1.5' has 2"),
    ("models.t.kind = torus\nmodels.t.dim = 1\nmodels.t.resolution = 32\n"
     "checks.n.check = neumann-poincare\nchecks.n.model = t\n"
     "checks.n.domain = cap\n",
     "checks.n: point [0.0, 0.0, 1.0] has 3 coordinates; the chart of model "
     "'torus1d-m32-P6.28319' has 1"),
    (BOX16.format(extent=1.5) + "checks.s.check = sobolev-sharp\nchecks.s.model = b\n",
     "checks.s: point [0.0, 0.0, 1.0] has 3 coordinates; the chart of model "
     "'euclidean2d-m16-a1.5' has 2"),
    # the sub-riemannian suite needs a vertical form
    (BOX16.format(extent=1.5) + "checks.v.check = vertical-commutation\n"
     "checks.v.model = b\n",
     "checks.v: model 'euclidean2d-m16-a1.5' has no vertical structure; "
     "the sub-riemannian suite needs one"),
    (BOX16.format(extent=1.5) + "checks.g.check = gradient-bound\nchecks.g.model = b\n"
     "checks.g.suite = sub-riemannian\n",
     "checks.g: model 'euclidean2d-m16-a1.5' has no vertical structure; "
     "the sub-riemannian suite needs one"),
    (BOX16.format(extent=1.5) + "checks.c.check = cd\nchecks.c.model = b\n"
     "checks.c.mode = scan\n",
     "checks.c: model 'euclidean2d-m16-a1.5' has no vertical structure; "
     "the sub-riemannian suite needs one"),
    # the flat box has rho = 0, where the exponential form is 0/0
    (BOX16.format(extent=1.5) + "checks.l.check = li-yau\nchecks.l.model = b\n"
     "checks.l.mode = exponential\n",
     "checks.l: exponential mode needs rho > 0"),
] + [
    # every node of the sphere has |x| = 1, outside the box |x_i| <= 0.5; on
    # the coarse tori the box or the ball B(x, 0.6) holds one node
    (f"{model}checks.n.check = {check}\nchecks.n.model = s\n",
     f"checks.n: the subdomain holds {nodes} node(s); its Neumann gap lambda_1 "
     "needs at least 2")
    for model, check, nodes in (
        (SPHERE8, "neumann-poincare", 0),
        (SPHERE16, "neumann-poincare", 0),
        (TORUS.format(dim=1, res=8), "neumann-poincare", 1),
        (TORUS.format(dim=2, res=8), "neumann-poincare", 1),
        (TORUS.format(dim=1, res=12), "neumann-poincare", 1),
        (TORUS.format(dim=1, res=8), "ball-poincare", 1),
        (TORUS.format(dim=2, res=8), "ball-poincare", 1))]


def test_not_applicable_check_exits_2_with_one_line(tmp_path, capsys):
    for i, (text, message) in enumerate(NOT_APPLICABLE):
        cfgfile = tmp_path / f"na{i}.cfg"
        cfgfile.write_text(text)
        out = tmp_path / f"o{i}"
        assert main(["campaign", "--config", str(cfgfile), "--out", str(out),
                     "--cache", str(tmp_path / "c")]) == 2, message
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not os.listdir(out)


# the coarsest model of each kind, and every check id with each of its modes
# and domains
COARSE_MODELS = ([TORUS.format(dim=d, res=8) for d in (1, 2)]
                 + [f"models.s.kind = euclidean\nmodels.s.dim = {d}\nmodels.s.resolution = 8\n"
                    for d in (1, 2, 3)]
                 + [SPHERE8, "models.s.kind = heisenberg\nmodels.s.dim = 3\n"
                    "models.s.resolution = 9\n"])
VARIANTS = {"cd": ("mode", list(checks.CD_TOLERANCE)),
            "li-yau": ("mode", ["rho0", "general-alpha", "exponential", "bakry-qian",
                                "sub-riemannian"]),
            "harnack": ("mode", ["riemannian", "sub-riemannian"]),
            "neumann-poincare": ("domain", ["box", "cap"])}


def test_every_check_ends_in_an_exit_code_on_every_coarse_model(tmp_path):
    # a check that does not apply exits 2, one that fails exits 1; none
    # may end in a traceback
    cases = []
    for cid in cli.CHECK_KINDS:
        key, values = VARIANTS.get(cid, (None, [None]))
        cases += [f"checks.x.check = {cid}\nchecks.x.model = s\n"
                  + (f"checks.x.{key} = {v}\n" if key else "") for v in values]
    for i, model in enumerate(COARSE_MODELS):
        for j, check in enumerate(cases):
            cfgfile = tmp_path / f"m{i}-{j}.cfg"
            cfgfile.write_text(model + check)
            rc = main(["campaign", "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                       "--cache", str(tmp_path / f"c{i}")])
            assert rc in (0, 1, 2), (model, check)


def test_positive_suite_does_not_follow_spectral_k(tmp_path):
    # the suite's eigenfield-1 members are there whether or not the model
    # sets spectral_k; eigenfield 1 of lat16 is the same at k = 40 and 128
    reports = []
    for i, extra in enumerate(("", "models.s.spectral_k = 40\n")):
        cfgfile = tmp_path / f"ls{i}.cfg"
        cfgfile.write_text(SPHERE16 + extra + "checks.l.check = log-sobolev\n"
                           "checks.l.model = s\n")
        out = tmp_path / f"o{i}"
        assert main(["campaign", "--config", str(cfgfile), "--out", str(out),
                     "--cache", str(tmp_path / "c")]) == 0
        reports.append((out / "l.json").read_bytes())
    assert reports[0] == reports[1]
    assert len(json.loads(reports[0])["samples"]) == 11


def test_spectrum_count_beyond_the_retained_pairs_exits_2(tmp_path, capsys):
    # 32 retained pairs: a count of 200 would compare 32 and report 200
    cfgfile = tmp_path / "sp.cfg"
    cfgfile.write_text(MINI_CFG + "checks.sp.check = spectrum\nchecks.sp.model = t\n"
                       "checks.sp.count = 200\n")
    assert main(["campaign", "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                 "--cache", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err == ("configuration error: checks.sp: count: 200 "
                                       "exceeds the 32 retained pairs\n")


def _run_dir(path, lhs):
    for name in "ab":
        rep = MarginReport(name, "m", [{"lhs": lhs, "rhs": 1.0, "margin": 1.0 - lhs}],
                           min_margin=1.0 - lhs, tolerance=Tolerance(0.0),
                           metadata={"n": 3})
        rep.save(str(path / f"{name}.json"))
    return str(path)


def test_compare_runs_counts_byte_identical_reports(tmp_path):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "compare_runs.py")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))

    def compare(a, b):
        run = subprocess.run([sys.executable, script, a, b], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        return run.stdout.splitlines()

    a = _run_dir(tmp_path / "a", 0.25)
    b = _run_dir(tmp_path / "b", 0.25)
    assert compare(a, b)[-1] == "2 of 2 reports byte-identical"
    # a report whose sample count changed shows the counts and how far its
    # min_margin moved, not an unpaired inf
    a3 = _run_dir(tmp_path / "a3", 0.25)
    rep = MarginReport.load(os.path.join(a3, "a.json"))
    rep.samples.append({"lhs": 0.5, "rhs": 1.0, "margin": 0.5})
    rep.min_margin = 0.5
    rep.save(os.path.join(a3, "a.json"))
    lines = compare(b, a3)
    assert lines[1].split() == ["a", "pass", "->", "pass", "samples", "1", "->", "2,",
                                "min_margin", "-0.25"]
    assert lines[2].split() == ["b", "pass", "->", "pass", "0"]
    # one byte differs in b's second report: "n": 3 -> "n": 4; no margin moves
    a2 = _run_dir(tmp_path / "a2", 0.25)
    path = os.path.join(a2, "b.json")
    text = open(path).read()
    with open(path, "w") as fh:
        fh.write(text.replace('"n": 3', '"n": 4'))
    assert compare(a2, b)[-3:] == [
        "2 reports, 0 changed verdicts, largest move 0 of scale (a)",
        "1 of 2 reports byte-identical",
        "  differs: b (metadata.n)"]


def test_unknown_key_error_lists_accepted_keys():
    data = parse_config_text(SPECTRUM_CFG + "checks.sp.cuont = 9\n")
    with pytest.raises(ConfigError) as info:
        CampaignConfig.from_dict(data)
    assert str(info.value).endswith("(accepted: check, model, count, rtol)")
    data = parse_config_text(MINI_CFG + "models.t.options.perod = 6.0\n")
    with pytest.raises(ConfigError, match=r"a torus model reads no such option "
                       r"\(it reads: \[\]\)"):
        CampaignConfig.from_dict(data)


def _unreadable_config(tmp_path, case):
    if case == "missing":
        return tmp_path / "absent.cfg"
    if case == "directory":
        (tmp_path / "cfgdir").mkdir()
        return tmp_path / "cfgdir"
    path = tmp_path / "broken.json"
    path.write_text('{"seed": 3,')
    return path


@pytest.mark.parametrize("case", ["missing", "directory", "malformed-json"])
def test_unreadable_config_exits_2_and_writes_nothing(tmp_path, capsys, case):
    path = _unreadable_config(tmp_path, case)
    out, cache = tmp_path / "o", tmp_path / "c"
    assert main(["campaign", "--config", str(path), "--out", str(out),
                 "--cache", str(cache)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}: ")
    assert err.count("\n") == 1
    assert not out.exists() and not cache.exists()


@pytest.mark.parametrize("case", ["missing", "no-series", "not-an-object", "bad-tolerance"])
def test_unusable_report_exits_2_and_writes_nothing(tmp_path, capsys, case):
    path = tmp_path / "rep.json"
    if case == "no-series":
        MarginReport("spectrum", "m", [{"lhs": 0.0, "rhs": 1.0, "margin": 1.0}],
                     1.0, Tolerance(0.0)).save(str(path))
    elif case == "not-an-object":
        path.write_text("[1]")
    elif case == "bad-tolerance":
        path.write_text(json.dumps({"check_id": "spectrum", "model_id": "m",
                                    "min_margin": 1.0, "tolerance": 3}))
    plots = tmp_path / "plots"
    assert main(["report", "--report", str(path), "--kind", "li-yau",
                 "--out", str(plots)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: --report {path}: ")
    assert err.count("\n") == 1
    assert not plots.exists()


def test_import_leaves_scipy_optimize_unloaded():
    # a fresh interpreter: this process may already hold scipy.optimize.
    # ``metric.optimize`` stays resolvable for the benchmark's trace mode.
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    probe = ("import sys, heatlab.cli, heatlab.metric\n"
             "print('scipy.optimize' in sys.modules)\n"
             "print(heatlab.metric.optimize.__name__)\n")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "scipy.optimize"]


def test_bench_harness_resolves_its_names(tmp_path):
    # the benchmark wraps heatlab layers by name under --trace 1 (``spans``)
    # and parses each workload's config (``worker``): a fresh interpreter
    # imports both as bench/run.py's processes do, installs every wrapper
    # and loads every config, so a name or config key that src drops fails
    # here and not only in a traced benchmark run
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")
    probe = (f"import sys\nsys.path.insert(0, {bench!r})\n"
             "import spans, worker\n"
             "rec = spans.Recorder()\n"
             "spans.CheckTracker(rec).install()\n"
             "spans.install_spans(rec)\n"
             "for w in worker.WORKLOADS:\n"
             f"    print(w, len(worker.load_config(w, {str(tmp_path)!r}).checks))\n")
    # -B: no bytecode is written under bench/
    run = subprocess.run([sys.executable, "-B", "-c", probe], capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    loaded = dict(line.split() for line in run.stdout.splitlines())
    assert sorted(loaded) == ["campaign-cold", "campaign-warm", "sphere-refine"]
    assert all(int(count) > 0 for count in loaded.values())


def test_traced_metrics_name_the_declared_layers(tmp_path):
    # a traced benchmark run (--trace 1) prints the per-layer metrics of
    # ``spans.layer_metrics`` plus the two trace.* keys that bench/run.py
    # adds; they must be exactly the per_layer names BENCHMARK.json
    # declares, and serialize as strict JSON, or the run's last line is not
    # a result.  A fresh interpreter imports bench/ without bytecode (-B).
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    bench = os.path.join(root, "bench")
    probe = (f"import json, sys\nsys.path.insert(0, {bench!r})\n"
             "import spans, worker\n"
             "m = spans.layer_metrics(spans.Recorder(), 1.0, worker.all_check_names())\n"
             "m['trace.untraced_wall_s'] = {'value': 1.0, 'unit': 's'}\n"
             "m['trace.overhead_s'] = {'value': 0.0, 'unit': 's'}\n"
             "print(json.dumps(m, allow_nan=False))\n")
    run = subprocess.run([sys.executable, "-B", "-c", probe], capture_output=True,
                         text=True, timeout=120, cwd=str(tmp_path))
    assert run.returncode == 0, run.stderr
    metrics = json.loads(run.stdout.splitlines()[-1])
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert len(declared) == len(set(declared)) == 90
    assert sorted(metrics) == sorted(declared)
