import collections
import csv
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from heatlab import ModelSpec, NotApplicableError, build_model, cli, metric
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
from heatlab.reports import MarginReport, Tolerance

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


def test_mini_campaign_and_resume(tmp_path):
    cfg = _mini_config(str(tmp_path))
    assert run_campaign(cfg, log=lambda *a: None) == 0
    out = os.listdir(cfg.output_dir)
    assert "summary.csv" in out and "ax.json" in out
    rep = MarginReport.load(os.path.join(cfg.output_dir, "ax.json"))
    assert rep.passed
    # resumable: completed pairs are reused (results identical)
    before = open(os.path.join(cfg.output_dir, "ax.json"), "rb").read()
    assert run_campaign(cfg, log=lambda *a: None) == 0
    after = open(os.path.join(cfg.output_dir, "ax.json"), "rb").read()
    assert before == after


def test_campaign_failure_exit_code(tmp_path):
    cfg = _mini_config(str(tmp_path))
    cfg.checks["spec"]["rtol"] = 1e-9        # unattainably tight
    assert run_campaign(cfg, log=lambda *a: None) == 1


def test_campaign_reruns_on_config_change(tmp_path):
    cfg = _mini_config(str(tmp_path))
    assert run_campaign(cfg, log=lambda *a: None) == 0
    d1 = MarginReport.load(os.path.join(cfg.output_dir, "ax.json"))
    cfg2 = _mini_config(str(tmp_path), seed=12)   # same dirs, new seed
    assert run_campaign(cfg2, log=lambda *a: None) == 0
    d2 = MarginReport.load(os.path.join(cfg2.output_dir, "ax.json"))
    assert d1.metadata["config_digest"] != d2.metadata["config_digest"]


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
    assert len(runs) == 93
    assert max(runs.values()) == 1


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


def test_reports_are_rerun_after_a_code_change(tmp_path, monkeypatch):
    cfg = _mini_config(str(tmp_path))
    assert run_campaign(cfg, log=lambda *a: None) == 0
    path = os.path.join(cfg.output_dir, "ax.json")
    before = MarginReport.load(path).metadata["config_digest"]
    lines = []
    assert run_campaign(cfg, log=lines.append) == 0
    assert all("(cached)" in line for line in lines)
    monkeypatch.setattr(cli, "_source_digest", lambda: "other sources")
    lines.clear()
    assert run_campaign(cfg, log=lines.append) == 0
    assert lines and not any("(cached)" in line for line in lines)
    assert MarginReport.load(path).metadata["config_digest"] != before


def test_plot_emission(tmp_path, sphere):
    import numpy as np

    from heatlab.checks import check_li_yau, check_volume_regularity
    from heatlab.suites import positive_fields
    from heatlab.models import node_nearest

    model, oracle, spectral = sphere
    suite = positive_fields(model, spectral)[:2]
    rep = check_li_yau(model, oracle, spectral, suite, [0.25, 0.5],
                       mode="general-alpha", alpha=1.0)
    files = emit_plot_data(rep, "li-yau", str(tmp_path))
    header = open(files[0]).readline().strip().split(",")
    assert header == ["t", "node", "lhs", "rhs", "margin"]
    assert open(files[1]).read().startswith("<svg")

    pole = node_nearest(model, [0, 0, 1])
    vol = check_volume_regularity(model, oracle, [pole], [0.35, 0.5, 0.7])
    dfiles = emit_plot_data(vol, "doubling", str(tmp_path))
    rows = [r.split(",") for r in open(dfiles[0]).read().splitlines()]
    assert rows[0] == ["r", "ratio", "monotone_r"]
    assert all(r[2] == "1" for r in rows[1:])

    with pytest.raises(ValueError):
        emit_plot_data(rep, "histogram", str(tmp_path))


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
    rep = check_log_sobolev(model, oracle, spectral, suite)
    files = emit_plot_data(rep, "entropy", str(tmp_path))
    lines = open(files[0]).read().splitlines()
    slope_header = float(lines[0].split("=")[1])
    data = np.array([[float(a) for a in ln.split(",")] for ln in lines[2:]])
    refit = np.polyfit(data[:, 0], data[:, 1], 1)[0]
    assert refit == pytest.approx(slope_header, abs=1e-9)
    assert refit == pytest.approx(rep.metadata["entropy_slope"], abs=1e-12)


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


def test_kernel_bounds_t_grid_beyond_the_interior_is_not_applicable():
    model, _ = build_model(ModelSpec("euclidean", dim=2, resolution=16, extent=1.0))
    ctx = collections.namedtuple("Ctx", "model")(model)
    with pytest.raises(NotApplicableError, match="^t_grid: "):
        cli._bind_kernel_bounds(ctx, {"t_grid": [1.0]}, 0)


def test_not_applicable_check_exits_2_with_one_line(tmp_path, capsys):
    cfgfile = tmp_path / "na.cfg"
    cfgfile.write_text("models.b.kind = euclidean\nmodels.b.dim = 2\n"
                       "models.b.resolution = 16\nmodels.b.extent = 1.0\n"
                       "models.b.spectral_k = 50\n"
                       "checks.k.check = kernel-bounds\nchecks.k.model = b\n"
                       "checks.k.t_grid = [1.0]\n")
    out = tmp_path / "o"
    assert main(["campaign", "--config", str(cfgfile), "--out", str(out),
                 "--cache", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert err == ("configuration error: checks.k: t_grid: no interior node lies "
                   "2.4 sqrt(t) from the boundary at t = 1\n")
    assert not os.listdir(out)


def _run_dir(path, digests, lhs):
    for name, digest in zip("ab", digests):
        rep = MarginReport(name, "m", [{"lhs": lhs, "rhs": 1.0, "margin": 1.0 - lhs}],
                           min_margin=1.0 - lhs, tolerance=Tolerance(0.0),
                           metadata={"config_digest": digest, "n": 3})
        rep.save(str(path / f"{name}.json"))
    return str(path)


def test_compare_runs_counts_byte_identical_reports(tmp_path):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "compare_runs.py")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))

    def compare(a, b):
        run = subprocess.run([sys.executable, script, a, b], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        return run.stdout.splitlines()[-3:]

    a = _run_dir(tmp_path / "a", ["0123", "4567"], 0.25)
    b = _run_dir(tmp_path / "b", ["89ab", "cdef"], 0.25)
    assert compare(a, b)[-1] == "2 of 2 reports byte-identical apart from config_digest"
    # one byte differs in b's second report: "n": 3 -> "n": 4; no margin moves
    a2 = _run_dir(tmp_path / "a2", ["0123", "4567"], 0.25)
    path = os.path.join(a2, "b.json")
    text = open(path).read()
    with open(path, "w") as fh:
        fh.write(text.replace('"n": 3', '"n": 4'))
    assert compare(a2, b) == [
        "2 reports, 0 changed verdicts, largest move 0 of scale (a)",
        "1 of 2 reports byte-identical apart from config_digest",
        "  differs: b"]


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
