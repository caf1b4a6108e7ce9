import json

from fockgauge import fock, summarize
from fockgauge.cli import dumps, format_number, run


def _reject_constant(token):
    raise ValueError(f"stdout carries the non-JSON token {token}")


def _strict(text):
    """Parse CLI stdout as strict JSON: NaN and Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, _strict(out)


def _vacuum_table(field, literal):
    """The vacuum's moment table as JSON text, with `field` set to the JSON `literal`."""
    table = summarize(fock(0)).to_dict()
    table[field] = "@"
    return json.dumps(table).replace('"@"', literal)


def test_gauge_on_coherent_spec(capsys):
    code, data = _run_json(
        capsys,
        ["gauge", "--spec", '{"kind":"coherent","alpha":{"re":1,"im":0},"eps_tail":1e-14}'],
    )
    assert code == 0
    assert abs(data["g1"] - 1.0) <= 1e-8
    assert data["tight"]["applicable"] is True
    assert data["hierarchy_ok"] is True


def test_moments_on_number_state(capsys):
    code, data = _run_json(capsys, ["moments", "--spec", '{"kind":"fock","n":2}'])
    assert code == 0
    assert data["mean_n"] == 2.0
    assert data["var_n"] == 0.0
    assert data["truncation_warning"] is False


def test_sweep_clean_run(capsys):
    code, data = _run_json(
        capsys,
        ["sweep", "--config", '{"n_pure":100,"n_mixed":10,"cutoff":16,"rank":4,"seed":42}'],
    )
    assert code == 0
    assert data["total_violations"] == 0
    assert data["tallies"]["tight_scan"]["violations"] == 0


def test_state_metadata_and_amplitudes(capsys):
    code, data = _run_json(
        capsys,
        [
            "state",
            "--spec",
            '{"kind":"coherent","alpha":{"re":0.5,"im":0},"eps_tail":1e-14}',
            "--dump-amplitudes",
        ],
    )
    assert code == 0
    assert data["cutoff"] >= 8
    assert data["boundary_mass"] == 0.0
    assert abs(data["amplitudes"][0]["re"] ** 2 - 0.7788007830714049) < 1e-10


def test_state_strong_field_reports_analytic_norm(capsys):
    code, data = _run_json(
        capsys,
        [
            "state",
            "--spec",
            '{"kind":"approx_strong_field","alpha":{"re":3,"im":0},'
            '"gamma":{"re":0.3333333333333333,"im":0}}',
        ],
    )
    assert code == 0
    assert abs(data["analytic_norm_inverse"] - (1 + 2 + (1 + 9) / 9)) < 1e-12


def test_gauge_moments_roundtrip(capsys):
    spec = '{"kind":"squeezed_coherent","alpha":{"re":0.8,"im":0.2},"r":0.5,"phi_s":0.4}'
    code = run(["moments", "--spec", spec])
    assert code == 0
    moments_json = capsys.readouterr().out
    code = run(["gauge", "--spec", spec])
    assert code == 0
    direct = capsys.readouterr().out
    code = run(["gauge", "--moments", moments_json.strip()])
    assert code == 0
    via_moments = capsys.readouterr().out
    assert via_moments == direct
    _strict(moments_json)
    _strict(direct)


def test_gauge_rejects_nonphysical_moment_table(capsys):
    code = run(["moments", "--spec", '{"kind":"fock","n":0}'])
    assert code == 0
    table = _strict(capsys.readouterr().out)
    table["cov_ada"] = 0.2
    code = run(["gauge", "--moments", json.dumps(table)])
    captured = capsys.readouterr()
    assert code == 1
    assert "violation" in captured.err
    # <n> = -0.5 puts the floor 2<n> + 1 of G2 at zero
    table.update(mean_n=-0.5, cov_ada=1.0)
    code = run(["gauge", "--moments", json.dumps(table)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "mean_n" in captured.err


def test_gauge_applies_every_registry_row(capsys):
    # zero amplitude, Var a = 0 and Cov(a^dag, a) just below 1/2: every field
    # is consistent, and only the hyperboloid row (tolerance 1e-10) catches it
    cov_ada = 0.5 - 5e-10
    mean_n = cov_ada - 0.5
    mean_a2da2 = mean_n**2 - mean_n  # Var n = 0
    table = {
        "mean_a": {"re": 0.0, "im": 0.0},
        "mean_a2": {"re": 0.0, "im": 0.0},
        "mean_n": mean_n,
        "mean_n2": mean_a2da2 + mean_n,
        "mean_a2da2": mean_a2da2,
        "var_n": 0.0,
        "var_a": {"re": 0.0, "im": 0.0},
        "cov_ada": cov_ada,
        "cov_a2": mean_a2da2 + 2.0 * mean_n + 1.0,
        "truncation_warning": False,
    }
    code = run(["gauge", "--moments", json.dumps(table)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.strip() == "physics violation in: hyperboloid_surface"
    assert _strict(captured.out)["hierarchy_ok"] is True


def test_schema_error_exit_code(capsys):
    assert run(["gauge", "--spec", '{"kind":"coherent"}']) == 2
    assert run(["moments", "--spec", "{not json"]) == 2
    assert run(["sweep", "--config", '{"n_pure":1}']) == 2
    assert run(["sweep", "--config", '{"n_pure":1,"n_mixed":0,"cutoff":4,"tolerances":{}}']) == 2
    capsys.readouterr()
    huge = "1" + "0" * 400  # an integer literal beyond the float range
    rows = [
        (["gauge", "--spec", '{"kind":"cat","alpha":{"re":1,"im":0},"beta":NaN}'], "beta"),
        (["gauge", "--spec", '{"kind":"cat","alpha":{"re":1,"im":0},"beta":' + huge + "}"], "beta"),
        (["gauge", "--spec", '{"kind":"coherent","alpha":{"re":true,"im":0}}'], "alpha"),
        (["gauge", "--spec", '{"kind":["coherent"],"alpha":{"re":1,"im":0}}'], "kind"),
        (["gauge", "--spec", '{"kind":"random_pure","cutoff":4,"seed":-1}'], "seed"),
        (["gauge", "--moments", _vacuum_table("cov_ada", "NaN")], "cov_ada"),
        (["gauge", "--moments", _vacuum_table("cov_ada", "Infinity")], "cov_ada"),
        (["gauge", "--moments", _vacuum_table("cov_ada", "1e999")], "cov_ada"),
        (["gauge", "--moments", _vacuum_table("mean_a", '{"re":true,"im":0}')], "mean_a"),
        (["sweep", "--config", '{"n_pure":1,"n_mixed":0,"cutoff":4,"seed":-1}'], "seed"),
    ]
    for argv, field in rows:
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert field in captured.err, (argv, captured.err)


def test_bad_cutoff_ceiling_setting_names_the_variable(monkeypatch, capsys):
    for value in ("abc", "0"):
        monkeypatch.setenv("FOCKGAUGE_MAX_CUTOFF", value)
        for argv in (
            ["gauge", "--spec", '{"kind":"coherent","alpha":{"re":1,"im":0}}'],
            ["figure", "--which", "fig4", "--resolution", "16"],
        ):
            assert run(argv) == 2, (value, argv)
            assert "FOCKGAUGE_MAX_CUTOFF" in capsys.readouterr().err


def test_gauge_on_cat_beyond_float_range_of_amplitudes(capsys):
    # |alpha|^2 = 1225: the unscaled coherent amplitudes would overflow
    code, data = _run_json(
        capsys, ["gauge", "--spec", '{"kind":"cat","alpha":{"re":35,"im":0},"beta":0}']
    )
    assert code == 0
    assert abs(data["g2"] - 1.0) < 1e-9


def test_usage_error_exit_code(capsys):
    assert run([]) == 2
    assert run(["gauge"]) == 2
    assert run(["figure", "--which", "fig7"]) == 2
    capsys.readouterr()
    for resolution in ("5", "4096", "many"):
        assert run(["figure", "--which", "fig3", "--resolution", resolution]) == 2
        assert "--resolution" in capsys.readouterr().err


def test_calibrate_output(capsys):
    code, data = _run_json(capsys, ["calibrate"])
    assert code == 0
    assert abs(data["c_tight"] - 0.5) < 1e-9
    assert [row["tag"] for row in data["printed_vs_derived"]] == [
        "tight_closed_form",
        "relaxed_lambda_plus",
        "relaxed_trace",
    ]


def test_figure_writes_csv(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert run(["figure", "--which", "fig3", "--resolution", "16", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "re_var_a,im_var_a,hyperboloid,cone"
    assert len(text.splitlines()) == 1 + 16 * 16
    capsys.readouterr()


def test_spec_from_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"kind":"fock","n":1}')
    code, data = _run_json(capsys, ["moments", "--spec", f"@{path}"])
    assert code == 0
    assert data["mean_n"] == 1.0
    assert run(["moments", "--spec", "@/nonexistent/spec.json"]) == 2
    capsys.readouterr()


def test_number_formatting():
    assert format_number(0.5) == "0.5"
    assert format_number(1 / 3) == "0.33333333333333331"
    assert float(format_number(1 / 3)) == 1 / 3
    text = dumps({"a": [1.0, None, True], "b": {"c": 2}})
    assert _strict(text) == {"a": [1.0, None, True], "b": {"c": 2}}
