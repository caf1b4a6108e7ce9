import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockgauge import cli, coherent, ellipse, full_report, number_state, summarize
from fockgauge.cli import NUMBER_FORMAT, dumps, run
from fockgauge.errors import NonFiniteOutputError
from fockgauge.fock import BOUNDARY_PAD
from fockgauge.gauges import INEQUALITIES, SQUEEZING_TOL
from fockgauge.states import _FIELDS, _KINDS, MAX_RANDOM_CUTOFF, state_from_spec
from fockgauge.verify import FIGURE_NAMES, MIN_RESOLUTION
import drift
from _oracles import strong_field_norm_inverse
from _parents import reference_dumps


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
    table = summarize(number_state(0)).to_dict()
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


@pytest.mark.parametrize(
    "alpha,gamma", [(3.0, 0.3333333333333333), (1.3 + 0.4j, 0.2 - 0.6j)], ids=["real", "complex"]
)
def test_state_strong_field_amplitudes_match_the_analytic_norm(capsys, alpha, gamma):
    spec = json.dumps(
        {
            "kind": "approx_strong_field",
            "alpha": {"re": alpha.real, "im": alpha.imag},
            "gamma": {"re": gamma.real, "im": gamma.imag},
        }
    )
    code, data = _run_json(capsys, ["state", "--spec", spec, "--dump-amplitudes"])
    assert code == 0
    amps = np.array([c["re"] + 1j * c["im"] for c in data["amplitudes"]])
    # <n|alpha> + gamma <n|a^dag|alpha>, term by term, over the analytic norm
    n = np.arange(amps.size)
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    coherent_amps = np.exp(-abs(alpha) ** 2 / 2 - log_fact / 2) * complex(alpha) ** n
    expected = coherent_amps.copy()
    expected[1:] += gamma * np.sqrt(n[1:]) * coherent_amps[:-1]
    expected /= math.sqrt(strong_field_norm_inverse(alpha, gamma))
    # the state keeps the coherent levels its tail tolerance (1e-14) needs, so
    # below the top level and BOUNDARY_PAD zeros, only the neglected tail differs
    head = amps.size - BOUNDARY_PAD - 1
    assert np.abs(amps[:head] - expected[:head]).max() < 1e-12
    assert np.sum(np.abs(amps - expected) ** 2) < 1e-13


@pytest.mark.parametrize("gamma", [1e154, 1e300, complex(1.7e308, -1.7e308)])
def test_state_strong_field_builds_beyond_the_float_range_of_its_norm(capsys, gamma):
    # the norm of |alpha> + gamma a^dag |alpha> is beyond the float range; the ray is not
    spec = json.dumps(
        {"kind": "approx_strong_field", "alpha": {"re": 2.0, "im": 0.0}, "gamma": {"re": gamma.real, "im": gamma.imag}}
    )
    code, data = _run_json(capsys, ["state", "--spec", spec])
    assert code == 0
    assert sorted(data) == ["boundary_mass", "cutoff", "kind"]


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


def _squeezed_vacuum_table(r, phi):
    """Closed-form moment table of the squeezed vacuum S(r e^{i phi})|0>."""
    n = 0.5 * math.cosh(2.0 * r) - 0.5
    m = 0.5 * complex(math.cos(phi), math.sin(phi)) * math.sinh(2.0 * r)
    a2da2 = abs(m) ** 2 + 2.0 * n * n
    return {
        "mean_a": {"re": 0.0, "im": 0.0}, "mean_a2": {"re": m.real, "im": m.imag}, "mean_n": n,
        "mean_n2": a2da2 + n, "mean_a2da2": a2da2, "var_n": a2da2 + n - n * n,
        "var_a": {"re": m.real, "im": m.imag}, "cov_ada": n + 0.5,
        "cov_a2": a2da2 + 2.0 * n + 1.0 - abs(m) ** 2, "truncation_warning": False,
    }


# uncertainty_area's sides reach 3e7 at r = 5 and 6e9 at r = 6.33; at these
# phases 2 pi k / 64 its exact zero slack rounds to a few ulps of them below zero
@pytest.mark.parametrize("r,ks", [(5.0, (21, 22, 36, 38)), (6.33, (26, 30, 36))])
def test_gauge_judges_a_violation_against_the_size_of_its_sides(r, ks, capsys):
    for k in ks:
        code = run(["gauge", "--moments", json.dumps(_squeezed_vacuum_table(r, 2.0 * math.pi * k / 64))])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), k
        assert _strict(out)["constraints"]["uncertainty_area"]["slack"] < -1e-9


def test_squeezed_flag_reads_the_squeezing_record(capsys):
    # Var a = 0 and Cov(a^dag, a) = 0.4999999999: the minor variance sits one
    # rounding beyond the squeezing margin, where two copies of the test disagreed
    code = run(["gauge", "--moments", _vacuum_table("cov_ada", "0.4999999999")])
    data = _strict(capsys.readouterr().out)
    assert code == 1  # the hyperboloid row catches the table
    squeezing = data["constraints"]["squeezing"]
    assert data["squeezed"] is (squeezing["slack"] < -SQUEEZING_TOL)
    assert data["squeezed"] is True


def test_schema_error_exit_code(tmp_path, capsys):
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
        (["sweep", "--config", '{"n_pure":0,"n_mixed":5,"cutoff":2,"rank":9}'], "rank"),
        (["sweep", "--config", '{"n_pure":0,"n_mixed":5,"cutoff":2,"rank":0}'], "rank"),
        (["calibrate", "--out", "/nonexistent/x.json"], "--out file '/nonexistent/x.json'"),
        (["figure", "--which", "fig4", "--resolution", "16", "--out", "/nonexistent/f.csv"], "--out file '/nonexistent/f.csv'"),
        (["gauge", "--spec", '{"kind":"fock","n":1}', "--out", str(tmp_path)], f"--out file {str(tmp_path)!r}"),
    ]
    for argv, field in rows:
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert field in captured.err, (argv, captured.err)


@pytest.mark.parametrize(
    "flag,what",
    [
        (["gauge", "--spec"], "state spec"),
        (["gauge", "--moments"], "moment summary"),
        (["sweep", "--config"], "sweep config"),
    ],
    ids=["spec", "moments", "config"],
)
@pytest.mark.parametrize("malformed", ["long-integer", "deep-nesting", "not-utf-8"])
def test_json_arguments_the_decoder_refuses_are_schema_errors(flag, what, malformed, tmp_path, capsys):
    if malformed == "not-utf-8":
        path = tmp_path / "arg.json"
        path.write_bytes(b'{"kind": "\xff"}')
        raw = f"@{path}"
    else:
        # beyond the 4300-digit limit of int(); deep enough to trip the decoder's recursion guard
        raw = "1" * 4400 if malformed == "long-integer" else "[" * 5000
    code = run(flag + [raw])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1, captured.err
    assert what in captured.err and "Traceback" not in captured.err


def test_bad_cutoff_ceiling_setting_names_the_variable(monkeypatch, capsys):
    # 5000 digits are more than int() reads; the value is named, not echoed
    for value in ("abc", "0", "9" * 5000):
        monkeypatch.setenv("FOCKGAUGE_MAX_CUTOFF", value)
        for argv in (
            ["gauge", "--spec", '{"kind":"coherent","alpha":{"re":1,"im":0}}'],
            ["figure", "--which", "fig4", "--resolution", "16"],
        ):
            assert run(argv) == 2, (value, argv)
            out, err = capsys.readouterr()
            assert out == ""
            assert "FOCKGAUGE_MAX_CUTOFF" in err
            assert "invalid parameters" not in err and len(err) < 200


# Moment tables whose var_a angle (table A) or stick angle (table B) underflows
# in atan2, where cmath.phase raised OverflowError; pinned as the rows
# gauge-moments-angle-underflow and gauge-moments-stick-angle-underflow
ANGLE_UNDERFLOW_A = {
    "mean_a": {"re": -1.0, "im": 1e-12}, "mean_a2": {"re": -0.0, "im": 1e10}, "mean_n": 2.0,
    "mean_n2": -1e-9, "mean_a2da2": -0.0, "var_n": 3.273390607896142e150,
    "var_a": {"re": 1e150, "im": 1e-300}, "cov_ada": 3.273390607896142e150, "cov_a2": 1e-300,
    "truncation_warning": False,
}
ANGLE_UNDERFLOW_B = {
    **ANGLE_UNDERFLOW_A, "mean_a": {"re": 3.273390607896142e150, "im": 1e-300},
    "mean_n": 3.273390607896142e150, "var_n": 1e-300, "var_a": {"re": 5e-324, "im": 1e-9}, "cov_ada": 0.25,
}


# a coherent table whose tight bound |<a>|^2 / (2 Cov(a^dag, a)) is beyond the float range;
# pinned as the row gauge-moments-bound-overflow
BOUND_OVERFLOW = {
    **summarize(coherent(0.8 - 0.4j)).to_dict(), "mean_a": {"re": 3.27e150, "im": 3.27e150},
    "cov_ada": 1e-9, "var_a": {"re": 0.0, "im": 0.0},
}


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


COMMAND_ARGVS = [
    ["state", "--spec", '{"kind":"fock","n":1}', "--dump-amplitudes", "--out", "-"],
    ["state", "--spec", "{}"],
    ["moments", "--spec", "@spec.json"],
    ["gauge", "--spec", '{"kind":"fock","n":1}'],
    ["gauge", "--moments", "{}", "--out", "report.json"],
    ["sweep", "--config", "{}"],
    ["calibrate"],
    ["figure", "--which", "fig3"],
    ["figure", "--which", "fig2", "--resolution", "32", "--out", "-"],
]


def test_a_named_command_parses_as_through_the_top_level_parser(monkeypatch):
    # each command's handler records the namespace `run` hands it
    seen = []
    handlers = {}
    for name in ("state", "moments", "gauge", "sweep", "calibrate", "figure"):
        handlers[name] = lambda args: seen.append(args) or 0
        monkeypatch.setattr(cli, f"_cmd_{name}", handlers[name])
    parser = cli.build_parser.__wrapped__()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    assert list(parser.commands) == list(handlers)
    for argv in COMMAND_ARGVS:
        assert run(argv) == 0
        (args,) = seen
        seen.clear()
        assert args.func is handlers[argv[0]]
        assert vars(args) == vars(parser.parse_args(argv))
    assert {argv[0] for argv in COMMAND_ARGVS} == set(handlers)


def test_help_and_missing_or_unknown_commands_go_to_the_top_level_parser(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    help_text = cli.build_parser().format_help()
    for argv, code, out, err in [
        ([], 2, "", "fockgauge: error: the following arguments are required: command"),
        (["--help"], 0, help_text, ""),
        (["nosuch"], 2, "", "fockgauge: error: argument command: invalid choice: 'nosuch'"),
        (["-h", "gauge"], 0, help_text, ""),
    ]:
        assert run(argv) == code, argv
        captured = capsys.readouterr()
        assert captured.out == out, argv
        if err:
            assert captured.err.startswith("usage: fockgauge [-h]") and err in captured.err, argv
        else:
            assert captured.err == "", argv


def test_an_extra_word_is_reported_with_its_command_usage(capsys):
    code = run(["gauge", "--spec", '{"kind":"fock","n":1}', "extra"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("usage: fockgauge gauge [-h] (--spec SPEC | --moments MOMENTS)")
    assert "fockgauge gauge: error: unrecognized arguments: extra\n" in err


def test_one_parser_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_answers_like_a_fresh_one(monkeypatch, capsys):
    calls = [
        ["gauge"],
        ["gauge", "--spec", '{"kind":"coherent"}'],
        ["figure", "--which", "fig3", "--resolution", "5"],
        ["gauge", "--spec", '{"kind":"coherent","alpha":{"re":0.7,"im":-0.2}}'],
        ["--help"],
        ["gauge", "--help"],
        ["gauge", "--spec", '{"kind":"fock","n":2}', "--moments", "{}"],
    ]
    cached_parser, fresh_parser = cli.build_parser, cli.build_parser.__wrapped__
    monkeypatch.setenv("COLUMNS", "200")
    run(["gauge"])  # builds the cached parser at 200 columns
    capsys.readouterr()
    help_texts = []
    for columns in ("200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        answers = {}
        for build in (cached_parser, fresh_parser):
            monkeypatch.setattr(cli, "build_parser", build)
            got = []
            for argv in calls + calls[::-1]:
                code = run(argv)
                captured = capsys.readouterr()
                got.append((argv, code, captured.out, captured.err))
            answers[build] = got
        cached, fresh = answers.values()
        assert cached == fresh
        assert [code for _, code, _, _ in cached[: len(calls)]] == [2, 2, 2, 0, 0, 0, 2]
        help_texts.append(cached[4][2])
    # help is formatted when it is printed, so COLUMNS still counts
    assert help_texts[0] != help_texts[1]


def _recording_parser():
    """A fresh parser whose command handlers record the namespace `run` hands them, and that record."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("state", "moments", "gauge", "sweep", "calibrate", "figure"):
            patch.setattr(cli, f"_cmd_{name}", lambda args: seen.append(args) or 0)
        parser = cli.build_parser.__wrapped__()
    return parser, seen


@given(st.sampled_from(cli.SINGLE_OPTION_FORMS), st.text())
@example(("gauge", "--spec"), "")
@example(("gauge", "--moments"), " ")
@example(("gauge", "--spec"), "=")
@example(("gauge", "--moments"), "@x")
@example(("gauge", "--moments"), "-")
@example(("gauge", "--spec"), "-1")  # argparse reads a negative number as the value
@example(("gauge", "--moments"), "--")
@example(("gauge", "--spec"), "-x")  # argparse reads an unknown option, and --spec lacks its value
@example(("gauge", "--moments"), "été → \U0001f600")
def test_single_option_forms_answer_as_argparse_does(form, value):
    parser, seen = _recording_parser()
    subparser = parser.commands[form[0]]
    parsed = []
    answers = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda: parser)
        patch.setattr(subparser, "parse_args", lambda *a: parsed.append(a) or type(subparser).parse_args(subparser, *a))
        # with the parser's forms, then with none, so that argparse parses every argv
        for forms in (parser.forms, {}):
            patch.setattr(parser, "forms", forms)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run([*form, value])
            answers.append((code, out.getvalue(), err.getvalue(), [vars(args) for args in seen]))
            seen.clear()
    assert answers[0] == answers[1]
    # the forms spare the parse of every value but one that starts with "-"
    assert len(parsed) == (2 if value.startswith("-") else 1)


def test_dumps_refuses_non_finite_values():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteOutputError, match=r"output field tight\.slack is"):
            dumps({"g1": 1.0, "tight": {"bound_scan": 0.5, "slack": value}})
        with pytest.raises(NonFiniteOutputError, match=r"output field anchors\.1\.c is"):
            dumps({"anchors": [{"c": 0.5}, {"c": value}]})
        with pytest.raises(NonFiniteOutputError, match="<root>"):
            dumps(value)


# Payloads for the writer: every JSON type the package prints, at any depth, with
# the float edges of "%.17g", and keys and strings that carry "%", quotes,
# backslashes, control characters or non-ASCII.
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1 / 3, 1.7976931348623157e308, -1.7976931348623157e308]
)
FLOATS = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
TEXTS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        ["%", "%%", "%s", "%.17g", "100%", '"', '"%"', "é", "ü%", "a\\b", "\t", "\x00\n\x1f", "\u2028", "\U0001f600"]
    ),
)
LEAVES = st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(), st.booleans(), st.none(), TEXTS)


def _payloads(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(st.one_of(TEXTS, st.integers()), inner, max_size=4),
        ),
        max_leaves=24,
    )


def _outcome(write, payload):
    """The text `write` makes of `payload`, or the type and message of what it raises."""
    try:
        return write(payload)
    except (NonFiniteOutputError, TypeError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_payloads(LEAVES))
@example({})
@example([])
@example(())
@example({"%": [], "a%b": {"%s": "%d %%", "\u00e9%": -0.0}, "": [{}, (), 1e16]})
def test_dumps_matches_the_reference_writer(payload):
    assert dumps(payload).encode("utf-8") == reference_dumps(payload).encode("utf-8")


# one bad leaf among good ones, anywhere: NaN, an infinity or a type the writer refuses
BAD_LEAVES = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf), 1j, b"x", {1}, np.int64(3), object]
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_payloads(st.one_of(LEAVES, BAD_LEAVES)))
@example({"g1": 1.0, "tight": {"bound_scan": 0.5, "slack": math.nan}})
@example([{"c": 0.5}, ({"%": -math.inf},)])
@example({"a": [1.0, 2j]})
def test_dumps_refuses_what_the_reference_writer_refuses(payload):
    assert _outcome(dumps, payload) == _outcome(reference_dumps, payload)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    st.recursive(
        st.one_of(TEXTS, FLOATS, st.integers(), st.booleans(), st.none()),
        lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(TEXTS, inner, max_size=4)),
        max_leaves=24,
    )
)
@example({'a"b': 1.0, "a\\b": "\t", "\u00e9": ["\x00", "\u00fc"], "\x1f\n": {"\U0001f600": None}})
def test_dumps_round_trips_through_the_json_decoder(payload):
    # keys come back as the same str, and every string as itself
    assert json.loads(dumps(payload)) == payload


def test_non_finite_output_exits_1_with_empty_stdout(monkeypatch, capsys):
    class Report:
        def to_dict(self):
            return {"c_tight": 0.5, "printed_vs_derived": [{"ratio": math.inf}]}

    monkeypatch.setattr(cli, "calibrate", Report)
    assert run(["calibrate"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "printed_vs_derived.0.ratio" in captured.err


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


@pytest.mark.parametrize("which,resolution", [("fig4", 16), ("fig3", 200)])
def test_figure_out_file_bytes_equal_stdout_bytes(tmp_path, capsys, which, resolution):
    # fig3 at 200 streams 40,000 rows, more than one CSV block
    argv = ["figure", "--which", which, "--resolution", str(resolution)]
    assert run(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "figure.csv"
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout
    assert stdout.count(b"\n") == 1 + (3 * resolution if which == "fig4" else resolution**2)


# Every pinned command is a row of pins.json: argv, stdout sha256 and, where not
# the default, exit code, stderr text and environment.  One contract,
# `drift._faults`, holds a row to them: `tests/drift.py --check` for every row in
# a fresh interpreter, as CI runs it, and the test below for the "tier1" rows in
# process.  "ci" holds only the rows too large for this suite.  The "tier1" rows
# cover each figure (fig3 at 256 checks math.hypot bit for bit, and both CSV
# column paths run at scale), a small sweep, `gauge` on each spec kind and on
# moment tables (one so ill-conditioned that the scan searches its whole grid,
# and the angle-underflow and bound-overflow tables above), `state
# --dump-amplitudes` on each spec kind, `calibrate`, `moments`, JSON arguments
# the decoder refuses, a 5000-digit FOCKGAUGE_MAX_CUTOFF and three argvs that
# only argparse answers (an option that does not complete its command, a value
# that starts with "-" and an abbreviated option).  A new CLI case is one row,
# recorded with `python tests/drift.py --record`.
PINS = drift.load_manifest()


@pytest.mark.parametrize("row", PINS["tier1"], ids=[row["name"] for row in PINS["tier1"]])
def test_cli_output_matches_its_pin(row, monkeypatch, capsys):
    monkeypatch.chdir(drift.ROOT)
    for name, value in row.get("env", {}).items():
        monkeypatch.setenv(name, value)
    code = run(row["argv"])
    out, err = capsys.readouterr()
    assert drift._faults(row, subprocess.CompletedProcess(row["argv"], code, out.encode(), err.encode())) == []


def test_a_closed_stdout_pipe_exits_2_with_one_line():
    # the reader takes one line of fig3 at 512, about 20 MB, and closes the pipe
    argv = [sys.executable, *drift.CLI, "figure", "--which", "fig3", "--resolution", "512"]
    child = subprocess.Popen(
        argv, cwd=drift.ROOT, env=drift._env(drift.ROOT / "src"), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert child.stdout.readline() == b"re_var_a,im_var_a,hyperboloid,cone\n"
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert child.returncode == 2
    # the whole of stderr: no traceback, and no "Exception ignored" from the exit flush
    assert err == b"input error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to make stdout unwritable")
@pytest.mark.parametrize("buffering", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_help_to_a_full_stdout_exits_2_with_one_line(buffering):
    # unbuffered, argparse's own write of the help text is the one that fails;
    # buffered, the exit flush
    env = {name: value for name, value in drift._env(drift.ROOT / "src").items() if name != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        child = subprocess.run(
            [sys.executable, *buffering, *drift.CLI, "--help"],
            cwd=drift.ROOT,
            env=env,
            stdout=full,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    assert child.returncode == 2
    assert child.stderr == b"input error: cannot write stdout: [Errno 28] No space left on device\n"


def test_benchmark_figure_pins_match_the_benchmark_references():
    # the "ci" pins of the benchmark's two figures and perfbench's references hold one digest each
    references = json.loads((drift.ROOT / "perfbench" / "references.json").read_text())
    pins = {pin["name"]: pin for pin in PINS["ci"]}
    for which, resolution in (("fig4", 2048), ("fig3", 512)):
        pin = pins[f"figure-{which}-{resolution}"]
        assert pin["argv"] == ["figure", "--which", which, "--resolution", str(resolution)]
        assert pin["sha256"] == references["figures"][which]


def test_inequality_records_are_read_only():
    summary = summarize(coherent(0.8 - 0.4j))
    record = full_report(summary, ellipse(summary)).records["tight_scan"]
    with pytest.raises(AttributeError):
        record.slack = 0.0


# where `gauge` prints each sweep row's slack; the other rows are read from `full_report`
GAUGE_SLACKS = {
    "tight_scan": ("tight", "slack"),
    "canonical_pair_x": ("canonical_pair", 0, "slack"),
    "canonical_pair_p": ("canonical_pair", 1, "slack"),
    "covariance_floor": ("constraints", "covariance_floor", "slack"),
    "uncertainty_area": ("constraints", "uncertainty_area", "slack"),
    "second_order_floor": ("constraints", "second_order_floor", "slack"),
    "relaxed_lambda_plus": ("relaxed_lambda_plus", "slack"),
    "relaxed_trace": ("relaxed_trace", "slack"),
}


def _run_floats(capsys, argv):
    # every number as a float: a zero slack prints as the JSON integer 0 or -0
    code = run(argv)
    return code, json.loads(capsys.readouterr().out, parse_int=float, parse_constant=_reject_constant)


def test_sweep_witnesses_replay_from_the_command_line(capsys):
    n_pure, cutoff, rank, seed = 6, 8, 3, 4
    config = {"n_pure": n_pure, "n_mixed": 6, "cutoff": cutoff, "rank": rank, "seed": seed}
    code, data = _run_floats(capsys, ["sweep", "--config", json.dumps(config)])
    assert code == 0
    assert set(data["tallies"]) == {row.name for row in INEQUALITIES}
    kinds = set()
    for name, tally in data["tallies"].items():
        i = int(tally["worst_seed_index"])
        if i < n_pure:
            spec = {"kind": "random_pure", "cutoff": cutoff, "seed": [seed, i]}
        else:
            spec = {"kind": "random_mixed", "cutoff": cutoff, "rank": 1 + (i - n_pure) % rank,
                    "seed": [seed, i]}
        kinds.add(spec["kind"])
        summary = summarize(state_from_spec(spec))
        slack = full_report(summary, ellipse(summary)).records[name].slack
        assert slack.hex() == tally["worst_slack"].hex(), name
        if name in GAUGE_SLACKS:
            code, report = _run_floats(capsys, ["gauge", "--spec", json.dumps(spec)])
            assert code == 0
            for key in GAUGE_SLACKS[name]:
                report = report[key]
            assert report.hex() == tally["worst_slack"].hex(), name
    assert kinds == {"random_pure", "random_mixed"}


def test_spec_from_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"kind":"fock","n":1}')
    code, data = _run_json(capsys, ["moments", "--spec", f"@{path}"])
    assert code == 0
    assert data["mean_n"] == 1.0
    assert run(["moments", "--spec", "@/nonexistent/spec.json"]) == 2
    capsys.readouterr()


def test_number_formatting():
    assert NUMBER_FORMAT % 0.5 == "0.5"
    assert NUMBER_FORMAT % (1 / 3) == "0.33333333333333331"
    assert float(NUMBER_FORMAT % (1 / 3)) == 1 / 3
    assert dumps([0.5, 1 / 3]) == "[\n  0.5,\n  0.33333333333333331\n]"
    text = dumps({"a": [1.0, None, True], "b": {"c": 2}})
    assert _strict(text) == {"a": [1.0, None, True], "b": {"c": 2}}


# ---------------------------------------------------------------- fuzzing
# Whatever the input, `run` returns 0, 1 or 2 (or the code that an example or a strategy
# pins as a fourth element), lets no exception escape and prints nothing or strict JSON.
# Specs, moment tables and sweep configs carry NaN, infinities, huge, negative and
# mistyped values; only state counts stay small, for speed, unless they are refused.

NUMBERS = st.one_of(
    st.floats(),  # NaN and both infinities included
    st.floats(-10.0, 10.0),
    st.sampled_from([1e-300, 1e-14, 1e200, -1e300, 1.7e308, 2.0**500, 10**400, -5, 3]),
)
WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([1.0]), st.just({"re": 1}))
COMPLEX = st.fixed_dictionaries({"re": NUMBERS, "im": NUMBERS})
INTEGERS = st.one_of(st.integers(-3, 20), st.sampled_from([4096, 4097, 10**6, 10**400]))
VALUES = {
    **dict.fromkeys(("alpha", "gamma"), COMPLEX),
    **dict.fromkeys(("r", "phi_s", "beta", "eps_tail"), NUMBERS),
    **dict.fromkeys(("n", "M", "rank"), INTEGERS),
    "seed": st.one_of(INTEGERS, st.lists(INTEGERS, max_size=3)),
    "cutoff": st.integers(-1, 12),
    "method": st.sampled_from(["operator", "laguerre", "newton"]),
}
assert set(VALUES) == set(_FIELDS)
TABLE = summarize(coherent(0.8 - 0.4j)).to_dict()


@st.composite
def state_specs(draw):
    # a kind's fields with, now and then, one dropped, foreign or mistyped, or a bad kind
    def rarely():
        return draw(st.integers(0, 4)) == 0

    kind = draw(st.sampled_from(sorted(_KINDS)))
    required, optional, _ = _KINDS[kind]
    names = [*required, *(name for name in optional if draw(st.booleans()))]
    if rarely():
        names = names[1:] if draw(st.booleans()) else [*names, draw(st.sampled_from(sorted(VALUES)))]
    spec = {"kind": draw(WRONG) if rarely() else kind}
    for name in names:
        spec[name] = draw(st.one_of(VALUES[name], WRONG) if rarely() else VALUES[name])
    return spec


# +-u 2^k up to SQUARE_LIMIT in magnitude, the largest a moment table may hold, often near it
EXTREME = st.builds(
    lambda u, k: u * 2.0**k, st.floats(-1.0, 1.0), st.integers(-500, 500) | st.integers(490, 500)
)


@st.composite
def moment_tables(draw):
    table = dict(TABLE)
    if draw(st.booleans()):
        # an ellipse the gauges accept, at any scale, with any amplitude: the
        # grid, the closed form and the relaxed rows all run, and a narrow
        # ellipse under a huge amplitude takes the bound beyond the float range
        cov = draw(st.floats(0.5, 1.0)) * 2.0 ** draw(st.integers(-36, 500) | st.integers(-36, -24))
        part = st.floats(-0.7, 0.7)
        table["cov_ada"] = cov
        table["var_a"] = {"re": draw(part) * cov, "im": draw(part) * cov}
        table["mean_a"] = {"re": draw(EXTREME), "im": draw(EXTREME)}
    for name in draw(st.lists(st.sampled_from(sorted(TABLE)), max_size=3)):
        is_complex = isinstance(TABLE[name], dict)
        near, extreme = st.floats(-3.0, 3.0), EXTREME
        if is_complex:
            near = st.fixed_dictionaries({"re": near, "im": near})
            extreme = st.fixed_dictionaries({"re": extreme, "im": extreme})
        table[name] = draw(st.one_of(near, near, extreme, COMPLEX if is_complex else NUMBERS, WRONG))
    return table


# any cutoff from just below to just above the random-state range; seeds of up to 42 words
SWEEPS = st.fixed_dictionaries(
    {"n_pure": st.integers(0, 3), "n_mixed": st.integers(0, 3), "cutoff": st.integers(-1, MAX_RANDOM_CUTOFF + 1)},
    optional={"rank": st.one_of(INTEGERS, WRONG), "seed": st.one_of(INTEGERS, WRONG)},
)
# more states than a sweep may hold, in either count: always a schema error
REFUSED_SWEEPS = st.builds(
    lambda config, field, count: {**config, field: count},
    SWEEPS, st.sampled_from(["n_pure", "n_mixed"]), st.sampled_from([2**32 + 1, 10**400]),
)
ARGV = st.one_of(
    st.tuples(st.sampled_from(["gauge", "state", "moments"]), st.just("--spec"), state_specs()),
    st.tuples(st.just("gauge"), st.just("--moments"), moment_tables()),
    st.tuples(st.just("sweep"), st.just("--config"), SWEEPS),
    st.tuples(st.just("sweep"), st.just("--config"), REFUSED_SWEEPS, st.just(2)),
    st.tuples(st.sampled_from(["gauge", "sweep"]), st.sampled_from(["--spec", "--moments", "--config"]),
              st.one_of(NUMBERS, WRONG)),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(ARGV)
# |alpha|^2 overflows while the coherent amplitudes are built
@example(("gauge", "--spec", {"kind": "coherent", "alpha": {"re": 1e300, "im": 0}}))
@example(("gauge", "--spec", {"kind": "cat", "alpha": {"re": 1e200, "im": 0}, "beta": 0}))
@example(("gauge", "--spec", {"kind": "crescent", "alpha": {"re": 0, "im": 1e200}, "M": 1,
                              "method": "laguerre"}))
# |alpha|^2 underflows in the Laguerre expansion
@example(("gauge", "--spec", {"kind": "crescent", "alpha": {"re": 1e-200, "im": 0}, "M": 2,
                              "method": "laguerre"}))
# the norm of |alpha> + gamma a^dag |alpha>, and the analytic one `state` prints, overflow
@example(("gauge", "--spec", {"kind": "approx_strong_field", "alpha": {"re": 1, "im": 0},
                              "gamma": {"re": 1e200, "im": 0}}))
@example(("state", "--spec", {"kind": "approx_strong_field", "alpha": {"re": 1, "im": 0},
                              "gamma": {"re": 1e200, "im": 0}}))
# the squeezed recurrence is refused before it starts, or rescaled on the way up
@example(("gauge", "--spec", {"kind": "squeezed_coherent", "alpha": {"re": 1e300, "im": 0},
                              "r": 0.5, "phi_s": 0}))
@example(("gauge", "--spec", {"kind": "squeezed_coherent", "alpha": {"re": 27, "im": 0},
                              "r": 0, "phi_s": 0}, 0))
# squares of moment-table entries overflow in the uncertainty_area and closed-form rows
@example(("gauge", "--moments", {**TABLE, "cov_ada": 1e300}))
@example(("gauge", "--moments", {**TABLE, "mean_a": {"re": 1e200, "im": 0}}))
# the var_a and stick angles underflow in atan2
@example(("gauge", "--moments", ANGLE_UNDERFLOW_A))
@example(("gauge", "--moments", ANGLE_UNDERFLOW_B))
# the scanned bound overflows on the angle grid
@example(("gauge", "--moments", BOUND_OVERFLOW, 1))
# a 42-word seed at the largest cutoff and rank, and a count no sweep may hold
@example(("sweep", "--config", {"n_pure": 3, "n_mixed": 3, "cutoff": MAX_RANDOM_CUTOFF,
                                "rank": MAX_RANDOM_CUTOFF + 1, "seed": 10**400}, 0))
@example(("sweep", "--config", {"n_pure": 10**400, "n_mixed": 0, "cutoff": 4}, 2))
def test_cli_exits_cleanly_with_strict_json(argv):
    command, flag, payload, *pinned = argv
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([command, flag, json.dumps(payload)])
    assert code in (pinned or (0, 1, 2)), err.getvalue()
    if out.getvalue():
        _strict(out.getvalue())


# Figures at small resolutions, strong-field specs with |gamma| up to 1e308
# over the benchmark's |alpha| range, and random states at any in-range cutoff
# and rank always succeed: exit 0 with the figure's documented line count or
# strict JSON, and no warning of any kind.
FIGURE_LINES = {"fig2": lambda n: n * n + 1, "fig3": lambda n: n * n + 1, "fig4": lambda n: 3 * n + 1}
assert set(FIGURE_LINES) == set(FIGURE_NAMES)
POLAR = st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))


def _complex(magnitude, phase):
    return {"re": magnitude * math.cos(phase), "im": magnitude * math.sin(phase)}


STRONG_FIELDS = st.builds(
    lambda alpha, gamma, exponent: {
        "kind": "approx_strong_field",
        "alpha": _complex(0.05 + 4.95 * alpha[0], alpha[1]),
        "gamma": _complex(gamma[0] * 10.0**exponent, gamma[1]),
    },
    POLAR,
    POLAR,
    st.integers(-300, 308) | st.integers(140, 160) | st.just(308),
)
# an integer seed, or a sweep's [S, i]
SEEDS = st.integers(0, 2**64) | st.lists(st.integers(0, 2**32), min_size=2, max_size=2)
RANDOM_STATES = st.integers(0, MAX_RANDOM_CUTOFF).flatmap(
    lambda cutoff: st.fixed_dictionaries({"kind": st.just("random_pure"), "cutoff": st.just(cutoff), "seed": SEEDS})
    | st.fixed_dictionaries(
        {"kind": st.just("random_mixed"), "cutoff": st.just(cutoff), "rank": st.integers(1, cutoff + 1), "seed": SEEDS}
    )
)
SUCCEEDING = st.one_of(
    st.tuples(st.just("figure"), st.sampled_from(FIGURE_NAMES), st.integers(MIN_RESOLUTION, 48)),
    st.tuples(st.sampled_from(["gauge", "state", "moments"]), st.just("--spec"), STRONG_FIELDS | RANDOM_STATES),
)


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(SUCCEEDING)
@example(("figure", "fig4", 48))
@example(("state", "--spec", {"kind": "approx_strong_field", "alpha": {"re": 5.0, "im": 0.0},
                              "gamma": {"re": 1e308, "im": -1e308}}))
@example(("gauge", "--spec", {"kind": "random_mixed", "cutoff": MAX_RANDOM_CUTOFF, "rank": MAX_RANDOM_CUTOFF + 1,
                              "seed": [2**32, 0]}))
@example(("moments", "--spec", {"kind": "random_pure", "cutoff": 0, "seed": 0}))
def test_figures_and_strong_fields_exit_zero(argv):
    command, first, second = argv
    if command == "figure":
        argv = [command, "--which", first, "--resolution", str(second)]
    else:
        argv = [command, first, json.dumps(second)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code == 0, err.getvalue()
    if command == "figure":
        text = out.getvalue()
        assert text.endswith("\n") and text.count("\n") == FIGURE_LINES[first](second)
    else:
        _strict(out.getvalue())
