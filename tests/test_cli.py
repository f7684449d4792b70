import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from kqlab import bergman, curvature, special
from kqlab.cli import (_rows, build_parser, main, parse_grid, profile_from_dict,
                       profile_to_dict, render_json, setup_from_dict)
from kqlab.curvature import branch_coefficients
from kqlab.profiles import linear, log_affine, log_ball

from rule_faults import nan_weight
from test_readme import EXAMPLES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_grid_parsing():
    grid = parse_grid("0:0.9:10")
    assert len(grid) == 10 and grid[0] == 0.0 and grid[-1] == pytest.approx(0.9)
    with pytest.raises(ValueError):
        parse_grid("0:1")


def test_a_grid_of_no_points_is_invalid_input(capsys):
    code, doc = run_json(capsys, "coeffs", "--family", "logball", "--A", "0.5", "--grid", "0:1:0")
    assert code == 2
    assert doc["error"] == {"type": "PreconditionFailed",
                            "message": "grid count must be >= 1, got '0:1:0'"}


def test_render_json_is_sorted_and_trimmed():
    doc = render_json({"b": 1.0 / 3.0, "a": [1, 2.5, None, True]})
    assert doc == '{"a":[1,2.5,null,true],"b":0.333333333333333}'


def _referee_render_json(obj) -> str:
    """The renderer as it was before rows took one format call: one recursive
    call per row, key and value."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(float(x), ".15g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f"{json.dumps(k)}:{_referee_render_json(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_referee_render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


@pytest.mark.parametrize("finite", [True, False])
def test_rows_render_as_the_referee_over_the_exponent_range(finite):
    # uniform random bit patterns: every exponent, nan and inf too
    bits = np.random.default_rng(7).integers(0, 2 ** 64, 40_000, dtype=np.uint64)
    values = bits.view(np.float64).tolist()
    if finite:
        values = [v for v in values if math.isfinite(v)]
    rows = [{"point": p, "value": v} for p, v in zip(values[::2], values[1::2])]
    assert (_rows(rows) is not None) == finite
    doc = {"rows": rows, "summary": {"points": len(rows)}}
    assert render_json(doc) == _referee_render_json(doc)


_EDGES = [-0.0, 0.0, 1e15, 1e16, 999999999999999.9, 5e-324, -2.2250738585072014e-308,
          1e-310, 1.7976931348623157e308, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("edge", _EDGES, ids=repr)
def test_an_edge_value_inside_rows_renders_as_the_referee(edge):
    rows = [{"point": -1.0 + j / 7, "value": j / 3} for j in range(5)]
    rows[2] = {"point": edge, "value": 2.5}
    rows[3] = {"point": 0.5, "value": edge}
    assert render_json(rows) == _referee_render_json(rows)
    assert (_rows(rows) is not None) == math.isfinite(edge)


@pytest.mark.parametrize("cast", [np.float64, np.float32, np.int64, int, bool])
def test_numpy_and_int_values_inside_rows_render_as_the_referee(cast):
    rows = [{"point": p, "value": cast(v)} for p, v in [(0.25, 3), (-1e-5, 0), (1e16, 7)]]
    rows.append({"point": cast(1.0), "value": 1.0 / 3.0})
    assert render_json(rows) == _referee_render_json(rows)


@pytest.mark.parametrize("obj", [
    [{"100%": 1.5, "%s": 2.0, "%%": 0.1}] * 3,
    [{"pöint": 1.5, "välue\u2028": -2.0}, {"pöint": 0.5, "välue\u2028": 3.0}],
    {"%d é": "100% ü \u2028 \"quoted\" \\ \t", "ñ": ["%s", "\x00"]},
    [{"point": [0.5, 1.25], "value": 2.0}, {"point": [1.0, 2.0], "value": 3.0}],
    [{"point": 1, "value": 2.0}, {"point": 2, "value": 3.0}],
    [{"point": 1.0, "value": 2.0}, {"point": 1.0}],
    [{"point": 1.0, "value": 2.0}, {"point": 1.0, "other": 2.0}],
    [{"point": 1.0, "value": 2.0}, {"point": 1.0, "value": 2.0, "x": 0.0}],
    [{"point": 1.0, "value": None}, {"point": 2.0, "value": "nan"}],
    ({"point": 1.0, "value": 2.0}, {"point": 3.0, "value": 4.0}),
    [{"value": 1.0}], [{}, {}], [], {}, [[]], [{"rows": []}], [1.0, 2.0],
], ids=["percent-keys", "non-ascii-keys", "strings", "list-points", "int-points",
        "ragged", "other-key", "extra-key", "none-and-str", "tuple", "one-key",
        "empty-dicts", "empty-list", "empty-dict", "nested-empty", "list-value", "floats"])
def test_other_documents_render_as_the_referee(obj):
    assert render_json(obj) == _referee_render_json(obj)


@pytest.mark.parametrize("obj", [{1: 2.0}, {None: 1.0}, {(1, 2): 1.0}, [{1: 2.0}] * 3,
                                 {"rows": [{1: 2.0, 2: 3.0}]}])
def test_a_key_that_is_not_a_string_is_refused(obj):
    with pytest.raises(TypeError, match="JSON keys are strings"):
        render_json(obj)


def test_balanced_pass(capsys):
    code, doc = run_json(capsys, "balanced", "--k", "1", "--r", "2", "--m", "2",
                         "--grid", "0:0.9:10")
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["summary"]["verdict"] == "pass"
    assert doc["summary"]["value"] == pytest.approx(20.0 / 9.0, rel=1e-10)
    assert doc["summary"]["target"] == pytest.approx(20.0 / 9.0, rel=1e-13)
    assert len(doc["rows"]) == 10


def test_balanced_precondition_exit_code(capsys):
    code, doc = run_json(capsys, "balanced", "--k", "1", "--r", "1",
                         "--part", "ball")
    assert code == 2
    assert doc["error"]["type"] == "PreconditionFailed"
    assert "kr>1" in doc["error"]["message"]


def test_classify_nonconstant_exit_code(capsys):
    code, doc = run_json(capsys, "classify", "--family", "logball", "--A", "1",
                         "--d", "2", "--d0", "1", "--lambda", "2")
    assert code == 1
    assert doc["summary"]["verdict"] == "fail"


def test_classify_branch_pass(capsys):
    code, doc = run_json(capsys, "classify", "--family", "logball", "--A", "0.5",
                         "--d", "1", "--d0", "2", "--lambda", "1")
    assert code == 0
    assert doc["summary"]["branch"] == "2.10"
    assert doc["summary"]["a1"] == pytest.approx(-0.5 * 3 * 4 * 0.5, rel=1e-9)


def test_classify_passes_the_branch_near_the_zero_section(capsys):
    # the first grid reaches x = 1e-5, where the 1/x form of the fields
    # deviated by 6.7e-8 and the command exited 1 with no branch; the second
    # x = 1.02e-12, which the floor 1e-6 of every profile refused (exit 2)
    for grid in ("-12.2:-1.1:16", "-28.3:-1.1:16"):
        code, doc = run_json(capsys, "classify", "--family", "logball", "--A", "0.5",
                             "--d", "1", "--d0", "2", "--lambda", "1", f"--grid={grid}")
        assert code == 0 and doc["summary"]["branch"] == "2.10", grid
        assert doc["summary"]["max_deviation"] <= 1e-12, grid


def test_psi_both_methods(capsys):
    code, doc = run_json(capsys, "psi", "--family", "logball", "--A", "0.5",
                         "--d", "1", "--d0", "2", "--lambda", "1",
                         "--alpha", "4", "--table-k", "8")
    assert code == 0
    assert doc["rows"][0]["value"] == pytest.approx(6.0 / 35.0, rel=1e-12)
    assert doc["summary"]["max_deviation"] <= 1e-10


def test_bergman_target(capsys):
    code, doc = run_json(capsys, "bergman", "--family", "linear", "--d", "1",
                         "--d0", "1", "--lambda", "1", "--domain", "fullspace",
                         "--alpha", "3", "--grid", "0:1.5:7")
    assert code == 0
    assert doc["summary"]["target"] == pytest.approx(9.0)
    for row in doc["rows"]:
        assert row["value"] == pytest.approx(9.0, rel=1e-10)


def test_identity_subcommand(capsys):
    code, doc = run_json(capsys, "identity", "--family", "logball",
                         "--A", "0.3333333333333333", "--d", "1", "--d0", "2",
                         "--lambda", "1", "--alpha", "2", "--grid", "0:0.9:10")
    assert code == 0
    assert doc["summary"]["max_deviation"] <= 1e-8


def test_oracle_cp1_subcommand(capsys):
    code, doc = run_json(capsys, "oracle-cp1", "--k", "2", "--m", "3")
    assert code == 0
    assert doc["summary"]["target"] == pytest.approx(3.5)
    assert doc["summary"]["max_deviation"] <= 1e-6


def test_oracle_cp1_at_huge_modulus(capsys):
    code, doc = run_json(capsys, "oracle-cp1", "--k", "2", "--m", "3", "--grid", "0:1e200:2")
    assert code == 0 and doc["summary"]["verdict"] == "pass"
    assert [row["point"] for row in doc["rows"]] == [0.0, 1e200]
    assert all(abs(row["value"] - 3.5) <= 1e-14 for row in doc["rows"])


def test_oracle_hartogs_subcommand(capsys):
    code, doc = run_json(capsys, "oracle-hartogs", "--k", "2", "--m", "2",
                         "--Q", "60")
    assert code == 0
    assert doc["summary"]["target"] == pytest.approx(2.625)
    assert doc["summary"]["max_deviation"] <= 1e-3
    assert doc["summary"]["tail_fraction"] <= 1e-3


def test_reports_are_byte_identical(capsys):
    # the oracle sums its norms as BLAS matrix products; a rerun gives the same bytes
    (hartogs,) = [argv for argv, _ in EXAMPLES if argv[0] == "oracle-hartogs"]
    for args in (("balanced", "--k", "2", "--r", "1", "--m", "3", "--grid", "0:0.8:6"),
                 hartogs):
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second


def test_csv_points_of_the_hartogs_oracle_are_s_and_rho(capsys):
    # a sample point is an (s, rho) pair, written s;rho
    argv = ("oracle-hartogs", "--k", "2", "--m", "2", "--Q", "60")
    code, out = run_cli(capsys, *argv, "--output", "csv")
    _, doc = run_json(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "point,value" and len(lines) == 5
    assert [line.split(",")[0] for line in lines[1:]] == ["0;0", "0.5;0.3", "1;0.5", "2;0.7"]
    assert [float(line.split(",")[1]) for line in lines[1:]] == [
        row["value"] for row in doc["rows"]]


def test_csv_output(capsys):
    code, out = run_cli(capsys, "bergman", "--family", "linear", "--d", "1",
                        "--d0", "1", "--lambda", "1", "--domain", "fullspace",
                        "--alpha", "2", "--grid", "0:0.4:3", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "point,value"
    assert lines[1].split(",") == ["0", "4"]
    assert len(lines) == 4


@pytest.mark.parametrize("base", [
    {"a1": 0.5, "a2": 0.0, "eps": {"kind": "affine", "offset": 0.5}},
    {"a1": 0.5, "a2": 0.0, "eps": {"kind": "product", "shift": -2, "count": 2}},
    {"a1": 0.5, "a2": 0.0, "eps": {"kind": "power", "exponent": 3}},
    {"preset": "cp1", "k": 2}, {"preset": "branch"},
], ids=["affine", "product", "power", "cp1", "branch"])
def test_a_setup_document_read_twice_gives_equal_setups(base):
    doc = {"d": 1, "d0": 2, "twist": 1.0, "domain": "ball", "alpha": 4.0,
           "profile": {"family": "logball", "A": 0.5}, "base": base}
    assert setup_from_dict(doc) == setup_from_dict(doc)
    assert setup_from_dict(doc) != setup_from_dict(dict(doc, alpha=5.0))


def test_eps_kinds_are_the_stated_laws():
    def law(eps):
        return setup_from_dict({"d": 1, "d0": 1, "domain": "ball", "alpha": 2.0,
                                "profile": {"family": "logball", "A": 0.5},
                                "base": {"a1": 0.5, "a2": 0.0, "eps": eps}}).base.eps
    for a in (0.3, 2.0, 7.25):
        assert law({"kind": "affine", "offset": 0.7})(a) == a + 0.7
        assert law({"kind": "product", "shift": -2, "count": 2})(a) == (a + 2) * (a + 4)
        assert law({"kind": "power", "exponent": 3})(a) == a ** 3


def test_out_file_and_setup_document(tmp_path, capsys):
    setup = {
        "d": 1, "d0": 2, "twist": 1.0, "domain": "ball", "alpha": 4.0,
        "profile": {"family": "logball", "A": 0.5},
        "base": {"a1": 0.5, "a2": 0.0, "eps": {"kind": "affine", "offset": 0.5}},
    }
    doc_path = tmp_path / "setup.json"
    doc_path.write_text(json.dumps(setup))
    out_path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "psi", "--setup", str(doc_path), "--table-k", "6",
                      "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["summary"]["verdict"] == "pass"
    assert doc["setup"]["profile"]["A"] == pytest.approx(0.5)


def test_invalid_grid_exit_code(capsys):
    code, doc = run_json(capsys, "coeffs", "--family", "logball", "--A", "0.5",
                         "--grid", "nonsense")
    assert code == 2
    assert "error" in doc


def test_coeffs_quantities(capsys):
    code, doc = run_json(capsys, "coeffs", "--family", "logball", "--A", "0.5",
                         "--d", "1", "--d0", "2", "--lambda", "1",
                         "--quantity", "a2")
    assert code == 0
    n = 3
    expected = (n - 1) * n * (n + 1) * (3 * n + 2) * 0.25 / 24.0
    assert doc["summary"]["mean"] == pytest.approx(expected, rel=1e-9)
    assert doc["summary"]["max_deviation"] <= 1e-9


_ALPHA_152 = ("bergman", "--family", "logball", "--A", "0.5", "--d", "1", "--d0", "2",
              "--alpha", "152", "--psi-method", "quadrature", "--grid", "0.5:0.5:1",
              "--max-k", "20")


def test_overflowing_quadrature_exits_nonconvergent(capsys, monkeypatch):
    monkeypatch.setattr(bergman, "roots_jacobi", nan_weight(bergman.roots_jacobi))
    code, doc = run_json(capsys, *_ALPHA_152)
    assert code == 3
    assert doc["error"]["type"] == "QuadratureNonConvergent"


@pytest.mark.parametrize("A, alpha", [("1e-6", "1000"), ("1", "1e9"), ("1e-300", "1e6")],
                         ids=["exponent-1e9", "alpha-1e9", "exponent-1e306"])
def test_huge_weight_exponent_is_refused_at_once(capsys, A, alpha):
    # the Jacobi weight exponent alpha/A - n - 1 reaches 1e9 and 1e306 here, and
    # the rule's weights leave the float range: a typed refusal, not one Beta
    # shift step per unit of the exponent
    start = time.process_time()
    code, doc = run_json(capsys, "psi", "--family", "logball", "--A", A, "--d", "1",
                         "--d0", "2", "--lambda", "1", "--alpha", alpha,
                         "--method", "quadrature")
    assert time.process_time() - start < 5.0
    assert code == 3
    assert doc["error"]["type"] == "QuadratureNonConvergent"


def test_2000_node_rule_with_exponent_300_is_finite(capsys):
    # scipy's 2000-node Gauss-Jacobi rule with weight exponent 300 overflowed
    # here; the rule is finite now, and 20 fiber degrees are too few at rho 0.5
    code, doc = run_json(capsys, *_ALPHA_152, "--quad-nodes", "2000")
    assert code == 3
    assert doc["error"] == {"type": "SeriesNonConvergent", "message":
                            "series tail not below 1e-16 after 20 fiber degrees"}


def test_negative_grid_as_separate_word(capsys):
    base = ("coeffs", "--family", "logball", "--A", "0.5", "--d", "1", "--d0", "2")
    code, spaced = run_cli(capsys, *base, "--grid", "-4:-0.5:16")
    assert code == 0
    assert run_cli(capsys, *base, "--grid=-4:-0.5:16") == (0, spaced)
    assert len(json.loads(spaced)["rows"]) == 16


@pytest.mark.parametrize("argv", [
    ("classify", "--family", "logball", "--A", "0.5"),
    ("bergman", "--family", "linear", "--domain", "fullspace"),
    ("identity", "--family", "linear", "--domain", "fullspace"),
    ("balanced", "--k", "2", "--r", "1"),
    ("oracle-cp1", "--k", "1", "--m", "1"),
])
def test_other_grid_options_take_a_negative_start(capsys, argv):
    _, doc = run_json(capsys, *argv, "--grid", "-1:-0.5:8")
    # parsed: a t-grid gives rows, a negative radius is typed invalid input
    assert len(doc.get("rows", ())) == 8 or doc["error"]["type"] == "OutOfDomain"


def test_moment_diagnostics_in_summaries(capsys):
    code, doc = run_json(capsys, "balanced", "--k", "2", "--r", "2", "--m", "3")
    assert code == 0
    summary = doc["summary"]
    assert (summary["gauss_rules"], summary["nodes_per_rule"],
            summary["fiber_degrees"]) == (8, 64, 491)
    code, doc = run_json(capsys, "bergman", "--family", "linear", "--d", "1",
                         "--d0", "1", "--lambda", "1", "--domain", "fullspace",
                         "--alpha", "3", "--grid", "0:1.5:7")
    summary = doc["summary"]
    assert code == 0 and summary["gauss_rules"] == 0
    assert summary["nodes_per_rule"] == 0 and summary["fiber_degrees"] > 0


@pytest.mark.parametrize("command", ["coeffs", "classify"])
def test_curvature_diagnostics_in_summaries(capsys, command):
    _, doc = run_json(capsys, command, "--family", "logball", "--A", "0.5", "--d", "1",
                      "--d0", "2", "--lambda", "1", "--grid", "-3:-0.5:9")
    summary = doc["summary"]
    assert summary["jet_order"] == curvature.REPORT_ORDER == 4
    assert summary["points"] == len(doc["rows"]) == 9


@pytest.mark.parametrize("extra, rules", [
    (("--family", "logball", "--A", "0.5", "--method", "both"), 5),
    (("--family", "logball", "--A", "0.5", "--method", "closed"), 0),
    # no moment model for a linear profile on the ball: adaptive quadrature
    (("--family", "linear", "--alpha", "3", "--method", "quadrature"), 0),
], ids=["both", "closed", "adaptive"])
def test_psi_rule_diagnostics_in_summary(capsys, extra, rules):
    code, doc = run_json(capsys, "psi", "--d", "1", "--d0", "2", "--lambda", "1",
                         "--table-k", "4", "--quad-nodes", "48", *extra)
    assert code == 0 and len(doc["rows"]) == 5
    assert (doc["summary"]["gauss_rules"], doc["summary"]["nodes_per_rule"]) == (
        rules, 48 if rules else 0)


@pytest.mark.parametrize("p", [log_ball(0.5), linear(2.5), log_affine(-0.7, 1.3)],
                         ids=["logball", "linear", "logaffine"])
def test_profile_dict_round_trip(p):
    assert profile_from_dict(profile_to_dict(p)) == p


@pytest.mark.parametrize("model, a1, a2", [
    # log-ball on the full space: d = 1, (d0*twist - n*A, 0)
    (("--family", "logball", "--A", "0.5", "--domain", "fullspace"), 2 - 3 * 0.5, 0.0),
    # linear on the ball: A = 0, so (d0*twist, 0)
    (("--family", "linear", "--c", "2"), 2.0, 0.0),
    # log-affine on the ball: (d0*twist - n*A, 0)
    (("--family", "logaffine", "--A", "-0.5"), 2 + 3 * 0.5, 0.0),
    # log-ball with A != twist at d = 2: branch_coefficients(d, twist)
    (("--family", "logball", "--A", "0.5", "--d", "2", "--d0", "1"),
     *branch_coefficients(2, 1.0)),
], ids=["logball", "linear", "logaffine", "logball-d2"])
def test_branch_base_off_the_branch_windows(capsys, model, a1, a2):
    argv = ("coeffs", "--d", "1", "--d0", "2", "--lambda", "1") + model
    code, doc = run_json(capsys, *argv)
    assert code == 0
    base = doc["setup"]["base"]
    assert base["preset"] == "branch"
    assert (base["a1"], base["a2"]) == (pytest.approx(a1, rel=1e-14, abs=1e-14),
                                        pytest.approx(a2, rel=1e-14, abs=1e-14))


_TOTAL_SPACE = ("--family", "linear", "--d", "1", "--d0", "1", "--lambda", "1",
                "--domain", "fullspace", "--alpha", "3")


def test_overflowing_series_term_exits_nonconvergent(capsys):
    # at rho = 240 the terms grow as 720^k/k! and leave the float range at
    # k = 608, long before the series would settle: refused at that term, not
    # after --max-k degrees
    start = time.process_time()
    code, doc = run_json(capsys, "bergman", *_TOTAL_SPACE, "--grid", "0:240:3",
                         "--max-k", "1000000")
    assert time.process_time() - start < 5.0
    assert code == 3
    assert doc["error"] == {"type": "SeriesNonConvergent", "message":
                            "series term 608 at rho=240.0 leaves the float range"}


@pytest.mark.parametrize("doc", [
    {"d": 1, "d0": 2, "twist": 1.0, "domain": "ball", "alpha": 1e160,
     "profile": {"family": "logball", "A": 0.5},
     "base": {"a1": 0.5, "a2": 0.0, "eps": {"kind": "power", "exponent": 2}}},
    {"d": 2, "d0": 1, "twist": -1.0, "domain": "fullspace", "alpha": 0.0,
     "profile": {"family": "logaffine", "A": -1.0, "c": 1.0},
     "base": {"a1": 3.0, "a2": 2.0, "eps": {"kind": "power", "exponent": -1}}},
], ids=["alpha-squared-overflows", "zero-to-the-minus-one"])
def test_a_base_law_past_the_float_range_at_alpha_exits_nonconvergent(tmp_path, capsys, doc):
    # term 0 is the base law at alpha itself, 1e320 and 1/0 here: it is refused
    # as every other term is, where it raised OverflowError and ZeroDivisionError
    code, out = run_json(capsys, "bergman", "--setup", _write(tmp_path, doc), "--grid", "0:0.5:3")
    assert code == 3
    assert out["error"] == {"type": "SeriesNonConvergent",
                            "message": "series term 0 at rho=0.5 leaves the float range"}


def test_an_identity_over_a_base_law_vanishing_at_alpha_exits_precondition(capsys):
    # eps = alpha + a1 = 0 at alpha 2: it exited 1 with ZeroDivisionError
    code, doc = run_json(capsys, "identity", "--family", "logball", "--A", "0.5", "--d", "1",
                         "--d0", "1", "--lambda", "1", "--base", "coeffs", "--a1-base", "-2",
                         "--alpha", "2", "--grid", "0:0.5:3")
    assert code == 2
    assert doc["error"] == {"type": "PreconditionFailed", "message":
                            "eps(alpha) = 0 at alpha = 2.0: the generating identity divides by it"}


def test_an_adaptive_moment_past_the_float_range_exits_nonconvergent(capsys):
    # the linear family has no Gauss moment model on the ball, so psi is integrated
    # adaptively, and its density e^(1000 u) leaves the float range inside the ball
    code, doc = run_json(capsys, "psi", "--family", "linear", "--d", "1", "--d0", "1",
                         "--lambda", "1", "--alpha", "-1000", "--method", "quadrature",
                         "--table-k", "0")
    assert code == 3
    assert doc["error"]["type"] == "QuadratureNonConvergent"
    assert doc["error"]["message"].startswith("fiber density H(alpha, u) leaves the float range")


def test_a_block_density_past_the_float_range_exits_nonconvergent(capsys):
    # g = H/weight of the log-ball block is about A^-2 = 1e320 at every node: the
    # moment is inf and refused
    code, doc = run_json(capsys, "psi", "--family", "logball", "--A", "1e-160", "--d", "1",
                         "--d0", "1", "--lambda", "1", "--alpha", "1e-158",
                         "--method", "quadrature", "--table-k", "2")
    assert code == 3
    assert doc["error"] == {"type": "QuadratureNonConvergent", "message":
                            "fiber moment psi(alpha, 0) = inf from a 64-node Gauss rule "
                            "is not finite and positive"}


@pytest.mark.parametrize("grid", ["0:40:5", "0:60:3", "0:200:9"])
def test_closed_total_space_series_at_large_radii(capsys, grid):
    # the terms are normalised at the largest radius, so no rho ** k is formed
    code, doc = run_json(capsys, "bergman", *_TOTAL_SPACE, "--grid", grid)
    assert code == 0 and doc["summary"]["target"] == 9
    assert all(abs(row["value"] - 9.0) <= 1e-10 for row in doc["rows"])


@pytest.mark.parametrize("grid", ["0:10:5", "0:40:5"])
def test_identity_judges_a_relative_deviation(capsys, grid):
    # the closed side is e^(3 rho), 1.1e13 at rho = 10 and 1.3e52 at rho = 40
    code, doc = run_json(capsys, "identity", *_TOTAL_SPACE, "--grid", grid)
    assert code == 0 and doc["summary"]["verdict"] == "pass"
    assert doc["summary"]["max_deviation"] <= 1e-14
    assert doc["rows"][-1]["value"] == pytest.approx(math.exp(3.0 * doc["rows"][-1]["point"]),
                                                     rel=1e-14)


_HUGE_LEVEL = ("psi", "--family", "linear", "--domain", "fullspace", "--d", "1", "--d0", "1",
               "--lambda", "1", "--alpha", "1e30")


@pytest.mark.parametrize("method", ["both", "closed"])
def test_underflowing_closed_moment_exits_nonconvergent(capsys, method):
    # psi(alpha, k) = k! (alpha + k + 1)/alpha^(k+2) is normal to k = 9 (3.6e-295)
    # and falls below the normal range at k = 10 (3.6e-324)
    alpha = Fraction(1e30)
    s = bergman.QuantizationSetup(d0=1, domain="fullspace",
                                  profile=linear(1.0), alpha=1e30,
                                  base=curvature.BaseGeometry.fubini_study_cp1(1, 1.0))
    code, doc = run_json(capsys, *_HUGE_LEVEL, "--table-k", "9", "--method", method)
    assert code == 0 and [row["point"] for row in doc["rows"]] == list(range(10))
    for k, row in enumerate(doc["rows"]):
        exact = float(math.factorial(k) * (alpha + k + 1) / alpha ** (k + 2))
        assert bergman.psi_moment(s, k) == pytest.approx(exact, rel=1e-15, abs=0.0), k
        # the report prints 15 significant digits
        assert row["value"] == pytest.approx(exact, rel=5e-15, abs=0.0), k
    code, doc = run_json(capsys, *_HUGE_LEVEL, "--table-k", "12", "--method", method)
    assert code == 3
    assert doc["error"]["type"] == "QuadratureNonConvergent"
    assert "psi(alpha, 10)" in doc["error"]["message"]


def test_overflowing_closed_moment_exits_nonconvergent(capsys):
    # alpha/A = 1e306, where Gamma(alpha/A) leaves the float range: psi(alpha, 0)
    # = (alpha + 1 - 2A)/((alpha - A)(alpha - 2A)) is 1.000001e-6, and psi(alpha, 1),
    # about 1e-312, is below the normal range
    argv = ("psi", "--family", "logball", "--A", "1e-300", "--d", "1", "--d0", "1",
            "--lambda", "1", "--alpha", "1e6", "--method", "closed")
    alpha, A = Fraction(1e6), Fraction(1e-300)
    code, doc = run_json(capsys, *argv, "--table-k", "0")
    assert code == 0
    exact = (alpha + 1 - 2 * A) / ((alpha - A) * (alpha - 2 * A))
    assert doc["rows"][0]["value"] == pytest.approx(float(exact), rel=1e-15, abs=0.0)
    code, doc = run_json(capsys, *argv, "--table-k", "1")
    assert code == 3
    assert doc["error"]["type"] == "QuadratureNonConvergent"
    assert "psi(alpha, 1)" in doc["error"]["message"]


def test_closed_ball_ratio_finite_past_an_overflowing_product(capsys):
    # the ratio psi(0)/psi(1) = (alpha/A) x_0/x_1 is about 2.5e299, but
    # (alpha/A) x_0 = 5e309 is not a float
    argv = ("psi", "--family", "logball", "--A", "1e-300", "--d", "1", "--d0", "1",
            "--lambda", "1e10", "--alpha", "0.5", "--method", "closed", "--table-k", "1")
    code, doc = run_json(capsys, *argv)
    assert code == 0
    alpha, A, lam = Fraction(0.5), Fraction(1e-300), Fraction(1e10)
    exact = (alpha + 2 * lam - 2 * A) * A / (alpha * (alpha - A) * (alpha - 2 * A))
    assert doc["rows"][1]["value"] == pytest.approx(float(exact), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("nodes", ["4", "8"])
def test_balanced_block_moments_exact_at_few_nodes(capsys, nodes):
    # a block spans at most as many degrees as the rule has nodes
    code, doc = run_json(capsys, "balanced", "--k", "2", "--r", "2", "--m", "3",
                         "--quad-nodes", nodes)
    assert code == 0 and doc["summary"]["verdict"] == "pass"
    assert doc["summary"]["max_deviation"] <= 1e-12


@pytest.mark.parametrize("nodes", ["0", "-3"])
def test_balanced_without_gauss_nodes_is_invalid(capsys, nodes):
    code, _ = run_json(capsys, "balanced", "--k", "2", "--r", "2", "--m", "3",
                       "--quad-nodes=" + nodes)
    assert code == 2


# One argv per subcommand that registers --tol; all but classify also register
# --quad-nodes.  psi, bergman, identity and balanced build no Gauss rule here.
_ARGV = {
    "classify": ("classify", "--family", "logball", "--A", "0.5"),
    "psi": ("psi", "--family", "logball", "--A", "0.5", "--d", "1", "--d0", "2",
            "--method", "closed"),
    "bergman": ("bergman", "--family", "linear", "--d", "1", "--d0", "1", "--lambda", "1",
                "--domain", "fullspace", "--alpha", "3"),
    "identity": ("identity", "--family", "linear", "--domain", "fullspace"),
    "balanced": ("balanced", "--k", "2", "--r", "1", "--psi-method", "closed"),
    "oracle-cp1": ("oracle-cp1", "--k", "1", "--m", "1"),
    "oracle-hartogs": ("oracle-hartogs", "--k", "1", "--m", "1"),
}


@pytest.mark.parametrize("option, value", [
    ("--quad-nodes", "-5"), ("--quad-nodes", "0"), ("--tol", "-1"), ("--tol", "nan"),
], ids=["quad-nodes-negative", "quad-nodes-zero", "tol-negative", "tol-nan"])
def test_option_values_are_checked_at_parse_time(capsys, option, value):
    for command, argv in _ARGV.items():
        if option == "--quad-nodes" and command == "classify":
            continue
        code, doc = run_json(capsys, *argv, option + "=" + value)
        assert code == 2, command
        assert doc["error"]["type"] == "PreconditionFailed", command
        assert option in doc["error"]["message"], command


@pytest.mark.parametrize("command", ["bergman", "identity"])
def test_negative_max_k_is_invalid_input(capsys, command):
    code, doc = run_json(capsys, *_ARGV[command], "--max-k", "-3")
    assert code == 2
    assert doc["error"]["type"] == "PreconditionFailed"
    assert "max" in doc["error"]["message"]


_PROJECTIVE_CPD = ("--family", "logaffine", "--A", "-1", "--c", "1", "--d", "2", "--d0", "1",
                   "--lambda", "-1", "--domain", "fullspace", "--base", "cpd", "--alpha", "9",
                   "--grid", "0:0.9:3")


@pytest.mark.parametrize("command", ["bergman", "identity"])
def test_max_k_short_of_the_projective_spectrum_exits_nonconvergent(capsys, command):
    # the degrees 0..9 were cut to 0..3 and the truncated sum judged "fail" (exit 1)
    code, doc = run_json(capsys, command, *_PROJECTIVE_CPD, "--max-k", "3")
    assert code == 3
    assert doc["error"] == {"type": "SeriesNonConvergent",
                            "message": "admissible fiber degrees run past k_max = 3"}
    assert run_json(capsys, command, *_PROJECTIVE_CPD, "--max-k", "9")[0] == 0


@pytest.mark.parametrize("grid, degrees", [("0:20:3", 135), ("0:27:3", 166)])
def test_total_space_quadrature_series_reach(capsys, grid, degrees):
    # a block moment that overflows is refused only when the series asks for it
    code, doc = run_json(capsys, "bergman", "--family", "linear", "--d", "1",
                         "--d0", "1", "--lambda", "1", "--domain", "fullspace",
                         "--alpha", "3", "--psi-method", "quadrature", "--grid", grid)
    assert code == 0 and doc["summary"]["verdict"] == "pass"
    assert doc["summary"]["fiber_degrees"] == degrees


@pytest.mark.parametrize("extra", [("--Q", "40", "--quad-nodes", "400")],
                         ids=["rule-overflows"])
def test_non_finite_gram_oracle_exits_nonconvergent(capsys, monkeypatch, extra):
    monkeypatch.setattr(special, "roots_genlaguerre", nan_weight(special.roots_genlaguerre))
    code, doc = run_json(capsys, "oracle-hartogs", "--k", "1", "--m", "2",
                         "--part", "total", *extra)
    assert code == 3
    assert doc["error"]["type"] == "QuadratureNonConvergent"


def test_total_space_gram_oracle_at_400_laguerre_nodes(capsys):
    # scipy's 400-node Laguerre rule overflowed here; its weights past the
    # float range are 0 now, and the oracle meets its target m^2 = 4
    code, doc = run_json(capsys, "oracle-hartogs", "--k", "1", "--m", "2",
                         "--part", "total", "--Q", "40", "--quad-nodes", "400")
    assert code == 0
    assert doc["summary"]["target"] == 4.0
    assert doc["summary"]["max_deviation"] <= 1e-13


def test_total_space_gram_oracle_reaches_q120(capsys):
    # xi ** 120 overflows on the 200-node Laguerre rule; relative powers do not
    code, doc = run_json(capsys, "oracle-hartogs", "--k", "1", "--m", "2",
                         "--part", "total", "--Q", "120")
    assert code == 0
    assert doc["summary"]["target"] == pytest.approx(4.0, rel=1e-14)
    assert doc["summary"]["max_deviation"] <= 1e-12


@pytest.mark.parametrize("q_cap", ["60", "200"])
def test_a_gram_tail_that_does_not_decay_names_q_cap_and_the_node_count(capsys, q_cap):
    # on a two-node rule the top fiber shells never decay, so raising q_cap
    # alone cannot help; the refusal used to advise only that
    code, doc = run_json(capsys, "oracle-hartogs", "--k", "2", "--m", "2", "--Q", q_cap,
                         "--quad-nodes", "2")
    assert code == 3 and doc["error"]["type"] == "TruncationInsufficient"
    message = doc["error"]["message"]
    assert "do not decay (ratio >= 1)" in message, message
    assert f"at q_cap={q_cap} on 2 quadrature nodes" in message, message


def test_a_finite_gram_tail_keeps_its_estimate_and_advice(capsys):
    code, doc = run_json(capsys, "oracle-hartogs", "--k", "2", "--m", "3", "--Q", "60")
    assert code == 3
    assert doc["error"]["message"] == ("fiber-degree tail estimate 3.346e-03 above "
                                       "1.0e-03; raise q_cap")


def test_oracle_summaries_report_nodes_per_rule(capsys):
    argv = ("oracle-hartogs", "--k", "2", "--m", "2", "--Q", "60", "--quad-nodes", "120")
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    assert json.loads(first)["summary"]["nodes_per_rule"] == 120
    for argv in (("oracle-hartogs", "--k", "2", "--m", "2", "--Q", "60"),
                 ("oracle-cp1", "--k", "2", "--m", "3")):
        code, doc = run_json(capsys, *argv)
        assert code == 0 and doc["summary"]["nodes_per_rule"] == 200


def test_closed_identity_off_its_branch_is_invalid(capsys):
    # d = 2 needs A equal to the twist; the closed ratios would ignore A
    code, doc = run_json(capsys, "identity", "--family", "logball", "--A", "0.5",
                         "--d", "2", "--d0", "1", "--lambda", "1", "--alpha", "5")
    assert code == 2
    assert doc["error"]["type"] == "BranchInvalid"


def test_default_base_law_follows_the_twist(capsys):
    # projective branch at twist -2: the base law is prod_j (alpha + 2j)
    code, doc = run_json(capsys, "bergman", "--family", "logaffine", "--A", "-2",
                         "--d", "2", "--d0", "1", "--lambda", "-2",
                         "--domain", "fullspace", "--alpha", "4",
                         "--psi-method", "quadrature", "--grid", "0:1.5:6")
    assert code == 0
    assert doc["setup"]["base"]["eps"] == {"kind": "product", "shift": -2, "count": 2}
    assert doc["summary"]["max_deviation"] <= 1e-12


def test_missing_profile_parameter_is_invalid_input(capsys):
    code, doc = run_json(capsys, "coeffs", "--family", "logaffine")
    assert code == 2
    assert doc["error"]["type"] == "PreconditionFailed"


# -- setup documents, grids and tables that leave nothing to compute -----------


_SETUP = {
    "d": 1, "d0": 2, "twist": 1.0, "domain": "ball", "alpha": 4.0,
    "profile": {"family": "logball", "A": 0.5},
    "base": {"a1": 0.5, "a2": 0.0, "eps": {"kind": "affine", "offset": 0.5}},
}


def _without(doc: dict, path: tuple) -> dict:
    """A deep copy of ``doc`` with the field at ``path`` left out."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    del inner[path[-1]]
    return doc


@pytest.mark.parametrize("command, path", [
    ("psi", ("d",)),
    ("bergman", ("base", "eps", "offset")),
], ids=["psi-without-d", "bergman-eps-without-offset"])
def test_setup_document_missing_field_is_invalid_input(tmp_path, capsys, command, path):
    doc_path = tmp_path / "setup.json"
    doc_path.write_text(json.dumps(_without(_SETUP, path)))
    code, doc = run_json(capsys, command, "--setup", str(doc_path))
    assert code == 2
    assert doc["error"]["type"] == "PreconditionFailed"
    assert repr(path[-1]) in doc["error"]["message"]


_LOGBALL = ("--family", "logball", "--A", "0.5", "--d", "1", "--d0", "2")


@pytest.mark.parametrize("argv", [
    ("coeffs", *_LOGBALL, "--grid=nan:-1:3"),
    ("classify", *_LOGBALL, "--grid=-inf:-1:8"),
    ("bergman", *_LOGBALL, "--grid=nan:0.5:3"),
], ids=["coeffs-nan", "classify-inf", "bergman-nan"])
def test_non_finite_grid_is_invalid_input(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["error"]["type"] == "PreconditionFailed"
    assert "finite" in doc["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("psi", *_LOGBALL, "--alpha", "nan"),
    ("bergman", "--family", "linear", "--d", "1", "--d0", "1", "--domain", "fullspace",
     "--alpha", "inf"),
    ("psi", *_LOGBALL, "--lambda", "nan"),
    ("classify", *_LOGBALL, "--lambda", "inf"),
    ("balanced", "--k", "1", "--r", "1", "--m", "2", "--part", "total", "--c", "nan"),
    ("oracle-hartogs", "--k", "1", "--m", "2", "--part", "total", "--c", "inf"),
    ("coeffs", *_LOGBALL, "--base", "coeffs", "--a1-base", "nan"),
    ("bergman", *_LOGBALL, "--base", "coeffs", "--a2-base", "inf"),
], ids=["psi-alpha-nan", "bergman-alpha-inf", "psi-twist-nan", "classify-twist-inf",
        "balanced-c-nan", "oracle-c-inf", "coeffs-base-nan", "bergman-base-inf"])
def test_non_finite_level_is_invalid_input(capsys, argv):
    # not a non-convergence (exit 3), nor NaN rows with a fail verdict (exit 1):
    # the model itself is bad input
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["error"]["type"] == "PreconditionFailed"
    assert "finite" in doc["error"]["message"]


@pytest.mark.parametrize("argv, named", [
    (("coeffs", "--family", "logaffine", "--A", "nan", "--c", "1"), "A"),
    (("classify", "--family", "logball", "--A", "inf", "--d", "2", "--d0", "1",
      "--lambda", "1"), "A"),
    (("coeffs", "--family", "linear", "--c", "inf", "--domain", "fullspace"), "c"),
], ids=["logaffine-A-nan", "logball-A-inf", "linear-c-inf"])
def test_non_finite_profile_parameter_is_named(capsys, argv, named):
    code, doc = run_json(capsys, *argv)
    assert code == 2 and doc["error"]["type"] == "PreconditionFailed"
    assert f"needs a finite {named}," in doc["error"]["message"]


@pytest.mark.parametrize("argv, flag, fixed", [
    (("psi", *_LOGBALL, "--alpha", "4", "--table-k", "2"), "--c", "1.0"),
    (("psi", "--family", "linear", "--domain", "fullspace", "--d", "1", "--d0", "1",
      "--alpha", "2", "--table-k", "2"), "--A", "0"),
], ids=["logball-c", "linear-A"])
def test_a_model_value_the_family_does_not_read_is_refused(capsys, argv, flag, fixed):
    code, doc = run_json(capsys, *argv, flag, "5")
    assert code == 2 and doc["error"]["type"] == "PreconditionFailed"
    assert f"{flag[2:]} = " in doc["error"]["message"]
    # at the value the family fixes it is the same model
    assert run_json(capsys, *argv, flag, fixed) == run_json(capsys, *argv)


@pytest.mark.parametrize("doc, named", [
    (dict(_SETUP, twsit=-1.0), "'twsit'"),
    (dict(_SETUP, **{"lambda": 2.0}), "'lambda'"),
    (dict(_SETUP, profile={"family": "logball", "A": 0.5, "C": 2.0}), "'C'"),
    (dict(_SETUP, base={"preset": "branch", "k": 7}), "'k'"),
    (dict(_SETUP, base={"preset": "cp1", "k": 2, "a1": 0.5}), "'a1'"),
    (dict(_SETUP, base={"a1": 0.5, "a2": 0.0,
                        "eps": {"kind": "affine", "offset": 0.5, "shift": 1.0}}), "'shift'"),
], ids=["top-level", "twist-and-lambda", "profile", "base-branch", "base-cp1", "eps"])
def test_a_setup_field_the_reader_does_not_read_is_refused(tmp_path, capsys, doc, named):
    for command in ("psi", "bergman"):
        code, out = run_json(capsys, command, "--setup", _write(tmp_path, doc))
        assert code == 2 and out["error"]["type"] == "PreconditionFailed"
        assert named in out["error"]["message"]


@pytest.mark.parametrize("command", ["coeffs", "classify", "psi"])
def test_a_cp1_base_refuses_another_dimension(capsys, command):
    # the sphere is one-dimensional: "d": 2 was echoed over the d = 1 model
    argv = (command, "--family", "logball", "--A", "0.5", "--d0", "1", "--lambda", "2",
            "--base", "cp1")
    code, doc = run_json(capsys, *argv, "--d", "2")
    assert code == 2 and doc["error"]["type"] == "PreconditionFailed"
    assert "'d' is 2" in doc["error"]["message"]
    assert run_json(capsys, *argv, "--d", "1")[0] == 0


@pytest.mark.parametrize("cap", ["--table-k"])
def test_empty_psi_table_is_invalid_input(capsys, cap):
    code, doc = run_json(capsys, "psi", *_LOGBALL, cap, "-1")
    assert code == 2
    assert doc["error"]["type"] == "EmptyGrid"


def _count_stages(monkeypatch) -> list:
    """Record (stage, grid size) each time a stage of curvature._stages runs."""
    ran = []
    stages = curvature._stages

    def counted(*args):
        for name, fields in zip(("coefficients", "invariants"), stages(*args)):
            ran.append((name, args[3].size))
            yield fields

    monkeypatch.setattr(curvature, "_stages", counted)
    return ran


def test_classify_makes_one_curvature_pass(capsys, monkeypatch):
    # one coefficient stage for the whole grid, and no invariant stage
    ran = _count_stages(monkeypatch)
    code, doc = run_json(capsys, "classify", *_LOGBALL, "--lambda", "1",
                         "--grid=-4:-0.5:200")
    assert code == 0 and doc["summary"]["branch"] == "2.10"
    assert ran == [("coefficients", 200)] and len(doc["rows"]) == 200


@pytest.mark.parametrize("quantity, stages", [
    ("a1", 1), ("a2", 1), ("scalar", 1), ("ric2", 2), ("lapk", 2), ("riem2", 2)])
def test_coeffs_runs_the_invariant_stage_only_for_an_invariant(capsys, monkeypatch,
                                                               quantity, stages):
    ran = _count_stages(monkeypatch)
    code, doc = run_json(capsys, "coeffs", *_LOGBALL, "--grid=-4:-0.5:50",
                         "--quantity", quantity)
    assert code == 0 and len(doc["rows"]) == 50
    assert ran == [(stage, 50) for stage in ("coefficients", "invariants")[:stages]]


_OVERFLOW = ("--family", "linear", "--c", "1", "--d", "1", "--d0", "2", "--lambda", "1",
             "--domain", "fullspace", "--base", "coeffs", "--a1-base", "2", "--a2-base", "0")


@pytest.mark.parametrize("argv, t", [
    (("coeffs", *_OVERFLOW, "--grid=200:210:3"), "200.0"),
    (("classify", *_OVERFLOW, "--grid=200:210:8"), "200.0"),
    (("coeffs", *_OVERFLOW, "--grid=100:210:12", "--quantity", "riem2"), "180.0"),
    (("coeffs", *_OVERFLOW[:-6], "--base", "flat", "--grid=700:720:3"), "700.0"),
], ids=["coeffs", "classify", "coeffs-first-overflow", "coeffs-before-the-moment-map-bound"])
def test_fields_past_the_float_range_are_out_of_domain(capsys, argv, t):
    # (1 + x)^4 overflows a float from x = e^177.4 on
    code, doc = run_json(capsys, *argv)
    assert code == 2 and doc["error"] == {
        "type": "OutOfDomain", "message": f"curvature fields leave the float range at t={t}"}


def test_a_jet_product_past_the_float_range_is_out_of_domain(capsys):
    # (1+lam x)^5 phi grew as x^6 at d = 5, d0 = 1 and was refused from t = 119
    # on; the fields' own (1 + x)^4 leaves the float range from t = 177.4 on
    model = ("coeffs", "--family", "linear", "--c", "1", "--d", "5", "--d0", "1",
             "--lambda", "1", "--domain", "fullspace", "--base", "flat")
    code, doc = run_json(capsys, *model, "--grid=100:170:8")
    assert code == 0 and len(doc["rows"]) == 8
    code, doc = run_json(capsys, *model, "--grid=170:190:3")
    assert code == 2 and doc["error"] == {
        "type": "OutOfDomain", "message": "curvature fields leave the float range at t=180.0"}


@pytest.mark.parametrize("path, value, field", [
    (("base",), 3, "base"),
    (("profile",), [1], "profile"),
    (("base", "eps", "kind"), "cubic", "kind"),
    (("base", "preset"), "torus", "preset"),
    (("base", "eps", "offset"), None, "offset"),
    (("d0",), "two", "d0"),
    (("domain",), "disc", "domain"),
    (("profile", "family"), "spiral", "family"),
], ids=["base-not-object", "profile-not-object", "eps-kind", "base-preset",
        "eps-offset-null", "d0-not-integer", "domain", "family"])
def test_malformed_setup_field_is_invalid_input(tmp_path, capsys, path, value, field):
    doc = json.loads(json.dumps(_SETUP))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    doc_path = tmp_path / "setup.json"
    doc_path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "psi", "--setup", str(doc_path))
    assert code == 2
    assert out["error"]["type"] == "PreconditionFailed"
    assert repr(field) in out["error"]["message"]


def test_setup_document_that_is_not_an_object_is_invalid_input(tmp_path, capsys):
    doc_path = tmp_path / "setup.json"
    doc_path.write_text("[1, 2]")
    code, doc = run_json(capsys, "bergman", "--setup", str(doc_path))
    assert code == 2
    assert doc["error"]["type"] == "PreconditionFailed"


@pytest.mark.parametrize("argv, option", [
    (("oracle-hartogs", "--k", "2", "--m", "2", "--samples", "0,0;1"), "--samples"),
    (("oracle-hartogs", "--k", "2", "--m", "2", "--samples", "0,0,1"), "--samples"),
    (("oracle-hartogs", "--k", "2", "--m", "2", "--samples", "a,0.5"), "--samples"),
    (("oracle-hartogs", "--k", "2", "--m", "2", "--samples", "nan,0.5"), "--samples"),
    (("coeffs", *_LOGBALL, "--grid", "nonsense"), "grid"),
    (("coeffs", *_LOGBALL, "--grid", "0:1:x"), "grid"),
    (("psi", "--family", "logball", "--A", "0.5", "--d", "0"), "dimension"),
], ids=["samples-missing-rho", "samples-triple", "samples-word", "samples-nan",
        "grid-word", "grid-count", "zero-base-dimension"])
def test_malformed_option_is_invalid_input(capsys, argv, option):
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["error"]["type"] == "PreconditionFailed"
    assert option in doc["error"]["message"]


_BALANCED = ("--k", "1", "--r", "2", "--m", "2")


@pytest.mark.parametrize("argv, option", [
    (("coeffs", *_LOGBALL), "--tol"),
    (("coeffs", *_LOGBALL), "--max-k"),
    (("coeffs", *_LOGBALL), "--quad-nodes"),
    (("classify", *_LOGBALL), "--max-k"),
    (("classify", *_LOGBALL), "--quad-nodes"),
    (("balanced", *_BALANCED), "--max-k"),
    (("oracle-cp1", "--k", "2", "--m", "3"), "--max-k"),
    (("oracle-hartogs", "--k", "2", "--m", "2"), "--max-k"),
    (("oracle-hartogs", "--k", "2", "--m", "2"), "--r"),
    (("oracle-hartogs", "--k", "2", "--m", "2"), "--P"),
    (("psi", *_LOGBALL), "--max-k"),
], ids=["coeffs-tol", "coeffs-max-k", "coeffs-quad-nodes", "classify-max-k",
        "classify-quad-nodes", "balanced-max-k", "oracle-cp1-max-k",
        "oracle-hartogs-max-k", "oracle-hartogs-r", "oracle-hartogs-P", "psi-max-k"])
def test_option_a_subcommand_does_not_read_is_refused(capsys, argv, option):
    with pytest.raises(SystemExit) as exit_:
        main([*argv, option, "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: " + option in capsys.readouterr().err


# -- files that cannot be read or written, and models given twice -------------


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_setup_document_is_invalid_input(tmp_path, capsys, name):
    path = str(tmp_path / name)
    code, doc = run_json(capsys, "psi", "--setup", path)
    assert code == 2
    assert doc["error"]["type"] == "PreconditionFailed"
    assert repr(path) in doc["error"]["message"]


def test_unwritable_out_path_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(bergman, "psi_moment", lambda *args, **kw: calls.append(args))
    path = str(tmp_path / "no-such-dir" / "report.json")
    code, doc = run_json(capsys, "psi", *_LOGBALL, "--table-k", "1", "--out", path)
    assert code == 2
    assert doc["error"]["type"] == "PreconditionFailed"
    assert repr(path) in doc["error"]["message"]
    assert calls == []


@pytest.mark.parametrize("command, flags", [
    ("psi", ("--table-k", "1", "--alpha", "7", "--family", "linear", "--d0", "1",
             "--base", "cp1")),
    ("psi", ("--alpha", "4")),                         # the default alpha of psi
    ("bergman", ("--family", "logball", "--lambda", "1")),   # both at their defaults
    ("bergman", ("--A=0.5", "--c", "2", "--domain", "ball", "--a1-base", "0.5")),
    ("identity", ("--d", "1", "--base-k", "1", "--a2-base", "0", "--alpha", "2")),
], ids=["psi-four-flags", "psi-default-alpha", "bergman-defaults", "bergman-profile",
        "identity-base"])
def test_model_flags_given_with_a_setup_document_are_refused(tmp_path, capsys,
                                                             command, flags):
    doc_path = tmp_path / "setup.json"
    doc_path.write_text(json.dumps(_SETUP))
    code, doc = run_json(capsys, command, "--setup", str(doc_path), *flags)
    assert code == 2
    assert doc["error"]["type"] == "PreconditionFailed"
    named = {f.partition("=")[0] for f in flags if f.startswith("--") and f != "--table-k"}
    assert set(doc["error"]["message"].rpartition(": ")[2].split(", ")) == named


def test_one_parser_serves_every_call_and_keeps_no_model_flags(tmp_path, capsys):
    # the parser is built once per process; flags given to one call are not
    # left over to refuse the next call's --setup
    doc_path = tmp_path / "setup.json"
    doc_path.write_text(json.dumps(_SETUP))
    code, _ = run_json(capsys, "psi", "--table-k", "1", "--family", "logball", "--A", "0.5",
                       "--d0", "2", "--alpha", "4")
    assert code == 0
    code, doc = run_json(capsys, "psi", "--setup", str(doc_path), "--table-k", "1")
    assert code == 0, doc
    assert build_parser() is build_parser()


# -- one model path: the flags write the document that --setup reads -----------


def _write(tmp_path, doc: dict) -> str:
    path = tmp_path / "setup.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ["psi", "bergman", "identity"])
def test_branch_preset_document_runs(tmp_path, capsys, command):
    doc = dict(_SETUP, alpha=2.0, base={"preset": "branch"})
    code, out = run_json(capsys, command, "--setup", _write(tmp_path, doc))
    assert code == 0 and out["summary"]["verdict"] == "pass"
    # d = 1: the branch base is (d0*twist - n*A, 0) = (0.5, 0)
    assert (out["setup"]["base"]["a1"], out["setup"]["base"]["a2"]) == (0.5, 0)
    if command != "psi":
        assert out["setup"]["base"]["eps"] == {"kind": "affine", "offset": 0.5}


@pytest.mark.parametrize("command", ["bergman", "identity"])
def test_base_without_a_law_gets_the_required_law(tmp_path, capsys, command):
    model = ("--family", "logball", "--A", "0.5", "--d", "1", "--d0", "2", "--alpha", "2")
    flags = run_json(capsys, command, *model, "--base", "coeffs", "--a1-base", "0")
    doc = dict(_SETUP, alpha=2.0, base={"a1": 0, "a2": 0})
    code, out = run_json(capsys, command, "--setup", _write(tmp_path, doc))
    # a1 = 0 is off the required base (0.5, 0): bergman has no target there and is
    # inconclusive, the identity still fails
    assert code == flags[0] == (0 if command == "bergman" else 1)
    assert (out["rows"], out["summary"], out["setup"]) == (
        flags[1]["rows"], flags[1]["summary"], flags[1]["setup"])


def test_bergman_off_the_required_base_is_inconclusive(capsys):
    # the degree-1 sphere has a1 = 1 where the model asks for 0: the values vary,
    # so there is no target (it was 27.5, with verdict fail and exit 1)
    code, out = run_json(capsys, "bergman", "--family", "logball", "--A", "0.5", "--d", "1",
                         "--d0", "1", "--lambda", "1", "--domain", "ball", "--base", "cp1",
                         "--base-k", "1", "--alpha", "6", "--grid", "0:0.6:4")
    summary = out["summary"]
    assert code == 0
    assert (summary["verdict"], summary["target"], summary["branch"]) == (
        "inconclusive", None, None)
    assert summary["max_deviation"] > 0.1


def test_bergman_names_the_branch_of_its_target(capsys):
    code, out = run_json(capsys, "bergman", "--family", "linear", "--d", "1", "--d0", "1",
                         "--lambda", "1", "--domain", "fullspace", "--alpha", "3")
    assert code == 0
    assert (out["summary"]["branch"], out["summary"]["target"]) == ("2.12", 9)


_PROJECTIVE = ("--family", "logaffine", "--A", "-1", "--d", "2", "--d0", "1",
               "--lambda", "-1", "--domain", "fullspace", "--alpha", "4")


@pytest.mark.parametrize("command, model, options", [
    ("psi", (*_LOGBALL, "--lambda", "1", "--alpha", "4"), ("--table-k", "6")),
    ("psi", (*_LOGBALL, "--alpha", "4", "--base", "cp1", "--base-k", "2"), ("--table-k", "6")),
    ("psi", (*_PROJECTIVE, "--base", "cpd"), ("--table-k", "4")),
    ("bergman", ("--family", "linear", "--d", "1", "--d0", "1", "--lambda", "1",
                 "--domain", "fullspace", "--alpha", "3"), ()),
    ("bergman", (*_LOGBALL, "--alpha", "2", "--base", "flat"), ()),
    ("bergman", (*_LOGBALL, "--alpha", "2", "--base", "coeffs", "--a1-base", "0.5"), ()),
    ("identity", ("--family", "logball", "--A", "0.3333333333333333", "--d", "1",
                  "--d0", "2", "--lambda", "1", "--alpha", "2"), ()),
    ("identity", _PROJECTIVE, ("--psi-method", "quadrature")),
], ids=["psi-branch", "psi-cp1", "psi-cpd", "bergman-branch", "bergman-flat",
        "bergman-coeffs", "identity-branch", "identity-projective-branch"])
def test_setup_echo_reads_back_with_the_flags_exit_code(tmp_path, capsys, command,
                                                        model, options):
    code, out = run_json(capsys, command, *model, *options)
    path = _write(tmp_path, out["setup"])
    replay, again = run_json(capsys, command, "--setup", path, *options)
    assert replay == code
    assert again["summary"]["verdict"] == out["summary"]["verdict"]


@pytest.mark.parametrize("command", ["psi", "bergman"])
def test_readme_example_replays_byte_identically(tmp_path, capsys, command):
    (argv,) = [argv for argv, _ in EXAMPLES if argv[0] == command]
    code, out = run_cli(capsys, *argv)
    path = _write(tmp_path, json.loads(out)["setup"])
    assert run_cli(capsys, command, "--setup", path) == (code, out)


@pytest.mark.parametrize("field, value", [("a1", 0.7), ("a2", 1.0)])
def test_branch_document_contradicting_its_base_is_refused(tmp_path, capsys, field, value):
    doc = dict(_SETUP, base={"preset": "branch", field: value})
    code, out = run_json(capsys, "psi", "--setup", _write(tmp_path, doc))
    assert code == 2
    assert out["error"]["type"] == "PreconditionFailed"
    assert repr(field) in out["error"]["message"]


@pytest.mark.parametrize("flags, refused", [
    (("--a1-base", "5", "--base-k", "7"), "--a1-base, --base-k"),
    (("--base", "flat", "--a2-base", "0"), "--a2-base"),
    (("--base", "cp1", "--base-k", "2", "--a1-base", "1"), "--a1-base"),
    (("--base", "coeffs", "--a1-base", "0.5", "--base-k", "1"), "--base-k"),
], ids=["branch", "flat", "cp1", "coeffs"])
def test_base_flag_the_base_does_not_read_is_refused(capsys, flags, refused):
    code, doc = run_json(capsys, "psi", *_LOGBALL, "--table-k", "1", *flags)
    assert code == 2
    assert doc["error"]["type"] == "PreconditionFailed"
    assert doc["error"]["message"].endswith("does not read " + refused)


@pytest.mark.parametrize("preset", ["cp1", "cpd"])
def test_eps_beside_a_base_with_its_own_law_is_refused(tmp_path, capsys, preset):
    # the preset's law (alpha + 1/k for cp1) is the one summed, so a stated
    # eps would be echoed but not used
    doc = dict(_SETUP, alpha=2.0, base={"preset": preset,
                                        "eps": {"kind": "affine", "offset": 100}})
    code, out = run_json(capsys, "bergman", "--setup", _write(tmp_path, doc))
    assert code == 2
    assert out["error"]["type"] == "PreconditionFailed"
    assert "'eps'" in out["error"]["message"]


def test_closed_psi_table_takes_one_closed_ratio_per_degree(monkeypatch, capsys):
    key = ("ball", "logball")
    model = bergman._MODELS[key]
    calls = []
    monkeypatch.setitem(bergman._MODELS, key, model._replace(
        ratio=lambda s, j: calls.append(j) or model.ratio(s, j)))
    code, doc = run_json(capsys, "psi", "--family", "logball", "--A", "0.5", "--d", "1",
                         "--d0", "2", "--lambda", "1", "--alpha", "4", "--method", "closed",
                         "--table-k", "300")
    assert code == 0 and len(doc["rows"]) == 301
    assert len(calls) == 300      # a moment per degree would take 45,150


@pytest.mark.parametrize("argv", [
    ("balanced", "--k", "1", "--r", "2", "--m", "2", "--c", "5"),
    ("oracle-hartogs", "--k", "2", "--m", "2", "--Q", "60", "--c", "7"),
], ids=["balanced", "oracle-hartogs"])
def test_ball_part_refuses_c(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 2 and doc["error"]["type"] == "PreconditionFailed"
