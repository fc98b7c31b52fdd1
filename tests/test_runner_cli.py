"""End-to-end behavior of the definition-file runner and the command line."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lieworkbench.catalog import catalog_entry, catalog_get, catalog_names
from lieworkbench.cli import main
from lieworkbench import runner
from lieworkbench.runner import (
    EXTENDED_MAX_N,
    MAX_ORDER,
    LoadError,
    RunOptions,
    catalog_list,
    exit_code,
    load,
    render_structured,
    render_text,
    run_source,
)
from lieworkbench import dsl
from lieworkbench.enveloping import (UEA, TensorUEA, tensor_product,
                                     twist_cocycle_check)
from lieworkbench.liealg import otimes
from lieworkbench.scalars import TruncationOrder, param

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


# -- running sources -------------------------------------------------------------------


def test_statuses_across_check_kinds():
    src = """
tensor odd = vp (x) h on osp12;
check jacobi sl2;
check jacobi mu.prime;
check cybe odd on osp12;
"""
    results = run_source(src)
    assert [r.status for r in results] == ["pass", "fail", "unsupported"]
    assert exit_code(results) == 1
    flagged = results[2]
    assert flagged.details == (
        "schouten bracket requires parity-even terms; got ('vp', 'h')",)


def test_file_declarations_shadow_the_catalog():
    src = """
algebra sl2 { basis a:even b:even c:even;
              bracket [a,b] = b; bracket [a,c] = b; bracket [b,c] = a; }
check jacobi sl2;
"""
    (result,) = run_source(src)
    assert result.status == "fail"
    assert result.details == ("witness triple (a, b, c)", "residual -a")


def test_declared_tensors_find_their_declared_carrier():
    src = """
algebra B { basis h:even x:even; bracket [h,x] = 2*x; }
tensor t = h (x) x - x (x) h;
check cybe t;
check jacobi B;
"""
    results = run_source(src)
    assert [r.status for r in results] == ["pass", "pass"]
    assert exit_code(results) == 0


def test_empty_files_run_no_checks():
    assert run_source("") == []
    assert exit_code([]) == 0


def test_cocycle_and_compatible_checks_print_one_residual():
    # P is a 2-cochain of sl(2) exactly when it is compatible with sl(2):
    # both checks scan the same d2 residual and must print it alike.
    src = """
param h;
algebra P { basis H1:even E12:even E21:even;
            bracket [H1,E12] = E12; bracket [E12,E21] = h*E12; }
check cocycle P over sl2;
check compatible sl2 P;
"""
    cocycle, compatible = run_source(src)
    assert cocycle.status == compatible.status == "fail"
    assert cocycle.details == ("witness triple (H1, E12, E21)",
                               "residual -H1 + 2*h*E12")
    assert compatible.details == ("witness triple (H1, E12, E21)",
                                  "mixed jacobiator -H1 + 2*h*E12")


def test_coboundary_check_reports_the_solution_and_comparison():
    (result,) = run_source("check coboundary mu2star over mu1star compare psi;")
    assert result.status == "pass"
    details = "\n".join(result.details)
    assert "solver status: solved" in details
    assert "Xp_hat -> -h_hat" in details
    assert "d1 image differs at ('(vm_hat, vm_hat)',)" in details
    assert "<== differs" in details


def test_a_not_closed_coboundary_input_prints_its_witness_like_every_scan():
    src = ("param h; algebra A { basis x:even y:odd; bracket [y,y] = x; "
           "bracket [x,y] = h*y; } check coboundary A over A;")
    (result,) = run_source(src)
    assert result.status == "fail"
    assert result.details == ("solver status: not-cocycle",
                              "rank 0, augmented rank 0",
                              "input is not closed; witness triple (x, y, y)")


def test_obstructed_coboundary_fails_without_assumptions():
    src = "check coboundary dual.jordan.sl2 over dual.standard.sl2;"
    (result,) = run_source(src)
    assert result.status == "fail"
    assert any("solver status: obstructed" in d for d in result.details)
    assert any("every solution inverts h" in d for d in result.details)

    (unlocked,) = run_source(src, RunOptions(assume_nonzero=("h",)))
    assert unlocked.status == "pass"
    assert any("(2*xi/h)*H1_hat" in d for d in unlocked.details)


def test_twist_checks_run_at_the_requested_order():
    results = run_source("check twist jordanian order 2;\n"
                         "check twist extended 3 order 2;")
    assert [r.status for r in results] == ["pass", "pass"]


def test_a_twist_whose_limit_is_not_proportional_fails(monkeypatch):
    # Cocycle, counit and quantum Yang-Baxter all hold; only the limit is off.
    h = catalog_get("borel").gen("h")
    monkeypatch.setattr(runner, "classical_limit", lambda R: otimes(h, h))
    (result,) = run_source("check twist jordanian order 1;")
    assert result.status == "fail"
    assert result.details[-2:] == ("classical limit: h(x)h",
                                   "not proportional to h^x")


def test_a_twist_whose_limit_is_zero_fails():
    # The unit twist meets every identity, and its limit 0 is 0 * (h^x).
    uea = UEA(catalog_get("borel"), TruncationOrder(2, frozenset({"xi"})))
    status, details, _ = runner._twist_verdict(
        TensorUEA.unit(uea, 2), catalog_get("r.borel"), "h^x")
    assert status == "fail"
    assert details[-2:] == ["classical limit: 0",
                            "not a nonzero multiple of h^x"]


def test_a_twist_residual_prints_its_leading_term(monkeypatch):
    uea = UEA(catalog_get("borel"), TruncationOrder(2, frozenset({"xi"})))
    x = uea.gen("x")
    residual = twist_cocycle_check(
        TensorUEA.unit(uea, 2) + tensor_product(x, x).scaled(param("xi")))
    monkeypatch.setattr(runner, "twist_cocycle_check", lambda F: residual)
    monkeypatch.setattr(runner, "qybe_check", lambda R: residual)
    (result,) = run_source("check twist jordanian order 1;")
    assert result.status == "fail"
    assert result.details == (
        "truncation order 1",
        "2-cocycle residual: leading term -xi^2 at (x, x, x^2)",
        "counit normalisation: True",
        "quantum Yang-Baxter residual: leading term -xi^2 at (x, x, x^2)",
        "classical limit: -xi*h(x)x + xi*x(x)h",
        "= (-xi) * (h^x)",
        "classical Yang-Baxter for the limit: True",
    )


def test_twist_orders_outside_the_cap_are_load_errors():
    # The order comes from the check's own clause or, without one, from the
    # run options; either way it is refused before any check runs.
    for order in (0, MAX_ORDER + 1):
        for check, options in (
                (f"check twist jordanian order {order};", None),
                ("check twist jordanian;", RunOptions(order=order))):
            with pytest.raises(LoadError) as err:
                run_source(f"check jacobi sl2;\n{check}", options)
            assert str(err.value) == (
                f"line 2: truncation order {order} is out of range: it must "
                f"be between 1 and {MAX_ORDER}")


def test_extended_twists_beyond_the_bound_are_load_errors():
    past = len(EXTENDED_MAX_N) + 1
    refused = [(40, 2), (3, past)]
    for order, bound in enumerate(EXTENDED_MAX_N, 1):
        load(dsl.parse(f"check twist extended {bound} order {order};"))
        refused.append((bound + 1, order))
    for N, order in refused:
        with pytest.raises(LoadError) as err:
            run_source(f"check jacobi sl2;\ncheck twist extended {N} "
                       f"order {order};")
        assert str(err.value).startswith(
            f"line 2: the extended twist over sl({N}) at truncation order "
            f"{order} is out of range")


def test_extended_twists_beyond_the_bound_at_the_run_order_are_load_errors(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("the twist was built")
    monkeypatch.setattr(runner, "build_extended_twist", refuse)
    options = RunOptions(order=len(EXTENDED_MAX_N) + 1)
    with pytest.raises(LoadError) as err:
        run_source("check twist extended 3;", options)
    assert str(err.value).startswith(
        f"line 1: the extended twist over sl(3) at truncation order "
        f"{options.order} is out of range")


def test_load_errors_carry_line_numbers():
    # An unknown name is reported by the kind of value the check expects.
    # A catalog algebra the file redeclares carries no tensor: the file's
    # sl3 does not carry r.jordan, and the catalog's sl3 is out of reach.
    for src, message in (
            ("check jacobi nowhere;", "unknown algebra 'nowhere'"),
            ("check cybe nowhere;", "unknown tensor 'nowhere'"),
            ("check coboundary mu2star over mu1star compare nowhere;",
             "unknown 1-cochain 'nowhere'"),
            ("check cocycle r.dj over sl3;",
             "unknown 2-cochain 'r.dj' (name an algebra to use its bracket "
             "table)"),
            ("algebra sl3 { basis a:even; }\ncheck cybe r.jordan;",
             "no known algebra carries this tensor (add an 'on ALGEBRA' "
             "clause)")):
        with pytest.raises(LoadError) as err:
            run_source(src)
        last_line = src.count("\n") + 1
        assert str(err.value) == f"line {last_line}: {message}"
    with pytest.raises(LoadError) as err:
        run_source("check cybe r.dj on sl2;")
    assert "tensor 'r.dj' is not over the basis of 'sl2'" in str(err.value)


def test_wrong_parity_values_are_load_errors_at_every_degree():
    for src, message in (
            ("cochain psi:even over osp12 { h -> vp; }",
             "value at h hits 'vp' of wrong parity"),
            ("algebra a { basis h:even v:odd; bracket [h,v] = h; }",
             "value at (h, v) hits 'h' of wrong parity")):
        with pytest.raises(LoadError) as err:
            run_source(src)
        assert str(err.value) == f"line 1: {message}"


def test_every_name_on_a_check_line_resolves_before_its_checks():
    # Names resolve in slot order before any carrier or basis check, so
    # an unknown name is reported before the fault of another operand.
    for src, message in (
            ("check decompose r.full = r.dj + nowhere on sl2;",
             "unknown tensor 'nowhere'"),
            ("check coboundary sl2 over sl3 compare nowhere;",
             "unknown 1-cochain 'nowhere'")):
        with pytest.raises(LoadError) as err:
            run_source(src)
        assert str(err.value) == f"line 1: {message}"


def test_a_tensor_carried_by_several_algebras_needs_an_on_clause():
    # u has no carrier of its own; its basis is that of both mu1star and
    # mu2star, and no choice between them is made silently.
    src = """tensor t = h_hat (x) Xm_hat on mu2star;
tensor u = t{on};
check cybe t;
check cybe u;
"""
    with pytest.raises(LoadError) as err:
        run_source(src.format(on=""))
    assert str(err.value) == (
        "line 4: algebras mu1star, mu2star all carry this tensor "
        "(add an 'on ALGEBRA' clause)")
    results = run_source(src.format(on=" on mu2star"))
    assert [r.status for r in results] == ["pass", "pass"]
    assert results[1].details == ("Schouten bracket vanishes over mu2star",)


def test_checks_cannot_reference_later_declarations():
    with pytest.raises(LoadError):
        run_source("check cybe t on sl2;\ntensor t = H1 (x) H1 on sl2;")


# -- reports -----------------------------------------------------------------------------


def test_text_report_shape():
    text = render_text(run_source("check jacobi sl2;\ncheck jacobi mu.prime;"))
    lines = text.splitlines()
    assert lines[0].startswith("[pass] jacobi sl2")
    assert lines[-1] == "1 passed, 1 failed, 0 unsupported"


def test_structured_report_is_bit_stable_and_time_free():
    src = "check jacobi sl2;\ncheck mcybe r.dj on sl3;"
    first = render_structured(run_source(src))
    second = render_structured(run_source(src))
    assert first == second
    tree = json.loads(first)
    assert set(tree) == {"checks", "summary"}
    assert tree["summary"] == {"pass": 2, "fail": 0, "unsupported": 0}
    assert all(set(check) == {"label", "status", "details"}
               for check in tree["checks"])
    assert "elapsed" not in first


# -- the catalog and its definition files ---------------------------------------------------


def test_catalog_listing_mentions_every_entry():
    listing = catalog_list()
    for name in catalog_names():
        assert name in listing


def test_golden_files_load_back_to_the_catalog_objects():
    for name in catalog_names():
        entry = catalog_entry(name)
        env, checks = load(dsl.parse((GOLDEN / f"{name}.wb").read_text()))
        assert checks == []
        obj = catalog_get(name)
        if entry.kind == "algebra":
            loaded = env.algebras[name]
            assert loaded.basis == obj.basis
            assert loaded.table == obj.table
        elif entry.kind == "tensor":
            assert env.tensors[name] == obj
        else:
            loaded = env.cochains[name]
            assert loaded.basis == obj.basis
            assert loaded.parity == obj.parity
            assert loaded == obj


# -- the command line -------------------------------------------------------------------------


def _write(tmp_path: Path, text: str) -> str:
    path = tmp_path / "checks.wb"
    path.write_text(text)
    return str(path)


def test_cli_run_passing_file(tmp_path, capsys):
    path = _write(tmp_path, "check jacobi sl2;\n")
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "[pass] jacobi sl2" in out
    assert "1 passed, 0 failed, 0 unsupported" in out


def test_cli_run_failing_file(tmp_path, capsys):
    path = _write(tmp_path, "check jacobi mu.prime;\n")
    assert main(["run", path]) == 1
    assert "[fail]" in capsys.readouterr().out


def test_cli_run_structured_format(tmp_path, capsys):
    path = _write(tmp_path, "check jacobi sl2;\n")
    assert main(["run", path, "--format", "structured"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["summary"]["pass"] == 1


def test_cli_run_empty_file(tmp_path, capsys):
    path = _write(tmp_path, "")
    assert main(["run", path]) == 0
    assert "0 passed, 0 failed, 0 unsupported" in capsys.readouterr().out


def test_cli_assume_flag(tmp_path):
    path = _write(tmp_path,
                  "check coboundary dual.jordan.sl2 over dual.standard.sl2;\n")
    assert main(["run", path]) == 1
    assert main(["run", path, "--assume", "h!=0"]) == 0
    assert main(["run", path, "--assume", "h"]) == 0


def test_cli_reports_a_cochain_that_is_no_coboundary(tmp_path, capsys):
    path = _write(tmp_path,
                  "algebra phi {\n"
                  "  basis H1_hat:even E12_hat:even E21_hat:even;\n"
                  "  bracket [H1_hat,E12_hat] = E12_hat;\n"
                  "}\n"
                  "check coboundary phi over dual.standard.sl2;\n")
    assert main(["run", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:4] == ["    solver status: inconsistent",
                          "    rank 3, augmented rank 4",
                          "    nonzero assumptions: h"]


def test_cli_out_option(tmp_path, capsys):
    path = _write(tmp_path, "check jacobi sl2;\n")
    target = tmp_path / "report.json"
    assert main(["run", path, "--format", "structured",
                 "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["summary"]["pass"] == 1


def test_cli_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "check jacobi sl2;\n")
    target = tmp_path / "missing" / "report.txt"
    assert main(["run", path, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"workbench: cannot write {target}: ")
    assert not target.parent.exists()


def test_cli_missing_file_is_a_usage_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.wb")]) == 2
    assert capsys.readouterr().err != ""


def test_cli_parse_error_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "tensor t = 1 +;\n")
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "line 1, col 15" in err


def test_cli_unconvertible_number_literals_are_usage_errors(tmp_path, capsys):
    # Python converts at most 4,300 digits from text to int by default.
    digits = "9" * 5000
    for text, message in (
            ("tensor t = 1/0 * H1 (x) H1 on sl2;\n",
             "line 1, col 12: zero denominator in '1/0'"),
            (f"tensor t = {digits} * H1 (x) H1 on sl2;\n",
             "line 1, col 12: number literal of 5000 characters is too long"),
            (f"check twist extended {digits};\n",
             "line 1, col 22: number literal of 5000 characters is too long")):
        path = _write(tmp_path, text)
        assert main(["run", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: {message}\n"


def test_cli_renders_coefficients_of_any_length(tmp_path, capsys):
    # Each literal converts, but the witness coefficient, -2 * 10^12000, has
    # more digits than Python's str(int) gives by default.
    digits = "1" + "0" * 3000
    path = _write(tmp_path, f"tensor t = {digits} * {digits} * H1 (x) E12 "
                            "on sl2;\ncheck cybe t;\n")
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert f"first at ('H1', 'E12', 'E12'): -2{'0' * 12000}\n" in out
    assert "1 failed" in out


def test_a_new_check_kind_needs_one_row_and_one_run_function(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(dsl.CHECK_FORMS, "dimension", (
        dsl.Slot("algebra", "an algebra name"), "=",
        dsl.Slot("int", "a dimension"),
        dsl.Slot("tensor", "a tensor name", clause="with")))

    def run_dimension(A, dimension, tensor):
        found = len(A.basis.names)
        status = "pass" if found == dimension else "fail"
        return status, [f"{A.name} has dimension {found}"]

    monkeypatch.setitem(runner._RUNS, "dimension", run_dimension)
    text = "check dimension sl2 = 3;\ncheck dimension sl3 = 9 with r.dj;\n"
    assert dsl.render(dsl.parse(text)) == text
    path = _write(tmp_path, text)
    assert main(["run", path, "--format", "structured"]) == 1
    assert json.loads(capsys.readouterr().out)["checks"] == [
        {"label": "dimension sl2 = 3", "status": "pass",
         "details": ["sl2 has dimension 3"]},
        {"label": "dimension sl3 = 9 with r.dj", "status": "fail",
         "details": ["sl3 has dimension 8"]}]
    for text, message in (
            ("check dimension sl2 = x;", "ParseError: line 1, col 23: "
             "expected a dimension, found 'x'"),
            ("check dimension sl2 = 3 with nowhere;",
             "LoadError: line 1: unknown tensor 'nowhere'"),
            ("check dimension sl2 = 3 with r.dj;",
             "LoadError: line 1: tensor 'r.dj' is not over the basis of "
             "'sl2'")):
        with pytest.raises((dsl.ParseError, LoadError)) as err:
            run_source(text)
        assert f"{err.type.__name__}: {err.value}" == message


def test_cli_rejects_nonpositive_orders(tmp_path, capsys):
    path = _write(tmp_path, "check jacobi sl2;\n")
    assert main(["run", path, "--order", "0"]) == 2


def test_cli_rejects_orders_above_the_cap(tmp_path, capsys):
    path = _write(tmp_path, "check jacobi sl2;\n")
    for argv in (["run", path], ["paper-suite"]):
        assert main([*argv, "--order", str(MAX_ORDER + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"between 1 and {MAX_ORDER}" in captured.err


def test_cli_run_order_beyond_the_extended_bound_is_a_load_error(
        tmp_path, capsys):
    path = _write(tmp_path, "check twist extended 3;\n")
    assert main(["run", path, "--order", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"{path}: line 1: the extended twist over sl(3) at truncation "
        "order 7 is out of range")


def test_cli_malformed_assumption_is_a_load_error(tmp_path, capsys):
    path = _write(tmp_path,
                  "check coboundary dual.jordan.sl2 over dual.standard.sl2;\n")
    assert main(["run", path, "--assume", "h+1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{path}: parameter name 'h+1' is not an identifier\n")


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("osp12", "r.jordan", "psi", "dual.standard.sl2"):
        assert name in out


def test_cli_runs_every_golden_file(tmp_path, capsys):
    for path in sorted(GOLDEN.glob("*.wb")):
        assert main(["run", str(path)]) == 0, path.name
    capsys.readouterr()


def test_cli_paper_suite_prints_a_verdict(capsys):
    # Criterion 3 evaluates the full quasitriangular standard tensor, which
    # solves the unmodified equation, so it is red (see the suite module
    # docstring): the battery exits 1 while the other ten criteria pass.
    assert main(["paper-suite", "--order", "2"]) == 1
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 10
    assert out.count("[FAIL]") == 1
    assert out.rstrip().endswith("10/11 criteria pass")
