"""Command-line behavior: outputs, formats, exit codes, env overrides."""

import json
from functools import partial

import pytest

from menulearn import AuditConfig, cli
from menulearn.cli import (
    EXIT_BAD_KIND,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_UNKNOWN_NAME,
    main,
)

from conftest import DATA_DIR

EXAMPLE1 = str(DATA_DIR / "example1.json")
EXAMPLE2 = str(DATA_DIR / "example2.json")


class TestEvaluate:
    def test_prints_exact_value(self, capsys):
        assert main(["evaluate", EXAMPLE1, "--menu", "gh", "--info", "pi"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "b[gh | pi] = 3" in out
        assert "approx" in out

    def test_constant_menu(self, capsys):
        assert main(["evaluate", EXAMPLE1, "--menu", "f", "--info", "delta_p"]) == EXIT_OK
        assert "= 2" in capsys.readouterr().out

    def test_records_format(self, capsys):
        assert (
            main(["evaluate", EXAMPLE1, "--menu", "gh", "--info", "delta_p",
                  "--format", "records"])
            == EXIT_OK
        )
        record = json.loads(capsys.readouterr().out)
        assert record["value"] == "3/2"

    def test_unknown_menu(self, capsys):
        assert main(["evaluate", EXAMPLE1, "--menu", "zzz", "--info", "pi"]) == EXIT_UNKNOWN_NAME

    def test_parse_error_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"states": ["w"], "prizes": ["a","b"], "utility": {"a": "1/0", "b": "0"}}')
        assert main(["evaluate", str(bad), "--menu", "f", "--info", "pi"]) == EXIT_PARSE_ERROR


class TestCompare:
    def test_bml_incomparable(self, capsys):
        code = main(["compare", EXAMPLE1, "f", "gh", "--criterion", "bml", "--param", "both"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "Incomparable" in out
        assert "delta_p" in out and "pi" in out  # gap table rows

    def test_jml_strict(self, capsys):
        code = main(["compare", EXAMPLE2, "fstar", "f", "--criterion", "jml", "--param", "both"])
        assert code == EXIT_OK
        assert "StrictBetter" in capsys.readouterr().out

    def test_menu_vs_itself(self, capsys):
        code = main(["compare", EXAMPLE1, "gh", "gh", "--criterion", "bml", "--param", "both"])
        assert code == EXIT_OK
        assert "Indifferent" in capsys.readouterr().out

    def test_hml_with_collection(self, capsys):
        code = main(["compare", EXAMPLE1, "gh", "f", "--criterion", "hml", "--param", "split"])
        assert code == EXIT_OK
        assert "group" in capsys.readouterr().out

    def test_kind_mismatch(self, capsys):
        code = main(["compare", EXAMPLE1, "f", "gh", "--criterion", "hml", "--param", "both"])
        assert code == EXIT_BAD_KIND
        assert "needs a collection" in capsys.readouterr().err

    def test_messages_name_each_kind_with_the_parser_noun(self, capsys):
        cases = [
            (["compare", EXAMPLE1, "f", "gh", "--criterion", "sl", "--param", "both"],
             EXIT_BAD_KIND,
             "'both' is a credal set, but criterion 'sl' needs an information structure"),
            (["compare", EXAMPLE1, "f", "gh", "--criterion", "bml", "--param", "pi"],
             EXIT_BAD_KIND,
             "'pi' is an information structure, but criterion 'bml' needs a credal set"),
            (["compare", EXAMPLE1, "f", "gh", "--criterion", "sl", "--param", "nope"],
             EXIT_UNKNOWN_NAME, "unknown information structure 'nope'"),
            (["evaluate", EXAMPLE1, "--menu", "f", "--info", "nope"],
             EXIT_UNKNOWN_NAME, "unknown information structure 'nope'"),
        ]
        for argv, code, message in cases:
            assert main(argv) == code
            assert message in capsys.readouterr().err

    def test_records_format(self, capsys):
        code = main(
            ["compare", EXAMPLE1, "f", "gh", "--criterion", "bml", "--param", "both",
             "--format", "records"]
        )
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["verdict"] == "Incomparable"
        assert len(record["gaps"]) == 2

    def test_param_help_names_each_kind_with_the_parser_noun(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["compare", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "information structure (sl), credal set (bml/jml), or collection (hml)" in out
        assert "info structure" not in out

    def test_gap_rows_are_labelled_by_structure(self, capsys):
        def gap_labels(criterion, param):
            argv = ["compare", EXAMPLE1, "f", "gh", "--criterion", criterion, "--param", param,
                    "--format", "records"]
            assert main(argv) == EXIT_OK
            return [row["structure"] for row in json.loads(capsys.readouterr().out)["gaps"]]

        assert gap_labels("sl", "pi") == ["pi"]
        assert gap_labels("bml", "both") == ["delta_p", "pi"]
        assert gap_labels("jml", "both") == ["delta_p", "pi"]
        assert gap_labels("hml", "split") == ["group1:delta_p", "group2:pi"]


class TestAudit:
    def test_bml_transitivity_passes(self, capsys):
        code = main(
            ["audit", EXAMPLE1, "--criterion", "bml", "--param", "both",
             "--axioms", "transitivity", "--corpus-size", "5"]
        )
        assert code == EXIT_OK
        assert "transitivity" in capsys.readouterr().out

    def test_jml_transitivity_failure_is_soft(self, capsys):
        # The veto criterion's representation does not promise transitivity,
        # so a printed failure still exits zero.
        code = main(
            ["audit", EXAMPLE2, "--criterion", "jml", "--param", "both",
             "--axioms", "transitivity", "--corpus-size", "4", "--seed", "1"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "fail" in out

    def test_truncated_required_axiom_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "AuditConfig", partial(AuditConfig, max_tuples=10))
        code = main(
            ["audit", EXAMPLE1, "--criterion", "bml", "--param", "both",
             "--axioms", "transitivity", "--corpus-size", "6", "--seed", "2"]
        )
        assert code == EXIT_CHECK_FAILED
        assert "truncated" in capsys.readouterr().out

    def test_repeated_alpha_grid_weight_is_audited_once(self, capsys):
        outputs = []
        for grid in ("1/2", "1/2,0.5"):
            code = main(
                ["audit", EXAMPLE1, "--criterion", "jml", "--param", "both",
                 "--axioms", "independence,favorable_mixing_monotonicity,ex_post_randomization",
                 "--corpus-size", "4", "--alpha-grid", grid, "--format", "records"]
            )
            outputs.append((code, json.loads(capsys.readouterr().out)))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("grid", ["0", "2"])
    def test_alpha_grid_weight_outside_the_open_interval_is_a_bad_weight(self, capsys, grid):
        code = main(
            ["audit", EXAMPLE1, "--criterion", "bml", "--param", "both", "--alpha-grid", grid]
        )
        assert code == EXIT_BAD_KIND
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "invalid request: alpha grid entries must lie strictly between 0 and 1\n"
        )

    def test_unknown_param_name(self, capsys):
        code = main(["audit", EXAMPLE1, "--criterion", "bml", "--param", "nope"])
        assert code == EXIT_UNKNOWN_NAME

    def test_unknown_axiom_name(self, capsys):
        code = main(
            ["audit", EXAMPLE1, "--criterion", "bml", "--param", "both", "--axioms", "bogus"]
        )
        assert code == EXIT_UNKNOWN_NAME

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MENULEARN_SEED", "77")
        code = main(
            ["audit", EXAMPLE1, "--criterion", "bml", "--param", "both",
             "--axioms", "reflexivity", "--seed", "5", "--corpus-size", "3"]
        )
        assert code == EXIT_OK
        assert "seed=77" in capsys.readouterr().out

    def test_records_format(self, capsys):
        code = main(
            ["audit", EXAMPLE1, "--criterion", "bml", "--param", "both",
             "--axioms", "reflexivity", "--format", "records", "--corpus-size", "3"]
        )
        assert code == EXIT_OK
        records = json.loads(capsys.readouterr().out)
        assert any(r["axiom"] == "reflexivity" and r["status"] == "pass" for r in records)


class TestComparative:
    def test_nested_sets_table(self, capsys):
        code = main(["comparative", EXAMPLE1, "mid_only", "both", "--corpus-size", "8"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "subset mid_only <= both: True" in out
        assert "subset both <= mid_only: False" in out
        assert "more_decisive" in out and "less_inconsistent" in out

    def test_records_format(self, capsys):
        code = main(
            ["comparative", EXAMPLE1, "mid_only", "both", "--corpus-size", "6",
             "--format", "records"]
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["subset"]["mid_only <= both"] is True
        assert len(data["checks"]) == 4
        assert all(c["status"] in ("pass", "vacuous") for c in data["checks"])

    def test_unknown_set(self, capsys):
        assert main(["comparative", EXAMPLE1, "nope", "both"]) == EXIT_UNKNOWN_NAME


class TestRationalize:
    def test_cautious_ranking(self, capsys):
        code = main(["rationalize", EXAMPLE2, "--collection", "split", "--policy", "cautious"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line and line[0].isdigit()]
        assert lines[0].split()[1] == "fstar"
        assert lines[1].split()[1] == "f"
        assert lines[2].split()[1] == "gh"

    def test_const_policy(self, capsys):
        code = main(
            ["rationalize", EXAMPLE1, "gh", "--collection", "split", "--policy", "const=1/2"]
        )
        assert code == EXIT_OK
        assert "9/4" in capsys.readouterr().out

    def test_bad_weight(self, capsys):
        code = main(["rationalize", EXAMPLE1, "--collection", "split", "--policy", "const=2"])
        assert code == EXIT_BAD_KIND

    def test_unknown_policy(self, capsys):
        code = main(["rationalize", EXAMPLE1, "--collection", "split", "--policy", "wild"])
        assert code == EXIT_BAD_KIND

    def test_document_without_menus_is_one_error_line(self, tmp_path, capsys):
        document = json.loads((DATA_DIR / "example1.json").read_text())
        del document["menus"]
        path = tmp_path / "no_menus.json"
        path.write_text(json.dumps(document))
        code = main(["rationalize", str(path), "--collection", "split", "--policy", "cautious"])
        assert code == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ranking needs at least one menu\n"

    def test_records_format(self, capsys):
        code = main(
            ["rationalize", EXAMPLE2, "--collection", "split", "--policy", "optimistic",
             "--format", "records"]
        )
        assert code == EXIT_OK
        records = json.loads(capsys.readouterr().out)
        assert records[0]["name"] == "gh"
        assert records[0]["value"] == "3"


class TestExamples:
    def test_reproduction_passes(self, capsys):
        assert main(["examples"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all example values reproduced exactly" in out
        assert out.count("[ok]") >= 13

    def test_deterministic_output(self, capsys):
        main(["examples"])
        first = capsys.readouterr().out
        main(["examples"])
        second = capsys.readouterr().out
        assert first == second

    def test_tampered_values_fail(self, capsys, monkeypatch):
        # Simulate a tampered bundle: the loader hands back a document whose
        # utility has been doubled.
        import menulearn.cli as cli
        from menulearn import load_document, dump_document

        real = cli._bundled_workspace

        def tampered(name):
            workspace = real(name)
            data = dump_document(workspace)
            data["utility"]["win"] = "6"
            return load_document(data)

        monkeypatch.setattr(cli, "_bundled_workspace", tampered)
        assert main(["examples"]) == EXIT_CHECK_FAILED
        assert "MISMATCH" in capsys.readouterr().out
