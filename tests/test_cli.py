import argparse
import json

import pytest

from dgskew.cli import SHARED_OPTIONS, SUBCOMMANDS, build_parser, main

FLAGSHIP = "[[1,1,0],[1,1,0],[1,1,0]]"


def test_classify_flagship(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["classify", "--matrix", FLAGSHIP, "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "R1c" in text and "NonGorenstein" in text
    payload = json.loads(out.read_text())
    assert payload["case"] == "R1c"
    assert payload["gorenstein"] == "NonGorenstein"


def test_cohomology_identity(capsys):
    rc = main(["cohomology", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]",
               "--max-degree", "8"])
    assert rc == 0
    assert "[1, 0, 0, 0, 0, 0, 0, 0, 0]" in capsys.readouterr().out


def test_output_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["cohomology", "--matrix", FLAGSHIP, "--out", str(a)])
    main(["cohomology", "--matrix", FLAGSHIP, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_crosscheck_reports_falsification_exit_code(capsys):
    # the degenerate presentation over-count surfaces as exit status 1
    rc = main(["crosscheck", "--matrix", FLAGSHIP, "--max-degree", "6"])
    assert rc == 1
    assert "FALSIFIED" in capsys.readouterr().out


def test_crosscheck_passes_on_generic_instance(capsys):
    rc = main(["crosscheck", "--matrix", "[[2,1,1],[2,1,1],[2,1,1]]",
               "--max-degree", "6"])
    assert rc == 0


def test_crosscheck_passes_on_an_isotropic_pairing_zero_instance(capsys):
    # over F_7, s.s = 0 for the kernel vector s of this matrix
    rc = main(["crosscheck", "--field", "Fp:7", "--matrix", "[[5,6,0],[3,3,6],[4,6,2]]",
               "--max-degree", "6"])
    assert rc == 0


def test_gorenstein_pipeline(capsys):
    rc = main(["gorenstein", "--matrix", FLAGSHIP, "--hom-bound", "5",
               "--int-bound", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "NonGorenstein" in out and "witness" in out


def test_transform_invariance(capsys):
    rc = main(["transform", "--matrix", FLAGSHIP,
               "--transform", "[[0,2,0],[1,0,0],[0,0,3]]", "--max-degree", "5"])
    assert rc == 0


def test_transform_rejects_non_monomial(capsys):
    rc = main(["transform", "--matrix", FLAGSHIP,
               "--transform", "[[1,1,0],[0,1,0],[0,0,1]]"])
    assert rc == 2
    assert "monomial" in capsys.readouterr().err


def test_malformed_matrix_is_usage_error(capsys):
    assert main(["classify", "--matrix", "[[1,2],[3,4]]"]) == 2
    assert main(["classify", "--matrix", "not json"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_prime_is_usage_error(capsys):
    rc = main(["classify", "--matrix", FLAGSHIP, "--field", "Fp:10"])
    assert rc == 2


def test_rational_entries_as_pairs_and_strings(capsys):
    half_flagship = '[[[1,2],"1/2",0],["1/2","1/2",0],[[1,2],[1,2],0]]'
    rc = main(["classify", "--matrix", half_flagship])
    assert rc == 0
    assert "R1c" in capsys.readouterr().out  # scaling preserves the case
    negated = '[["-1/2",[-1,2],0],["-1/2","-1/2",0],[[1,-2],"-1/2",0]]'
    assert main(["classify", "--matrix", negated]) == 0
    assert "R1c" in capsys.readouterr().out
    assert main(["classify", "--matrix", "[[0.5,0,0],[0,1,0],[0,0,1]]"]) == 2


@pytest.mark.parametrize("field,pair,string", [
    ("Q", "[1,0]", '"1/0"'),
    ("Fp:7", "[1,7]", '"1/7"'),
], ids=["Q", "F7"])
def test_zero_denominator_pair_reads_like_the_string_form(field, pair, string, capsys):
    # a pair [p, q] whose q is zero in the field is named as the string p/q
    # is, on one line, and no Python repr of the failed scalar leaks out
    messages = []
    for entry in (pair, string):
        assert main(["classify", "--field", field,
                     "--matrix", f"[[{entry},0,0],[0,1,0],[0,0,1]]"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad matrix entry: coefficient ") and err.count("\n") == 1
        messages.append(err)
    name = "Q" if field == "Q" else "F7"
    for err in messages:
        assert err.endswith(f" has a zero denominator in {name}\n"), err


def test_missing_matrix_is_usage_error(capsys):
    assert main(["classify"]) == 2


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"matrix": json.loads(FLAGSHIP), "max_degree": 4}))
    rc = main(["cohomology", "--config", str(cfg)])
    assert rc == 0
    assert "[1, 2, 3, 4, 5]" in capsys.readouterr().out


def test_env_var_sets_default_field(monkeypatch, capsys):
    monkeypatch.setenv("DGSKEW_FIELD", "Fp:2147483659")
    rc = main(["cohomology", "--matrix", FLAGSHIP, "--max-degree", "4"])
    assert rc == 0
    assert "[1, 2, 3, 4, 5]" in capsys.readouterr().out


@pytest.mark.parametrize("source,name", [
    ("--field", "Fp:"), ("--field", "Fp: 7"), ("--field", "bogus"),
    ("config field", "Fp:"), ("config field", "Fp:1_000_003"),
    ("DGSKEW_FIELD", "bogus"), ("DGSKEW_FIELD", "Fp:+7"),
])
def test_a_bad_field_names_where_it_was_set(source, name, tmp_path, monkeypatch, capsys):
    # the modulus is decimal digits only, though int() takes " 7" and "1_000_003"
    argv = ["classify", "--matrix", FLAGSHIP]
    if source == "--field":
        argv += ["--field", name]
    elif source == "config field":
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"field": name}))
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("DGSKEW_FIELD", name)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source}: ") and err.count("\n") == 1, err


def test_verify_dg_subcommand(capsys):
    rc = main(["verify-dg", "--matrix", FLAGSHIP, "--max-degree", "5"])
    assert rc == 0
    assert "pass" in capsys.readouterr().out


def test_suite_subset(capsys):
    rc = main(["paper-suite", "--criteria", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "criterion  5" in out and "PASS" in out


@pytest.mark.parametrize("argv,config,option", [
    (["paper-suite", "--criteria", "a"], None, None),
    (["paper-suite", "--criteria", "13"], None, None),
    (["gorenstein", "--matrix", FLAGSHIP, "--hom-bound", "0"], None, "--hom-bound"),
    (["gorenstein", "--matrix", FLAGSHIP, "--int-bound", "1"], None, "--int-bound"),
    (["gorenstein", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]", "--int-bound", "-1"], None,
     "--int-bound"),
    (["gorenstein", "--matrix", "[[1,0,0],[0,1,0],[0,0,0]]", "--int-bound", "-1"], None,
     "--int-bound"),
    (["crosscheck", "--matrix", "[[4,1,2],[8,2,4],[0,0,0]]", "--max-degree", "2"], None,
     "--max-degree"),
    (["crosscheck", "--matrix", "[[1,0,0],[0,0,1],[0,0,0]]", "--max-degree", "2"], None,
     "--max-degree"),
    (["gorenstein", "--matrix", FLAGSHIP, "--int-bound", "3"], None, "--int-bound 3"),
    (["gorenstein", "--matrix", FLAGSHIP], '{"int_bound": 3}', "int_bound 3"),
    (["classify", "--matrix", FLAGSHIP, "--out", "/nonexistent/x.json"], None, None),
    (["cohomology", "--matrix", FLAGSHIP], '{"max_degree": "x"}', None),
    (["cohomology", "--matrix", FLAGSHIP], "[1, 2]", None),
    (["cohomology", "--matrix", FLAGSHIP], '{"max_degree": 4.5}', None),
    (["classify", "--matrix", '[["1e5000",0,0],[0,1,0],[0,0,1]]'], None, None),
    (["classify", "--matrix", '[["0.5",0,0],[0,1,0],[0,0,1]]'], None, None),
    (["classify", "--matrix", '[[true,0,0],[0,1,0],[0,0,1]]'], None, None),
    (["classify", "--matrix", '[[[true,2],0,0],[0,1,0],[0,0,1]]'], None, None),
    (["classify", "--matrix", FLAGSHIP, "--max-degree", "5"], None, "--max-degree"),
    (["gorenstein", "--matrix", FLAGSHIP, "--max-degree", "5"], None, "--max-degree"),
    (["paper-suite", "--int-bound", "3"], None, "--int-bound"),
    (["cohomology", "--matrix", FLAGSHIP, "--hom-bound", "3"], None, "--hom-bound"),
    (["classify", "--matrix", FLAGSHIP], '{"max_degree": 1}', "max_degree"),
    (["classify", "--matrix", FLAGSHIP], b"\xff\xfe{", None),
], ids=["criteria-a", "criteria-13", "hom-bound-0", "int-bound-1", "int-bound-negative",
        "int-bound-negative-relation-free", "crosscheck-degree-2-r1d",
        "crosscheck-degree-2-r2-pairing-zero", "int-bound-3-resolution-step",
        "config-int-bound-3-resolution-step", "unwritable-out",
        "config-string-degree", "config-not-an-object", "config-fractional-degree",
        "matrix-exponent-string", "matrix-decimal-string", "matrix-json-true",
        "matrix-json-true-in-pair", "classify-max-degree", "gorenstein-max-degree",
        "paper-suite-int-bound", "cohomology-hom-bound", "classify-config-max-degree",
        "config-not-utf8"])
def test_bad_input_is_a_one_line_usage_error(argv, config, option, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "job.json"
        if isinstance(config, bytes):
            cfg.write_bytes(config)
        else:
            cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # a bad bound is named by the option or the config key the user set,
    # and a config key is never reported as a flag
    assert option is None or option in err, err
    if option is not None and not option.startswith("--"):
        assert "--" + option.replace("_", "-") not in err, err


def test_each_subcommand_registers_exactly_its_declared_options():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == [c.name for c in SUBCOMMANDS]
    for command in SUBCOMMANDS:
        parser = subparsers.choices[command.name]
        registered = {a.dest for a in parser._actions if a.dest != "help"}
        assert registered == set(command.options) | set(SHARED_OPTIONS), command.name
