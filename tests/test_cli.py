import json
import shlex
from pathlib import Path

import pytest

from filtra import builtins as bi
from filtra import logics
from filtra.algebras import Budget, FiniteAlgebra
from filtra.checks import SEARCHES, check_edcf, compare_candidates, leibniz_probe
from filtra.cli import (
    CATALOG,
    CHECKS,
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    FLAGS,
    main,
)
from filtra.errors import FiltraError, SizeBudgetExceeded
from filtra.terms import format_term


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fg_smallest_pwk_filter(capsys):
    code, out, _ = run(capsys, "fg", "--algebra", "WK3", "--logic", "PWK", "--gen", "")
    assert code == EXIT_PASS
    assert "Fg = {1, half}" in out


def test_fg_carrier(capsys):
    code, out, _ = run(capsys, "fg", "--algebra", "WK3", "--logic", "PWK", "--gen", "carrier")
    assert code == EXIT_PASS
    assert "Fg = {0, 1, half}" in out


def test_fg_mv_chain_trace(capsys):
    code, out, _ = run(capsys, "--format", "json", "fg", "--algebra", "L4", "--logic", "LUK", "--gen", "2")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["filter"] == [0, 1, 2, 3]
    assert doc["trace"][0] == [2]
    assert doc["certified"] is True


def test_fg_accepts_labels(capsys):
    code, out, _ = run(capsys, "fg", "--algebra", "L4", "--logic", "LUK", "--gen", "2/3")
    assert code == EXIT_PASS
    assert "Fg = {0, 1/3, 2/3, 1}" in out


def test_check_edcf_pass_exit_zero(capsys):
    code, out, _ = run(
        capsys, "check", "edcf", "--logic", "KL", "--candidate", "kl-global",
        "--testbed", "k3-isp", "--variant", "global",
    )
    assert code == EXIT_PASS
    assert "outcome: pass" in out


def test_check_fdc_fails_with_witness(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "check", "fdc", "--logic", "PWK",
        "--generators", "WK3", "--arity", "2",
    )
    assert code == EXIT_FAIL
    doc = json.loads(out)
    assert doc["outcome"] == "fail"
    assert doc["witness"]["element_label"] in ("(1,0)", "(0,1)")


def test_check_minrelcong_box5(capsys):
    code, out, _ = run(
        capsys, "check", "minrelcong", "--algebra", "box5", "--class", "alpha12",
        "--logic", "ONE", "--arity", "2",
    )
    assert code == EXIT_FAIL
    assert "minimal_congruences" in out


def test_a_foreign_signature_names_both_algebras(capsys):
    code, out, err = run(capsys, "check", "minrelcong", "--algebra", "box5", "--class", "qwk3", "--logic", "ONE")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "configuration error: box5 and WK3 have different signatures: homomorphisms need a shared one\n"


def test_check_brouwer(capsys):
    code, _, _ = run(capsys, "check", "brouwer", "--logic", "ORD", "--algebra", "M3")
    assert code == EXIT_FAIL
    code, _, _ = run(capsys, "check", "brouwer", "--logic", "ORD", "--algebra", "BOOL4")
    assert code == EXIT_PASS


@pytest.mark.parametrize("argv, code, shown", [
    (("--logic", "PWK", "--generators", "WK3", "--arity", "2"), EXIT_INCONCLUSIVE,
     "note: no counterexample up to product arity 2"),
    (("--logic", "ORD", "--generators", "K3", "--arity", "1"), EXIT_FAIL, '"omega_blocks"'),
], ids=["pwk-passes", "ord-fails"])
def test_check_search_leibniz_honours_the_mode(capsys, argv, code, shown):
    got, out, _ = run(capsys, "check", "search", "--property", "leibniz", "--mode", "injective", *argv)
    assert got == code
    assert shown in out and "omega_f" not in out
    assert "--mode injective" in out


def test_check_search_passes_nmax_to_edcf(capsys):
    # luk-global-k1 first fails on L3 at n = 1, beyond the recorded --nmax 0
    argv = ("--logic", "LUK", "--candidate", "luk-global-k1", "--variant", "global", "--nmax", "0")
    code, _, _ = run(capsys, "check", "edcf", "--testbed", "mv-chains", *argv)
    assert code == EXIT_PASS
    code, out, _ = run(capsys, "check", "search", "--property", "edcf", "--generators", "L3", "--arity", "1", *argv)
    assert code == EXIT_INCONCLUSIVE
    assert "witness" not in out and "--nmax 0" in out


def test_check_search_passes_relative_to_fdc(capsys):
    argv = ("--format", "json", "check")
    flags = ("--logic", "PWK", "--relative", "--generators", "WK3", "--arity", "2")
    code, out, _ = run(capsys, *argv, "fdc", *flags)
    assert code == EXIT_FAIL
    want = json.loads(out)["witness"]
    assert want["base_filters"] == [[1, 2], [1, 2]]
    code, out, _ = run(capsys, *argv, "search", "--property", "fdc", *flags)
    assert code == EXIT_FAIL
    assert json.loads(out)["witness"] == want


def test_check_search_inconclusive_on_empty(capsys):
    code, _, _ = run(capsys, "check", "search", "--logic", "PWK", "--property", "fdc", "--generators", "")
    assert code == EXIT_INCONCLUSIVE


@pytest.mark.parametrize(
    "argv",
    [("search", "--property", "fdc", "--arity", "1"), ("search", "--property", "leibniz", "--arity", "0"),
     ("fdc", "--arity", "1")],
    ids=["search-fdc-1", "search-leibniz-0", "fdc-1"],
)
def test_an_empty_product_arity_range_exits_config(capsys, argv):
    code, _, err = run(capsys, "check", *argv, "--logic", "PWK", "--generators", "WK3")
    assert code == EXIT_CONFIG
    assert "the sweep would be empty" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("edcf", "--logic", "KL", "--testbed", "k3-isp"), "--candidate"),
        (("fep", "--testbed", "k3-isp"), "--logic"),
        (("brouwer", "--logic", "ORD"), "--algebra"),
        (("compare", "--candidate", "kl-global", "--testbed", "k3-isp"), "--candidate2"),
        (("search", "--logic", "PWK", "--property", "edcf", "--generators", "WK3"), "--candidate"),
        (("search", "--logic", "PWK"), "--property"),
        (("fdc", "--logic", "PWK"), "--generators"),
    ],
    ids=["edcf", "fep", "brouwer", "compare", "search-edcf", "search", "fdc"],
)
def test_a_missing_flag_exits_config_and_names_it(capsys, argv, flag):
    code, out, err = run(capsys, "check", *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"configuration error: this command needs {flag}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("fep", "--logic", "PWK", "--testbed", "wk3-isp", "--class", "alpha12", "--candidate", "nope"),
         "--class"),
        (("absfep", "--logic", "PWK", "--testbed", "wk3-isp", "--nmax", "5", "--relative"), "--nmax"),
    ],
    ids=["fep", "absfep"],
)
def test_a_flag_the_checker_does_not_read_exits_config(capsys, argv, flag):
    code, out, err = run(capsys, "check", *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"configuration error: check {argv[0]} does not read {flag}\n"


@pytest.mark.parametrize(
    "prop, argv, flag",
    [
        ("leibniz", ("--candidate", "nope", "--nmax", "3", "--relative"), "--candidate"),
        ("leibniz", ("--relative",), "--relative"),
        ("fdc", ("--nmax", "3"), "--nmax"),
        ("edcf", ("--candidate", "kl-global", "--relative"), "--relative"),
    ],
    ids=["leibniz-candidate", "leibniz-relative", "fdc-nmax", "edcf-relative"],
)
def test_check_search_refuses_a_flag_its_property_does_not_read(capsys, prop, argv, flag):
    code, out, err = run(
        capsys, "check", "search", "--logic", "PWK", "--property", prop, "--generators", "WK3",
        "--arity", "1", *argv,
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"configuration error: check search --property {prop} does not read {flag}\n"


# the flags each checker reads besides --variant, --mode and --arity, written
# out apart from the CLI's own table; check search --property P reads its own
# flags and those that P's checker turns into keywords
READS = {
    "edcf": {"--logic", "--testbed", "--candidate", "--algebra", "--nmax", "--class"},
    "fdc": {"--logic", "--generators", "--relative"},
    "absfep": {"--logic", "--testbed"},
    "fep": {"--logic", "--testbed"},
    "brouwer": {"--logic", "--algebra"},
    "minrelcong": {"--logic", "--algebra", "--class"},
    "leibniz": {"--logic", "--testbed"},
    "compare": {"--candidate", "--candidate2", "--algebra", "--testbed", "--nmax"},
    "search": {"--logic", "--property", "--generators"},
}
SEARCH_KEYWORD_READS = {"edcf": {"--candidate", "--algebra", "--nmax", "--class"}, "fdc": {"--relative"}}


def test_every_checker_reads_exactly_its_flags(capsys):
    assert set(READS) == set(CHECKS)
    assert {flag for c in CHECKS.values() for flag in c.reads + c.keyword_flags} <= set(FLAGS)
    searchable = set()
    for name in (*CHECKS, "nope"):
        _, _, err = run(capsys, "check", "search", "--property", name, "--nmax", "1")
        if "no searchable property" not in err:
            searchable.add(name)
    assert searchable == set(SEARCHES)
    # search refuses a missing --property before it looks at any flag
    commands = [((name,), READS[name]) for name in READS if name != "search"]
    commands += [(("search", "--property", p), READS["search"] | SEARCH_KEYWORD_READS.get(p, set()))
                 for p in SEARCHES]
    for prefix, reads in commands:
        checker = " ".join(prefix)
        for flag in set(FLAGS) - {"--variant", "--mode", "--arity"} - set(prefix):
            value = () if flag == "--relative" else ("1",) if flag == "--nmax" else ("nope",)
            code, out, err = run(capsys, "check", *prefix, flag, *value)
            # nothing is given that a checker could run on
            assert code == EXIT_CONFIG and out == "", (checker, flag)
            if flag in reads:
                assert "does not read" not in err, (checker, flag)
            else:
                assert err == f"configuration error: check {checker} does not read {flag}\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        (("leibniz", "--logic", "KG", "--testbed", "modal-chains", "--mode", "injective"),
         lambda: leibniz_probe(bi.logic("KG"), bi.testbed("modal-chains"), "injective")),
        (("compare", "--candidate", "luk-local-and", "--candidate2", "luk-local-odot",
          "--testbed", "mv-chains"),
         lambda: compare_candidates(
             bi.candidate("luk-local-and"), bi.candidate("luk-local-odot"), bi.testbed("mv-chains"))),
        (("compare", "--candidate", "luk-local-and", "--candidate2", "luk-local-odot",
          "--testbed", "mv-chains", "--nmax", "0"),
         lambda: compare_candidates(
             bi.candidate("luk-local-and"), bi.candidate("luk-local-odot"), bi.testbed("mv-chains"), n_max=0)),
    ],
    ids=["leibniz", "compare", "compare-nmax"],
)
def test_check_runs_its_checker(capsys, argv, want):
    code, out, _ = run(capsys, "--format", "json", "check", *argv)
    doc = json.loads(out)
    replay = doc.pop("replay")
    assert replay.startswith(f"filtra check {argv[0]} ")
    assert all(f" {flag} {value}" in replay for flag, value in zip(argv[1::2], argv[2::2]))
    assert doc == want().to_json()
    assert code == EXIT_PASS


def _corpus_entry(tmp_path, kind, name):
    doc = next(d for d in json.loads((Path(bi.__file__).parent / "data" / f"{kind}.json").read_text())
               if d["name"] == name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _kl_global_document(tmp_path, n_max):
    """kl-global up to n_max, written out as a candidate document."""
    candidate = bi.candidate("kl-global")
    families = {
        str(n): [[[format_term(eq.lhs), format_term(eq.rhs)] for eq in theta] for theta in family]
        for n, family in enumerate(candidate.families[: n_max + 1])
    }
    path = tmp_path / "kl-global.json"
    path.write_text(json.dumps({"name": "kl-global", "n_max": n_max, "families": families}))
    return str(path)


def test_json_files_read_as_their_built_in_names(tmp_path, capsys):
    commands = [
        (("fep", "--testbed", "wk3-isp", "--logic"), "PWK", _corpus_entry(tmp_path, "logics", "PWK")),
        (("minrelcong", "--logic", "ONE", "--algebra", "box5", "--class"), "alpha12",
         _corpus_entry(tmp_path, "classes", "alpha12")),
        (("edcf", "--logic", "KL", "--testbed", "k3-isp", "--variant", "global", "--nmax", "1",
          "--algebra", "K3", "--candidate"), "kl-global", _kl_global_document(tmp_path, 1)),
        # a candidate document with a signature entry needs no --algebra
        (("edcf", "--logic", "KL", "--testbed", "k3-isp", "--variant", "global", "--nmax", "1", "--candidate"),
         "kl-global", _corpus_entry(tmp_path, "candidates", "kl-global")),
    ]
    for argv, name, path in commands:
        outputs = []
        for token in (name, path):
            code, out, _ = run(capsys, "--format", "json", "check", *argv, token)
            doc = json.loads(out)
            assert token in doc.pop("replay").split()
            outputs.append((code, doc))
        assert outputs[0] == outputs[1], argv[0]


def test_a_candidate_file_needs_the_algebra(tmp_path, capsys):
    path = _kl_global_document(tmp_path, 1)
    code, out, err = run(capsys, "check", "edcf", "--logic", "KL", "--testbed", "k3-isp", "--candidate", path)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "configuration error: candidate files need --algebra to supply the signature\n"


def test_a_candidate_file_whose_families_miss_its_variant_exits_config(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "name": "c", "variant": "global", "n_max": 0, "families": {"0": [[["y", "y"]], [["y", "(neg y)"]]]}}))
    code, out, err = run(
        capsys, "check", "edcf", "--logic", "KL", "--testbed", "k3-isp", "--algebra", "K3", "--candidate", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "configuration error: candidate 'c' does not have the global shape\n"


@pytest.mark.parametrize(("argv", "document", "shown"), [
    (("fg", "--logic", "KL", "--algebra"), '{"name": "X", "signature": [], "operations": {}}',
     "cannot read algebra file {path}: KeyError: 'size'"),
    (("fg", "--algebra", "K3", "--logic"), '{"kind": "rules", "signature": "K3", "rules": [{"premises": ["x"]}]}',
     "cannot read logic file {path}: KeyError: 'conclusion'"),
    (("check", "minrelcong", "--algebra", "box5", "--logic", "ONE", "--class"), "not JSON",
     "cannot read class file {path}: JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
    (("check", "edcf", "--logic", "KL", "--testbed", "k3-isp", "--algebra", "K3", "--candidate"),
     '{"n_max": "two", "families": {}}',
     "cannot read candidate file {path}: ValueError: invalid literal for int() with base 10: 'two'"),
    (("check", "edcf", "--logic", "KL", "--testbed", "k3-isp", "--algebra", "K3", "--candidate"), "[1, 2]",
     "cannot read candidate file {path}: AttributeError: 'list' object has no attribute 'get'"),
    (("fg", "--logic", "KL", "--algebra"), None, "cannot read algebra file {path}: IsADirectoryError: "),
], ids=["algebra-missing-key", "logic-missing-key", "class-not-json", "candidate-bad-value",
        "candidate-not-an-object", "algebra-a-directory"])
def test_a_malformed_file_exits_config_naming_it(tmp_path, capsys, argv, document, shown):
    path = tmp_path / "bad.json"
    if document is None:
        path.mkdir()
    else:
        path.write_text(document)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("configuration error: " + shown.format(path=path))


def test_a_square_named_in_a_file_still_exits_budget(tmp_path, capsys, cold_contexts):
    path = tmp_path / "sq.json"
    path.write_text('{"kind": "matrices", "matrices": [{"algebra": "K3^2", "designated": [8]}]}')
    code, out, err = run(capsys, "--budget", "5", "fg", "--algebra", "K3", "--logic", str(path))
    assert (code, out) == (EXIT_BUDGET, "")
    assert err.startswith("budget exceeded: ")


# the full JSON of the witnesses the folded builders make, key order included
PINNED_WITNESSES = [
    (("check", "leibniz", "--logic", "PWK", "--testbed", "wk3-isp"), {
        "outcome": "fail", "checker": "leibniz-monotone",
        "witness": {"algebra": "WK3xWK3", "filter_f": [1, 2, 4, 5, 7, 8], "filter_g": [1, 2, 4, 5, 6, 7, 8],
                    "omega_f": [[0, 3, 6], [1, 4, 7], [2, 5, 8]], "omega_g": [[0, 3], [1, 4], [2, 5, 6, 7, 8]]},
        "replay": "filtra check leibniz --logic PWK --testbed wk3-isp --variant local --mode monotone --arity 2"}),
    (("check", "leibniz", "--logic", "ORD", "--testbed", "lattices", "--mode", "injective"), {
        "outcome": "fail", "checker": "leibniz-injective",
        "witness": {"algebra": "M3", "filter_f": [4], "filter_g": [1, 4], "omega_blocks": [[0], [1], [2], [3], [4]]},
        "replay": "filtra check leibniz --logic ORD --testbed lattices --variant local --mode injective --arity 2"}),
    (("check", "fep", "--logic", "ORD", "--testbed", "lattices"), {
        "outcome": "fail", "checker": "fep",
        "witness": {"algebra": "BOOL4", "subalgebra": [0, 1, 3], "base_filter": [2, 3],
                    "filter_without_extension": [1, 3]},
        "replay": "filtra check fep --logic ORD --testbed lattices --variant local --mode monotone --arity 2"}),
    (("check", "brouwer", "--logic", "ORD", "--algebra", "M3"), {
        "outcome": "fail", "checker": "dually-brouwerian",
        "witness": {"algebra": "M3", "filter_f": [1, 4], "filter_g": [2, 4], "minimal_h": [[2, 4], [3, 4]]},
        "replay": "filtra check brouwer --logic ORD --algebra M3 --variant local --mode monotone --arity 2"}),
]


@pytest.mark.parametrize(("argv", "want"), PINNED_WITNESSES,
                         ids=["leibniz-monotone", "leibniz-injective", "fep", "dually-brouwerian"])
def test_a_fail_prints_its_pinned_witness(capsys, argv, want):
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert (code, out) == (EXIT_FAIL, json.dumps(want, indent=1) + "\n")


def test_check_search_refuses_an_unknown_property_without_generators(capsys):
    code, out, err = run(capsys, "check", "search", "--logic", "PWK", "--property", "nope")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "no searchable property 'nope'" in err


def test_check_search_refuses_an_unknown_property_before_its_flags(capsys):
    code, out, err = run(capsys, "check", "search", "--property", "nope", "--candidate", "x")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "configuration error: no searchable property 'nope'\n"


def test_check_edcf_honours_the_class(capsys):
    flags = ("--logic", "KL", "--candidate", "kl-global", "--variant", "global")
    argv = ("check", "edcf", "--testbed", "k3-isp", *flags)
    # alpha12's axioms name box1, which K3 lacks
    for command in (argv, ("check", "search", "--property", "edcf", "--generators", "K3", *flags)):
        code, _, err = run(capsys, *command, "--class", "alpha12")
        assert code == EXIT_CONFIG and "box1" in err
    code, out, _ = run(capsys, "--format", "json", *argv, "--class", "pwk-quasi")
    want = check_edcf(
        bi.logic("KL"), bi.testbed("k3-isp"), bi.candidate("kl-global"), "global",
        class_spec=bi.class_spec("pwk-quasi"),
    ).to_json()
    doc = json.loads(out)
    assert code == EXIT_PASS
    assert doc.pop("replay").endswith("--class pwk-quasi --candidate kl-global --testbed k3-isp "
                                      "--variant global --mode monotone --arity 2")
    assert doc == want


def test_unknown_names_exit_config(capsys):
    code, _, err = run(capsys, "fg", "--algebra", "NOPE", "--logic", "PWK", "--gen", "")
    assert code == EXIT_CONFIG
    assert "configuration error" in err
    code, _, _ = run(capsys, "reproduce", "not-an-example")
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    ("argv", "refused"),
    [
        (("check", "absfep", "--logic", "PWK", "--testbed", "wk3-isp", "--arity", "-1"), "arity_cap must be at least 0, got -1"),
        (("check", "edcf", "--logic", "PWK", "--testbed", "wk3-isp", "--candidate", "pwk-local", "--nmax", "-1"),
         "n_max must be at least 0, got -1"),
        (("check", "fdc", "--logic", "PWK", "--generators", "WK3", "--arity", "1"), "max_product_arity must be at least 2, got 1"),
        (("check", "minrelcong", "--logic", "ONE", "--algebra", "box5", "--class", "alpha12", "--arity", "-1"),
         "arity_cap must be at least 0, got -1"),
        (("check", "compare", "--candidate", "kl-global", "--candidate2", "kl-global", "--testbed", "k3-isp",
          "--nmax", "-1"), "n_max must be at least 0, got -1"),
    ],
    ids=["absfep", "edcf", "fdc", "minrelcong", "compare"],
)
def test_an_empty_sweep_exits_config(capsys, argv, refused):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"configuration error: {refused}: the sweep would be empty\n"


def test_a_negative_budget_is_refused_at_parse_time(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--budget", "-5", "fg", "--algebra", "WK3", "--logic", "PWK"])
    assert exc.value.code == EXIT_CONFIG
    assert "the budget must be at least 0, got -5" in capsys.readouterr().err
    code, out, _ = run(capsys, "--budget", "0", "list", "logics")
    assert code == EXIT_PASS and "PWK" in out


def test_budget_exit(capsys):
    code, _, err = run(capsys, "--budget", "10", "check", "fdc", "--logic", "PWK",
                       "--generators", "WK3", "--arity", "2")
    assert code == EXIT_BUDGET
    assert "budget exceeded" in err


def test_budget_exit_in_candidate_sweep(capsys):
    code, _, err = run(capsys, "--budget", "10", "check", "edcf", "--logic", "KL",
                       "--testbed", "k3-isp", "--candidate", "kl-global", "--variant", "global")
    assert code == EXIT_BUDGET
    assert "budget exceeded" in err


@pytest.mark.parametrize("argv", [
    ["fg", "--algebra", "mchain4", "--logic", "KG", "--gen", "1"],
    ["check", "brouwer", "--logic", "ORD", "--algebra", "M3"],
    ["reproduce", "kleene-edcf"],
    ["reproduce", "kl-only-filter"],
])
def test_a_cold_context_is_built_within_the_budget(capsys, cold_contexts, argv):
    code, _, err = run(capsys, "--budget", "10", *argv)
    assert code == EXIT_BUDGET
    assert "budget exceeded" in err


def test_fg_on_mchain5_is_certified_without_a_subset_sweep(capsys, cold_contexts):
    code, out, _ = run(capsys, "--format", "json", "fg", "--algebra", "mchain5", "--logic", "KG", "--gen", "1")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["filter"] == list(range(32))


def test_running_out_in_the_clone_exits_3_and_keeps_nothing_of_it(capsys, cold_contexts):
    code, _, err = run(capsys, "--budget", "1000", "fg", "--algebra", "DM4^2", "--logic", "KL", "--gen", "0")
    assert code == EXIT_BUDGET
    assert "budget exceeded" in err
    dm4_sq = bi.algebra("DM4^2")
    assert (id(dm4_sq), id(bi.logic("KL"))) not in logics._CONTEXTS
    # the v = 1 clone was paid for, on this very algebra; the v = 2 build ran
    # out and left nothing
    assert [nvars for algebras, nvars in logics._CLONES if any(a is dm4_sq for a in algebras)] == [1]


def test_replay_carries_a_non_default_budget(capsys):
    argv = ("check", "brouwer", "--logic", "ORD", "--algebra", "M3")
    _, out, _ = run(capsys, "--format", "json", *argv)
    assert json.loads(out)["replay"].startswith("filtra check brouwer ")
    code, out, _ = run(capsys, "--format", "json", "--budget", "5000000", *argv)
    replay = json.loads(out)["replay"]
    assert replay.startswith("filtra --budget 5000000 check brouwer ")
    # the replay runs under the same budget and reproduces itself
    again, out, _ = run(capsys, "--format", "json", *replay.split()[1:])
    assert (again, json.loads(out)["replay"]) == (code, replay)


LOOKUPS = {"algebras": bi.algebra, "logics": bi.logic, "classes": bi.class_spec, "candidates": bi.candidate}


@pytest.mark.parametrize("kind", [*LOOKUPS, "testbeds"])
def test_every_listed_name_resolves(capsys, cold_contexts, kind):
    code, out, _ = run(capsys, "--format", "json", "list", kind)
    names = json.loads(out)[kind]
    assert code == EXIT_PASS and names == sorted(names) and names
    for name in names:
        if kind == "testbeds":
            bed = bi.testbed(name)
            assert bed and all(isinstance(a, FiniteAlgebra) for a in bed)
            assert bi.testbed(name) is bed  # built on the first lookup and kept
        else:
            built = LOOKUPS[kind](name)
            assert built.name == name and LOOKUPS[kind](name) is built


@pytest.mark.parametrize(("kind", "lookup"), [
    ("algebra", lambda: bi.algebra("nope^2")),
    ("algebra", lambda: bi.algebra("K3^2", Budget(0))),
    ("logic", lambda: bi.logic("broken")),
    ("class", lambda: bi.class_spec("nope")),
    ("candidate", lambda: bi.candidate("broken")),
    ("testbed", lambda: bi.testbed("wk3-isp", Budget(10))),
], ids=["unknown-square", "square-over-budget", "logic-document", "unknown-class", "candidate-signature",
        "testbed-over-budget"])
def test_a_lookup_that_raises_leaves_its_table_unchanged(cold_contexts, monkeypatch, kind, lookup):
    # two documents that fail to build: an unknown symbol, an unknown signature
    monkeypatch.setitem(bi._table("logic"), "broken", {
        "name": "broken", "kind": "rules", "signature": "WK3", "rules": [{"premises": [], "conclusion": "(nope x)"}]})
    monkeypatch.setitem(bi._table("candidate"), "broken", {
        "name": "broken", "signature": "nope", "n_max": 0, "families": {"0": [[["y", "y"]]]}})

    def table():
        return dict(bi._table(kind)), {key: obj for key, obj in bi._BUILT.items() if key[0] == kind}

    bi.algebra("K3"), bi.algebra("WK3")  # lookups nested in a raising one succeed, and are kept
    before = table()
    with pytest.raises(FiltraError):
        lookup()
    assert table() == before


# the error names the token as given, a square's included
@pytest.mark.parametrize(("kind", "argv"), [
    ("algebra", ("fg", "--algebra", "nope", "--logic", "PWK")),
    ("algebra", ("fg", "--algebra", "nope^2", "--logic", "PWK")),
    ("logic", ("fg", "--algebra", "WK3", "--logic", "nope")),
    ("class", ("check", "minrelcong", "--logic", "ONE", "--algebra", "box5", "--class", "nope")),
    ("candidate", ("check", "compare", "--candidate", "nope", "--candidate2", "kl-global", "--testbed", "k3-isp")),
    ("testbed", ("check", "fep", "--logic", "KL", "--testbed", "nope")),
])
def test_an_unknown_builtin_name_exits_config(capsys, kind, argv):
    token = next(t for t in argv if t.startswith("nope"))
    assert run(capsys, *argv) == (EXIT_CONFIG, "", f"configuration error: no built-in {kind} {token!r}\n")


def test_list_kinds(capsys):
    code, out, _ = run(capsys, "list", "algebras")
    assert code == EXIT_PASS
    assert "WK3" in out and "box5" in out
    code, out, _ = run(capsys, "list", "examples")
    assert "kl-only-filter" in out


def test_json_report_round_trips(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "check", "brouwer", "--logic", "ORD", "--algebra", "M3"
    )
    doc = json.loads(out)
    assert doc["outcome"] == "fail"
    # replay: the two minimal complements really are incomparable filters
    minimal = [frozenset(h) for h in doc["witness"]["minimal_h"]]
    assert len(minimal) >= 2
    assert not (minimal[0] <= minimal[1] or minimal[1] <= minimal[0])


def test_user_algebra_file(tmp_path, capsys):
    corpus = json.loads((Path(bi.__file__).parent / "data" / "algebras.json").read_text())
    doc = next(d for d in corpus if d["name"] == "WK3")
    doc["name"] = "WK3-copy"
    path = tmp_path / "wk3copy.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "fg", "--algebra", str(path), "--logic", "PWK", "--gen", "")
    assert code == EXIT_PASS
    assert "Fg = {1, half}" in out


@pytest.mark.parametrize("example", [
    "kl-only-filter", "m3-not-brouwerian", "box5-no-min", "pwk-no-pedcf",
])
def test_reproduce_single_examples(capsys, example):
    code, out, _ = run(capsys, "reproduce", example)
    assert code == EXIT_PASS
    assert "MISMATCH" not in out


def test_reproduce_all_spends_one_budget_without_changing_a_row(capsys, cold_contexts):
    # the whole catalog fits in a quarter of the default budget, and sharing
    # one budget across the rows leaves each row as it reads on its own
    code, out, _ = run(capsys, "--budget", "2500000", "reproduce", "all")
    assert code == EXIT_PASS
    assert out == "".join(run(capsys, "reproduce", example)[1] for example in CATALOG)


# --- one budget per command -----------------------------------------------------


def _budgets_made(call) -> int:
    """How many Budgets `call()` constructs."""
    made = []
    init = Budget.__init__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Budget, "__init__", lambda self, *args, **kwargs: made.append(init(self, *args, **kwargs)))
        call()
    return len(made)


def _readme_commands() -> list[list[str]]:
    """The arguments of each command in the README's command-line block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("filtra ")]


@pytest.mark.parametrize("example", CATALOG)
def test_a_cold_catalog_entry_spends_its_callers_budget_alone(cold_contexts, example):
    # it makes no Budget, passes on its own spend S and raises one step below
    def cold(budget):
        logics._CONTEXTS.clear()
        logics._CLONES.clear()
        bi._BUILT.clear()
        results = []
        CATALOG[example](results, budget)
        return results

    budget, results = Budget(), []
    assert _budgets_made(lambda: results.extend(cold(budget))) == 0
    assert budget.spent > 0 and all(r["ok"] for r in results)
    assert cold(Budget(budget.spent)) == results
    with pytest.raises(SizeBudgetExceeded):
        cold(Budget(budget.spent - 1))


def test_pwk_no_pedcf_builds_no_testbed(cold_contexts):
    # its pinned factors replace the testbed's products, so no testbed is read
    results = []
    CATALOG["pwk-no-pedcf"](results, Budget())
    assert all(r["ok"] for r in results)
    assert [key for key in bi._BUILT if key[0] == "testbed"] == []


@pytest.mark.parametrize("kind", ["algebras", "logics", "classes", "candidates", "testbeds", "examples"])
def test_listing_names_makes_no_budget(capsys, kind):
    assert _budgets_made(lambda: main(["list", kind])) == 0


@pytest.mark.parametrize(
    "argv",
    [argv for argv in _readme_commands() if argv[0] != "list"] + [
        ["fg", "--algebra", "WK3^2", "--logic", "PWK", "--gen", "0"],
    ],
    ids=" ".join,
)
def test_every_other_cold_command_makes_one_budget(capsys, cold_contexts, argv):
    # names it resolves, a square or a testbed among them, are built on it
    assert _budgets_made(lambda: main(argv)) == 1
