import json
import time

import pytest

from unitcat import cli
from unitcat import suites as SU
from unitcat.instances import InstanceError, parse_tnorm
from unitcat.reports import emit_report, strip_timing
from unitcat.tnorms import lukasiewicz, minimum, product


def run(suite, **kw):
    return SU.run_suite(SU.SuiteConfig(suite=suite, **kw))


def test_monad_laws_instance_counts():
    rep = run("monad-laws", max_size=4)
    assert rep.passed and rep.instances == 1 + 3 + 19 + 219


def test_monad_laws_exhaustive_at_size_five(capsys):
    # every labelled poset on at most five points, within the 15 s bound
    start = time.perf_counter()
    assert cli.main(["verify", "--suite", "monad-laws", "--max-size", "5"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert "instances: 4473" in out and "status: pass" in out
    assert elapsed < 15, elapsed


def test_unknown_suite_and_caps():
    with pytest.raises(InstanceError) as e:
        run("foo")
    assert e.value.code == "unknown-suite"
    with pytest.raises(InstanceError) as e:
        run("monad-laws", max_size=9)
    assert e.value.code == "cap-exceeded"
    with pytest.raises(InstanceError) as e:
        run("quantale-axioms", grid=40)
    assert e.value.code == "cap-exceeded"


def test_quantale_axioms_suite_modes():
    assert run("quantale-axioms", quantale=lukasiewicz(), grid=4).passed
    assert run("quantale-axioms", quantale=minimum(), grid=4).passed
    rep = run("quantale-axioms", quantale=product(), grid=4, corpus=200)
    assert rep.passed
    assert rep.instances == 2  # sampled triples + sampled zero-divisor pairs


def test_representability_rejects_open_grid():
    with pytest.raises(InstanceError) as e:
        run("representability", quantale=product(), grid=2)
    assert e.value.code == "grid-not-closed"


def test_swept_open_grid_refused_before_any_work():
    # Q_1, Q_2 and Q_4 are closed under this tensor, Q_3 is not
    q = parse_tnorm("ordinal:0-1/2-lukasiewicz")
    for suite in ("stone-weierstrass", "enriched-roundtrip", "lemma1"):
        with pytest.raises(InstanceError) as e:
            run(suite, quantale=q, grid=4, max_size=2)
        assert e.value.code == "grid-not-closed" and "Q_3" in str(e.value)


def test_run_suite_refuses_over_cap_flags(monkeypatch, capsys):
    # a flag above a suite's cap is refused before the runner, naming the
    # suite, the flag and the cap; at the cap the config runs as asked
    ran = []
    for suite, caps in SU.SUITE_CAPS.items():
        monkeypatch.setitem(SU._RUNNERS, suite, lambda config, report: ran.append(config))
        for key, cap in caps.items():
            flag = key.replace("_", "-")
            with pytest.raises(InstanceError) as e:
                run(suite, **{key: cap + 1})
            assert e.value.code == "cap-exceeded"
            assert f"{suite} caps --{flag} at {cap}" in str(e.value)
            assert cli.main(["verify", "--suite", suite, f"--{flag}", str(cap + 1)]) == 3
            assert "cap-exceeded" in capsys.readouterr().err
        rep = run(suite, **caps)
        assert all(rep.config[key.replace("_", "-")] == cap for key, cap in caps.items())
    assert [config.suite for config in ran] == list(SU.SUITE_CAPS)
    assert run("monad-laws", max_size=4).config["max-size"] == 4


def test_every_suite_passes_at_small_defaults():
    for suite in SU.SUITES:
        kwargs = {"max_size": 2, "corpus": 30}
        rep = run(suite, **kwargs)
        assert rep.passed, (suite, rep.failures[:3])
        assert rep.exit_code() in (0, 2)


def test_determinism_byte_identical_witnesses():
    for suite in ("functoriality", "representability", "quantale-axioms"):
        a = run(suite, max_size=2, corpus=40, seed=9)
        b = run(suite, max_size=2, corpus=40, seed=9)
        assert strip_timing(emit_report(a, "json")) == strip_timing(
            emit_report(b, "json")
        )
        assert strip_timing(emit_report(a, "table")) == strip_timing(
            emit_report(b, "table")
        )


def test_report_formats_carry_same_content():
    rep = run("monad-laws", max_size=3)
    table = emit_report(rep, "table")
    blob = json.loads(emit_report(rep, "json"))
    assert f"instances: {blob['instances']}" in table
    assert f"checks: {blob['checks']}" in table
    assert blob["suite"] == "monad-laws"
    assert blob["config"]["seed"] == 0


def test_cli_pass_and_exit_codes(tmp_path, capsys):
    assert cli.main(["verify", "--suite", "monad-laws", "--max-size", "3"]) == 0
    out = capsys.readouterr().out
    assert "status: pass" in out

    assert cli.main(["verify", "--suite", "nope"]) == 3
    assert "unknown-suite" in capsys.readouterr().err

    assert (
        cli.main(["verify", "--suite", "representability", "--tnorm", "product", "--grid", "2"])
        == 3
    )
    capsys.readouterr()

    doc = tmp_path / "bad.json"
    doc.write_text('{"kind": "poset", "leq": [[1, 1], [1, 1]]}')
    assert cli.main(["verify", "--suite", "monad-laws", "--instance", str(doc)]) == 3
    assert "bad-poset" in capsys.readouterr().err


def test_cli_refuses_a_document_poset_above_the_cap(tmp_path, capsys):
    # a 6-point antichain would take monad-laws past 7 million members of
    # V(V(X)), whatever --max-size says
    m = SU.POSET_SIZE_CAP + 1
    doc = tmp_path / "antichain.json"
    leq = [[int(i == j) for j in range(m)] for i in range(m)]
    doc.write_text(json.dumps({"kind": "poset", "leq": leq}))
    argv = ["verify", "--suite", "monad-laws", "--max-size", "1", "--instance", str(doc)]
    assert cli.main(argv) == 3
    assert "[cap-exceeded] poset size capped at 5" in capsys.readouterr().err


def test_cli_refuses_an_unreadable_instance_file(tmp_path, capsys):
    # bytes that are not UTF-8 are a bad document, as invalid JSON is; a
    # missing file or a directory is unreadable; none escapes as a traceback
    argv = ["verify", "--suite", "stone-weierstrass", "--instance"]
    binary = tmp_path / "f.json"
    binary.write_bytes(b"\xff\xfe")
    cases = (
        (binary, "[bad-document] not UTF-8 text"),
        (tmp_path / "missing.json", "[unreadable-file]"),
        (tmp_path, "[unreadable-file]"),
    )
    for path, code in cases:
        assert cli.main([*argv, str(path)]) == 3, path
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {code}") and err.rstrip().endswith(str(path)), err


def test_cli_instance_file(tmp_path, capsys):
    doc = tmp_path / "vee.json"
    doc.write_text('{"kind": "poset", "leq": [[1, 0, 1], [0, 1, 1], [0, 0, 1]]}')
    code = cli.main(
        ["verify", "--suite", "monad-laws", "--instance", str(doc), "--report", "json"]
    )
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["instances"] == 1


def test_findings_only_exit_code():
    from unitcat.reports import SuiteReport

    rep = SuiteReport(suite="x", config={})
    assert rep.exit_code() == 0
    rep.findings.append("grid-truncation gap 1/2")
    assert rep.exit_code() == 2
    rep.failures.append("boom")
    assert rep.exit_code() == 1


def test_stone_suite_with_generator_instance(tmp_path, capsys):
    doc = tmp_path / "gens.json"
    doc.write_text(
        '{"kind": "generators", "tensor": "lukasiewicz", "grid": 2,'
        ' "poset": {"leq": [[1, 1], [0, 1]]},'
        ' "functions": [["1", "0"], ["1", "1"]]}'
    )
    code = cli.main(
        ["verify", "--suite", "stone-weierstrass", "--instance", str(doc), "--report", "json"]
    )
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["instances"] == 1
    # constants alone do not separate: the audit reports a finding, exit 2
    doc2 = tmp_path / "consts.json"
    doc2.write_text(
        '{"kind": "generators", "tensor": "lukasiewicz", "grid": 2,'
        ' "poset": {"leq": [[1, 1], [0, 1]]},'
        ' "functions": [["0", "0"]]}'
    )
    code = cli.main(["verify", "--suite", "stone-weierstrass", "--instance", str(doc2)])
    assert code == 2
    assert "separation hypothesis failed" in capsys.readouterr().out


def test_cli_ordinal_tnorm(capsys):
    code = cli.main(
        [
            "verify",
            "--suite",
            "quantale-axioms",
            "--tnorm",
            "ordinal:0-1/2-lukasiewicz,1/2-1-product",
            "--corpus",
            "100",
        ]
    )
    assert code == 0
    capsys.readouterr()


def test_enriched_roundtrip_where_minus_leaves_the_space():
    ordinal = parse_tnorm("ordinal:0-1/2-lukasiewicz")
    for q, grid in ((minimum(), 2), (minimum(), 3), (ordinal, 2)):
        rep = run("enriched-roundtrip", quantale=q, grid=grid, max_size=2)
        assert rep.exit_code() == 0 and not rep.findings, rep.failures[:3]


def test_representability_exhaustive_through_size_three():
    for q in (lukasiewicz(), minimum()):
        rep = run("representability", quantale=q, grid=2, max_size=3)
        assert rep.exit_code() == 0 and rep.instances == 1 + 3 + 19
        # one note per poset, each "[poset s.k] exhaustive scan of ..."
        assert len(rep.notes) == rep.instances
        assert all(
            note.split("] ", 1)[1].startswith("exhaustive scan of") for note in rep.notes
        )


def test_cli_refuses_bad_numeric_flags(capsys):
    for args in (
        ["--suite", "representability", "--grid", "0"],
        ["--suite", "quantale-axioms", "--tnorm", "product", "--corpus", "-4"],
        ["--suite", "monad-laws", "--max-size", "0"],
    ):
        assert cli.main(["verify", *args]) == 3, args
        assert "[bad-config]" in capsys.readouterr().err, args


def test_cli_refuses_an_empty_sample_on_an_open_grid(capsys):
    argv = ["verify", "--suite", "quantale-axioms", "--corpus", "0"]
    assert cli.main([*argv, "--tnorm", "product"]) == 3
    assert "[bad-config]" in capsys.readouterr().err
    # closed grids are swept exhaustively and never read --corpus
    assert cli.main([*argv, "--tnorm", "lukasiewicz"]) == 0


def test_cli_refuses_documents_a_suite_does_not_read(tmp_path, capsys):
    vcat_doc = (
        '{"kind": "vcategory", "tensor": "lukasiewicz",'
        ' "matrix": [["1", "1/2"], ["0", "1"]]}'
    )
    dist_doc = (
        '{"kind": "distributor", "src": [[1, 1], [0, 1]], "dst": [[1]],'
        ' "matrix": [["1"], ["1"]]}'
    )
    poset_doc = '{"kind": "poset", "leq": [[1, 1], [0, 1]]}'
    # no suite reads category or distributor documents: they are no kind
    for suite, text, code in (
        ("enriched-roundtrip", vcat_doc, "unknown-kind"),
        ("representability", dist_doc, "unknown-kind"),
        ("total-partial", poset_doc, "unsupported-document"),
    ):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        assert cli.main(["verify", "--suite", suite, "--instance", str(doc)]) == 3, suite
        assert f"[{code}]" in capsys.readouterr().err, suite


def test_cli_refuses_a_document_for_another_tensor_or_grid(tmp_path, capsys):
    poset_doc = tmp_path / "poset.json"
    poset_doc.write_text('{"kind": "poset", "tensor": "min", "grid": 3, "leq": [[1, 1], [0, 1]]}')
    gens_doc = tmp_path / "gens.json"
    gens_doc.write_text(
        '{"kind": "generators", "tensor": "lukasiewicz", "grid": 4,'
        ' "poset": {"leq": [[1, 1], [0, 1]]}, "functions": [["1", "0"]]}'
    )
    for suite, doc in (("representability", poset_doc), ("stone-weierstrass", gens_doc)):
        argv = ["verify", "--suite", suite, "--tnorm", "lukasiewicz", "--grid", "2"]
        assert cli.main([*argv, "--instance", str(doc)]) == 3, suite
        assert "[document-mismatch]" in capsys.readouterr().err, suite
    # the same documents run when the flags agree with them
    argv = ["verify", "--suite", "representability", "--tnorm", "min", "--grid", "3"]
    assert cli.main([*argv, "--instance", str(poset_doc)]) == 0
    capsys.readouterr()
    argv = ["verify", "--suite", "stone-weierstrass", "--grid", "4", "--report", "json"]
    assert cli.main([*argv, "--instance", str(gens_doc)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["grid"] == 4
