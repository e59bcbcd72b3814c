"""Command-line behavior: formats, exit codes, determinism, batch isolation."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from conftest import tightest_covers
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollfiber import (
    Facet,
    InternalError,
    ScrollSpec,
    VerificationError,
    cli,
    dual_quotients,
    enumerate_facets,
    facet_complex,
    facet_tree,
    invariants,
    leaves_profile,
    oracle,
    predict_LG,
    rank_blocks,
)
from scrollfiber.cli import ReportEnvelope, _build_parser, cmd_batch, main


HUGE = "99999999999999999999"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(capsys, *argv):
    """(exit code, stdout, stderr) of a command line that argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _add_crossing_interval(spec, masks, groups):
    """A facet that holds (1, 3) gains (2, 4), which crosses it."""
    grid = facet_complex._grid(spec)
    return next(r for r, m in enumerate(masks) if m & grid[1][3]), grid[2][4]


def _add_unit_off_the_leaves(spec, masks, groups):
    """The first facet gains a unit outside its group's leaf set; a unit is
    good for a group only when it is one of its leaves."""
    leaves = leaves_profile(spec, next(iter(groups))).leaves
    u = next(u for u in range(1, spec.c) if (u, u + 1) not in leaves)
    return 0, facet_complex._grid(spec)[u][u + 1]


def _doctored_six():
    """A fresh (6,) with a true generator cleared from the kept prediction
    of one facet with the most generators: the spec, its facets and that
    facet's rank.  Certification fails without raising."""
    spec = ScrollSpec((6,))
    facets = enumerate_facets(spec)
    rank = max(range(len(facets)), key=lambda r: len(predict_LG(facets[r])))
    cleared = facet_complex._mask(spec, [min(predict_LG(facets[rank]))])
    masks, _, packed = dual_quotients._enumerated(spec)
    width = len(packed) // len(masks)
    cell = slice(rank * width, (rank + 1) * width)
    packed[cell] = (int.from_bytes(packed[cell], "little") & ~cleared).to_bytes(width, "little")
    return spec, facets, rank


class TestInvariantsCommand:
    def test_small_gorenstein_example(self, capsys):
        code, out, _ = run(capsys, "invariants", "--n", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["invariants"]["gorenstein"] is True
        assert payload["invariants"]["reg"] == 3
        assert payload["verification"]["passed"] is True

    def test_large_reference_example(self, capsys):
        code, out, _ = run(capsys, "invariants", "--n", "2,2,4,4", "--format", "json")
        assert code == 0
        inv = json.loads(out)["invariants"]
        assert inv["reg"] == 8
        assert inv["a_invariant"] == -8
        assert inv["gorenstein"] is False
        assert inv["closed_form_match"] is True

    def test_prediction_only_exit(self, capsys):
        code, out, _ = run(capsys, "invariants", "--n", "1,1,1", "--format", "json")
        assert code == 3
        payload = json.loads(out)
        assert payload["mode"] == "prediction-only"
        assert payload["invariants"]["reg"] == 0

    def test_unsorted_input_is_normalized_with_notice(self, capsys):
        code, out, err = run(capsys, "invariants", "--n", "4,2", "--format", "json")
        assert code == 0
        assert "reordered" in err
        payload = json.loads(out)
        assert payload["spec"]["n"] == [2, 4]
        assert payload["spec"]["normalized"] is True

    def test_invalid_n_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "invariants", "--n", "2,x")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("text", ["1_2", "+5", "\u0665", "2,\uff14", "2,4_0"])
    def test_only_ascii_decimal_degrees_parse(self, capsys, text):
        # int() alone takes each of these, and 1_2 would be computed as (12,).
        expected = (2, "", f"error: cannot parse block degrees from {text!r}\n")
        assert run(capsys, "invariants", "--n", text) == expected

    def test_spaces_and_signs_around_degrees(self, capsys):
        code, out, _ = run(capsys, "invariants", "--n", " 4 , 2 ", "--format", "csv")
        assert (code, out.splitlines()[1]) == (0, "6,2,28,4,-4,true,true")
        code, out, err = run(capsys, "invariants", "--n", "2,-3")
        assert (code, out) == (2, "")
        assert err == "error: block degrees must be positive integers: '2,-3'\n"

    def test_json_round_trips(self, capsys):
        _, out, _ = run(capsys, "invariants", "--n", "5", "--format", "json")
        envelope = ReportEnvelope(**json.loads(out))
        assert envelope.to_json() == out

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "invariants", "--n", "1,5", "--format", "json")
        _, second, _ = run(capsys, "invariants", "--n", "1,5", "--format", "json")
        assert first == second

    def test_a_doctored_prediction_reports_its_facet_and_no_invariants(
        self, capsys, monkeypatch
    ):
        spec, facets, rank = _doctored_six()
        with pytest.raises(VerificationError, match=r"certification failed for \(6\)"):
            invariants.full_report(spec)
        monkeypatch.setattr(cli, "ScrollSpec", lambda n: spec)
        code, out, err = run(capsys, "invariants", "--n", "6", "--format", "json")
        payload = json.loads(out)
        assert (code, err) == (1, "")
        assert payload["error"] == "linear-quotients certification failed for (6)"
        assert (payload["mode"], payload["invariants"]) == ("computed", None)
        verification = payload["verification"]
        assert (verification["passed"], verification["facets"]) == (False, 32)
        assert verification["failure_count"] == 1
        assert verification["failures"][0]["vertices"] == sorted(
            list(v) for v in facets[rank].vertices
        )
        _, text, _ = run(capsys, "invariants", "--n", "6")
        assert "linear quotients: FAIL (1 facets) over 32 facets" in text.splitlines()

    def test_timings_only_on_request_with_every_stage(self, capsys):
        _, plain, _ = run(capsys, "invariants", "--n", "5", "--format", "json")
        assert json.loads(plain)["timings"] is None
        _, out, _ = run(capsys, "invariants", "--n", "5", "--format", "json", "--timings")
        timings = json.loads(out)["timings"]
        assert set(timings) == {"enumerate", "certify", "total"}
        assert all(isinstance(v, float) and v >= 0 for v in timings.values())

    def test_verify_timings_lap_certification_and_the_oracle(self, capsys):
        argv = ("verify", "--n", "2,4", "--t-max", "2", "--format", "json")
        _, plain, _ = run(capsys, *argv)
        assert json.loads(plain)["timings"] is None
        _, out, _ = run(capsys, *argv, "--timings")
        timed = json.loads(out)
        timings = timed.pop("timings")
        assert list(timings) == ["certify", "oracle", "total"]
        assert all(isinstance(v, float) and v >= 0 for v in timings.values())
        assert timings["certify"] + timings["oracle"] <= timings["total"] + 0.002
        # Apart from the timings, the report is the one without --timings.
        assert {**timed, "timings": None} == json.loads(plain)

    def test_schema_four_drops_quadratic_fallbacks(self, capsys):
        _, out, _ = run(capsys, "invariants", "--n", "2,4", "--format", "json")
        payload = json.loads(out)
        assert payload["schema_version"] == 4
        assert "quadratic_fallbacks" not in payload["verification"]
        assert payload["verification"]["facets"] == 28

    @pytest.mark.parametrize("argv", [("invariants", "--n", "5"), ("batch", "lines.txt")])
    def test_hilbert_window_is_refused(self, capsys, argv):
        # The face count covers every degree, so there is no window to set.
        code, out, err = refused(capsys, *argv, "--hilbert-window", "5")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --hilbert-window 5" in err

    @pytest.mark.parametrize("command", ["invariants", "verify"])
    @pytest.mark.parametrize(
        "mutant, message",
        [
            (_add_crossing_interval, "holds (1, 3) and (2, 4), which cross"),
            (_add_unit_off_the_leaves, "holds (1, 2), not good for its group"),
        ],
        ids=["crossing", "not-good"],
    )
    def test_an_enumerated_facet_off_the_counted_complex_exits_one(
        self, capsys, monkeypatch, command, mutant, message
    ):
        # The ridge passes still see the true facets; only the check that
        # the enumerated complex lies in the counted one reads the mutant,
        # through the index that the check builds.
        spec = ScrollSpec((5,))
        groups = dual_quotients._enumerated(spec)[1]
        real = dual_quotients._bitset_index

        def with_extra_vertex(masks):
            rank, bit = mutant(spec, masks, groups)
            rows = real(masks)
            rows[bit.bit_length() - 1] |= 1 << rank
            return rows

        monkeypatch.setattr(dual_quotients, "_bitset_index", with_extra_vertex)
        code, out, _ = run(capsys, command, "--n", "5", "--format", "json")
        assert code == 1
        assert message in json.loads(out)["error"]

    @pytest.mark.parametrize("command", ["invariants", "verify"])
    @pytest.mark.parametrize(
        "perturb, message",
        [
            (lambda f: f[:-1] + (f[-1] + 1,), "the faces of (5) give h ="),
            (lambda f: f + (1,), "the faces of (5) come in 7 sizes, not 6"),
        ],
        ids=["facet-size", "above-facet-size"],
    )
    def test_a_face_count_off_at_or_above_the_facet_size_exits_one(
        self, capsys, monkeypatch, command, perturb, message
    ):
        # (5,) has facet size c + d = 6: only a comparison at degree 6 or
        # above sees the first change, and the h-vector has no size 7.
        real = dual_quotients._face_vector

        def perturbed(spec):
            f = real(spec)
            assert len(f) == spec.c + spec.d
            return perturb(f)

        monkeypatch.setattr(dual_quotients, "_face_vector", perturbed)
        code, out, _ = run(capsys, command, "--n", "5", "--format", "json")
        assert code == 1
        assert message in json.loads(out)["error"]

    @pytest.mark.parametrize("command", ["invariants", "verify"])
    def test_a_failed_identity_over_the_scan_budget_exits_one(self, capsys, monkeypatch, command):
        # (5,) has 10 facets; with a budget of 9 the failed identity is
        # reported with both h-vectors and the scan never runs.
        real = dual_quotients._face_vector

        def no_scan(spec, mutation):
            raise AssertionError("the diagnostic scan ran over its budget")

        monkeypatch.setattr(
            dual_quotients, "_face_vector", lambda spec: real(spec)[:-1] + (real(spec)[-1] + 1,)
        )
        monkeypatch.setattr(dual_quotients, "MAX_SCANNED_FACETS", 9)
        monkeypatch.setattr(dual_quotients, "_scanned", no_scan)
        code, out, _ = run(capsys, command, "--n", "5", "--format", "json")
        assert code == 1
        error = json.loads(out)["error"]
        assert error.startswith("the faces of (5) give h = (")
        assert error.endswith("its 10 facets are over the diagnostic scan's budget of 9")

    def test_one_incidence_index_per_spec_on_every_command(self, monkeypatch):
        # invariants, verify and verify under both kinds of rule mutation
        # read one incidence index, transposed once per spec object.
        calls = []
        real = facet_complex._bitset_index

        def counted(masks):
            calls.append(len(masks))
            return real(masks)

        for module in (facet_complex, dual_quotients, invariants):
            if hasattr(module, "_bitset_index"):
                monkeypatch.setattr(module, "_bitset_index", counted)
        spec = ScrollSpec((2, 4))
        codes = [cli.cmd_invariants(spec, False)[1]] + [
            cli.cmd_verify(spec, False, 2, oracle.DEFAULT_MODULUS, mutation)[1]
            for mutation in (None, "swap-groups", "c2")
        ]
        assert codes == [0, 0, 1, 1]
        assert calls == [28]

    def test_facet_budget_guard(self, capsys):
        started = time.perf_counter()
        code, out, err = run(capsys, "invariants", "--n", "20")
        assert time.perf_counter() - started < 5
        assert code == 2
        assert out == ""
        assert "1,048,194 facets" in err and "1,000,000" in err

    def test_counting_budget_guard(self, capsys):
        # c - d - 2 >= 2**63 for the 20-digit degree; c = 99999999999 would
        # build its c-column matrix if alpha were validated first.
        invocations = [("invariants", "--n", n) for n in ("120", "1100", HUGE)] + [
            ("verify", "--n", HUGE, "--t-max", "0"),
            ("facets", "--n", HUGE),
            ("facets", "--n", "99999999999", "--alpha", "1"),
        ]
        for argv in invocations:
            started = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - started < 2
            assert code == 2
            assert out == ""
            assert "counting budget of 1,000,000 steps" in err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "invariants", "--n", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c,d,facets,reg,a,gorenstein,pass"
        assert lines[1] == "5,1,10,3,-3,true,true"


class TestVerifyCommand:
    def test_passes_on_small_specs(self, capsys):
        assert run(capsys, "verify", "--n", "5", "--t-max", "4")[0] == 0
        assert run(capsys, "verify", "--n", "2,2,2,2", "--t-max", "3")[0] == 0

    def test_rational_modulus(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "5", "--t-max", "2", "--modulus", "rational",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["oracle"]["modulus"] == "rational"

    def test_largest_admissible_prime_modulus(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "5", "--t-max", "2", "--modulus", "2147483647",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["oracle"]["rows"]
        assert rows == [[0, 1, 1, True], [1, 10, 10, True], [2, 49, 49, True]]

    def test_json_lists_the_blocks_of_each_degree(self, capsys):
        _, out, _ = run(capsys, "verify", "--n", "5", "--t-max", "2", "--format", "json")
        payload = json.loads(out)["oracle"]
        assert payload["rows"] == [[0, 1, 1, True], [1, 10, 10, True], [2, 49, 49, True]]
        assert payload["blocks"] == [[1, 7, 2], [2, 13, 9]]
        spec = ScrollSpec((5,))
        for t, count, largest in payload["blocks"]:
            sizes = [len(block.rows) for block in rank_blocks(spec, t)]
            assert [count, largest] == [len(sizes), max(sizes)]

    def test_composite_modulus_is_a_usage_error(self, capsys):
        for modulus in ("4", "2147483646"):
            code, out, err = run(
                capsys, "verify", "--n", "5", "--t-max", "2", "--modulus", modulus
            )
            assert code == 2
            assert out == ""
            assert "prime" in err

    def test_verify_envelope_round_trips(self, capsys):
        _, out, _ = run(capsys, "verify", "--n", "5", "--format", "json")
        envelope = ReportEnvelope(**json.loads(out))
        assert envelope.to_json() == out

    def test_mutated_rule_fails_with_named_facets(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "2,4", "--mutate-rule", "c2", "--format", "json"
        )
        assert code == 1
        verification = json.loads(out)["verification"]
        assert verification["passed"] is False
        assert verification["failure_count"] > 0
        assert verification["failures"][0]["vertices"]

    @pytest.mark.parametrize("mutation", ["b2", "swap-groups"])
    def test_other_mutated_rules_fail_with_named_facets(self, capsys, mutation):
        code, out, _ = run(
            capsys, "verify", "--n", "2,4", "--mutate-rule", mutation, "--format", "json"
        )
        assert code == 1
        verification = json.loads(out)["verification"]
        assert verification["passed"] is False
        assert verification["failure_count"] > 0
        assert all(failure["vertices"] for failure in verification["failures"])

    @pytest.mark.parametrize("mutation", ["c2", "b2", "swap-groups"])
    def test_a_mutated_rule_certifies_once(self, monkeypatch, mutation):
        # The oracle reads the face DP, so only the mutated order is certified.
        calls = []
        real = dual_quotients._certify

        def counted(spec, rule):
            calls.append(rule)
            return real(spec, rule)

        monkeypatch.setattr(dual_quotients, "_certify", counted)
        envelope, code = cli.cmd_verify(
            ScrollSpec((2, 4)), False, 2, oracle.DEFAULT_MODULUS, mutation
        )
        assert (code, calls) == (1, [mutation])
        assert envelope.verification["passed"] is False
        assert envelope.oracle["passed"] is True

    def test_a_doctored_prediction_reports_its_facet_and_the_oracle(self, capsys, monkeypatch):
        # Certification fails without raising, and the report names the
        # doctored facet next to the oracle rows.
        spec, facets, rank = _doctored_six()
        monkeypatch.setattr(cli, "ScrollSpec", lambda n: spec)
        code, out, _ = run(capsys, "verify", "--n", "6", "--format", "json")
        payload = json.loads(out)
        assert (code, payload["error"]) == (1, None)
        verification, orc = payload["verification"], payload["oracle"]
        assert (verification["passed"], verification["failure_count"]) == (False, 1)
        assert verification["failures"][0]["vertices"] == sorted(
            list(v) for v in facets[rank].vertices
        )
        assert orc["passed"] is True
        assert [row[0] for row in orc["rows"]] == [0, 1, 2, 3]

    def test_small_regime_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "1,1,1")
        assert code == 2
        assert "d+4" in err

    def test_row_budget_is_checked_before_any_degree(self, capsys):
        started = time.perf_counter()
        code, out, err = run(capsys, "verify", "--n", "13", "--t-max", "4")
        assert time.perf_counter() - started < 2
        assert (code, out) == (2, "")
        assert err == (
            "error: degree 4 needs 1,663,740 product rows, over the row capacity "
            "of 100,000 rows; lower the degree\n"
        )

    def test_oracle_preflight_runs_before_certification(self, capsys, monkeypatch):
        def refuse(spec, rule):
            raise AssertionError("certified before the oracle's pre-flight checks")

        monkeypatch.setattr(dual_quotients, "_certify", refuse)
        refusals = {
            ("--n", "4,4,4,4", "--t-max", "3"): (
                "error: degree 3 needs 295,240 product rows, over the row capacity "
                "of 100,000 rows; lower the degree\n"
            ),
            ("--n", "5", "--t-max", "-1"): "error: t_max must be non-negative, got -1\n",
            ("--n", "5", "--modulus", "4"): (
                "error: modulus must be 'rational' or a prime <= 2^31 - 1, got 4\n"
            ),
        }
        for argv, message in refusals.items():
            assert run(capsys, "verify", *argv) == (2, "", message)

    def test_a_spec_over_both_budgets_reports_the_row_budget(self, capsys):
        # (20,) is over the enumeration budget too, checked only when
        # certifying.
        code, out, err = run(capsys, "verify", "--n", "20", "--t-max", "3")
        assert (code, out) == (2, "")
        assert err == (
            "error: degree 3 needs 1,161,280 product rows, over the row capacity "
            "of 100,000 rows; lower the degree\n"
        )

    def test_capacity_guidance(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_PRODUCT_ROWS", 10)
        code, _, err = run(capsys, "verify", "--n", "5", "--t-max", "3")
        assert code == 2
        assert "capacity" in err


class TestFacetsCommand:
    def test_json_dump(self, capsys):
        code, out, _ = run(capsys, "facets", "--n", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 10
        assert all(len(f["vertices"]) == 6 for f in payload["facets"])

    def test_json_parents_are_tightest_covers(self, capsys):
        code, out, _ = run(capsys, "facets", "--n", "7", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == len(payload["facets"]) == 84
        for f in payload["facets"]:
            covers = tightest_covers([tuple(v) for v in f["vertices"]])
            assert f["parents"] == sorted([list(v), list(p)] for v, p in covers.items())

    def test_alpha_filter_and_limit(self, capsys):
        code, out, _ = run(
            capsys, "facets", "--n", "5", "--alpha", "2", "--limit", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 3
        assert all(f["alpha"] == 2 for f in payload["facets"])

    def test_negative_limit_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "facets", "--n", "5", "--limit", "-1")
        assert code == 2
        assert out == ""
        assert "--limit" in err

    def test_alpha_out_of_range_is_a_usage_error(self, capsys):
        for alpha in ("0", "7"):
            code, out, err = run(capsys, "facets", "--n", "5", "--alpha", alpha)
            assert code == 2
            assert out == ""
            assert "alpha must lie in [1, 2]" in err

    def test_alpha_is_checked_before_the_enumeration(self, capsys, monkeypatch):
        def refused_fold(spec, mutation):
            raise AssertionError("the enumeration ran")

        monkeypatch.setattr(dual_quotients, "_fold", refused_fold)
        code, out, err = run(capsys, "facets", "--n", "5", "--alpha", "9")
        assert (code, out) == (2, "")
        assert err == "error: alpha must lie in [1, 2], got 9\n"

    def test_a_shared_leaf_set_is_refused_with_the_enumeration(self, capsys, monkeypatch):
        # Facets of different groups differ only because their leaf sets
        # do, so every reader of the enumeration gets that check.
        real = dual_quotients.leaves_profile

        def shared(spec, alpha):
            return dataclasses.replace(real(spec, alpha), leaves=real(spec, 1).leaves)

        monkeypatch.setattr(dual_quotients, "leaves_profile", shared)
        with pytest.raises(InternalError, match=r"two groups of \(6\) share a leaf set"):
            enumerate_facets(ScrollSpec((6,)))
        code, out, err = run(capsys, "facets", "--n", "6")
        assert (code, out) == (2, "")
        assert err == "error: two groups of (6) share a leaf set\n"


def _reference_facets(spec, everything, fmt, alpha, limit):
    """``cmd_facets``'s output rendered from ``everything``, the list of
    ``enumerate_facets(spec)``."""
    facets = [f for f in everything if alpha in (None, f.alpha)]
    facets = facets[:limit] if limit else facets
    if fmt == "text":
        lines = [f"{len(facets)} facets of n=({','.join(map(str, spec.n))})"]
        lines += [f"alpha={f.alpha}  " + " ".join(f"({a},{b})" for a, b in sorted(f.vertices))
                  for f in facets]
        return "\n".join(lines) + "\n"
    payload = {
        "schema_version": cli.SCHEMA_VERSION,
        "spec": {"n": list(spec.n), "c": spec.c, "d": spec.d, "normalized": False},
        "count": len(facets),
        "facets": [
            {
                "alpha": f.alpha,
                "vertices": sorted(list(v) for v in f.vertices),
                "parents": sorted([list(v), list(p)] for v, p in facet_tree(f).parent.items()),
            }
            for f in facets
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestFacetsBuildsWhatItPrints:
    # The json of all 20,696 facets takes about 6 s; the text covers it.
    @pytest.mark.parametrize(
        "fmt, alpha, limit",
        [("text", None, 0)]
        + [(fmt, a, lim) for fmt in ("text", "json") for a, lim in ((None, 5), (3, 0), (3, 5))],
    )
    def test_builds_exactly_the_views_it_prints(self, monkeypatch, fmt, alpha, limit):
        built = []

        def counted(*args, **kwargs):
            built.append(1)
            return Facet(*args, **kwargs)

        monkeypatch.setattr(dual_quotients, "Facet", counted)
        out = cli.cmd_facets(ScrollSpec((2, 2, 4, 4)), False, fmt, alpha, limit)
        printed = json.loads(out)["count"] if fmt == "json" else len(out.splitlines()) - 1
        assert len(built) == printed == (5 if limit else 20696 if alpha is None else 5070)

    @pytest.mark.parametrize("n", [(6,), (2, 2, 4, 4)])
    def test_output_matches_the_enumeration(self, n):
        spec = ScrollSpec(n)
        everything = enumerate_facets(spec)
        above = len(everything) + 1
        for alpha in (None, *spec.alphas):
            for limit in (0, 1, 7, above):
                for fmt in ("text", "json"):
                    if fmt == "json" and n != (6,) and limit in (0, above):
                        continue  # the text format covers the whole groups
                    expected = _reference_facets(spec, everything, fmt, alpha, limit)
                    assert cli.cmd_facets(spec, False, fmt, alpha, limit) == expected


class TestBatchCommand:
    def test_equal_cd_rows_match(self, capsys, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text("5\n1,5\n2,4\n3,3\n", encoding="utf-8")
        code, out, _ = run(capsys, "batch", str(batch), "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 4
        tail = [",".join(r.split(",")[2:5]) for r in rows[1:]]
        assert len(set(tail)) == 1  # identical (facets, reg, a)

    def test_empty_file(self, capsys, tmp_path):
        batch = tmp_path / "empty.txt"
        batch.write_text("", encoding="utf-8")
        code, out, _ = run(capsys, "batch", str(batch), "--format", "csv")
        assert code == 0
        assert out.strip() == "c,d,facets,reg,a,gorenstein,pass"

    def test_malformed_line_is_isolated(self, capsys, tmp_path):
        batch = tmp_path / "mixed.txt"
        batch.write_text("5\n2,x\n3,3\n", encoding="utf-8")
        code, out, err = run(capsys, "batch", str(batch), "--format", "csv")
        assert code == 2
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3
        assert rows[1].endswith("error")
        assert rows[0].startswith("5,1")
        assert rows[2].startswith("6,2")
        assert "2,x" in err

    def test_over_budget_line_is_isolated(self, capsys, tmp_path):
        batch = tmp_path / "big.txt"
        batch.write_text("5\n20\n", encoding="utf-8")
        code, out, err = run(capsys, "batch", str(batch), "--format", "csv")
        assert code == 2
        rows = out.strip().splitlines()[1:]
        assert rows[0].startswith("5,1")
        assert rows[1] == ",,,,,,error"
        assert "1,048,194 facets" in err

    def test_over_counting_budget_line_is_isolated(self, capsys, tmp_path):
        for line in ("1100", HUGE):
            batch = tmp_path / "huge.txt"
            batch.write_text(f"5\n{line}\n6\n", encoding="utf-8")
            code, out, err = run(capsys, "batch", str(batch))
            assert code == 2
            rows = out.strip().splitlines()[1:]
            assert [row.rsplit(",", 1)[1] for row in rows] == ["true", "error", "true"]
            assert "counting budget" in err

    def test_undecodable_file_is_a_usage_error(self, capsys, tmp_path):
        batch = tmp_path / "binary.txt"
        batch.write_bytes(b"\xff\xfe5\n")
        code, out, err = run(capsys, "batch", str(batch))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read batch file {batch}")

    def test_a_leading_byte_order_mark_is_ignored(self, capsys, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(b"2,4\n5\n")
        marked.write_bytes(b"\xef\xbb\xbf2,4\n5\n")
        code, out, _ = run(capsys, "batch", str(marked))
        assert (code, out) == run(capsys, "batch", str(plain))[:2]
        assert code == 0

    def test_json_lines(self, capsys, tmp_path):
        batch = tmp_path / "two.txt"
        batch.write_text("5\n6\n", encoding="utf-8")
        code, out, _ = run(capsys, "batch", str(batch), "--format", "json")
        assert code == 0
        payloads = [json.loads(line) for line in out.strip().splitlines()]
        assert [p["spec"]["n"] for p in payloads] == [[5], [6]]

    def test_text_format_survives_bad_lines(self, capsys, tmp_path):
        batch = tmp_path / "bad.txt"
        batch.write_text("5\nnope\n", encoding="utf-8")
        code, out, _ = run(capsys, "batch", str(batch), "--format", "text")
        assert code == 2
        assert "unparsable" in out


class TestSelftest:
    def test_runs_clean(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "rational rank equals modular rank (5), t <= 3 ... ok" in out
        assert "face count equals certified h (2,2,4,4) ... ok" in out
        assert "11/11" in out


INVARIANTS_5_TEXT = """\
spec: n=(5) c=5 d=1
mode: computed
facets: 10
h-vector: 1 4 4 1
dim: 6
reg: 3
a-invariant: -3
reduction number: 3
gorenstein: true
closed-form match: true
linear quotients: pass over 10 facets
"""

PREDICTED_3_TEXT = """\
spec: n=(3) c=3 d=1
mode: prediction-only
dim: 3
reg: 0
a-invariant: -3
reduction number: 0
gorenstein: true
closed-form match: true
"""

PARSE_ERROR = "error: cannot parse block degrees from '2,x'\n"


class TestPinnedBytes:
    """The exact text and CSV reports; JSON is covered by the round trips."""

    def test_invariants_text(self, capsys):
        assert run(capsys, "invariants", "--n", "5") == (0, INVARIANTS_5_TEXT, "")

    def test_invariants_csv(self, capsys):
        expected = "c,d,facets,reg,a,gorenstein,pass\n5,1,10,3,-3,true,true\n"
        assert run(capsys, "invariants", "--n", "5", "--format", "csv") == (0, expected, "")

    def test_verify_text(self, capsys):
        expected = (
            "spec: n=(5) c=5 d=1\n"
            "mode: computed\n"
            "linear quotients: pass over 10 facets\n"
            "oracle (modulus 2147483647, t <= 2):\n"
            "  t=0: fiber=1 faces=1 ok\n"
            "  t=1: fiber=10 faces=10 ok\n"
            "  t=2: fiber=49 faces=49 ok\n"
            "oracle: pass\n"
        )
        assert run(capsys, "verify", "--n", "5", "--t-max", "2") == (0, expected, "")

    def test_facets_text(self, capsys):
        expected = (
            "10 facets of n=(5)\n"
            "alpha=2  (1,5) (2,3) (2,5) (3,4) (3,5) (4,5)\n"
            "alpha=2  (1,5) (2,3) (2,4) (2,5) (3,4) (4,5)\n"
            "alpha=2  (1,4) (1,5) (2,3) (2,4) (3,4) (4,5)\n"
            "alpha=2  (1,3) (1,5) (2,3) (3,4) (3,5) (4,5)\n"
            "alpha=2  (1,3) (1,4) (1,5) (2,3) (3,4) (4,5)\n"
            "alpha=1  (1,2) (1,5) (2,3) (2,5) (3,4) (3,5)\n"
            "alpha=1  (1,2) (1,5) (2,3) (2,4) (2,5) (3,4)\n"
            "alpha=1  (1,2) (1,4) (1,5) (2,3) (2,4) (3,4)\n"
            "alpha=1  (1,2) (1,3) (1,5) (2,3) (3,4) (3,5)\n"
            "alpha=1  (1,2) (1,3) (1,4) (1,5) (2,3) (3,4)\n"
        )
        assert run(capsys, "facets", "--n", "5") == (0, expected, "")

    def test_batch_csv(self, capsys, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text("5\n2,x\n3\n", encoding="utf-8")
        expected = (
            "c,d,facets,reg,a,gorenstein,pass\n"
            "5,1,10,3,-3,true,true\n"
            ",,,,,,error\n"
            "3,1,,0,-3,true,prediction-only\n"
        )
        assert run(capsys, "batch", str(batch)) == (2, expected, PARSE_ERROR)

    def test_batch_text(self, capsys, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text("5\n2,x\n3\n", encoding="utf-8")
        expected = (
            INVARIANTS_5_TEXT
            + "spec: unparsable input '2,x'\n"
            + "mode: error\n"
            + PARSE_ERROR
            + PREDICTED_3_TEXT
        )
        assert run(capsys, "batch", str(batch), "--format", "text") == (2, expected, PARSE_ERROR)


REPEATS = "12\n2,10\n12\n4,2\n2,4\n3\n20\n20\n"
BUDGET_ERROR = (
    "(20) has 1,048,194 facets, over the enumeration budget of 1,000,000 facets; "
    "choose a smaller scroll type"
)
INVARIANTS = {
    (12,): {
        "a_invariant": -7, "c": 12, "closed_form_match": True, "d": 1, "dim": 13,
        "facet_count": 3962, "gorenstein": False, "h_vector": [1, 53, 606, 1716, 1287, 286, 13],
        "mode": "computed", "reduction_number": 6, "reg": 6,
    },
    (2, 10): {
        "a_invariant": -7, "c": 12, "closed_form_match": True, "d": 2, "dim": 14,
        "facet_count": 7384, "gorenstein": False,
        "h_vector": [1, 52, 673, 2562, 3003, 1001, 91, 1],
        "mode": "computed", "reduction_number": 7, "reg": 7,
    },
    (2, 4): {
        "a_invariant": -4, "c": 6, "closed_form_match": True, "d": 2, "dim": 8,
        "facet_count": 28, "gorenstein": True, "h_vector": [1, 7, 12, 7, 1],
        "mode": "computed", "reduction_number": 4, "reg": 4,
    },
    (3,): {
        "a_invariant": -3, "c": 3, "closed_form_match": True, "d": 1, "dim": 3,
        "facet_count": None, "gorenstein": True, "h_vector": None,
        "mode": "prediction-only", "reduction_number": 0, "reg": 0,
    },
}


def _repeats_json() -> str:
    """The batch's JSON lines, one record per input line of ``REPEATS``."""
    lines = []
    for line in REPEATS.split():
        n = tuple(sorted(map(int, line.split(","))))
        inv = INVARIANTS.get(n)
        record = {
            "error": None if inv else BUDGET_ERROR,
            "invariants": inv,
            "mode": inv["mode"] if inv else "error",
            "oracle": None,
            "schema_version": 4,
            "spec": {"c": sum(n), "d": len(n), "n": list(n), "normalized": line == "4,2"},
            "timings": None,
            "tool": {"name": "scrollfiber", "version": "0.1.0"},
            "verification": None,
        }
        if inv and inv["mode"] == "computed":
            record["verification"] = {
                "facets": inv["facet_count"], "failure_count": 0, "failures": [],
                "mode": "indexed", "mutation": None, "passed": True,
            }
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines)


def _invariants_text(n: tuple[int, ...], normalized: bool = False) -> str:
    inv = INVARIANTS[n]
    return (
        f"spec: n=({','.join(map(str, n))}) c={inv['c']} d={inv['d']}\n"
        + ("note: block degrees were reordered non-decreasingly\n" if normalized else "")
        + f"mode: computed\nfacets: {inv['facet_count']}\n"
        + f"h-vector: {' '.join(map(str, inv['h_vector']))}\n"
        + f"dim: {inv['dim']}\nreg: {inv['reg']}\na-invariant: {inv['a_invariant']}\n"
        + f"reduction number: {inv['reduction_number']}\n"
        + f"gorenstein: {'true' if inv['gorenstein'] else 'false'}\nclosed-form match: true\n"
        + f"linear quotients: pass over {inv['facet_count']} facets\n"
    )


class TestBatchReuse:
    """A scroll type repeated in one batch, verbatim or reordered, is computed
    once; every line still gets its own report, pinned to the bytes that
    computing each line afresh prints."""

    @pytest.fixture
    def batch(self, tmp_path):
        path = tmp_path / "repeats.txt"
        path.write_text(REPEATS, encoding="utf-8")
        return str(path)

    def test_each_distinct_type_is_computed_once(self, monkeypatch, batch):
        computed = []

        def counted(spec, normalized):
            computed.append(spec.n)
            return cmd_invariants(spec, normalized)

        cmd_invariants = cli.cmd_invariants
        monkeypatch.setattr(cli, "cmd_invariants", counted)
        envelopes, code = cmd_batch(batch)
        assert computed == [(12,), (2, 10), (2, 4), (3,), (20,)]
        assert code == 2
        assert len({id(e) for e in envelopes}) == len(envelopes) == 8
        assert len({id(e.spec) for e in envelopes}) == 8

    def test_normalized_flag_is_per_line(self, batch):
        envelopes, _ = cmd_batch(batch)
        reordered, verbatim = envelopes[3], envelopes[4]
        assert reordered.spec == {"n": [2, 4], "c": 6, "d": 2, "normalized": True}
        assert verbatim.spec == {"n": [2, 4], "c": 6, "d": 2, "normalized": False}
        assert reordered.invariants == verbatim.invariants
        assert reordered.invariants["h_vector"] == (1, 7, 12, 7, 1)
        assert reordered.verification == verbatim.verification

    def test_csv(self, capsys, batch):
        expected = (
            "c,d,facets,reg,a,gorenstein,pass\n"
            "12,1,3962,6,-7,false,true\n"
            "12,2,7384,7,-7,false,true\n"
            "12,1,3962,6,-7,false,true\n"
            "6,2,28,4,-4,true,true\n"
            "6,2,28,4,-4,true,true\n"
            "3,1,,0,-3,true,prediction-only\n"
            ",,,,,,error\n"
            ",,,,,,error\n"
        )
        errors = f"error: {BUDGET_ERROR}\n" * 2
        assert run(capsys, "batch", batch) == (2, expected, errors)

    def test_json(self, capsys, batch):
        errors = f"error: {BUDGET_ERROR}\n" * 2
        assert run(capsys, "batch", batch, "--format", "json") == (2, _repeats_json(), errors)

    def test_text(self, capsys, batch):
        over_budget = f"spec: n=(20) c=20 d=1\nmode: error\nerror: {BUDGET_ERROR}\n"
        expected = (
            _invariants_text((12,))
            + _invariants_text((2, 10))
            + _invariants_text((12,))
            + _invariants_text((2, 4), normalized=True)
            + _invariants_text((2, 4))
            + PREDICTED_3_TEXT
            + over_budget * 2
        )
        errors = f"error: {BUDGET_ERROR}\n" * 2
        assert run(capsys, "batch", batch, "--format", "text") == (2, expected, errors)

    def test_typos_are_not_taken_for_a_computed_type(self, capsys, tmp_path):
        batch = tmp_path / "typos.txt"
        batch.write_text("5\n+5\n0_5\n", encoding="utf-8")
        code, out, err = run(capsys, "batch", str(batch))
        assert code == 2
        assert out.splitlines()[1:] == ["5,1,10,3,-3,true,true", ",,,,,,error", ",,,,,,error"]
        assert err == (
            "error: cannot parse block degrees from '+5'\n"
            "error: cannot parse block degrees from '0_5'\n"
        )


class TestOutputDirectory:
    def test_report_file_written(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "invariants", "--n", "5", "--format", "json",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        written = (tmp_path / "invariants-n5.json").read_text(encoding="utf-8")
        assert written == out

    def test_unwritable_directory_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        taken = tmp_path / "report"
        taken.write_text("", encoding="utf-8")
        code, out, err = run(capsys, "invariants", "--n", "5", "--out-dir", str(taken))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write the report to {taken}")
        monkeypatch.setenv("SCROLLFIBER_OUT_DIR", str(taken / "inside"))
        code, out, err = run(capsys, "invariants", "--n", "5")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write the report to {taken / 'inside'}")


class TestOptions:
    """Each subcommand accepts only the options and formats it renders."""

    OPTIONS = {
        "invariants": ["--format", "--n", "--out-dir", "--timings"],
        "verify": [
            "--format", "--modulus", "--mutate-rule", "--n", "--out-dir", "--t-max", "--timings"
        ],
        "facets": ["--alpha", "--format", "--limit", "--n", "--out-dir"],
        "batch": ["--format", "--out-dir"],
        "selftest": [],
    }

    def test_verify_refuses_csv(self, capsys):
        code, out, err = refused(capsys, "verify", "--n", "5", "--t-max", "2", "--format", "csv")
        assert (code, out) == (2, "")
        assert "argument --format: invalid choice: 'csv'" in err

    def test_facets_refuses_csv(self, capsys, tmp_path):
        code, out, err = refused(
            capsys, "facets", "--n", "5", "--format", "csv", "--out-dir", str(tmp_path)
        )
        assert (code, out) == (2, "")
        assert "argument --format: invalid choice: 'csv'" in err
        assert list(tmp_path.iterdir()) == []

    def test_invariants_refuses_csv_with_timings(self, capsys, tmp_path):
        # The csv row has no timing column, so the timings would be dropped.
        code, out, err = run(
            capsys, "invariants", "--n", "5", "--format", "csv", "--timings",
            "--out-dir", str(tmp_path),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --timings needs --format text or json")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
        code, out, _ = run(capsys, "invariants", "--n", "5", "--format", "csv")
        assert code == 0 and out.startswith("c,d,facets")

    INVALID_INT = "error: argument {option}: invalid int value: {value!r}\n"

    @pytest.mark.parametrize("value", ["1_0", "+7", "\u0667"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "--n", "5", "--t-max"), INVALID_INT),
            (("facets", "--n", "5", "--alpha"), INVALID_INT),
            (("facets", "--n", "5", "--limit"), INVALID_INT),
            (
                ("verify", "--n", "5", "--t-max", "1", "--modulus"),
                "error: modulus must be an integer or 'rational': {value!r}\n",
            ),
        ],
    )
    def test_integer_options_follow_the_n_rule(self, capsys, argv, message, value):
        # int() alone takes each value: 1_0 as 10, +7 and the Arabic-Indic
        # digit seven as 7.
        try:
            code = main([*argv, value])
        except SystemExit as exc:  # argparse refuses the value
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.endswith(message.format(option=argv[-1], value=value))

    def test_facets_refuses_timings(self, capsys):
        code, out, err = refused(capsys, "facets", "--n", "5", "--timings")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --timings" in err

    def test_options_and_formats_are_pinned(self):
        parser = _build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options, formats = {}, {}
        for name, sub in commands.choices.items():
            actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
            options[name] = sorted(o for a in actions for o in a.option_strings)
            formats.update((name, a.choices) for a in actions if "--format" in a.option_strings)
        assert options == self.OPTIONS
        assert formats == COMMAND_FORMATS


# Fuzzing main(argv): valid and garbage values for every value option, on
# scrolls with c <= 8 and degrees t <= 3 so that each call stays cheap.
GARBAGE = st.sampled_from(["", " ", "x", "-", "--", "1.5", "2,,4", "3,-1", "0", "1e2", "nan"])
BLOCK_DEGREES = (
    st.lists(st.integers(1, 8), min_size=1, max_size=4)
    .filter(lambda n: sum(n) <= 8)
    .map(lambda n: ",".join(map(str, n)))
)
OPTION_VALUES = {
    "--n": BLOCK_DEGREES,
    "--t-max": st.integers(-2, 3).map(str),
    "--modulus": st.sampled_from(["rational", "2", "3", "4", "1", "0", "-7", "2147483647"]),
    "--mutate-rule": st.sampled_from(["c2", "b2", "swap-groups"]),
    "--limit": st.integers(-2, 5).map(str),
    "--alpha": st.integers(-1, 6).map(str),
}
ONE_IN_SIX = st.sampled_from([False] * 5 + [True])
COMMAND_OPTIONS = {
    "invariants": ("--n",),
    "verify": ("--n", "--t-max", "--modulus", "--mutate-rule"),
    "facets": ("--n", "--alpha", "--limit"),
    "batch": (),
}
COMMAND_FORMATS = {
    "invariants": ("text", "json", "csv"),
    "verify": ("text", "json"),
    "facets": ("text", "json"),
    "batch": ("text", "json", "csv"),
}


@st.composite
def invocations(draw) -> tuple[list[str], list[str]]:
    """An argv (the batch file as ``{batch}``) and the batch file's lines.

    Each option is present with its valid values, or garbage about one time
    in six; ``--n`` is always present, as argparse requires it.
    """

    def value(option: str) -> str:
        return draw(GARBAGE if draw(ONE_IN_SIX) else OPTION_VALUES[option])

    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = ["no-such-command" if draw(ONE_IN_SIX) and draw(ONE_IN_SIX) else command]
    lines: list[str] = []
    if command == "batch":
        lines = [value("--n") for _ in range(draw(st.integers(0, 3)))]
        argv.append("{batch}")
    for option in COMMAND_OPTIONS[command]:
        if option == "--n" or draw(st.booleans()):
            argv += [option, value(option)]
    formats = st.sampled_from(COMMAND_FORMATS[command])
    argv += ["--format", draw(GARBAGE if draw(ONE_IN_SIX) else formats)]
    return argv, lines


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(invocations())
def test_every_invocation_has_a_defined_exit_code(invocation):
    argv, lines = invocation
    with tempfile.TemporaryDirectory() as tmp:
        batch = Path(tmp) / "batch.txt"
        batch.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        argv = [str(batch) if arg == "{batch}" else arg for arg in argv]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
    assert code in (0, 1, 2, 3)
