"""The memory-model registry, its lattice, and the conformance check.

Every battery and generated case is judged under every registered
model; allowed-outcome monotonicity must hold along every (transitive)
lattice edge, the axiomatic engine must agree with the operational
machines, and the classic WMM-vs-x86 witnesses must be confirmed by
both formalizations.
"""

import json

import pytest

from repro.cli import main
from repro.litmus import operational
from repro.litmus.battery import EXTRA_CASES
from repro.litmus.generated import GENERATED_CASES
from repro.litmus.operational import MODELS, enumerate_outcomes
from repro.litmus.tests import ALL_CASES, N6
from repro.models import (MODEL_ORDER, REGISTRY, get_model, lattice_edges,
                          declared_edges, model_names, model_table)
from repro.models.conformance import battery_corpus, check, random_corpus
from repro.models.lattice import containment_violations

_CORPUS = ALL_CASES + EXTRA_CASES + GENERATED_CASES
_IDS = [case.program.name for case in _CORPUS]


class TestRegistry:
    def test_five_models_registered(self):
        assert MODEL_ORDER == ("SC", "370", "x86", "PC", "WMM")
        assert set(REGISTRY) == set(MODEL_ORDER)

    def test_operational_models_come_from_the_registry(self):
        # litmus.operational.MODELS and the registry must agree — one
        # namespace for every model-by-name lookup in the tree.
        assert tuple(MODELS) == model_names()

    def test_get_model_roundtrip(self):
        for name in model_names():
            assert get_model(name).name == name

    def test_get_model_unknown_name(self):
        with pytest.raises(ValueError, match="registered models"):
            get_model("ARMv8")

    def test_axiomatic_names_skip_pc(self):
        assert model_names(axiomatic_only=True) == \
            ("SC", "370", "x86", "WMM")
        assert get_model("PC").axiomatic is None

    def test_model_table_covers_every_model(self):
        rows = model_table()
        assert [row[0] for row in rows] == list(MODEL_ORDER)
        for row in rows:
            assert all(isinstance(cell, str) and cell for cell in row)

    def test_wmm_carries_both_formalizations(self):
        wmm = get_model("WMM")
        assert wmm.axiomatic is not None
        assert wmm.enumerate  # operational factory present


class TestLattice:
    def test_declared_edges_are_immediate_parents(self):
        assert set(declared_edges()) == {
            ("SC", "370"), ("370", "x86"), ("x86", "PC"),
            ("PC", "WMM"), ("x86", "WMM")}

    def test_transitive_closure(self):
        edges = set(lattice_edges())
        assert ("SC", "WMM") in edges
        assert ("SC", "x86") in edges
        assert ("370", "PC") in edges
        # Never reflexive or inverted.
        assert all(s != w for s, w in edges)
        assert ("WMM", "SC") not in edges

    @pytest.mark.parametrize("case", _CORPUS, ids=_IDS)
    def test_monotone_along_every_edge(self, case):
        sets = {model: enumerate_outcomes(case.program, model)
                for model in model_names()}
        assert containment_violations(sets, case.program.name) == []

    def test_full_corpus_report(self):
        assert battery_corpus() == list(_CORPUS)
        report = check(case.program for case in battery_corpus())
        assert report.ok, "\n".join(report.problems)
        assert report.programs_checked == len(_CORPUS)
        assert report.edges == lattice_edges()


class TestConformance:
    def test_disagreement_is_reported_with_its_chain(self, monkeypatch):
        # A machine that forwards under 370 admits the n6 witness, which
        # the axioms forbid: the check must name it and render the rfi
        # chain behind the axiomatic verdict.
        real = enumerate_outcomes

        def forwarding_370(program, model):
            return real(program, "x86" if model == "370" else model)

        monkeypatch.setattr(operational, "enumerate_outcomes",
                            forwarding_370)
        report = check([N6])
        assert not report.ok
        [program] = report.programs
        assert list(program.disagreements) == ["370"]
        [mismatch] = program.mismatches
        assert mismatch.startswith("n6: operational allows [")
        assert "which axiomatic forbids under 370" in mismatch
        assert "--rfi-->" in mismatch
        assert report.problems == [mismatch]
        assert program.to_dict()["agree"] is False

    def test_empty_corpus_is_not_ok(self):
        assert not check([]).ok

    def test_random_corpus_is_seeded(self):
        first = random_corpus(5, 3, allow_rmws=True)
        again = random_corpus(5, 3, allow_rmws=True)
        assert [p.threads for p in first] == [p.threads for p in again]
        assert [p.name for p in first] == [f"random-3-{i}"
                                           for i in range(5)]


class TestZooCli:
    def test_zoo_json_report(self, tmp_path, capsys):
        path = tmp_path / "zoo.json"
        assert main(["zoo", "--random", "5", "--seed", "0",
                     "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        lattice = report["lattice"]
        assert lattice["ok"] and lattice["programs_checked"] == 27
        edges = {tuple(edge) for edge in lattice["edges"]}
        assert len(edges) == 10
        assert ("SC", "WMM") in edges and ("x86", "PC") in edges
        randoms = report["random"]
        assert randoms["programs"] == 5 and len(randoms["reports"]) == 5
        assert all(doc["agree"] for doc in randoms["reports"])
        assert [m["name"] for m in report["models"]] == \
            ["SC", "370", "x86", "PC", "WMM"]
        out = capsys.readouterr().out
        assert "27 programs" in out and "0 disagreements" in out


class TestWmmWitnesses:
    """The registry's weakest member must be observably weaker than
    x86 — on at least two classic programs, in both formalizations."""

    WITNESSES = [case for case in _CORPUS
                 if case.expected_dict().get("WMM") is True
                 and case.expected_dict().get("x86") is False]

    def test_at_least_two_wmm_only_cases(self):
        names = {case.program.name for case in self.WITNESSES}
        assert {"mp", "iriw"} <= names
        assert len(names) >= 2

    @pytest.mark.parametrize(
        "case", WITNESSES, ids=[c.program.name for c in WITNESSES])
    def test_witness_confirmed_by_all_three_oracles(self, case):
        from repro.litmus.operational import matching_outcomes
        report = check([case.program])
        assert report.ok, "\n".join(report.problems)
        witness = case.witness_dict()
        assert matching_outcomes(case.program, "WMM", **witness)
        assert not matching_outcomes(case.program, "x86", **witness)
